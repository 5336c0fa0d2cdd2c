#ifndef ANONSAFE_ANONSAFE_H_
#define ANONSAFE_ANONSAFE_H_

/// \file
/// \brief Umbrella header for the anonsafe library.
///
/// Pulls in the whole public API. Fine for applications and examples;
/// library code should include the specific module headers instead.
///
/// Reproduction of Lakshmanan, Ng, Ramesh: "To Do or Not To Do: The
/// Dilemma of Disclosing Anonymized Data" (SIGMOD 2005). See README.md
/// for the map and DESIGN.md for the system inventory.

// Foundations.
#include "util/csv_writer.h"      // IWYU pragma: export
#include "util/json.h"            // IWYU pragma: export
#include "util/params.h"          // IWYU pragma: export
#include "util/result.h"          // IWYU pragma: export
#include "util/rng.h"             // IWYU pragma: export
#include "util/stats.h"           // IWYU pragma: export
#include "util/status.h"          // IWYU pragma: export
#include "util/table_printer.h"   // IWYU pragma: export

// Observability (metrics registry, tracing, logging, exporters).
#include "obs/export.h"           // IWYU pragma: export
#include "obs/log.h"              // IWYU pragma: export
#include "obs/metrics.h"          // IWYU pragma: export
#include "obs/scoped_timer.h"     // IWYU pragma: export
#include "obs/trace.h"            // IWYU pragma: export

// Parallel execution engine (deterministic thread pool + shared knobs).
#include "exec/exec.h"            // IWYU pragma: export
#include "exec/thread_pool.h"     // IWYU pragma: export

// Transaction data.
#include "data/database.h"        // IWYU pragma: export
#include "data/fimi_io.h"         // IWYU pragma: export
#include "data/frequency.h"       // IWYU pragma: export
#include "data/sampling.h"        // IWYU pragma: export
#include "data/types.h"           // IWYU pragma: export

// Synthetic data generation.
#include "datagen/benchmark_profiles.h"  // IWYU pragma: export
#include "datagen/profile.h"             // IWYU pragma: export
#include "datagen/quest.h"               // IWYU pragma: export

// Frequent-set mining substrate.
#include "mining/itemset.h"       // IWYU pragma: export
#include "mining/miner.h"         // IWYU pragma: export
#include "mining/rules.h"         // IWYU pragma: export

// Anonymization.
#include "anonymize/anonymizer.h"  // IWYU pragma: export
#include "anonymize/crack.h"       // IWYU pragma: export

// Belief functions (the hacker's prior knowledge).
#include "belief/belief_function.h"  // IWYU pragma: export
#include "belief/belief_io.h"        // IWYU pragma: export
#include "belief/builders.h"         // IWYU pragma: export
#include "belief/chain.h"            // IWYU pragma: export

// Consistency graphs and matching machinery.
#include "graph/bipartite_graph.h"   // IWYU pragma: export
#include "graph/consistency.h"       // IWYU pragma: export
#include "graph/edge_pruning.h"      // IWYU pragma: export
#include "graph/hopcroft_karp.h"     // IWYU pragma: export
#include "graph/matching_sampler.h"  // IWYU pragma: export
#include "graph/permanent.h"         // IWYU pragma: export

// Estimator layer: the engine kinds the recipe dispatches on, their
// provenance types, shared closed forms and the block-decomposed
// cost-based planner (docs/ESTIMATORS.md).
#include "estimator/closed_forms.h"  // IWYU pragma: export
#include "estimator/estimator.h"     // IWYU pragma: export
#include "estimator/planner.h"       // IWYU pragma: export

// Risk estimators and owner-side workflows. (The α-sweep internals in
// core/alpha_sweep.h are implementation machinery of the recipe, not part
// of the umbrella surface — include that header directly if you need it.)
#include "core/direct_method.h"    // IWYU pragma: export
#include "core/exact_formulas.h"   // IWYU pragma: export
#include "core/graph_oestimate.h"  // IWYU pragma: export
#include "core/oestimate.h"        // IWYU pragma: export
#include "core/per_item_risk.h"    // IWYU pragma: export
#include "core/recipe.h"           // IWYU pragma: export
#include "core/risk_report.h"      // IWYU pragma: export
#include "core/similarity.h"       // IWYU pragma: export
#include "core/simulated.h"        // IWYU pragma: export

// Section 8.1 relational generalization.
#include "relational/knowledge.h"     // IWYU pragma: export
#include "relational/record_table.h"  // IWYU pragma: export

// Section 8.2 itemset-level knowledge.
#include "powerset/constrained_attack.h"  // IWYU pragma: export
#include "powerset/itemset_belief.h"      // IWYU pragma: export
#include "powerset/pair_attack.h"  // IWYU pragma: export
#include "powerset/pair_belief.h"  // IWYU pragma: export
#include "powerset/support_oracle.h"      // IWYU pragma: export

// Defenses.
#include "defense/group_merge.h"  // IWYU pragma: export
#include "defense/k_anonymity.h"  // IWYU pragma: export
#include "defense/optimizer.h"    // IWYU pragma: export
#include "defense/scheme.h"       // IWYU pragma: export
#include "defense/suppression.h"  // IWYU pragma: export
#include "defense/utility.h"      // IWYU pragma: export

// Long-running risk-assessment service.
#include "serve/dataset_cache.h"    // IWYU pragma: export
#include "serve/flight_recorder.h"  // IWYU pragma: export
#include "serve/protocol.h"         // IWYU pragma: export
#include "serve/server.h"           // IWYU pragma: export
#include "serve/transport.h"        // IWYU pragma: export

#endif  // ANONSAFE_ANONSAFE_H_
