// E4 — Figure 11: "Varying the Degree of Compliancy".
// For CONNECT, PUMSB, ACCIDENTS and RETAIL, sweeps the degree of
// compliancy alpha from 0 to 1 and reports the alpha-restricted
// O-estimate (averaged over 5 nested random compliant subsets, the
// Lemma 10 anchoring) as a *fraction of the domain*, plus a simulated
// overlay at selected alphas. The tau = 0.1 tolerance line of the paper
// is marked by the derived alpha_max column.
//
// Shape targets from the paper: RETAIL stays below 0.02 everywhere
// (clear disclose); CONNECT crosses tau = 0.1 around alpha ~ 0.2;
// PUMSB/ACCIDENTS cross around 0.65-0.7 with super-linear curves.

#include <algorithm>
#include <iostream>
#include <vector>

#include "belief/builders.h"
#include "bench_common.h"
#include "core/alpha_sweep.h"
#include "core/oestimate.h"
#include "core/simulated.h"
#include "util/table_printer.h"

using namespace anonsafe;
using namespace anonsafe::bench;

int main() {
  PrintBanner("E4 / Figure 11",
              "O-estimate fraction vs degree of compliancy alpha");
  const double scale = GetScale();
  const bool simulate = SimulationEnabled();
  const double tau = 0.1;
  if (scale != 1.0) std::cout << "[ANONSAFE_SCALE=" << scale << "]\n";

  const Benchmark figure11[] = {Benchmark::kConnect, Benchmark::kPumsb,
                                Benchmark::kAccidents, Benchmark::kRetail};
  const std::vector<double> alphas = {0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6, 0.7, 0.8, 0.9, 1.0};
  const std::vector<double> sim_alphas = {0.2, 0.5, 0.8, 1.0};

  CsvWriter csv({"dataset", "alpha", "oe_fraction", "sim_fraction"});

  for (Benchmark b : figure11) {
    auto ds = MakeDataset(b, scale, /*with_database=*/false);
    if (!ds.ok()) {
      std::cerr << ds.status() << "\n";
      return 1;
    }
    const double n = static_cast<double>(ds->groups.num_items());
    auto base = MakeCompliantIntervalBelief(ds->table,
                                            ds->groups.MedianGap());
    if (!base.ok()) {
      std::cerr << base.status() << "\n";
      return 1;
    }
    auto sweep = AlphaCompliancySweep::Create(ds->table, *base, 5, 71);
    if (!sweep.ok()) {
      std::cerr << sweep.status() << "\n";
      return 1;
    }

    const AlphaCompliancySweep::ProbeCache cache =
        sweep->MakeProbeCache(ds->groups);

    TablePrinter table({"alpha", "OE fraction", "sim fraction",
                        "over tau=0.1?"});
    double alpha_max = 0.0;
    for (double alpha : alphas) {
      auto avg = sweep->AverageOEstimate(ds->groups, cache, alpha);
      if (!avg.ok()) {
        std::cerr << avg.status() << "\n";
        return 1;
      }
      double fraction = *avg / n;
      if (fraction <= tau) alpha_max = alpha;

      std::string sim_cell = "-";
      double sim_fraction = -1.0;
      bool do_sim = simulate && std::find(sim_alphas.begin(),
                                          sim_alphas.end(),
                                          alpha) != sim_alphas.end();
      if (do_sim) {
        // Simulate on run 0's alpha-compliant belief; count cracks of the
        // compliant items (non-compliant ones cannot be cracked anyway).
        auto belief_at = sweep->BeliefAt(0, alpha);
        if (!belief_at.ok()) {
          std::cerr << belief_at.status() << "\n";
          return 1;
        }
        AlphaCompliantBelief ab = std::move(belief_at).value();
        SimulationOptions sim_options;
        sim_options.exec.runs = 3;
        sim_options.sampler.num_samples = 250;
        sim_options.sampler.burn_in_sweeps = 150;
        sim_options.sampler.thinning_sweeps = 6;
        sim_options.exec.seed = 29;
        auto sim = SimulateExpectedCracksOfInterest(
            ds->groups, ab.belief, ab.compliant_mask, sim_options);
        if (sim.ok()) {
          sim_fraction = sim->mean / n;
          sim_cell = TablePrinter::Fmt(sim_fraction, 4);
        } else {
          sim_cell = "n/a";
        }
      }
      table.AddRow({TablePrinter::Fmt(alpha, 2),
                    TablePrinter::Fmt(fraction, 4), sim_cell,
                    fraction > tau ? "OVER" : ""});
      csv.AddRow({ds->spec.name, TablePrinter::Fmt(alpha, 2),
                  TablePrinter::FmtG(fraction),
                  sim_fraction >= 0.0 ? TablePrinter::FmtG(sim_fraction)
                                      : ""});
    }
    std::cout << "\n--- " << ds->spec.name << " (n="
              << ds->groups.num_items() << ") ---\n"
              << table.ToString() << "alpha_max at tau=0.1: ~"
              << TablePrinter::Fmt(alpha_max, 2) << "\n";
  }

  std::cout << "\nPaper targets: RETAIL never crosses the tolerance (clear "
               "disclose); CONNECT\ncrosses almost immediately (alpha_max ~ "
               "0.2, think twice); PUMSB and ACCIDENTS\ncross late "
               "(~0.65-0.7). Our stand-ins reproduce RETAIL, CONNECT and "
               "the PUMSB\nband; synthetic ACCIDENTS crosses earlier than "
               "the paper's because Figure 9's\naggregate gap statistics "
               "underdetermine how its rare items cluster — see\n"
               "EXPERIMENTS.md for the analysis.\n";
  MaybeWriteCsv(csv, "fig11_compliancy");
  return 0;
}
