// E13 (extension) — from compliancy to cracks: Figure 12 reports how
// *compliant* a sample-built belief function is; the owner's real
// question is how many items such a partner would actually crack. This
// bench closes that gap: for each sample size, a partner builds its
// belief from the sample (Fig. 13 procedure) and the expected cracks are
// computed by the compliance-restricted O-estimate, with an MCMC attack
// simulation overlay at selected sizes.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "belief/builders.h"
#include "bench_common.h"
#include "core/oestimate.h"
#include "data/frequency.h"
#include "data/sampling.h"
#include "graph/matching_sampler.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"

using namespace anonsafe;
using namespace anonsafe::bench;

int main() {
  PrintBanner("E13 / sample-size attack yield",
              "expected cracks achieved by a partner holding a sample");
  double scale = GetScale();
  if (std::getenv("ANONSAFE_SCALE") == nullptr) scale = 0.3;
  const bool simulate = SimulationEnabled();
  std::cout << "[dataset scale " << scale << "]\n";

  const Benchmark datasets[] = {Benchmark::kAccidents, Benchmark::kChess};
  const double fractions[] = {0.01, 0.05, 0.10, 0.25, 0.50, 0.75};
  const double sim_fractions[] = {0.10, 0.50};
  const int kReps = 5;

  CsvWriter csv({"dataset", "sample_pct", "alpha", "oe_cracks",
                 "oe_fraction", "sim_cracks"});
  for (Benchmark b : datasets) {
    auto ds = MakeDataset(b, scale, /*with_database=*/true);
    if (!ds.ok()) {
      std::cerr << ds.status() << "\n";
      return 1;
    }
    auto true_table = FrequencyTable::Compute(ds->database);
    if (!true_table.ok()) {
      std::cerr << true_table.status() << "\n";
      return 1;
    }
    FrequencyGroups observed = FrequencyGroups::Build(*true_table);
    const double n = static_cast<double>(ds->database.num_items());

    TablePrinter table({"sample %", "alpha", "OE cracks", "fraction",
                        "sim cracks"});
    Rng rng(606);
    for (double p : fractions) {
      std::vector<double> alphas, cracks;
      double sim_cracks = -1.0;
      for (int rep = 0; rep < kReps; ++rep) {
        auto sample = SampleFraction(ds->database, p, &rng);
        if (!sample.ok()) continue;
        auto belief = MakeBeliefFromSample(*sample);
        if (!belief.ok()) continue;
        auto mask = belief->ComplianceMask(*true_table);
        if (!mask.ok()) continue;
        auto alpha = belief->ComplianceFraction(*true_table);
        if (!alpha.ok()) continue;
        auto oe = ComputeOEstimate(observed, *belief, {}, nullptr, &*mask);
        if (!oe.ok()) continue;
        alphas.push_back(*alpha);
        cracks.push_back(oe->expected_cracks);

        bool do_sim =
            simulate && rep == 0 &&
            std::find(std::begin(sim_fractions), std::end(sim_fractions),
                      p) != std::end(sim_fractions);
        if (do_sim) {
          SamplerOptions sampler_options;
          sampler_options.exec.seed = 99;
          sampler_options.num_samples = 200;
          sampler_options.thinning_sweeps = 6;
          auto sampler =
              MatchingSampler::Create(observed, *belief, sampler_options);
          if (sampler.ok()) {
            std::vector<size_t> counts = sampler->SampleCrackCounts();
            double mean = 0.0;
            for (size_t c : counts) mean += static_cast<double>(c);
            sim_cracks = mean / static_cast<double>(counts.size());
          }
        }
      }
      table.AddRow({TablePrinter::Fmt(p * 100.0, 0),
                    TablePrinter::Fmt(Mean(alphas), 3),
                    TablePrinter::Fmt(Mean(cracks), 1),
                    TablePrinter::Fmt(Mean(cracks) / n, 3),
                    sim_cracks >= 0.0 ? TablePrinter::Fmt(sim_cracks, 1)
                                      : "-"});
      csv.AddRow({ds->spec.name, TablePrinter::Fmt(p * 100.0, 0),
                  TablePrinter::FmtG(Mean(alphas)),
                  TablePrinter::FmtG(Mean(cracks)),
                  TablePrinter::FmtG(Mean(cracks) / n),
                  sim_cracks >= 0.0 ? TablePrinter::FmtG(sim_cracks) : ""});
    }
    std::cout << "\n--- " << ds->spec.name << " ("
              << ds->database.DebugString() << ") ---\n"
              << table.ToString();
  }

  std::cout << "\nReading: the attack yield of \"similar data\" rises "
               "quickly with sample size,\nwith the simulated attack "
               "confirming the shape (the restricted O-estimate\nreads "
               "somewhat high under partial compliance: wrongly-guessing "
               "items displace\ncompliant ones from their true partners, "
               "an effect OE-alpha deliberately\nignores). The Fig. 12 "
               "compliancy curves translate into cracked items — an\n"
               "attack-yield curve the owner can hold against the recipe's "
               "alpha_max.\n";
  MaybeWriteCsv(csv, "sample_attack_yield");
  return 0;
}
