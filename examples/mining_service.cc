// "Mining as a service" (paper Section 1, first scenario): a company
// without data-mining expertise ships its basket data to an external
// provider. It anonymizes first. This example shows (a) the provider's
// results are *identical* to mining the original data — anonymization
// does not perturb data characteristics — and (b) how much the provider
// could nevertheless learn about the true item identities.
//
// Build & run:   cmake --build build && ./build/examples/mining_service

#include <iostream>

#include "anonymize/anonymizer.h"
#include "belief/builders.h"
#include "core/exact_formulas.h"
#include "core/oestimate.h"
#include "data/frequency.h"
#include "datagen/quest.h"
#include "mining/miner.h"
#include "util/rng.h"
#include "util/table_printer.h"

using namespace anonsafe;

namespace {

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

}  // namespace

int main() {
  // -- 1. The owner's data: a realistic synthetic basket workload.
  QuestParams params;
  params.num_items = 120;
  params.num_transactions = 4000;
  params.avg_txn_size = 9.0;
  params.num_patterns = 40;
  params.seed = 14;
  auto db = GenerateQuestDatabase(params);
  if (!db.ok()) return Fail(db.status());
  std::cout << "Owner database: " << db->DebugString() << "\n";

  // -- 2. Anonymize and ship to the provider.
  Rng rng(7);
  Anonymizer mapping = Anonymizer::Random(db->num_items(), &rng);
  auto shipped = mapping.AnonymizeDatabase(*db);
  if (!shipped.ok()) return Fail(shipped.status());

  // -- 3. Provider mines the anonymized data (never sees true ids).
  MiningOptions mining;
  mining.min_support = 0.03;
  auto provider_patterns = MineFPGrowth(*shipped, mining);
  if (!provider_patterns.ok()) return Fail(provider_patterns.status());
  std::cout << "Provider mined " << provider_patterns->size()
            << " frequent itemsets at min_support=" << mining.min_support
            << " (FP-Growth)\n";

  // -- 4. Owner maps patterns back and checks against direct mining.
  auto direct = MineApriori(*db, mining);
  if (!direct.ok()) return Fail(direct.status());
  auto recovered = mapping.DeanonymizePatterns(*provider_patterns);
  bool identical = (recovered == *direct);
  std::cout << "De-anonymized provider results match direct mining: "
            << (identical ? "YES" : "NO — BUG") << "\n";
  if (!identical) return 1;

  TablePrinter top({"itemset (original ids)", "support"});
  size_t shown = 0;
  for (auto it = recovered.rbegin(); it != recovered.rend() && shown < 5;
       ++it) {
    if (it->items.size() < 2) continue;
    top.AddRow({ItemsetToString(it->items), TablePrinter::Fmt(it->support)});
    ++shown;
  }
  std::cout << "\nSample of recovered multi-item patterns:\n"
            << top.ToString() << "\n";

  // -- 5. The flip side: what could the provider re-identify?
  auto table = FrequencyTable::Compute(*shipped);
  if (!table.ok()) return Fail(table.status());
  FrequencyGroups groups = FrequencyGroups::Build(*table);

  std::cout << "Provider-side disclosure risk (expected cracks of "
            << db->num_items() << " items):\n";
  std::cout << "  with no prior knowledge (Lemma 1):          "
            << IgnorantExpectedCracks(db->num_items()) << "\n";
  std::cout << "  knowing every frequency exactly (Lemma 3):  "
            << PointValuedExpectedCracks(groups) << "\n";

  // The provider plausibly knows ball-park frequencies of popular
  // products from public sources; the owner models that with the
  // delta_med interval belief and reads off the O-estimate.
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  if (!belief.ok()) return Fail(belief.status());
  auto oe = ComputeOEstimate(groups, *belief);
  if (!oe.ok()) return Fail(oe.status());
  std::cout << "  knowing ball-park frequency ranges (OE):    "
            << oe->expected_cracks << "\n";

  // Items of interest: the frequent items are usually the sensitive ones
  // (best sellers). Lemma 2/4-style restricted estimates:
  auto hot = FrequentItems(*db, 0.15);
  if (!hot.ok()) return Fail(hot.status());
  std::vector<bool> interest(db->num_items(), false);
  for (ItemId x : *hot) interest[x] = true;
  auto hot_oe = ComputeOEstimate(groups, *belief, {}, nullptr, &interest);
  if (!hot_oe.ok()) return Fail(hot_oe.status());
  std::cout << "  ...restricted to the " << hot->size()
            << " best-selling items:              " << hot_oe->expected_cracks
            << "\n";
  return 0;
}
