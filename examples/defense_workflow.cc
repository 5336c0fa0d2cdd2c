// The owner-side *defense* workflow: the Assess-Risk recipe says the
// anonymized data is unsafe — now what? This example walks the
// constructive follow-up implemented by the defense module:
//
//   1. assess (Fig. 8)            -> verdict: too risky
//   2. group_merge scheme Plan    -> cheapest group-merge reaching tau
//   3. scheme Apply               -> realize it on the actual data
//   4. re-assess                  -> verdict: disclose
//   5. measure the price          -> support distortion + mining fidelity
//
// Build & run:  cmake --build build && ./build/examples/defense_workflow

#include <iostream>
#include <set>

#include "core/recipe.h"
#include "data/frequency.h"
#include "datagen/profile.h"
#include "defense/scheme.h"
#include "mining/miner.h"
#include "util/rng.h"
#include "util/table_printer.h"

using namespace anonsafe;

namespace {

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

double PatternJaccard(const std::vector<FrequentItemset>& a,
                      const std::vector<FrequentItemset>& b) {
  std::set<Itemset> sa, sb;
  for (const auto& fi : a) sa.insert(fi.items);
  for (const auto& fi : b) sb.insert(fi.items);
  size_t inter = 0;
  for (const auto& s : sa) inter += sb.count(s);
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) /
                              static_cast<double>(uni);
}

}  // namespace

int main() {
  Rng rng(64);

  // A CONNECT-like dataset: almost every item has a unique frequency.
  // Gaps grow with frequency (tight at the rare end, wide at the top),
  // so a partial merge of the tight region is meaningfully cheaper than
  // flattening everything.
  std::vector<ProfileGroup> profile_groups;
  for (size_t i = 0; i < 48; ++i) {
    profile_groups.push_back(
        {static_cast<SupportCount>(40 + 3 * i + (i * i) / 3), 1});
  }
  profile_groups.push_back({1000, 4});
  auto profile = FrequencyProfile::Create(1200, profile_groups);
  if (!profile.ok()) return Fail(profile.status());
  auto db = GenerateDatabase(*profile, &rng);
  if (!db.ok()) return Fail(db.status());
  auto table = FrequencyTable::Compute(*db);
  if (!table.ok()) return Fail(table.status());
  std::cout << "Owner data: " << db->DebugString() << "\n\n";

  // -- 1. Assess.
  RecipeOptions recipe;
  recipe.tolerance = 0.15;
  auto before = AssessRisk(*table, recipe);
  if (!before.ok()) return Fail(before.status());
  std::cout << "[1] Recipe verdict on the raw data: "
            << ToString(before->decision) << "\n    " << before->Summary()
            << "\n\n";
  if (before->decision != RecipeDecision::kAlphaBound) {
    std::cout << "Data already safe; nothing to defend.\n";
    return 0;
  }

  // -- 2. Find the cheapest merge reaching the tolerance.
  const defense::DefenseScheme* scheme =
      defense::DefenseScheme::Find("group_merge");
  defense::DefenseParams defense;
  defense.Set("tolerance", recipe.tolerance);
  defense.Set("point_valued", 1.0);  // paranoid owner
  auto plan = scheme->Plan(*table, defense);
  if (!plan.ok()) return Fail(plan.status());
  std::cout << "[2] Defense plan: merge groups closer than "
            << TablePrinter::FmtG(plan->merged_gap, 3) << " -> "
            << plan->groups_before << " groups become "
            << plan->groups_after << ", touching "
            << TablePrinter::Fmt(plan->relative_distortion * 100.0, 2)
            << "% of occurrences (" << plan->l1_distortion
            << " edits)\n\n";

  // -- 3. Apply it to the transactions.
  auto defended = scheme->Apply(*db, *plan, &rng);
  if (!defended.ok()) return Fail(defended.status());

  // -- 4. Re-assess.
  auto counted = CountedDatabase::Count(std::move(*defended));
  if (!counted.ok()) return Fail(counted.status());
  auto after = AssessRisk(*counted, recipe);
  if (!after.ok()) return Fail(after.status());
  std::cout << "[3] Recipe verdict on the defended data: "
            << ToString(after->decision) << "\n    " << after->Summary()
            << "\n\n";

  // -- 5. The price in mining terms.
  MiningOptions mining;
  mining.min_support = 0.1;
  mining.max_itemset_size = 2;
  auto patterns_before = MineFPGrowth(*db, mining);
  auto patterns_after = MineFPGrowth(counted->database(), mining);
  if (!patterns_before.ok()) return Fail(patterns_before.status());
  if (!patterns_after.ok()) return Fail(patterns_after.status());
  std::cout << "[4] Mining fidelity at min_support=" << mining.min_support
            << ": " << patterns_before->size() << " -> "
            << patterns_after->size() << " itemsets, Jaccard "
            << TablePrinter::Fmt(
                   PatternJaccard(*patterns_before, *patterns_after), 3)
            << "\n\nThe owner trades a bounded, measured amount of "
               "frequency precision for a\nrelease that passes the "
               "paper's own safety recipe.\n";
  return 0;
}
