// "Mining for the common good" (paper Section 1, second scenario): a
// company pools anonymized data into an industry consortium. A partner —
// today's collaborator, tomorrow's competitor — holds *similar data* (here:
// a transaction sample of the same market) and mounts the matching attack
// of Section 2.3 against the released copy.
//
// The example plays both sides: the partner builds a belief function from
// its own data (Fig. 13 style), constructs the consistency graph, runs
// degree-1 propagation, and then guesses; the owner evaluates how many
// guesses were true cracks and compares with the O-estimate prediction.
//
// Build & run:  cmake --build build && ./build/examples/consortium_attack

#include <iostream>

#include "anonymize/anonymizer.h"
#include "anonymize/crack.h"
#include "belief/builders.h"
#include "core/oestimate.h"
#include "core/simulated.h"
#include "data/frequency.h"
#include "data/sampling.h"
#include "datagen/profile.h"
#include "graph/matching_sampler.h"
#include "util/rng.h"

using namespace anonsafe;

namespace {

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

}  // namespace

int main() {
  Rng rng(33);

  // -- 1. Owner data: 60 items / 5000 transactions, skewed profile.
  auto profile = FrequencyProfile::Create(
      5000, {{25, 18}, {120, 12}, {400, 9}, {900, 8}, {1800, 6},
             {2600, 4}, {3500, 2}, {4200, 1}});
  if (!profile.ok()) return Fail(profile.status());
  auto db = GenerateDatabase(*profile, &rng);
  if (!db.ok()) return Fail(db.status());

  // -- 2. Owner anonymizes and contributes to the consortium pool.
  Anonymizer truth = Anonymizer::Random(db->num_items(), &rng);
  auto released = truth.AnonymizeDatabase(*db);
  if (!released.ok()) return Fail(released.status());
  std::cout << "Released to consortium: " << released->DebugString() << "\n";

  // -- 3. The partner's similar data: a 20% sample of the same market.
  auto partner_data = SampleFraction(*db, 0.20, &rng);
  if (!partner_data.ok()) return Fail(partner_data.status());
  double partner_delta = 0.0;
  auto partner_belief = MakeBeliefFromSample(*partner_data, &partner_delta);
  if (!partner_belief.ok()) return Fail(partner_belief.status());

  auto true_table = FrequencyTable::Compute(*db);
  if (!true_table.ok()) return Fail(true_table.status());
  auto achieved_alpha = partner_belief->ComplianceFraction(*true_table);
  if (!achieved_alpha.ok()) return Fail(achieved_alpha.status());
  std::cout << "Partner belief from a 20% sample: interval half-width "
            << partner_delta << ", degree of compliancy alpha = "
            << *achieved_alpha << "\n\n";

  // -- 4. The attack. The partner observes the released frequencies and
  //       samples consistent crack mappings (it cannot tell which is
  //       right, so it behaves like the uniform-matching hacker the paper
  //       assumes).
  auto released_table = FrequencyTable::Compute(*released);
  if (!released_table.ok()) return Fail(released_table.status());
  FrequencyGroups observed = FrequencyGroups::Build(*released_table);

  // NOTE on frames: the attack math in this library uses the identity
  // surrogate (anonymized item a truly IS item a). To act as the partner,
  // re-index the belief into the released id space via the true mapping —
  // something only this simulation can do; the expected crack counts are
  // permutation-invariant, so the owner-side analysis below is unaffected.
  std::vector<BeliefInterval> reindexed(db->num_items());
  for (ItemId x = 0; x < db->num_items(); ++x) {
    reindexed[truth.Anonymize(x)] = partner_belief->interval(x);
  }
  auto attack_belief = BeliefFunction::Create(std::move(reindexed));
  if (!attack_belief.ok()) return Fail(attack_belief.status());

  SamplerOptions sampler_options;
  sampler_options.exec.seed = 101;
  sampler_options.num_samples = 200;
  sampler_options.burn_in_sweeps = 150;
  sampler_options.thinning_sweeps = 8;
  auto sampler =
      MatchingSampler::Create(observed, *attack_belief, sampler_options);
  if (!sampler.ok()) return Fail(sampler.status());
  std::cout << "Attack space: seed matching "
            << (sampler->seed_is_perfect() ? "perfect" : "maximum (partial)")
            << ", " << sampler->seed_size() << "/" << db->num_items()
            << " anonymized items matched\n";

  // In the identity-surrogate frame, sampled fixed points ARE true cracks,
  // so the sampler directly estimates the attack's expected success.
  std::vector<size_t> crack_counts = sampler->SampleCrackCounts();
  double attack_mean = 0.0;
  for (size_t c : crack_counts) attack_mean += static_cast<double>(c);
  attack_mean /= static_cast<double>(crack_counts.size());

  // -- 5. Owner-side prediction (no knowledge of the partner's sample):
  //       O-estimate under the partner's achieved compliancy, restricted
  //       to the compliant items.
  auto mask = attack_belief->ComplianceMask(*released_table);
  if (!mask.ok()) return Fail(mask.status());
  auto oe = ComputeOEstimate(observed, *attack_belief, {}, nullptr, &*mask);
  if (!oe.ok()) return Fail(oe.status());

  std::cout << "\nExpected cracks (O-estimate, alpha-restricted): "
            << oe->expected_cracks << "\n";
  std::cout << "Attack simulation (uniform consistent mappings): "
            << attack_mean << " cracks on average over "
            << crack_counts.size() << " sampled mappings\n";

  // -- 6. One concrete crack mapping, evaluated in released-id space.
  //       Guess: own identity per the surrogate frame -> translate back.
  //       (Here we just report the simulated average; a single mapping's
  //       cracks fluctuate around it.)
  double fraction = attack_mean / static_cast<double>(db->num_items());
  std::cout << "\nVerdict: a partner holding a 20% sample cracks about "
            << attack_mean << " of " << db->num_items() << " items ("
            << fraction * 100.0 << "%). ";
  if (fraction > 0.1) {
    std::cout << "Above a 10% tolerance: the owner should NOT contribute "
                 "this data unmodified.\n";
  } else {
    std::cout << "Within a 10% tolerance.\n";
  }
  return 0;
}
