#ifndef ANONSAFE_GRAPH_MATCHING_WALK_H_
#define ANONSAFE_GRAPH_MATCHING_WALK_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "data/types.h"
#include "exec/exec.h"
#include "exec/scratch.h"
#include "graph/bipartite_graph.h"
#include "graph/matching_sampler.h"
#include "graph/permanent.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"

namespace anonsafe {

/// \brief The Metropolis walk over consistent matchings (Section 7.1).
///
/// The state is a matching, held both ways. Moves are symmetric: pair
/// swaps, 3-cycle rotations and, while the matching is not perfect,
/// single-edge transfers and replacements of a matched item by an
/// unmatched one. A move is accepted iff the result stays consistent, so
/// the stationary distribution is uniform over the reachable matchings.
/// The `Edges` policy decides consistency, for this walk and for
/// `EnumerateMatchings` alike:
///  - `HasEdge(anon, item)`: the test every newly matched pair passes;
///  - `Matchable(item)`: whether a replacement may pick an unmatched item;
///  - `Accepts(anon_of_item, moved)`: a check of the tentatively moved
///    state, `moved` being the items whose anonymized item changed; the
///    walk reverts the move when it fails. The enumerator asks it of
///    partial assignments, so a check whose items are not all assigned
///    yet must pass.
/// The policy is a template parameter, so no move pays an indirect call.
template <typename Edges>
class MatchingWalk {
 public:
  /// \brief Starts at the matching `seed_item_of_anon` (kInvalidItem for
  /// an unmatched anonymized item) on the RNG stream `stream_seed`.
  MatchingWalk(const Edges& edges,
               const std::vector<ItemId>& seed_item_of_anon,
               uint64_t stream_seed, double cycle_move_fraction)
      : edges_(edges),
        rng_(stream_seed),
        cycle_move_fraction_(cycle_move_fraction) {
    const size_t n = seed_item_of_anon.size();
    item_of_anon_.vec() = seed_item_of_anon;
    anon_of_item_.assign(n, kInvalidItem);
    for (ItemId a = 0; a < n; ++a) {
      if (item_of_anon_[a] != kInvalidItem) {
        anon_of_item_[item_of_anon_[a]] = a;
      }
    }
    unmatched_items_.clear();
    for (ItemId x = 0; x < n; ++x) {
      if (anon_of_item_[x] == kInvalidItem && edges_.Matchable(x)) {
        unmatched_items_.push_back(x);
      }
    }
  }

  /// \brief One move attempt per anonymized item.
  void Sweep();

  const std::vector<ItemId>& item_of_anon() const {
    return item_of_anon_.vec();
  }
  const std::vector<ItemId>& anon_of_item() const {
    return anon_of_item_.vec();
  }

 private:
  Edges edges_;
  Rng rng_;
  double cycle_move_fraction_;
  // Thread-local scratch buffers: a worker running many chains recycles
  // one trio of allocations instead of three mallocs per chain.
  exec::ScratchVec<ItemId> item_of_anon_;
  exec::ScratchVec<ItemId> anon_of_item_;
  exec::ScratchVec<ItemId> unmatched_items_;  // maintained when imperfect
};

template <typename Edges>
void MatchingWalk<Edges>::Sweep() {
  std::vector<ItemId>& item_of_anon = item_of_anon_.vec();
  std::vector<ItemId>& anon_of_item = anon_of_item_.vec();
  std::vector<ItemId>& unmatched = unmatched_items_.vec();
  const size_t n = item_of_anon.size();
  // The partner is drawn uniformly per step rather than from a
  // permutation as in the paper's Section 7.1 procedure: pairing i with
  // P(i) makes every 2-cycle of P swap and then un-swap the same pair
  // within one sweep (at n = 2 the chain would never leave its seed).
  for (size_t i = 0; i < n; ++i) {
    const auto a = static_cast<ItemId>(i);
    const auto b = static_cast<ItemId>(rng_.UniformUint64(n));
    const double u = rng_.UniformDouble();

    // Replacement: a trades its item x for an unmatched item y. Only
    // meaningful when the matching is imperfect.
    if (!unmatched.empty() && u < 0.3) {
      const size_t pick = rng_.UniformUint64(unmatched.size());
      const ItemId y = unmatched[pick];
      const ItemId x = item_of_anon[a];
      if (x == kInvalidItem || !edges_.HasEdge(a, y)) continue;
      anon_of_item[y] = a;
      anon_of_item[x] = kInvalidItem;
      if (!edges_.Accepts(anon_of_item, {x, y})) {
        anon_of_item[x] = a;
        anon_of_item[y] = kInvalidItem;
        continue;
      }
      item_of_anon[a] = y;
      unmatched[pick] = x;
      continue;
    }

    // 3-cycle rotation a <- z, b <- x, c <- y: reaches matchings that
    // pair swaps cannot.
    if (u < cycle_move_fraction_ && n >= 3) {
      const auto c = static_cast<ItemId>(rng_.UniformUint64(n));
      if (a == b || b == c || a == c) continue;
      const ItemId x = item_of_anon[a], y = item_of_anon[b],
                   z = item_of_anon[c];
      if (x == kInvalidItem || y == kInvalidItem || z == kInvalidItem) {
        continue;
      }
      if (!edges_.HasEdge(a, z) || !edges_.HasEdge(b, x) ||
          !edges_.HasEdge(c, y)) {
        continue;
      }
      anon_of_item[z] = a;
      anon_of_item[x] = b;
      anon_of_item[y] = c;
      if (!edges_.Accepts(anon_of_item, {x, y, z})) {
        anon_of_item[x] = a;
        anon_of_item[y] = b;
        anon_of_item[z] = c;
        continue;
      }
      item_of_anon[a] = z;
      item_of_anon[b] = x;
      item_of_anon[c] = y;
      continue;
    }

    // Pair swap a <- y, b <- x (the paper's move).
    if (a == b) continue;
    const ItemId x = item_of_anon[a], y = item_of_anon[b];
    if (x != kInvalidItem && y != kInvalidItem) {
      if (!edges_.HasEdge(a, y) || !edges_.HasEdge(b, x)) continue;
      anon_of_item[y] = a;
      anon_of_item[x] = b;
      if (!edges_.Accepts(anon_of_item, {x, y})) {
        anon_of_item[x] = a;
        anon_of_item[y] = b;
        continue;
      }
      item_of_anon[a] = y;
      item_of_anon[b] = x;
    } else if (x != y) {
      // Transfer: the matched one of a and b hands its item to the other.
      const ItemId from = x != kInvalidItem ? a : b;
      const ItemId to = from == a ? b : a;
      const ItemId item = item_of_anon[from];
      if (!edges_.HasEdge(to, item)) continue;
      anon_of_item[item] = to;
      if (!edges_.Accepts(anon_of_item, {item})) {
        anon_of_item[item] = from;
        continue;
      }
      item_of_anon[to] = item;
      item_of_anon[from] = kInvalidItem;
    }
  }
}

/// \brief Runs the sampling chains of `options` over one walk, handing
/// each sample to `record(item_of_anon, slot)`.
///
/// The `num_samples` slots split into ceil(num_samples / samples_per_seed)
/// chains. Chain c starts at the seed on the RNG stream SplitSeed(seed, c),
/// burns in `EffectiveBurnIn(n)` sweeps and fills slots
/// [c * samples_per_seed, ...) with samples `thinning_sweeps` apart. With
/// a non-null `ctx` the chains run on the pool; a `record` that writes
/// only its slot then gives the same output for any thread count.
template <typename Edges, typename Record>
void SampleMatchingChains(const Edges& edges,
                          const std::vector<ItemId>& seed_item_of_anon,
                          const SamplerOptions& options, uint64_t seed,
                          exec::ExecContext* ctx, const Record& record) {
  const size_t total = options.num_samples;
  const size_t per_chain = options.samples_per_seed;
  const size_t burn_in = options.EffectiveBurnIn(seed_item_of_anon.size());
  Status st = exec::ParallelForChunks(
      ctx, exec::NumChunks(total, per_chain), /*grain=*/1,
      [&](size_t c, size_t /*end*/) {
        MatchingWalk<Edges> walk(edges, seed_item_of_anon,
                                 exec::SplitSeed(seed, c),
                                 options.cycle_move_fraction);
        for (size_t sweep = 0; sweep < burn_in; ++sweep) walk.Sweep();
        const size_t begin = c * per_chain;
        const size_t count =
            per_chain < total - begin ? per_chain : total - begin;
        for (size_t s = 0; s < count; ++s) {
          if (s > 0) {
            for (size_t sweep = 0; sweep < options.thinning_sweeps;
                 ++sweep) {
              walk.Sweep();
            }
          }
          record(walk.item_of_anon(), begin + s);
        }
        return Status::OK();
      });
  (void)st;  // the body cannot fail
}

/// \brief Exact crack distribution over the perfect matchings of
/// `edges.graph` that the `Edges` policy accepts (the direct method of
/// Section 4.1, by backtracking).
///
/// Items are assigned in ascending outdegree, ties broken by id; each
/// tries the unused anonymized items of `anons_of_item(x)` in turn, and
/// a tentative assignment stands iff `edges.Accepts(anon_of_item, {x})`,
/// the items not yet assigned holding kInvalidItem. A full matching adds
/// one crack per pair with `is_crack(x, a)`. The tallies are exact
/// counts, so the result does not depend on the visiting order. Aborts
/// with OutOfRange once more than `max_matchings` matchings are found:
/// tiny graphs only.
template <typename Edges, typename IsCrack>
Result<CrackDistribution> EnumerateMatchings(const Edges& edges,
                                             const IsCrack& is_crack,
                                             uint64_t max_matchings) {
  const BipartiteGraph& graph = *edges.graph;
  const size_t n = graph.num_items();
  std::vector<ItemId> order(n);
  for (ItemId x = 0; x < n; ++x) order[x] = x;
  std::stable_sort(order.begin(), order.end(), [&](ItemId p, ItemId q) {
    return graph.item_outdegree(p) < graph.item_outdegree(q);
  });
  std::vector<ItemId> anon_of_item(n, kInvalidItem);
  std::vector<uint8_t> anon_used(n, 0);
  std::vector<uint64_t> tally(n + 1, 0);
  uint64_t num_matchings = 0;
  auto visit = [&](auto& self, size_t depth, size_t cracks) -> Status {
    if (depth == n) {
      if (++num_matchings > max_matchings) {
        return Status::OutOfRange(
            "more than " + std::to_string(max_matchings) +
            " perfect matchings; enumeration aborted");
      }
      ++tally[cracks];
      return Status::OK();
    }
    const ItemId x = order[depth];
    for (ItemId a : graph.anons_of_item(x)) {
      if (anon_used[a]) continue;
      anon_of_item[x] = a;
      if (edges.Accepts(anon_of_item, {x})) {
        anon_used[a] = 1;
        ANONSAFE_RETURN_IF_ERROR(
            self(self, depth + 1, cracks + (is_crack(x, a) ? 1 : 0)));
        anon_used[a] = 0;
      }
      anon_of_item[x] = kInvalidItem;
    }
    return Status::OK();
  };
  ANONSAFE_RETURN_IF_ERROR(visit(visit, 0, 0));

  CrackDistribution out;
  out.num_matchings = num_matchings;
  out.probability.assign(n + 1, 0.0);
  if (num_matchings > 0) {
    for (size_t c = 0; c <= n; ++c) {
      out.probability[c] = static_cast<double>(tally[c]) /
                           static_cast<double>(num_matchings);
      out.expected += static_cast<double>(c) * out.probability[c];
    }
  }
  return out;
}

}  // namespace anonsafe

#endif  // ANONSAFE_GRAPH_MATCHING_WALK_H_
