#include "defense/scheme.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/metrics.h"

namespace anonsafe {
namespace defense {

json::Value DefensePlan::ToJson() const {
  json::Value obj = json::Value::Object();
  obj.Set("scheme", json::Value(scheme));
  obj.Set("params", params.ToJson());
  obj.Set("groups_before", json::Value(uint64_t{groups_before}));
  obj.Set("groups_after", json::Value(uint64_t{groups_after}));
  obj.Set("items_before", json::Value(uint64_t{items_before}));
  obj.Set("items_after", json::Value(uint64_t{items_after}));
  obj.Set("l1_distortion", json::Value(uint64_t{l1_distortion}));
  obj.Set("relative_distortion", json::Value(relative_distortion));
  obj.Set("merged_gap", json::Value(merged_gap));
  obj.Set("suppressed_items", json::Value(uint64_t{suppressed.size()}));
  obj.Set("oe_before", json::Value(oe_before));
  obj.Set("oe_after", json::Value(oe_after));
  obj.Set("occurrence_loss", json::Value(occurrence_loss));
  return obj;
}

const std::vector<const DefenseScheme*>& DefenseScheme::All() {
  // Built on first use, fixed order so every sweep enumerates
  // candidates identically. Function-local statics (not leaked heap
  // blocks) so LeakSanitizer stays quiet across the test suite.
  static const std::vector<std::unique_ptr<DefenseScheme>> owner = [] {
    std::vector<std::unique_ptr<DefenseScheme>> v;
    v.push_back(internal::MakeKAnonymityScheme());
    v.push_back(internal::MakeGroupMergeScheme());
    v.push_back(internal::MakeSuppressionScheme());
    return v;
  }();
  static const std::vector<const DefenseScheme*> view = [] {
    std::vector<const DefenseScheme*> v;
    v.reserve(owner.size());
    for (const auto& scheme : owner) v.push_back(scheme.get());
    return v;
  }();
  return view;
}

const DefenseScheme* DefenseScheme::Find(const std::string& name) {
  for (const DefenseScheme* scheme : All()) {
    if (name == scheme->name()) return scheme;
  }
  return nullptr;
}

Result<DefensePlan> DefenseScheme::Plan(const FrequencyTable& table,
                                        const DefenseParams& params) const {
  return std::move(PlanLadder(table, {params}).front());
}

Result<Database> DefenseScheme::Apply(const Database& db,
                                      const DefensePlan& plan,
                                      Rng* rng) const {
  if (plan.scheme != name()) {
    return Status::InvalidArgument("plan was produced by scheme '" +
                                   plan.scheme + "', not '" + name() + "'");
  }
  return internal::ApplyPlan(db, plan, rng);
}

namespace internal {

Result<size_t> CountParam(const DefenseParams& params, const char* name,
                          double fallback, size_t lo, size_t hi) {
  const double value = params.GetOr(name, fallback);
  if (!(value >= static_cast<double>(lo) &&
        value <= static_cast<double>(hi)) ||
      value != std::floor(value)) {
    return Status::InvalidArgument(
        std::string(name) + " must be a whole number in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]; got " +
        json::NumberToString(value));
  }
  return static_cast<size_t>(value);
}

Result<size_t> BisectIters(const DefenseParams& params) {
  return CountParam(params, "iters", 24.0, 0, 64);
}

HolderIndex::HolderIndex(const Database& db)
    : starts_(db.num_items() + 1, 0),
      sizes_(db.num_transactions()),
      largest_(db.num_transactions(), 0) {
  // Slices sized from the supports, then filled in transaction order, so
  // each is ascending. Transaction ids fit 32 bits: a database of 2^32
  // transactions would not fit in memory.
  for (const Transaction& txn : db.transactions()) {
    for (ItemId x : txn) ++starts_[size_t{x} + 1];
  }
  for (size_t x = 0; x < db.num_items(); ++x) starts_[x + 1] += starts_[x];
  holders_.resize(starts_.back());
  std::vector<size_t> next(starts_.begin(), starts_.end() - 1);
  for (size_t t = 0; t < sizes_.size(); ++t) {
    const Transaction& txn = db.transaction(t);
    sizes_[t] = txn.size();
    if (!txn.empty()) largest_[t] = txn.back();  // transactions are sorted
    for (ItemId x : txn) holders_[next[x]++] = static_cast<uint32_t>(t);
  }
}

Result<FrequencyTable> Realized::Table() const {
  if (num_transactions == 0) {
    return FrequencyTable::Compute(Database(supports.size()));
  }
  return FrequencyTable::FromSupports(supports, num_transactions);
}

namespace {

void CountWalk(bool walked) {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter* const kWalked =
      obs::MetricsRegistry::Global().GetCounterWithLabels(
          "anonsafe_defense_walks_total", {{"path", "walked"}},
          "support-plan realizations by path");
  static obs::Counter* const kSkipped =
      obs::MetricsRegistry::Global().GetCounterWithLabels(
          "anonsafe_defense_walks_total", {{"path", "skipped"}},
          "support-plan realizations by path");
  (walked ? kWalked : kSkipped)->Increment();
}

}  // namespace

bool NoDrawCanFail(const HolderIndex& index,
                   const std::vector<SupportCount>& targets) {
  const size_t n = index.num_items();
  const size_t m = index.num_transactions();
  // A transaction that holds an item that does not lose has size 2 or
  // more at the turn of every losing item it holds; one whose every item
  // loses is exposed to its largest item. Count, per transaction, the
  // items of whichever side holds fewer occurrences: the losing items,
  // or the others.
  size_t losing_occurrences = 0, occurrences = 0;
  for (ItemId x = 0; x < n; ++x) {
    const size_t support = index.holders(x).size();
    occurrences += support;
    if (targets[x] < support) losing_occurrences += support;
  }
  const bool count_losing = 2 * losing_occurrences <= occurrences;
  std::vector<uint32_t> counted(m, 0);
  for (ItemId x = 0; x < n; ++x) {
    if ((targets[x] < index.holders(x).size()) != count_losing) continue;
    for (uint32_t t : index.holders(x)) ++counted[t];
  }
  // exposed[x]: holders that may be down to size 1 at x's turn.
  std::vector<size_t> exposed(n, 0);
  for (size_t t = 0; t < m; ++t) {
    const size_t size = index.sizes()[t];
    const size_t losing = count_losing ? counted[t] : size - counted[t];
    if (size > 0 && losing == size) ++exposed[index.largest(t)];
  }
  // x keeps holders - exposed, and needs holders - target of them.
  for (ItemId x = 0; x < n; ++x) {
    if (targets[x] < exposed[x]) return false;
  }
  return true;
}

Result<Realized> Realize(const HolderIndex& index, const DefensePlan& plan,
                         Rng* rng, std::vector<Transaction>* txns) {
  const size_t n = index.num_items();
  const size_t m = index.num_transactions();
  std::vector<size_t> sizes = index.sizes();
  Realized out;

  if (plan.new_supports.empty()) {
    std::vector<bool> drop(n, false);
    for (ItemId x : plan.suppressed) {
      if (x >= n) {
        return Status::InvalidArgument("suppressed item outside domain");
      }
      drop[x] = true;
    }
    out.supports.resize(n);
    for (ItemId x = 0; x < n; ++x) {
      if (!drop[x]) {
        out.supports[x] = index.holders(x).size();
        continue;
      }
      for (uint32_t t : index.holders(x)) {
        --sizes[t];
        if (txns == nullptr) continue;
        Transaction& txn = (*txns)[t];
        txn.erase(std::lower_bound(txn.begin(), txn.end(), x));
      }
    }
    out.num_transactions =
        m - static_cast<size_t>(std::count(sizes.begin(), sizes.end(), 0));
    return out;
  }

  if (plan.new_supports.size() != n) {
    return Status::InvalidArgument("support vector size mismatch");
  }
  for (SupportCount s : plan.new_supports) {
    if (s > m) {
      return Status::InvalidArgument(
          "target support exceeds the number of transactions");
    }
  }
  out.supports = plan.new_supports;
  out.num_transactions = m;
  const bool walk = txns != nullptr || !NoDrawCanFail(index, out.supports);
  CountWalk(walk);
  if (!walk) return out;

  std::vector<size_t> picks;
  for (ItemId x = 0; x < n; ++x) {
    const std::span<const uint32_t> holders = index.holders(x);
    const SupportCount current = holders.size();
    const SupportCount target = plan.new_supports[x];
    if (current == target) continue;

    picks.clear();
    if (target > current) {
      // The non-holders must be ascending before the shuffle: the draws
      // pick positions, so their order fixes which transactions gain x.
      auto next_holder = holders.begin();
      for (size_t t = 0; t < m; ++t) {
        if (next_holder != holders.end() && *next_holder == t) {
          ++next_holder;
        } else {
          picks.push_back(t);
        }
      }
      rng->Shuffle(&picks);
      for (size_t i = 0; i < target - current; ++i) {
        ++sizes[picks[i]];
        if (txns == nullptr) continue;
        Transaction& txn = (*txns)[picks[i]];
        txn.insert(std::upper_bound(txn.begin(), txn.end(), x), x);
      }
    } else {
      const size_t need = current - target;
      picks.assign(holders.begin(), holders.end());
      rng->Shuffle(&picks);
      size_t removed = 0;
      for (size_t t : picks) {
        if (removed == need) break;
        if (sizes[t] <= 1) continue;  // never empty a transaction
        --sizes[t];
        ++removed;
        if (txns == nullptr) continue;
        Transaction& txn = (*txns)[t];
        txn.erase(std::lower_bound(txn.begin(), txn.end(), x));
      }
      if (removed != need) {
        return Status::InvalidArgument(
            "cannot lower support of item " + std::to_string(x) +
            " without emptying transactions");
      }
    }
  }
  return out;
}

Result<Database> ApplyPlan(const Database& db, const DefensePlan& plan,
                           Rng* rng) {
  std::vector<Transaction> txns(db.transactions());
  ANONSAFE_RETURN_IF_ERROR(
      Realize(HolderIndex(db), plan, rng, &txns).status());
  Database out(db.num_items());
  for (Transaction& txn : txns) {
    if (!txn.empty()) out.AddTransactionUnchecked(std::move(txn));
  }
  return out;
}

}  // namespace internal

}  // namespace defense
}  // namespace anonsafe
