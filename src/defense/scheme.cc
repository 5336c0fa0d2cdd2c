#include "defense/scheme.h"

#include <algorithm>
#include <string>

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

HolderIndex::HolderIndex(const Database& db)
    : holders_(db.num_items()), sizes_(db.num_transactions()) {
  for (size_t t = 0; t < sizes_.size(); ++t) {
    sizes_[t] = db.transaction(t).size();
    for (ItemId x : db.transaction(t)) holders_[x].push_back(t);
  }
}

Result<FrequencyTable> Realized::Table() const {
  if (num_transactions == 0) {
    return FrequencyTable::Compute(Database(supports.size()));
  }
  return FrequencyTable::FromSupports(supports, num_transactions);
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
      for (size_t t : index.holders(x)) {
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
  std::vector<size_t> picks;
  for (ItemId x = 0; x < n; ++x) {
    const std::vector<size_t>& holders = index.holders(x);
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
  out.supports = plan.new_supports;
  out.num_transactions = m;
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
