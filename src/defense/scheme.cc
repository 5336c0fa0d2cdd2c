#include "defense/scheme.h"

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

}  // namespace defense
}  // namespace anonsafe
