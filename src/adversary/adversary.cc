#include "adversary/adversary.h"

#include <cstdlib>

namespace anonsafe {
namespace adversary {

std::string AdversarySpecString(const std::string& name,
                                const AdversaryParams& params) {
  std::string spec = name;
  std::string p = params.ToString();
  if (!p.empty()) spec += ":" + p;
  return spec;
}

json::Value AdversaryDescription::ToJson() const {
  json::Value obj = json::Value::Object();
  obj.Set("name", json::Value(name));
  obj.Set("summary", json::Value(summary));
  obj.Set("weighted", json::Value(weighted));
  obj.Set("supports_exact", json::Value(supports_exact));
  json::Value names = json::Value::Array();
  for (const std::string& p : params) names.Append(json::Value(p));
  obj.Set("params", std::move(names));
  return obj;
}

const std::vector<const Adversary*>& Adversary::All() {
  // Built on first use, fixed order so every listing and sweep
  // enumerates models identically. Function-local statics (not leaked
  // heap blocks) so LeakSanitizer stays quiet across the test suite.
  static const std::vector<std::unique_ptr<Adversary>> owner = [] {
    std::vector<std::unique_ptr<Adversary>> v;
    v.push_back(internal::MakeIntervalAdversary());
    v.push_back(internal::MakeProbabilisticAdversary());
    v.push_back(internal::MakeExactSupportAdversary());
    return v;
  }();
  static const std::vector<const Adversary*> view = [] {
    std::vector<const Adversary*> v;
    v.reserve(owner.size());
    for (const auto& a : owner) v.push_back(a.get());
    return v;
  }();
  return view;
}

const Adversary* Adversary::Find(const std::string& name) {
  for (const Adversary* a : All()) {
    if (name == a->name()) return a;
  }
  return nullptr;
}

Result<const Adversary*> Adversary::Require(const std::string& name) {
  if (const Adversary* adv = Find(name)) return adv;
  std::string known;
  for (const Adversary* a : All()) {
    if (!known.empty()) known += ", ";
    known += a->name();
  }
  return Status::InvalidArgument("unknown adversary '" + name +
                                 "' (known: " + known + ")");
}

Result<AdversarySpec> ParseAdversarySpec(const std::string& spec) {
  AdversarySpec out;
  std::string rest;
  size_t colon = spec.find(':');
  if (colon == std::string::npos) {
    out.name = spec;
  } else {
    out.name = spec.substr(0, colon);
    rest = spec.substr(colon + 1);
  }
  if (out.name.empty()) {
    return Status::InvalidArgument("empty adversary name in spec '" + spec +
                                   "'");
  }
  ANONSAFE_ASSIGN_OR_RETURN(const Adversary* adv,
                            Adversary::Require(out.name));
  size_t pos = 0;
  while (pos < rest.size()) {
    size_t comma = rest.find(',', pos);
    std::string token = comma == std::string::npos
                            ? rest.substr(pos)
                            : rest.substr(pos, comma - pos);
    pos = comma == std::string::npos ? rest.size() : comma + 1;
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("malformed adversary param '" + token +
                                     "' (expected name=value)");
    }
    std::string key = token.substr(0, eq);
    std::string text = token.substr(eq + 1);
    char* end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size()) {
      return Status::InvalidArgument("adversary param '" + key +
                                     "' has non-numeric value '" + text +
                                     "'");
    }
    out.params.Set(key, value);
  }
  ANONSAFE_RETURN_IF_ERROR(adv->ValidateParams(out.params));
  return out;
}

}  // namespace adversary
}  // namespace anonsafe
