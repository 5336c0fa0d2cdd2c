#include "util/params.h"

#include <algorithm>

namespace anonsafe {

void ParamList::Set(const std::string& name, double value) {
  for (auto& [key, v] : values) {
    if (key == name) {
      v = value;
      return;
    }
  }
  values.emplace_back(name, value);
}

const double* ParamList::Find(const std::string& name) const {
  for (const auto& [key, v] : values) {
    if (key == name) return &v;
  }
  return nullptr;
}

double ParamList::GetOr(const std::string& name, double fallback) const {
  const double* v = Find(name);
  return v == nullptr ? fallback : *v;
}

Result<double> ParamList::Get(const std::string& name,
                              const char* noun) const {
  const double* v = Find(name);
  if (v == nullptr) {
    return Status::InvalidArgument(std::string("missing ") + noun +
                                   " parameter '" + name + "'");
  }
  return *v;
}

std::string ParamList::ToString() const {
  std::string out;
  for (const auto& [key, v] : values) {
    if (!out.empty()) out += ",";
    out += key + "=" + json::NumberToString(v);
  }
  return out;
}

json::Value ParamList::ToJson() const {
  json::Value obj = json::Value::Object();
  for (const auto& [key, v] : values) obj.Set(key, json::Value(v));
  return obj;
}

Result<ParamList> ParamList::FromJson(const json::Value& value,
                                      const char* noun) {
  if (!value.is_object()) {
    return Status::InvalidArgument(std::string(noun) +
                                   " params must be a JSON object");
  }
  ParamList params;
  for (const auto& [key, member] : value.members()) {
    if (!member.is_number()) {
      return Status::InvalidArgument(std::string(noun) + " param '" + key +
                                     "' must be a number");
    }
    params.Set(key, member.AsDouble());
  }
  return params;
}

Status CheckAllowedParams(const ParamList& params,
                          const std::vector<std::string>& allowed,
                          const char* noun, const char* name) {
  for (const auto& [key, value] : params.values) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      return Status::InvalidArgument("unknown parameter '" + key + "' for " +
                                     noun + " '" + name + "'");
    }
  }
  return Status::OK();
}

}  // namespace anonsafe
