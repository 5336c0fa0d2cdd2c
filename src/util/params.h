#ifndef ANONSAFE_UTIL_PARAMS_H_
#define ANONSAFE_UTIL_PARAMS_H_

#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/result.h"

namespace anonsafe {

/// \brief Named numeric parameters of one plug-in: an adversary model
/// (`adversary::AdversaryParams`) or a defense candidate
/// (`defense::DefenseParams`).
///
/// Every parameter is a double (integers are exact up to 2^53), kept in
/// insertion order so `ToJson`/`ToString` render the same bytes for the
/// same construction sequence. A params object round-trips through
/// JSON, which is what makes every reported risk number and frontier
/// point replayable from its recorded `{name, params}` pair alone.
struct ParamList {
  std::vector<std::pair<std::string, double>> values;

  /// Replaces an existing entry in place or appends a new one.
  void Set(const std::string& name, double value);
  /// nullptr when the parameter is absent.
  const double* Find(const std::string& name) const;
  double GetOr(const std::string& name, double fallback) const;

  /// "k=3" / "span=2,sigma=1" — deterministic, for logs, cache keys and
  /// CSV cells.
  std::string ToString() const;
  /// Object in insertion order; values via the shared shortest
  /// round-trip number rendering.
  json::Value ToJson() const;

 protected:
  Result<double> Get(const std::string& name, const char* noun) const;
  static Result<ParamList> FromJson(const json::Value& value,
                                    const char* noun);
};

/// \brief A `ParamList` whose errors name its plug-in kind `Noun`
/// ("missing adversary parameter 'k'", "defense params must be a JSON
/// object").
template <const char* Noun>
struct NamedParams : ParamList {
  /// InvalidArgument naming the parameter when absent.
  Result<double> Get(const std::string& name) const {
    return ParamList::Get(name, Noun);
  }
  static Result<NamedParams> FromJson(const json::Value& value) {
    ANONSAFE_ASSIGN_OR_RETURN(ParamList list, ParamList::FromJson(value, Noun));
    NamedParams params;
    params.values = std::move(list.values);
    return params;
  }
};

/// \brief InvalidArgument naming the first parameter not in `allowed`
/// and its owner: "unknown parameter 'x' for <noun> '<name>'".
Status CheckAllowedParams(const ParamList& params,
                          const std::vector<std::string>& allowed,
                          const char* noun, const char* name);

}  // namespace anonsafe

#endif  // ANONSAFE_UTIL_PARAMS_H_
