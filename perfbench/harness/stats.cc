#include "stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> Quartiles(std::vector<double> values) {
  std::vector<double> cuts;
  const size_t n = values.size();
  if (n < 2) return cuts;
  std::sort(values.begin(), values.end());
  // statistics.quantiles, method="exclusive": for i in 1..3,
  // j = clamp(i*(n+1)//4, 1, n-1), delta = i*(n+1) - 4*j, and the cut
  // interpolates data[j-1] .. data[j] with weights (4-delta, delta)/4.
  const long long ld = static_cast<long long>(n);
  for (long long i = 1; i <= 3; ++i) {
    const long long m = ld + 1;
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const double delta = static_cast<double>(i * m - 4 * j);
    const size_t b = static_cast<size_t>(j);
    cuts.push_back((values[b - 1] * (4.0 - delta) + values[b] * delta) / 4.0);
  }
  return cuts;
}

double RelativeIqr(const std::vector<double>& values) {
  std::vector<double> cuts = Quartiles(values);
  if (cuts.size() != 3 || cuts[1] == 0.0) return 0.0;
  return (cuts[2] - cuts[0]) / std::fabs(cuts[1]);
}

bool IsValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

bool IsValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '/' && c != '%' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
