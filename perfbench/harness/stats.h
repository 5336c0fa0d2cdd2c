// Order statistics and metric-name rules shared by the harness and its
// self-test.
#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Linear-interpolation percentile (`q` in [0, 1]) between closest ranks,
/// the "inclusive" definition: q=0 is the minimum, q=1 the maximum.
/// 0 for an empty input.
double Percentile(std::vector<double> values, double q);

/// The three cut points Python's `statistics.quantiles(values, n=4)`
/// returns (the default "exclusive" method). Needs at least two values.
std::vector<double> Quartiles(std::vector<double> values);

/// Inter-quartile range over the median, the spread measure the benchmark
/// uses to judge whether a metric is steady across runs.
double RelativeIqr(const std::vector<double>& values);

/// True when `name` is 1..64 characters of letters, digits, `_`, `.` and
/// `-`, starting with a letter or a digit.
bool IsValidMetricName(const std::string& name);

/// True when `unit` is 1..16 characters of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
bool IsValidUnit(const std::string& unit);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
