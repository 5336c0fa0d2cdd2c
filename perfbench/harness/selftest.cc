// Self-test of the harness's order statistics and name rules. Exits 0
// when every check passes; prints each failure otherwise.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void Near(double got, double want, const std::string& what) {
  Check(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
        what + ": got " + std::to_string(got) + ", want " +
            std::to_string(want));
}

}  // namespace

int main() {
  using namespace perfbench;

  Near(Median({}), 0.0, "median of nothing");
  Near(Median({3.0}), 3.0, "median of one");
  Near(Median({5.0, 1.0, 3.0}), 3.0, "median of odd count");
  Near(Median({4.0, 1.0, 3.0, 2.0}), 2.5, "median of even count");

  // Inclusive linear interpolation between closest ranks.
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  Near(Percentile(ten, 0.0), 1.0, "p0");
  Near(Percentile(ten, 1.0), 10.0, "p100");
  Near(Percentile(ten, 0.5), 5.5, "p50");
  Near(Percentile(ten, 0.95), 9.55, "p95");
  Near(Percentile({7.0}, 0.95), 7.0, "p95 of one");

  // Values from Python: statistics.quantiles(data, n=4).
  std::vector<double> q = Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  Check(q.size() == 3, "three quartile cuts");
  if (q.size() == 3) {
    Near(q[0], 2.75, "q1 of 1..10");
    Near(q[1], 5.5, "q2 of 1..10");
    Near(q[2], 8.25, "q3 of 1..10");
  }
  q = Quartiles({1.0, 2.0});
  if (q.size() == 3) {
    Near(q[0], 0.75, "q1 of two (extrapolates)");
    Near(q[1], 1.5, "q2 of two");
    Near(q[2], 2.25, "q3 of two (extrapolates)");
  }
  q = Quartiles({105, 129, 87, 86, 111, 111, 89, 81, 108, 92, 110,
                 100, 75, 105, 103, 109, 76, 119, 99, 91, 103, 129,
                 106, 101, 84, 111, 74, 87, 86, 103, 103, 106, 86,
                 111, 75, 87, 102, 121, 111, 88, 89, 101, 106, 95,
                 103, 107, 101, 81, 109, 104});
  if (q.size() == 3) {
    Near(q[0], 87.0, "q1 of the statistics docs sample");
    Near(q[1], 102.5, "q2 of the statistics docs sample");
    Near(q[2], 108.25, "q3 of the statistics docs sample");
  }
  Check(Quartiles({1.0}).empty(), "no quartiles of one value");
  Near(RelativeIqr({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5,
       "relative IQR of 1..10");

  for (const char* good : {"throughput_rps", "setup_s", "serve.queue_ms_p50",
                           "core.alpha-probes", "9lives", "a"}) {
    Check(IsValidMetricName(good), std::string("valid name ") + good);
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "slash/no",
                          "percent%", "colon:no"}) {
    Check(!IsValidMetricName(bad), std::string("invalid name '") + bad + "'");
  }
  Check(!IsValidMetricName(std::string(65, 'a')), "65-character name");
  Check(IsValidMetricName(std::string(64, 'a')), "64-character name");
  for (const char* good : {"ms", "s", "1/s", "count", "%", "MiB", "ratio"}) {
    Check(IsValidUnit(good), std::string("valid unit ") + good);
  }
  for (const char* bad : {"", "m s", "seventeen-chars-x"}) {
    Check(!IsValidUnit(bad), std::string("invalid unit '") + bad + "'");
  }

  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
