#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Linear-interpolated quantile of the finite samples; 0 when none.
inline double Quantile(std::vector<double> v, double q) {
  v.erase(std::remove_if(v.begin(), v.end(),
                         [](double x) { return !std::isfinite(x); }),
          v.end());
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// The result line, always the last line of stdout: {correct, attempted,
/// failed, metrics: {name: {value, unit}}}.
inline void PrintResult(bool correct, size_t attempted, size_t failed,
                        const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
