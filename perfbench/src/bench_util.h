// Small shared helpers of the pipeline benchmark: wall clock, sample
// statistics, the metric sink, and the correctness ledger.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

[[nodiscard]] inline double us_since(Clock::time_point start) {
  return ms_since(start) * 1e3;
}

/// Quantile with linear interpolation between closest ranks (the
/// "inclusive" method), 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// Outside load on a shared machine only ever slows a round down (on a
/// shared 4-vCPU VM, a fixed CPU loop's 10th-percentile time moved ~3%
/// between 4-second windows while its median moved ~20%), so the
/// round-based metrics report the quiet end of their rounds: the 10th
/// percentile of round times and latencies...
[[nodiscard]] inline double quiet_time(const std::vector<double>& v) {
  return quantile(v, 0.1);
}
/// ...and the 90th percentile of round rates.
[[nodiscard]] inline double quiet_rate(const std::vector<double>& v) {
  return quantile(v, 0.9);
}

[[nodiscard]] inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Named metric values with units, printed as the result object.
class MetricSink {
 public:
  void put(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return values_.count(name) != 0;
  }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  values() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Every correctness check of a run lands here; one failure makes the
/// run incorrect. Failures are explained on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed_;
    if (failed_ <= 20) std::cerr << "CHECK FAILED: " << what << "\n";
  }
  [[nodiscard]] bool all_passed() const noexcept { return failed_ == 0; }

 private:
  std::uint64_t failed_ = 0;
};

/// Operation ledger: each timed call into the program is one attempt.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

}  // namespace perfbench
