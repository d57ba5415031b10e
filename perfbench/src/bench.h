#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared declarations of the perfbench program: run configuration, the
// report every workload fills, and the three workload entry points.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  /// Directory (inside the checkout) for per-run scratch files such as the
  /// durable workload's log files.
  std::string workdir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run produces: the metrics for the final JSON line, extra
/// human-readable lines, the request accounting and every failed check.
class Report {
 public:
  void Check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Info(const std::string& line) { info_.push_back(line); }
  /// Counts issued write requests and how many failed.
  void CountRequests(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty() && failed_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& info() const { return info_; }

 private:
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
  std::vector<std::string> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void RunBigsetFirstfit(const RunConfig& config, Report* report);
void RunDurableDbblocks(const RunConfig& config, Report* report);
void RunConcurrentChurn(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
