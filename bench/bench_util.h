#ifndef COSR_BENCH_BENCH_UTIL_H_
#define COSR_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace cosr::bench {

/// Fixed-width ASCII table printer for the experiment binaries. Every bench
/// prints the experiment id, the paper's claim, the measured table, and a
/// one-line verdict, so `for b in build/bench/*; do $b; done` regenerates
/// the whole evaluation.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
      }
    }
    PrintRow(headers_, widths);
    std::string rule;
    for (std::size_t c = 0; c < widths.size(); ++c) {
      rule += std::string(widths[c] + 2, '-');
      if (c + 1 < widths.size()) rule += "+";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) PrintRow(row, widths);
  }

 private:
  static void PrintRow(const std::vector<std::string>& row,
                       const std::vector<std::size_t>& widths) {
    std::string line;
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      line += " " + cell + std::string(widths[c] - cell.size() + 1, ' ');
      if (c + 1 < widths.size()) line += "|";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double value, int decimals = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

inline void Banner(const char* experiment, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("================================================================\n");
}

/// Whether any Verdict in this process reported a DEVIATION.
inline bool& DeviationSeen() {
  static bool seen = false;
  return seen;
}

/// Prints the experiment's verdict line and records a DEVIATION, so the
/// experiment's main can fail through ExitCode().
inline void Verdict(bool ok, const std::string& text) {
  if (!ok) DeviationSeen() = true;
  std::printf("verdict: %s — %s\n", ok ? "REPRODUCED" : "DEVIATION", text.c_str());
}

/// The exit status of an experiment's main: 1 once any Verdict reported a
/// DEVIATION, 0 otherwise.
inline int ExitCode() { return DeviationSeen() ? 1 : 0; }

}  // namespace cosr::bench

#endif  // COSR_BENCH_BENCH_UTIL_H_
