// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--commit <id>]
//
// Prints stamp and information lines, one "metric" line per metric, then,
// as the last line, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// Exits 0 when every output check passed, 1 when one failed, 2 on a usage
// or set-up error (with no JSON line).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload bigset-firstfit|durable-dbblocks|"
               "concurrent-churn --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--commit ID]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false;
  bool have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--workdir") {
      config.workdir = value;
      have_workdir = true;
    } else if (key == "--commit") {
      commit = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || !have_workdir || argc % 2 == 0 ||
      !(config.seconds > 0)) {
    Usage();
    return 2;
  }

  std::printf("stamp workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "build_type=%s compiler=\"%s\" commit=%s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, commit.c_str());
  std::fflush(stdout);

  perfbench::Report report;
  try {
    if (config.workload == "bigset-firstfit") {
      perfbench::RunBigsetFirstfit(config, &report);
    } else if (config.workload == "durable-dbblocks") {
      perfbench::RunDurableDbblocks(config, &report);
    } else if (config.workload == "concurrent-churn") {
      perfbench::RunConcurrentChurn(config, &report);
    } else {
      Usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  for (const std::string& line : report.info()) {
    std::printf("info %s\n", line.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("requests attempted=%llu failed=%llu failed_op_ratio=%.17g\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              report.attempted() == 0
                  ? 0.0
                  : static_cast<double>(report.failed()) /
                        static_cast<double>(report.attempted()));
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    std::printf("metric %s = %s %s\n", m.name.c_str(), value, m.unit.c_str());
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}
