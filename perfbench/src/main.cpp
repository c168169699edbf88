// One cold simulation of one workload. run.py builds this binary and starts
// it once per simulation:
//
//   perfbench --workload campus-mbt|bus-job|city-stream --seed N
//             [--trace 0|1] [--verify 0|1] [--t0-ns NS] [--scratch DIR]
//
// Prints one line per measured value, then as its last line one JSON
// object: {"correct", "fed", "processed", "digest", "errors", "values"}.
// Exits 0 when every check passed, 1 when one failed or the run threw, 2 on
// a usage error.
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>

#include "src/workloads.hpp"

namespace {

std::string number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "[--trace 0|1] [--verify 0|1] [--t0-ns NS] [--scratch DIR]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.processStart = perfbench::Clock::now();
  if (argc % 2 != 1) return usage("every flag takes a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--trace") {
        options.traced = value == "1";
      } else if (key == "--verify") {
        options.verify = value == "1";
      } else if (key == "--t0-ns") {
        // CLOCK_MONOTONIC nanoseconds read by the launcher just before it
        // started this process; steady_clock reads the same clock.
        options.processStart = perfbench::Clock::time_point(
            std::chrono::nanoseconds(std::stoll(value)));
      } else if (key == "--scratch") {
        options.scratchDir = value;
      } else {
        return usage("unknown flag " + std::string(key));
      }
    } catch (const std::exception&) {
      return usage("bad value for " + std::string(key));
    }
  }
  if (options.workload.empty()) return usage("--workload is required");

  perfbench::Measurement m;
  try {
    m = perfbench::measure(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::string errors;
  for (const std::string& error : m.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
    errors += (errors.empty() ? "" : ", ") + quoted(error);
  }
  std::string values;
  for (const perfbench::Value& v : m.values) {
    std::printf("%-36s %22s %s\n", v.name.c_str(), number(v.value).c_str(),
                v.unit.c_str());
    values += (values.empty() ? "" : ", ") + quoted(v.name) +
              ": {\"value\": " + number(v.value) +
              ", \"unit\": " + quoted(v.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"fed\": %llu, \"processed\": %llu, \"digest\": "
      "%s, \"errors\": [%s], \"values\": {%s}}\n",
      m.errors.empty() ? "true" : "false",
      static_cast<unsigned long long>(m.fed),
      static_cast<unsigned long long>(m.processed), quoted(m.digest).c_str(),
      errors.c_str(), values.c_str());
  return m.errors.empty() ? 0 : 1;
}
