// The benchmark's three workloads, each measured as one cold simulation per
// process (run.py starts the processes and aggregates them).
//
// The seed generates the contact trace (the workload's input). The engine
// keeps EngineParams' default seed, so the catalog and the query draws are
// the same in every run: with 40 files a day a handful of popularity draws
// would otherwise move the work of a whole run by 20%.
//
//   campus-mbt   NUS campus trace, full MBT with cooperative download on the
//                classic Engine: the clique regime with query proxying on.
//   bus-job      DieselNet trace, MBT-QM with coded download, faults,
//                recovery, Byzantine nodes and the defense, checkpointed
//                every 6 simulated hours: the pairwise regime of a service
//                job.
//   city-stream  a streamed 10^5-node city on the ShardedEngine with two
//                worker threads: the scale path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/checks.hpp"
#include "src/probes.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  /// Seed of the contact trace (or city stream).
  std::uint64_t seed = 1;
  /// Traced: attach the layer probes and report per-layer figures.
  bool traced = false;
  /// Run the checks that recompute a reference (oracle, resume) after the
  /// simulation.
  bool verify = false;
  /// When the process started; set-up time is measured from here.
  Clock::time_point processStart;
  /// Directory for checkpoint files; created and removed by the run.
  std::string scratchDir = ".bench_scratch";
};

struct Value {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one simulation measured.
struct Measurement {
  /// Correctness violations; empty when every check passed.
  Errors errors;
  /// Contacts fed to the engine and contacts it counted processed.
  std::uint64_t fed = 0;
  std::uint64_t processed = 0;
  /// Digest of the EngineResult; equal seeds must give equal digests.
  std::string digest;
  /// setup_s, step_s, contacts_per_s, wall_s, cpu_s, peak_rss_mib, then
  /// (traced) every per-layer figure.
  std::vector<Value> values;
};

[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Runs one simulation of the named workload; throws std::invalid_argument
/// on an unknown name.
[[nodiscard]] Measurement measure(const Options& options);

}  // namespace perfbench
