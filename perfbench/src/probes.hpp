// Measurement probes the benchmark wraps around the library's public calls:
// clocks, process CPU and peak RSS, a counting/timing contact-stream wrapper,
// and the per-layer event observer used by traced runs.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/events.hpp"
#include "src/trace/streaming.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double secondsBetween(Clock::time_point from,
                                    Clock::time_point to);

/// User plus system CPU seconds of the whole process (every thread, joined
/// ones included).
[[nodiscard]] double processCpuSeconds();

/// High-water resident set size of the process, in MiB.
[[nodiscard]] double peakRssMiB();

/// Forwards a ContactStream (partition hint included) and counts the
/// contacts it yields since the last reset(). With timing on it also sums
/// the wall time spent inside next() and reset() — the trace layer's share
/// of a streamed run.
class CountingStream final : public hdtn::trace::ContactStream {
 public:
  CountingStream(hdtn::trace::ContactStream& inner, bool timed)
      : inner_(inner), timed_(timed) {}

  std::optional<hdtn::trace::Contact> next() override;
  void reset() override;
  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  [[nodiscard]] std::size_t nodeCount() const override {
    return inner_.nodeCount();
  }
  [[nodiscard]] hdtn::SimTime endTime() const override {
    return inner_.endTime();
  }
  [[nodiscard]] const std::vector<std::uint32_t>& partitionHint()
      const override {
    return inner_.partitionHint();
  }

  /// Contacts yielded since the last reset (what the engine was fed).
  [[nodiscard]] std::uint64_t contactsSinceReset() const { return yielded_; }
  /// Contacts yielded over the stream's lifetime, every pass included.
  [[nodiscard]] std::uint64_t contactsTotal() const { return total_; }
  /// Seconds spent inside next() and reset() (0 when not timed).
  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  hdtn::trace::ContactStream& inner_;
  bool timed_;
  std::uint64_t yielded_ = 0;
  std::uint64_t total_ = 0;
  double seconds_ = 0.0;
};

/// Counts every event type and times the three phases of each contact from
/// observer timestamps:
///   prepare   kContactBegin -> first planner event (or the contact's end)
///   discovery kDiscoveryPlanned -> kDownloadPlanned (or the contact's end)
///   download  kDownloadPlanned -> kContactEnd
/// The clock is read only on those four event types.
class LayerObserver final : public hdtn::obs::EngineObserver {
 public:
  void onEvent(const hdtn::obs::SimEvent& event) override;

  [[nodiscard]] std::uint64_t count(hdtn::obs::SimEventType type) const {
    return counts_[static_cast<std::size_t>(type)];
  }
  [[nodiscard]] double prepareSeconds() const { return prepare_; }
  [[nodiscard]] double discoverySeconds() const { return discovery_; }
  [[nodiscard]] double downloadSeconds() const { return download_; }

 private:
  enum class Phase : std::uint8_t { kIdle, kPrepare, kDiscovery, kDownload };
  /// Closes the open phase at `now`, adding its length to its total.
  void closePhase(Clock::time_point now);

  std::array<std::uint64_t, hdtn::obs::kSimEventTypeCount> counts_{};
  Phase phase_ = Phase::kIdle;
  Clock::time_point phaseStart_{};
  double prepare_ = 0.0;
  double discovery_ = 0.0;
  double download_ = 0.0;
};

}  // namespace perfbench
