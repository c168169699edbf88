#include "src/probes.hpp"

#include <sys/resource.h>

namespace perfbench {

using hdtn::obs::SimEventType;

double secondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::optional<hdtn::trace::Contact> CountingStream::next() {
  std::optional<hdtn::trace::Contact> contact;
  if (timed_) {
    const Clock::time_point start = Clock::now();
    contact = inner_.next();
    seconds_ += secondsBetween(start, Clock::now());
  } else {
    contact = inner_.next();
  }
  if (contact) {
    ++yielded_;
    ++total_;
  }
  return contact;
}

void CountingStream::reset() {
  if (timed_) {
    const Clock::time_point start = Clock::now();
    inner_.reset();
    seconds_ += secondsBetween(start, Clock::now());
  } else {
    inner_.reset();
  }
  yielded_ = 0;
}

void LayerObserver::closePhase(Clock::time_point now) {
  const double length = secondsBetween(phaseStart_, now);
  switch (phase_) {
    case Phase::kPrepare:
      prepare_ += length;
      break;
    case Phase::kDiscovery:
      discovery_ += length;
      break;
    case Phase::kDownload:
      download_ += length;
      break;
    case Phase::kIdle:
      break;
  }
  phaseStart_ = now;
}

void LayerObserver::onEvent(const hdtn::obs::SimEvent& event) {
  ++counts_[static_cast<std::size_t>(event.type)];
  switch (event.type) {
    case SimEventType::kContactBegin:
      phaseStart_ = Clock::now();
      phase_ = Phase::kPrepare;
      break;
    case SimEventType::kDiscoveryPlanned:
      closePhase(Clock::now());
      phase_ = Phase::kDiscovery;
      break;
    case SimEventType::kDownloadPlanned:
      closePhase(Clock::now());
      phase_ = Phase::kDownload;
      break;
    case SimEventType::kContactEnd:
      closePhase(Clock::now());
      phase_ = Phase::kIdle;
      break;
    default:
      break;
  }
}

}  // namespace perfbench
