#include "src/core/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "src/core/checkpoint.hpp"
#include "src/core/download_planner.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/timeseries.hpp"
#include "src/trace/dieselnet.hpp"
#include "src/trace/mobility.hpp"
#include "src/trace/nus.hpp"
#include "src/trace/trace_io.hpp"
#include "src/util/string_util.hpp"

namespace hdtn::core {

// --- TraceSpec --------------------------------------------------------------

std::vector<std::string> TraceSpec::validate() const {
  std::vector<std::string> errors;
  if (family != "file" && family != "nus" && family != "dieselnet" &&
      family != "rwp") {
    errors.push_back("trace-family must be file|nus|dieselnet|rwp, got '" +
                     family + "'");
  }
  if (family == "file" && path.empty()) {
    errors.push_back("trace family 'file' requires a trace path (key 'trace')");
  }
  if (days < 0) errors.push_back("trace-days must be >= 0 (0 = default)");
  if (family == "nus" && (students < 2 || courses < 1)) {
    errors.push_back("nus trace needs >= 2 students and >= 1 course");
  }
  if (family == "dieselnet" && (buses < 2 || routes < 1)) {
    errors.push_back("dieselnet trace needs >= 2 buses and >= 1 route");
  }
  if (family == "rwp" && (nodes < 2 || hours <= 0.0)) {
    errors.push_back("rwp trace needs >= 2 nodes and positive hours");
  }
  return errors;
}

std::optional<trace::ContactTrace> TraceSpec::build(std::string* error) const {
  for (const std::string& problem : validate()) {
    if (error != nullptr) *error = problem;
    return std::nullopt;
  }
  if (family == "file") return trace::loadTraceFile(path, error);
  if (family == "nus") {
    trace::NusParams p;
    p.students = students;
    p.courses = courses;
    p.coursesPerStudent = coursesPerStudent;
    p.attendanceRate = attendance;
    if (days > 0) p.days = days;
    p.seed = seed;
    return trace::generateNus(p);
  }
  if (family == "dieselnet") {
    trace::DieselNetParams p;
    p.buses = buses;
    p.routes = routes;
    if (days > 0) p.days = days;
    p.seed = seed;
    return trace::generateDieselNet(p);
  }
  trace::RandomWaypointParams p;
  p.nodes = nodes;
  p.duration = static_cast<Duration>(hours * kHour);
  p.radioRange = radioRange;
  p.fieldWidth = p.fieldHeight = fieldSize;
  p.seed = seed;
  return trace::generateRandomWaypoint(p);
}

// --- Scenario knobs ---------------------------------------------------------

namespace {

/// A whole literal that strtod accepts and that is finite.
bool parseFiniteValue(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && std::isfinite(*out);
}

/// Bare switches ("--observed-popularity") arrive with an empty value.
bool parseBoolValue(const std::string& text, bool* out) {
  if (text.empty() || text == "true" || text == "1" || text == "on" ||
      text == "yes") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "off" || text == "no") {
    *out = false;
    return true;
  }
  return false;
}

std::string badValue(const std::string& key, const std::string& value,
                     const std::string& expected) {
  return "key '" + key + "': expected " + expected + ", got '" + value + "'";
}

/// Shortest text that reads back as the same double.
std::string formatNumber(double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

constexpr const char* kProtocolNames[] = {"mbt", "mbt-q", "mbt-qm"};

bool parseProtocol(Scenario& s, const std::string& value, std::string*) {
  const auto* it = std::find(std::begin(kProtocolNames),
                             std::end(kProtocolNames), value);
  if (it == std::end(kProtocolNames)) return false;
  s.params.protocol.kind =
      static_cast<ProtocolKind>(it - std::begin(kProtocolNames));
  return true;
}

bool parseScheduling(Scenario& s, const std::string& value, std::string*) {
  if (value != "coop" && value != "tft") return false;
  s.params.protocol.scheduling =
      value == "coop" ? Scheduling::kCooperative : Scheduling::kTitForTat;
  return true;
}

std::string schedulingName(const Scenario& s) {
  return s.params.protocol.scheduling == Scheduling::kTitForTat ? "tft"
                                                                 : "coop";
}

bool parseDownloadMode(Scenario& s, const std::string& value,
                       std::string*) {
  const DownloadModeInfo* info = findDownloadMode(value);
  if (info == nullptr) return false;
  s.params.downloadMode = info->mode;
  s.params.protocol.scheduling = info->scheduling;
  return true;
}

#define HDTN_FIELD(member) [](Scenario& s) -> auto& { return s.member; }

constexpr Knob kKnobs[] = {
    // identity + trace source
    {"name", HDTN_FIELD(name), "run label"},
    {"trace",
     Knob::Choice{[](Scenario& s, const std::string& value, std::string*) {
                    s.trace.family = "file";
                    s.trace.path = value;
                    return true;
                  },
                  [](const Scenario& s) { return s.trace.path; },
                  "a path"},
     "contact trace file, selecting trace-family=file"},
    {"trace-family", HDTN_FIELD(trace.family),
     "trace source: file|nus|dieselnet|rwp"},
    {"trace-seed", HDTN_FIELD(trace.seed), "trace generator seed",
     "nus|dieselnet|rwp"},
    {"trace-days", HDTN_FIELD(trace.days),
     "generator days (0 = 14 for nus, 20 for dieselnet)", "nus|dieselnet"},
    {"trace-students", HDTN_FIELD(trace.students), "nus: students", "nus"},
    {"trace-courses", HDTN_FIELD(trace.courses), "nus: courses", "nus"},
    {"trace-courses-per-student", HDTN_FIELD(trace.coursesPerStudent),
     "nus: courses each student takes", "nus"},
    {"trace-attendance", HDTN_FIELD(trace.attendance),
     "nus: class attendance rate", "nus"},
    {"trace-buses", HDTN_FIELD(trace.buses), "dieselnet: buses",
     "dieselnet"},
    {"trace-routes", HDTN_FIELD(trace.routes), "dieselnet: routes",
     "dieselnet"},
    {"trace-nodes", HDTN_FIELD(trace.nodes), "rwp: nodes", "rwp"},
    {"trace-hours", HDTN_FIELD(trace.hours), "rwp: simulated hours", "rwp"},
    {"trace-range", HDTN_FIELD(trace.radioRange), "rwp: radio range, m",
     "rwp"},
    {"trace-field", HDTN_FIELD(trace.fieldSize), "rwp: square field side, m",
     "rwp"},
    // engine parameters
    {"protocol",
     Knob::Choice{parseProtocol,
                  [](const Scenario& s) -> std::string {
                    return kProtocolNames[static_cast<int>(
                        s.params.protocol.kind)];
                  },
                  "mbt|mbt-q|mbt-qm"},
     "protocol variant"},
    {"scheduling", Knob::Choice{parseScheduling, schedulingName, "coop|tft"},
     "download scheduling"},
    {"download-mode",
     Knob::Choice{parseDownloadMode,
                  [](const Scenario& s) -> std::string {
                    return downloadModeName(s.params.downloadMode,
                                            s.params.protocol.scheduling);
                  },
                  "coop|tft|popularity|pairwise|coded"},
     "download mode, docs/CODING.md"},
    {"coded-redundancy", HDTN_FIELD(params.coded.redundancy),
     "coded: extra frames per deficit fraction"},
    {"coded-sparsity", HDTN_FIELD(params.coded.sparsity),
     "coded: coefficient-vector density"},
    {"access", HDTN_FIELD(params.internetAccessFraction),
     "Internet-access fraction"},
    {"files-per-day", HDTN_FIELD(params.newFilesPerDay),
     "files published per day"},
    {"ttl-days", HDTN_FIELD(params.fileTtlDays), "file/query time-to-live"},
    {"md-per-contact", HDTN_FIELD(params.metadataPerContact),
     "metadata budget per contact"},
    {"files-per-contact", HDTN_FIELD(params.filesPerContact),
     "file budget per contact"},
    {"pieces-per-file", HDTN_FIELD(params.piecesPerFile),
     "pieces per published file"},
    {"free-riders", HDTN_FIELD(params.freeRiderFraction),
     "free-riding fraction"},
    {"frequent-days", HDTN_FIELD(params.frequentContactPeriod),
     "frequent-contact window, days", nullptr, Knob::Unit::kDays},
    {"observed-popularity", HDTN_FIELD(params.useObservedPopularity),
     "rank by server-observed popularity"},
    {"seed", HDTN_FIELD(params.seed), "simulation seed"},
    // fault injection (docs/FAULTS.md)
    {"loss-rate", HDTN_FIELD(params.faults.messageLossRate),
     "fault: per-message loss probability"},
    {"truncation-rate", HDTN_FIELD(params.faults.contactTruncationRate),
     "fault: contact truncation probability"},
    {"truncation-keep-min", HDTN_FIELD(params.faults.truncationKeepMin),
     "fault: least budget fraction a truncated contact keeps"},
    {"truncation-keep-max", HDTN_FIELD(params.faults.truncationKeepMax),
     "fault: most budget fraction a truncated contact keeps"},
    {"corruption-rate", HDTN_FIELD(params.faults.pieceCorruptionRate),
     "fault: piece corruption probability"},
    {"churn-fraction", HDTN_FIELD(params.faults.churnDownFraction),
     "fault: long-run down-time fraction"},
    {"churn-downtime-hours", HDTN_FIELD(params.faults.churnMeanDowntime),
     "fault: mean down interval, hours", nullptr, Knob::Unit::kHours, true},
    // recovery layer (docs/RECOVERY.md)
    {"recovery-retries", HDTN_FIELD(params.recovery.maxRetries),
     "recovery: retransmission attempts per frame"},
    {"recovery-retransmit-budget", HDTN_FIELD(params.recovery.retransmitBudget),
     "recovery: resend slots per contact"},
    {"recovery-repair", HDTN_FIELD(params.recovery.repairPerContact),
     "recovery: anti-entropy requests per contact"},
    {"recovery-queue-limit", HDTN_FIELD(params.recovery.repairQueueLimit),
     "recovery: pending retransmissions kept per sender", nullptr,
     Knob::Unit::kSeconds, true},
    {"recovery-failover", HDTN_FIELD(params.recovery.coordinatorFailover),
     "recovery: elect a new clique coordinator"},
    {"md-capacity", HDTN_FIELD(params.nodeMetadataCapacity),
     "metadata records per node (0 = unbounded)"},
    // Byzantine adversary + defense (docs/ADVERSARY.md)
    {"adversary-fraction", HDTN_FIELD(params.adversary.byzantineFraction),
     "Byzantine fraction of non-access nodes"},
    {"adversary-attacks",
     Knob::Choice{[](Scenario& s, const std::string& value,
                     std::string* rejected) {
                    return faults::parseAttackMask(
                        value, &s.params.adversary.attacks, rejected);
                  },
                  [](const Scenario& s) {
                    return faults::attackMaskName(s.params.adversary.attacks);
                  },
                  "a comma-separated attack list "
                  "(pollution|piece-lie|false-summary|ack-spoof|coordinator), "
                  "'all', or 'none'"},
     "attacks Byzantine nodes mount"},
    {"defense", HDTN_FIELD(params.reputation.defense),
     "enable verification + quarantine defenses"},
    {"quarantine-threshold", HDTN_FIELD(params.reputation.quarantineThreshold),
     "suspicion level that quarantines a node"},
    // outputs (docs/OBSERVABILITY.md)
    {"events-out", HDTN_FIELD(eventsOut), "JSONL event trace path"},
    {"timeseries-out", HDTN_FIELD(timeseriesOut),
     "sampled delivery/totals CSV path"},
    {"sample-every", HDTN_FIELD(sampleEvery),
     "time-series cadence, sim seconds"},
    // checkpoint/resume (docs/CHECKPOINT.md)
    {"checkpoint-out", HDTN_FIELD(checkpointOut), "periodic checkpoint path"},
    {"checkpoint-every", HDTN_FIELD(checkpointEvery),
     "checkpoint cadence, sim seconds"},
    {"resume", HDTN_FIELD(resume), "restore from checkpoint-out if it exists"},
};

#undef HDTN_FIELD

/// A number in the knob's unit, stored in T only when it is finite, fits T
/// and honours the knob's minimum.
template <typename T>
std::string storeNumber(const Knob& knob, const std::string& value, T* out) {
  if constexpr (std::is_integral_v<T>) {
    if (knob.unit != Knob::Unit::kHours) {
      const T scale = knob.unit == Knob::Unit::kDays ? T{kDay} : T{1};
      const T lo =
          knob.positive ? T{1} : std::numeric_limits<T>::min() / scale;
      const T hi = std::numeric_limits<T>::max() / scale;
      T parsed{};
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
      if (ec != std::errc() || ptr != end || parsed < lo || parsed > hi) {
        return badValue(knob.key, value,
                        "an integer in [" + std::to_string(lo) + ", " +
                            std::to_string(hi) + "]");
      }
      *out = parsed * scale;
      return "";
    }
  }
  // A double, or a Duration in (fractional) hours that must still fit in
  // an int64 once converted to seconds.
  double parsed = 0.0;
  const bool ok = parseFiniteValue(value, &parsed) &&
                  (!knob.positive || parsed > 0.0);
  const double scaled =
      knob.unit == Knob::Unit::kHours ? parsed * kHour : parsed;
  if (!ok || (std::is_integral_v<T> && !(std::fabs(scaled) < 9e18))) {
    return badValue(knob.key, value,
                    knob.positive ? "a positive finite number"
                                  : "a finite number");
  }
  *out = static_cast<T>(scaled);
  return "";
}

/// Parses `value` by the knob's kind and stores it in the owning field.
std::string store(const Knob& knob, Scenario& scenario,
                  const std::string& value) {
  return std::visit(
      [&](auto field) -> std::string {
        if constexpr (std::is_same_v<decltype(field), Knob::Choice>) {
          std::string rejected;
          if (field.parse(scenario, value, &rejected)) return "";
          return badValue(knob.key, rejected.empty() ? value : rejected,
                          field.vocabulary);
        } else {
          auto& target = field(scenario);
          using T = std::remove_reference_t<decltype(target)>;
          if constexpr (std::is_same_v<T, std::string>) {
            target = value;
            return "";
          } else if constexpr (std::is_same_v<T, bool>) {
            if (parseBoolValue(value, &target)) return "";
            return badValue(knob.key, value, "a boolean");
          } else {
            return storeNumber(knob, value, &target);
          }
        }
      },
      knob.field);
}

}  // namespace

std::string Knob::show(const Scenario& scenario) const {
  return std::visit(
      [&](auto field) -> std::string {
        if constexpr (std::is_same_v<decltype(field), Choice>) {
          return field.name(scenario);
        } else {
          // Accessors hand out mutable references; this only reads.
          const auto value = field(const_cast<Scenario&>(scenario));
          using T = std::remove_const_t<decltype(value)>;
          if constexpr (std::is_same_v<T, std::string>) {
            return value;
          } else if constexpr (std::is_same_v<T, bool>) {
            return value ? "true" : "false";
          } else if constexpr (std::is_floating_point_v<T>) {
            return formatNumber(value);
          } else if (unit == Unit::kHours) {
            return formatNumber(static_cast<double>(value) / kHour);
          } else {
            return std::to_string(unit == Unit::kDays ? value / kDay : value);
          }
        }
      },
      field);
}

std::span<const Knob> scenarioKnobs() { return kKnobs; }

const Knob* findKnob(std::string_view key) {
  for (const Knob& knob : kKnobs) {
    if (key == knob.key) return &knob;
  }
  return nullptr;
}

std::string Scenario::apply(const std::string& key, const std::string& value) {
  const Knob* knob = findKnob(key);
  if (knob == nullptr) return "unknown key '" + key + "'";
  return store(*knob, *this, value);
}

std::optional<Scenario> Scenario::parse(std::istream& in,
                                        std::vector<std::string>* errors) {
  Scenario scenario;
  bool failed = false;
  std::string line;
  int lineNumber = 0;
  while (std::getline(in, line)) {
    ++lineNumber;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    const std::string trimmed(trim(line));
    if (trimmed.empty()) continue;
    const std::size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      if (errors != nullptr) {
        errors->push_back("line " + std::to_string(lineNumber) +
                          ": expected 'key = value', got '" + trimmed + "'");
      }
      failed = true;
      continue;
    }
    const std::string key(trim(std::string_view(trimmed).substr(0, eq)));
    const std::string value(trim(std::string_view(trimmed).substr(eq + 1)));
    const std::string error = scenario.apply(key, value);
    if (!error.empty()) {
      if (errors != nullptr) {
        errors->push_back("line " + std::to_string(lineNumber) + ": " + error);
      }
      failed = true;
    }
  }
  if (failed) return std::nullopt;
  return scenario;
}

std::optional<Scenario> Scenario::fromFile(const std::string& path,
                                           std::vector<std::string>* errors) {
  std::ifstream in(path);
  if (!in) {
    if (errors != nullptr) {
      errors->push_back("cannot read scenario file '" + path + "'");
    }
    return std::nullopt;
  }
  return parse(in, errors);
}

namespace {

/// Whether `family` is one of the '|'-separated `families`.
bool familyIn(std::string_view families, std::string_view family) {
  while (true) {
    const std::size_t bar = families.find('|');
    if (families.substr(0, bar) == family) return true;
    if (bar == std::string_view::npos) return false;
    families.remove_prefix(bar + 1);
  }
}

}  // namespace

std::vector<std::string> Scenario::validate() const {
  std::vector<std::string> errors = trace.validate();
  // A generator knob only means something to its own families; off its
  // default under another family it would be silently ignored.
  const Scenario defaults;
  for (const Knob& knob : kKnobs) {
    if (knob.family != nullptr && !familyIn(knob.family, trace.family) &&
        knob.show(*this) != knob.show(defaults)) {
      errors.push_back(std::string(knob.key) + " applies to trace-family " +
                       knob.family + ", but trace-family is '" + trace.family +
                       "'");
    }
  }
  for (std::string& error : params.validate()) {
    errors.push_back(std::move(error));
  }
  if (sampleEvery <= 0) errors.push_back("sample-every must be positive");
  if (checkpointEvery <= 0) {
    errors.push_back("checkpoint-every must be positive");
  }
  if (resume && checkpointOut.empty()) {
    errors.push_back("resume requires checkpoint-out");
  }
  return errors;
}

// --- runScenario ------------------------------------------------------------

namespace {

/// Cooperative preemption flag (setScenarioStopFlag). Checked only at
/// sample/checkpoint boundaries of checkpointing runs, so the cost on the
/// simulation hot path is zero.
const volatile std::sig_atomic_t* g_stopFlag = nullptr;

bool stopRequested() { return g_stopFlag != nullptr && *g_stopFlag != 0; }

/// The driver state a checkpointing run stores in the checkpoint's extra
/// blob: how far each output file had gotten (byte offsets, so a resume can
/// truncate a partially written tail and append byte-identically) and the
/// next sample/checkpoint boundaries.
struct ResumeCursor {
  std::uint64_t eventsWritten = 0;
  std::uint64_t eventsOffset = 0;
  std::uint64_t timeseriesOffset = 0;
  SimTime nextSample = 0;
  SimTime nextCheckpoint = 0;
  bool hasEvents = false;
  bool hasTimeseries = false;
};

constexpr std::uint8_t kCursorVersion = 1;

std::string packCursor(const ResumeCursor& cursor) {
  Serializer out;
  out.u8(kCursorVersion);
  out.boolean(cursor.hasEvents);
  out.boolean(cursor.hasTimeseries);
  out.u64(cursor.eventsWritten);
  out.u64(cursor.eventsOffset);
  out.u64(cursor.timeseriesOffset);
  out.i64(cursor.nextSample);
  out.i64(cursor.nextCheckpoint);
  return out.takeBytes();
}

bool unpackCursor(const std::string& blob, ResumeCursor* cursor,
                  std::string* error) {
  try {
    Deserializer in(blob);
    if (in.u8() != kCursorVersion) {
      if (error != nullptr) {
        *error = "cannot resume: checkpoint carries an unknown driver cursor "
                 "version";
      }
      return false;
    }
    cursor->hasEvents = in.boolean();
    cursor->hasTimeseries = in.boolean();
    cursor->eventsWritten = in.u64();
    cursor->eventsOffset = in.u64();
    cursor->timeseriesOffset = in.u64();
    cursor->nextSample = in.i64();
    cursor->nextCheckpoint = in.i64();
    return true;
  } catch (const SerializeError& e) {
    if (error != nullptr) {
      *error = std::string("cannot resume: corrupt driver cursor: ") +
               e.what();
    }
    return false;
  }
}

/// Opens an output for a fresh run, or — resuming — truncates it back to
/// the offset the checkpoint recorded (dropping any tail written after the
/// checkpoint but before the crash) and reopens it in append mode. Missing
/// or too-short files fail loudly: the resume contract is byte identity,
/// and a file that lost bytes before the recorded offset cannot honor it.
bool openOutput(const std::string& path, bool resumed, std::uint64_t offset,
                const char* what, std::ofstream* out, std::string* error) {
  namespace fs = std::filesystem;
  if (!resumed) {
    out->open(path);
    if (!*out) {
      if (error != nullptr) *error = "cannot write " + path;
      return false;
    }
    return true;
  }
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) {
    if (error != nullptr) {
      *error = std::string("cannot resume: ") + what + " output '" + path +
               "' is missing (" + ec.message() +
               "); it must survive alongside the checkpoint";
    }
    return false;
  }
  if (size < offset) {
    if (error != nullptr) {
      *error = std::string("cannot resume: ") + what + " output '" + path +
               "' holds " + std::to_string(size) +
               " bytes but the checkpoint recorded " + std::to_string(offset);
    }
    return false;
  }
  fs::resize_file(path, offset, ec);
  if (ec) {
    if (error != nullptr) {
      *error = std::string("cannot resume: cannot truncate ") + what +
               " output '" + path + "': " + ec.message();
    }
    return false;
  }
  out->open(path, std::ios::app);
  if (!*out) {
    if (error != nullptr) {
      *error = std::string("cannot reopen ") + what + " output '" + path +
               "' for append";
    }
    return false;
  }
  return true;
}

}  // namespace

void setScenarioStopFlag(const volatile std::sig_atomic_t* flag) {
  g_stopFlag = flag;
}

/// The run driver: advances the engine boundary by boundary (sample
/// boundaries and, when checkpointing, checkpoint boundaries, in time
/// order), writing the time series incrementally so every checkpoint can
/// record the exact on-disk offsets of both outputs. Event execution is
/// identical to Engine::run() and obs::runSampled — only the bookkeeping
/// between events differs.
std::optional<ScenarioOutcome> runScenario(const Scenario& scenario,
                                           const trace::ContactTrace& trace,
                                           std::string* error) {
  for (const std::string& problem : scenario.validate()) {
    if (error != nullptr) *error = problem;
    return std::nullopt;
  }
  ScenarioOutcome outcome;
  Engine engine(trace, scenario.params);
  const bool wantEvents = !scenario.eventsOut.empty();
  const bool wantTimeseries = !scenario.timeseriesOut.empty();
  ResumeCursor cursor;
  cursor.hasEvents = wantEvents;
  cursor.hasTimeseries = wantTimeseries;
  cursor.nextSample = scenario.sampleEvery;
  const bool checkpointing = !scenario.checkpointOut.empty();
  cursor.nextCheckpoint =
      checkpointing ? scenario.checkpointEvery : kTimeInfinity;
  if (scenario.resume && std::filesystem::exists(scenario.checkpointOut)) {
    try {
      const CheckpointInfo info = readCheckpointInfo(scenario.checkpointOut);
      if (!unpackCursor(info.extra, &cursor, error)) return std::nullopt;
      if (cursor.hasEvents != wantEvents ||
          cursor.hasTimeseries != wantTimeseries) {
        if (error != nullptr) {
          *error = "cannot resume: the checkpoint was written with different "
                   "events-out/timeseries-out settings";
        }
        return std::nullopt;
      }
      engine.restoreCheckpoint(scenario.checkpointOut);
    } catch (const CheckpointError& e) {
      if (error != nullptr) *error = e.what();
      return std::nullopt;
    }
    outcome.resumed = true;
  }
  std::ofstream eventsFile;
  std::optional<obs::JsonlEventSink> sink;
  if (wantEvents) {
    if (!openOutput(scenario.eventsOut, outcome.resumed, cursor.eventsOffset,
                    "events", &eventsFile, error)) {
      return std::nullopt;
    }
    sink.emplace(eventsFile);
    engine.setObserver(&*sink);
  }
  std::ofstream tsFile;
  if (wantTimeseries) {
    if (!openOutput(scenario.timeseriesOut, outcome.resumed,
                    cursor.timeseriesOffset, "timeseries", &tsFile, error)) {
      return std::nullopt;
    }
    if (!outcome.resumed) obs::TimeSeries::writeCsvHeader(tsFile);
  }
  // The on-disk bytes must match the offsets a checkpoint records, so
  // outputs are flushed (and verified) before each one.
  const auto flushSeries = [&] {
    if (wantTimeseries && !tsFile.flush()) {
      throw std::runtime_error("I/O error writing " + scenario.timeseriesOut);
    }
  };
  const SimTime end = engine.endTime();
  try {
    while (true) {
      SimTime boundary = end;
      if (wantTimeseries && cursor.nextSample < boundary) {
        boundary = cursor.nextSample;
      }
      if (cursor.nextCheckpoint < boundary) boundary = cursor.nextCheckpoint;
      if (boundary >= end) break;
      engine.runUntil(boundary);
      // Sample before checkpointing so a checkpoint at a shared boundary
      // covers the row just written.
      if (wantTimeseries && boundary == cursor.nextSample) {
        obs::TimeSeries::writeCsvRow(tsFile,
                                     {boundary, engine.currentResult()});
        cursor.nextSample += scenario.sampleEvery;
      }
      // A preemption request checkpoints at whatever boundary comes next
      // (sample or checkpoint), so the stop latency is bounded by the
      // tighter of the two cadences.
      const bool preempt = checkpointing && stopRequested();
      if (boundary == cursor.nextCheckpoint || preempt) {
        if (boundary == cursor.nextCheckpoint) {
          cursor.nextCheckpoint += scenario.checkpointEvery;
        }
        if (sink) sink->finish();
        flushSeries();
        ResumeCursor at = cursor;
        at.eventsWritten =
            cursor.eventsWritten + (sink ? sink->eventsWritten() : 0);
        at.eventsOffset =
            wantEvents ? static_cast<std::uint64_t>(eventsFile.tellp()) : 0;
        at.timeseriesOffset =
            wantTimeseries ? static_cast<std::uint64_t>(tsFile.tellp()) : 0;
        engine.saveCheckpoint(scenario.checkpointOut, packCursor(at));
      }
      if (preempt) {
        outcome.preempted = true;
        break;
      }
    }
    if (outcome.preempted) {
      outcome.result = engine.currentResult();
    } else {
      outcome.result = engine.finish();
      if (wantTimeseries) {
        obs::TimeSeries::writeCsvRow(tsFile, {end, outcome.result});
      }
      flushSeries();
      if (sink) sink->finish();
    }
  } catch (const std::runtime_error& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
  if (sink) {
    outcome.eventsWritten = cursor.eventsWritten + sink->eventsWritten();
  }
  return outcome;
}

std::optional<ScenarioOutcome> runScenario(const Scenario& scenario,
                                           std::string* error) {
  const auto trace = scenario.trace.build(error);
  if (!trace) return std::nullopt;
  return runScenario(scenario, *trace, error);
}

}  // namespace hdtn::core
