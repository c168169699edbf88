#include "src/workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/core/engine.hpp"
#include "src/core/scenario.hpp"
#include "src/core/sharded_engine.hpp"
#include "src/trace/citygen.hpp"

namespace perfbench {
namespace {

namespace core = hdtn::core;
namespace fs = std::filesystem;
using hdtn::SimTime;
using hdtn::obs::SimEventType;

/// Per-layer figures of one traced simulation, by metric name.
using Layers = std::map<std::string, double>;

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer figure a traced simulation reports, in order (run.py adds
/// obs.tracing_overhead). A figure whose layer a workload does not exercise
/// reads 0 there (see the README's table).
constexpr LayerMetric kLayerMetrics[] = {
    {"trace.build_s", "s"},
    {"trace.stream_s", "s"},
    {"trace.contacts", "count"},
    {"engine.publish_s", "s"},
    {"engine.publish_steps", "count"},
    {"engine.contact_s", "s"},
    {"contact.prepare_s", "s"},
    {"contact.discovery_s", "s"},
    {"contact.download_s", "s"},
    {"discovery.broadcasts", "count"},
    {"discovery.receptions_per_broadcast", "ratio"},
    {"download.broadcasts", "count"},
    {"download.receptions_per_broadcast", "ratio"},
    {"coding.frames", "count"},
    {"coding.innovative_ratio", "ratio"},
    {"coding.row_ops", "count"},
    {"coding.generations", "count"},
    {"recovery.retransmits", "count"},
    {"recovery.redelivery_ratio", "ratio"},
    {"recovery.repairs", "count"},
    {"reputation.quarantines", "count"},
    {"reputation.rollbacks", "count"},
    {"checkpoint.save_s", "s"},
    {"checkpoint.saves", "count"},
    {"checkpoint.bytes", "bytes"},
    {"checkpoint.restore_s", "s"},
    {"sharded.components", "count"},
    {"sharded.max_component_share", "ratio"},
    {"sharded.step_s", "s"},
    {"sharded.parallel_efficiency", "ratio"},
    {"engine.teardown_s", "s"},
    {"memory.bytes_per_node", "B/node"},
};

/// Checkpoint cadence of bus-job: the sweep service's default.
constexpr SimTime kCheckpointEvery = 6 * hdtn::kHour;

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Layer counters read from EngineTotals (the engine's own accounting).
void addTotalsLayers(Layers& layers, const core::EngineTotals& t) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  layers["discovery.broadcasts"] = d(t.metadataBroadcasts);
  layers["discovery.receptions_per_broadcast"] =
      ratio(d(t.metadataReceptions), d(t.metadataBroadcasts));
  layers["download.broadcasts"] = d(t.pieceBroadcasts);
  layers["download.receptions_per_broadcast"] =
      ratio(d(t.pieceReceptions), d(t.pieceBroadcasts));
  layers["coding.frames"] = d(t.codedBroadcasts);
  layers["coding.innovative_ratio"] =
      ratio(d(t.codedInnovativeFrames),
            d(t.codedInnovativeFrames + t.codedRedundantFrames));
  layers["coding.row_ops"] = d(t.codedDecodeRowOps);
  layers["coding.generations"] = d(t.generationsDecoded);
  layers["recovery.retransmits"] = d(t.recoveryRetransmits);
  layers["recovery.redelivery_ratio"] =
      ratio(d(t.recoveryRedeliveries), d(t.recoveryRetransmits));
  layers["recovery.repairs"] = d(t.repairRequests);
  layers["reputation.quarantines"] = d(t.nodesQuarantined);
  layers["reputation.rollbacks"] = d(t.generationsRolledBack);
}

/// Delivered queries of one engine, owners mapped through `global` (empty =
/// identity).
void appendDeliveries(const core::Engine& engine,
                      const std::vector<hdtn::NodeId>& global,
                      std::vector<Delivery>& out) {
  for (const auto& r : engine.metrics().records()) {
    if (!r.fileAt) continue;
    const hdtn::NodeId owner = global.empty() ? r.owner : global[r.owner.value];
    out.push_back({owner, r.target, *r.fileAt});
  }
}

/// The catalog entries of the files that some delivery names.
std::vector<TrackedFile> deliveredFiles(const core::Engine& engine,
                                        const std::vector<Delivery>& ds) {
  std::vector<std::uint32_t> ids;
  ids.reserve(ds.size());
  for (const Delivery& d : ds) ids.push_back(d.file.value);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<TrackedFile> files;
  for (std::uint32_t id : ids) {
    const auto* info = engine.internet().catalog().find(hdtn::FileId(id));
    if (info == nullptr) continue;  // unreachable in the oracle: flagged
    files.push_back({hdtn::FileId(id), info->publishedAt, info->expiresAt()});
  }
  return files;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the trace (or opens the stream) and constructs the engine.
  virtual void setup(Layers* layers) = 0;
  /// Runs the simulation to its end; traced when `layers` is non-null.
  virtual core::EngineResult step(Layers* layers) = 0;
  /// Contacts fed to the engine by this simulation.
  [[nodiscard]] virtual std::uint64_t fed() const = 0;
  /// Untimed checks while the engine is alive; with `keep` it also keeps
  /// what verify() needs.
  virtual Errors inspect(const core::EngineResult& result, bool keep) = 0;
  /// Destroys the engine, then the trace or stream.
  virtual void teardown() = 0;
  /// After teardown: checks that recompute a reference.
  virtual Errors verify(Layers& layers) = 0;
  [[nodiscard]] virtual std::size_t nodes() const = 0;
};

/// A materialized trace on the classic Engine.
class TraceWorkload : public Workload {
 public:
  TraceWorkload(core::TraceSpec spec, core::EngineParams params)
      : spec_(std::move(spec)), params_(std::move(params)) {}

  void setup(Layers* layers) override {
    trace_ = buildTrace(layers);
    nodes_ = trace_->nodeCount();
    engine_ = std::make_unique<core::Engine>(*trace_, params_);
  }

  core::EngineResult step(Layers* layers) override {
    if (layers == nullptr) return runUntraced();
    LayerObserver observer;
    engine_->setObserver(&observer);
    double publishSeconds = 0.0;
    double contactSeconds = 0.0;
    std::uint64_t publishSteps = 0;
    beginTracedRun();
    while (true) {
      const std::uint64_t begun = observer.count(SimEventType::kContactBegin);
      const Clock::time_point start = Clock::now();
      if (!engine_->step()) {
        afterTracedStep(*layers, true);
        break;
      }
      const double seconds = secondsBetween(start, Clock::now());
      if (observer.count(SimEventType::kContactBegin) > begun) {
        contactSeconds += seconds;
      } else {
        publishSeconds += seconds;
        ++publishSteps;
      }
      afterTracedStep(*layers, false);
    }
    core::EngineResult result = engine_->finish();
    engine_->setObserver(nullptr);
    Layers& l = *layers;
    l["engine.publish_s"] = publishSeconds;
    l["engine.publish_steps"] = static_cast<double>(publishSteps);
    l["engine.contact_s"] = contactSeconds;
    l["contact.prepare_s"] = observer.prepareSeconds();
    l["contact.discovery_s"] = observer.discoverySeconds();
    l["contact.download_s"] = observer.downloadSeconds();
    l["trace.contacts"] = static_cast<double>(trace_->contactCount());
    addTotalsLayers(l, result.totals);
    EventCounts counts(hdtn::obs::kSimEventTypeCount);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] = observer.count(static_cast<SimEventType>(i));
    }
    appendErrors(eventErrors_, "events", checkEventCounts(counts,
                                                          result.totals));
    return result;
  }

  [[nodiscard]] std::uint64_t fed() const override {
    return trace_->contactCount();
  }

  Errors inspect(const core::EngineResult& result, bool keep) override {
    Errors errors = std::exchange(eventErrors_, {});
    appendErrors(errors, "fed",
                 checkFedProcessed(fed(), result.totals.contactsProcessed));
    appendErrors(errors, "publications",
                 checkFilesPublished(result.totals.filesPublished,
                                     params_.newFilesPerDay,
                                     trace_->endTime()));
    if (keep) {
      appendDeliveries(*engine_, {}, deliveries_);
      files_ = deliveredFiles(*engine_, deliveries_);
      access_ = engine_->accessNodes();
      keptResult_ = result;
    }
    return errors;
  }

  void teardown() override {
    engine_.reset();
    trace_.reset();
  }

  Errors verify(Layers& layers) override {
    const std::optional<hdtn::trace::ContactTrace> trace = buildTrace(nullptr);
    ArrivalOracle oracle(trace->nodeCount(), files_, access_);
    for (const hdtn::trace::Contact& c : trace->contacts()) {
      oracle.addContact(c);
    }
    oracle.finish();
    Errors errors;
    appendErrors(errors, "oracle", checkOracleBound(deliveries_, oracle));
    appendErrors(errors, "resume", verifyResume(*trace, layers));
    return errors;
  }

  [[nodiscard]] std::size_t nodes() const override { return nodes_; }

 protected:
  virtual core::EngineResult runUntraced() { return engine_->run(); }
  virtual void beginTracedRun() {}
  /// Called after every traced step, and once more (`last`) after the
  /// final one.
  virtual void afterTracedStep(Layers&, bool /*last*/) {}
  virtual Errors verifyResume(const hdtn::trace::ContactTrace&, Layers&) {
    return {};
  }

  std::optional<hdtn::trace::ContactTrace> buildTrace(Layers* layers) const {
    const Clock::time_point start = Clock::now();
    std::string error;
    std::optional<hdtn::trace::ContactTrace> trace = spec_.build(&error);
    if (!trace) throw std::runtime_error("trace build failed: " + error);
    if (layers != nullptr) {
      (*layers)["trace.build_s"] = secondsBetween(start, Clock::now());
    }
    return trace;
  }

  core::TraceSpec spec_;
  core::EngineParams params_;
  std::optional<hdtn::trace::ContactTrace> trace_;
  std::unique_ptr<core::Engine> engine_;
  core::EngineResult keptResult_;

 private:
  std::size_t nodes_ = 0;
  Errors eventErrors_;
  std::vector<Delivery> deliveries_;
  std::vector<TrackedFile> files_;
  std::vector<hdtn::NodeId> access_;
};

class CampusWorkload final : public TraceWorkload {
 public:
  explicit CampusWorkload(std::uint64_t seed)
      : TraceWorkload(traceSpec(seed), engineParams()) {}

 private:
  static core::TraceSpec traceSpec(std::uint64_t seed) {
    core::TraceSpec spec;
    spec.family = "nus";
    spec.students = 400;
    spec.courses = 80;
    spec.days = 14;
    spec.seed = seed;
    return spec;
  }
  static core::EngineParams engineParams() {
    core::EngineParams p;  // cooperative broadcast download by default
    p.protocol.kind = core::ProtocolKind::kMbt;
    p.frequentContactPeriod = hdtn::kDay;
    return p;
  }
};

class BusJobWorkload final : public TraceWorkload {
 public:
  BusJobWorkload(std::uint64_t seed, const fs::path& scratch)
      : TraceWorkload(traceSpec(seed), engineParams()),
        rolling_((scratch / "rolling.ckpt").string()),
        mid_((scratch / "mid.ckpt").string()) {}

  Errors inspect(const core::EngineResult& result, bool keep) override {
    Errors errors = TraceWorkload::inspect(result, keep);
    appendErrors(errors, "coded",
                 checkCodedInvariants(result.totals, params_.piecesPerFile));
    return errors;
  }

 private:
  static core::TraceSpec traceSpec(std::uint64_t seed) {
    core::TraceSpec spec;
    spec.family = "dieselnet";
    spec.buses = 120;
    spec.routes = 16;
    spec.days = 30;
    spec.seed = seed;
    return spec;
  }
  static core::EngineParams engineParams() {
    core::EngineParams p;
    p.protocol.kind = core::ProtocolKind::kMbtQm;
    p.downloadMode = core::DownloadMode::kCoded;
    p.newFilesPerDay = 40;
    p.piecesPerFile = 8;
    p.filesPerContact = 4;
    p.faults.messageLossRate = 0.2;
    p.faults.pieceCorruptionRate = 0.05;
    p.recovery.maxRetries = 2;
    p.recovery.repairPerContact = 2;
    p.adversary.byzantineFraction = 0.2;
    p.reputation.defense = true;
    return p;
  }

  /// The last checkpoint boundary at or before mid-run; its checkpoint is
  /// kept for the resume check.
  [[nodiscard]] SimTime midBoundary() const {
    const SimTime half = engine_->endTime() / 2;
    return std::max(kCheckpointEvery, half / kCheckpointEvery *
                                          kCheckpointEvery);
  }

  core::EngineResult runUntraced() override {
    const SimTime end = engine_->endTime();
    const SimTime mid = midBoundary();
    for (SimTime b = kCheckpointEvery; b < end; b += kCheckpointEvery) {
      engine_->runUntil(b);
      engine_->saveCheckpoint(rolling_);
      if (b == mid) fs::rename(rolling_, mid_);
    }
    return engine_->finish();
  }

  // step() cannot stop before an event, so the traced run saves each
  // boundary's checkpoint right after the first event at or past it; it
  // saves as often as the untraced run.
  void beginTracedRun() override {
    nextSave_ = kCheckpointEvery;
    saves_ = 0;
    saveSeconds_ = 0.0;
    savedBytes_ = 0.0;
  }

  void afterTracedStep(Layers& layers, bool last) override {
    const SimTime end = engine_->endTime();
    while (nextSave_ < end && (last || nextSave_ <= engine_->now())) {
      const Clock::time_point start = Clock::now();
      engine_->saveCheckpoint(rolling_);
      saveSeconds_ += secondsBetween(start, Clock::now());
      savedBytes_ += static_cast<double>(fs::file_size(rolling_));
      ++saves_;
      if (nextSave_ == midBoundary()) fs::rename(rolling_, mid_);
      nextSave_ += kCheckpointEvery;
    }
    layers["checkpoint.save_s"] = saveSeconds_;
    layers["checkpoint.saves"] = static_cast<double>(saves_);
    layers["checkpoint.bytes"] =
        ratio(savedBytes_, static_cast<double>(saves_));
  }

  Errors verifyResume(const hdtn::trace::ContactTrace& trace,
                      Layers& layers) override {
    core::Engine resumed(trace, params_);
    const Clock::time_point start = Clock::now();
    resumed.restoreCheckpoint(mid_);
    layers["checkpoint.restore_s"] = secondsBetween(start, Clock::now());
    return checkSameResult(keptResult_, resumed.finish());
  }

  std::string rolling_;
  std::string mid_;
  SimTime nextSave_ = 0;
  std::uint64_t saves_ = 0;
  double saveSeconds_ = 0.0;
  double savedBytes_ = 0.0;
};

class CityWorkload final : public Workload {
 public:
  explicit CityWorkload(std::uint64_t seed) {
    city_.nodes = 100000;
    city_.districts = 64;
    city_.days = 2;
    city_.seed = seed;
    params_.engine.protocol.kind = core::ProtocolKind::kMbtQ;
    params_.threads = 2;
  }

  void setup(Layers* layers) override {
    const Clock::time_point start = Clock::now();
    stream_ = std::make_unique<hdtn::trace::CityStream>(city_);
    if (layers != nullptr) {
      (*layers)["trace.build_s"] = secondsBetween(start, Clock::now());
    }
    counter_ = std::make_unique<CountingStream>(*stream_, layers != nullptr);
    engine_ = std::make_unique<core::ShardedEngine>(*counter_, params_);
  }

  core::EngineResult step(Layers* layers) override {
    if (layers == nullptr) return engine_->run();
    const double streamBefore = counter_->seconds();
    const double cpuBefore = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    core::EngineResult result = engine_->run();
    const double runSeconds = secondsBetween(start, Clock::now());
    const double cpu = processCpuSeconds() - cpuBefore;
    const double streamSeconds = counter_->seconds() - streamBefore;
    Layers& l = *layers;
    l["trace.stream_s"] = streamSeconds;
    l["trace.contacts"] = static_cast<double>(counter_->contactsTotal());
    l["sharded.components"] = static_cast<double>(engine_->componentCount());
    std::uint64_t largest = 0;
    for (std::size_t i = 0; i < engine_->componentCount(); ++i) {
      largest = std::max(largest,
                         engine_->component(i).totals().contactsProcessed);
    }
    l["sharded.max_component_share"] =
        ratio(static_cast<double>(largest),
              static_cast<double>(result.totals.contactsProcessed));
    l["sharded.step_s"] = runSeconds - streamSeconds;
    l["sharded.parallel_efficiency"] =
        ratio(cpu, static_cast<double>(params_.threads) * runSeconds);
    addTotalsLayers(l, result.totals);
    return result;
  }

  [[nodiscard]] std::uint64_t fed() const override {
    return counter_->contactsSinceReset();
  }

  Errors inspect(const core::EngineResult& result, bool keep) override {
    Errors errors;
    appendErrors(errors, "fed",
                 checkFedProcessed(fed(), result.totals.contactsProcessed));
    // Every component publishes the shared daily catalog through the
    // stream's horizon.
    for (std::size_t i = 0; i < engine_->componentCount(); ++i) {
      appendErrors(errors, "publications (component " + std::to_string(i) +
                               ")",
                   checkFilesPublished(
                       engine_->component(i).totals().filesPublished,
                       params_.engine.newFilesPerDay, stream_->endTime()));
    }
    if (keep) {
      for (std::size_t i = 0; i < engine_->componentCount(); ++i) {
        const core::Engine& c = engine_->component(i);
        const std::vector<hdtn::NodeId>& global = engine_->componentNodes(i);
        appendDeliveries(c, global, deliveries_);
        for (hdtn::NodeId local : c.accessNodes()) {
          access_.push_back(global[local.value]);
        }
      }
      if (engine_->componentCount() > 0) {
        files_ = deliveredFiles(engine_->component(0), deliveries_);
      }
    }
    return errors;
  }

  void teardown() override {
    engine_.reset();
    counter_.reset();
    stream_.reset();
  }

  Errors verify(Layers&) override {
    hdtn::trace::CityStream stream(city_);
    ArrivalOracle oracle(stream.nodeCount(), files_, access_);
    while (std::optional<hdtn::trace::Contact> c = stream.next()) {
      oracle.addContact(*c);
    }
    oracle.finish();
    Errors errors;
    appendErrors(errors, "oracle", checkOracleBound(deliveries_, oracle));
    return errors;
  }

  [[nodiscard]] std::size_t nodes() const override { return city_.nodes; }

 private:
  hdtn::trace::CityParams city_;
  core::ShardedParams params_;
  std::unique_ptr<hdtn::trace::CityStream> stream_;
  std::unique_ptr<CountingStream> counter_;
  std::unique_ptr<core::ShardedEngine> engine_;
  std::vector<Delivery> deliveries_;
  std::vector<TrackedFile> files_;
  std::vector<hdtn::NodeId> access_;
};

std::unique_ptr<Workload> makeWorkload(const Options& options,
                                       const fs::path& scratch) {
  if (options.workload == "campus-mbt") {
    return std::make_unique<CampusWorkload>(options.seed);
  }
  if (options.workload == "bus-job") {
    return std::make_unique<BusJobWorkload>(options.seed, scratch);
  }
  if (options.workload == "city-stream") {
    return std::make_unique<CityWorkload>(options.seed);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

/// One simulation from set-up to engine destruction.
struct Simulation {
  double setupSeconds = 0.0;
  double stepSeconds = 0.0;
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;
  Clock::time_point setupEnd;
  std::uint64_t fed = 0;
  core::EngineResult result;
  Layers layers;
};

/// Times one simulation. The untimed inspection between stepping and
/// teardown is excluded from wall and CPU time.
Simulation simulate(Workload& w, bool traced, bool keep, Errors& errors) {
  Simulation s;
  Layers* layers = traced ? &s.layers : nullptr;
  const double cpu0 = processCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  w.setup(layers);
  s.setupEnd = Clock::now();
  s.result = w.step(layers);
  const Clock::time_point t2 = Clock::now();
  const double cpu2 = processCpuSeconds();
  s.fed = w.fed();
  appendErrors(errors, "inspect", w.inspect(s.result, keep));
  const double cpu3 = processCpuSeconds();
  const Clock::time_point t3 = Clock::now();
  w.teardown();
  const Clock::time_point t4 = Clock::now();
  const double cpu4 = processCpuSeconds();
  s.setupSeconds = secondsBetween(t0, s.setupEnd);
  s.stepSeconds = secondsBetween(s.setupEnd, t2);
  const double teardown = secondsBetween(t3, t4);
  s.wallSeconds = s.setupSeconds + s.stepSeconds + teardown;
  s.cpuSeconds = (cpu2 - cpu0) + (cpu4 - cpu3);
  if (traced) s.layers["engine.teardown_s"] = teardown;
  return s;
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  explicit ScratchDir(fs::path p) : path(std::move(p)) {
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  fs::path path;
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"campus-mbt", "bus-job",
                                                 "city-stream"};
  return names;
}

Measurement measure(const Options& options) {
  const ScratchDir scratch(fs::path(options.scratchDir) /
                           (options.workload + "-" +
                            std::to_string(::getpid())));
  std::unique_ptr<Workload> workload = makeWorkload(options, scratch.path);
  Measurement m;
  Simulation s =
      simulate(*workload, options.traced, options.verify, m.errors);
  // Read before verification, which builds references of its own: the
  // figure is the simulation's peak.
  const double peakMiB = peakRssMiB();
  Layers layers = std::move(s.layers);
  if (options.verify) {
    appendErrors(m.errors, "verify", workload->verify(layers));
  }
  m.fed = s.fed;
  m.processed = s.result.totals.contactsProcessed;
  m.digest = resultDigest(s.result);
  m.values = {
      {"setup_s", "s", secondsBetween(options.processStart, s.setupEnd)},
      {"step_s", "s", s.stepSeconds},
      {"contacts_per_s", "contacts/s",
       static_cast<double>(m.processed) / s.stepSeconds},
      {"wall_s", "s", s.wallSeconds},
      {"cpu_s", "s", s.cpuSeconds},
      {"peak_rss_mib", "MiB", peakMiB},
  };
  if (!options.traced) return m;
  layers["memory.bytes_per_node"] =
      peakMiB * 1024.0 * 1024.0 / static_cast<double>(workload->nodes());
  for (const LayerMetric& lm : kLayerMetrics) {
    const auto it = layers.find(lm.name);
    m.values.push_back(
        {lm.name, lm.unit, it == layers.end() ? 0.0 : it->second});
  }
  return m;
}

}  // namespace perfbench
