// Scenario: the declarative run configuration. Covers key application
// (file keys == CLI flags, one semantics) and its strict parsing over every
// row of the knob table, the `key = value` parser with line-numbered
// errors, trace-family ownership, trace building for every family, and
// runScenario() matching a hand-wired engine run.
#include "src/core/scenario.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>

#include "src/core/checkpoint.hpp"
#include "src/core/download_planner.hpp"
#include "src/faults/adversary.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/timeseries.hpp"
#include "src/service/exec.hpp"

namespace hdtn::core {
namespace {

/// A generated NUS campus scenario of the given size.
Scenario nusScenario(int students, int courses, int days) {
  Scenario s;
  s.trace.family = "nus";
  s.trace.students = students;
  s.trace.courses = courses;
  s.trace.days = days;
  return s;
}

TEST(ScenarioApply, DownloadModeRoundTripsThroughRegistry) {
  // parse -> format must be the identity for every registered mode name:
  // applying "download-mode" and reading the name back via the registry
  // returns the exact string that was applied.
  for (const DownloadModeInfo& info : downloadModeRegistry()) {
    Scenario s;
    EXPECT_EQ(s.apply("download-mode", info.name), "") << info.name;
    EXPECT_EQ(s.params.downloadMode, info.mode) << info.name;
    EXPECT_EQ(s.params.protocol.scheduling, info.scheduling) << info.name;
    EXPECT_STREQ(downloadModeName(s.params.downloadMode,
                                  s.params.protocol.scheduling),
                 info.name)
        << info.name;
  }
  Scenario s;
  EXPECT_NE(s.apply("download-mode", "rateless"), "");
}

TEST(ScenarioApply, CodedKnobsReachEngineParams) {
  Scenario s;
  EXPECT_EQ(s.apply("download-mode", "coded"), "");
  EXPECT_EQ(s.apply("coded-redundancy", "1.25"), "");
  EXPECT_EQ(s.apply("coded-sparsity", "0.4"), "");
  EXPECT_EQ(s.params.downloadMode, DownloadMode::kCoded);
  EXPECT_EQ(s.params.coded.redundancy, 1.25);
  EXPECT_EQ(s.params.coded.sparsity, 0.4);
  EXPECT_NE(s.apply("coded-redundancy", "up"), "");
}

TEST(ScenarioApply, AdversaryKnobsReachEngineParams) {
  Scenario s;
  EXPECT_EQ(s.apply("adversary-fraction", "0.2"), "");
  EXPECT_EQ(s.apply("adversary-attacks", "pollution,ack-spoof"), "");
  EXPECT_EQ(s.apply("defense", ""), "");  // bare switch
  EXPECT_EQ(s.apply("quarantine-threshold", "2.5"), "");
  EXPECT_EQ(s.params.adversary.byzantineFraction, 0.2);
  EXPECT_EQ(s.params.adversary.attacks,
            static_cast<std::uint32_t>(faults::AttackKind::kPollution) |
                static_cast<std::uint32_t>(faults::AttackKind::kAckSpoof));
  EXPECT_TRUE(s.params.reputation.defense);
  EXPECT_EQ(s.params.reputation.quarantineThreshold, 2.5);
  // Every alias the docs promise round-trips.
  EXPECT_EQ(s.apply("adversary-attacks", "all"), "");
  EXPECT_EQ(s.params.adversary.attacks, faults::kAllAttacks);
  EXPECT_EQ(s.apply("adversary-attacks", "none"), "");
  EXPECT_EQ(s.params.adversary.attacks, 0u);
  EXPECT_EQ(s.apply("defense", "false"), "");
  EXPECT_FALSE(s.params.reputation.defense);
}

TEST(ScenarioApply, AdversaryKnobsRejectBadValues) {
  Scenario s;
  EXPECT_NE(s.apply("adversary-fraction", "lots"), "");
  const std::string maskError = s.apply("adversary-attacks", "rateless");
  EXPECT_NE(maskError, "");
  // The rejection names the offending token and the accepted vocabulary.
  EXPECT_NE(maskError.find("rateless"), std::string::npos);
  EXPECT_NE(maskError.find("pollution"), std::string::npos);
  // In a list, the error quotes the bad item, not the whole value.
  const std::string itemError = s.apply("adversary-attacks", "pollution,bogus");
  EXPECT_NE(itemError.find("got 'bogus'"), std::string::npos) << itemError;
  EXPECT_NE(s.apply("defense", "maybe"), "");
  EXPECT_NE(s.apply("quarantine-threshold", "steep"), "");
}

TEST(ScenarioApply, SetsEngineAndFaultAndTraceFields) {
  Scenario s;
  EXPECT_EQ(s.apply("protocol", "mbt-q"), "");
  EXPECT_EQ(s.apply("scheduling", "tft"), "");
  EXPECT_EQ(s.apply("access", "0.5"), "");
  EXPECT_EQ(s.apply("files-per-day", "10"), "");
  EXPECT_EQ(s.apply("frequent-days", "1"), "");
  EXPECT_EQ(s.apply("loss-rate", "0.25"), "");
  EXPECT_EQ(s.apply("churn-fraction", "0.1"), "");
  EXPECT_EQ(s.apply("churn-downtime-hours", "2"), "");
  EXPECT_EQ(s.apply("trace-family", "dieselnet"), "");
  EXPECT_EQ(s.apply("trace-buses", "12"), "");
  EXPECT_EQ(s.params.protocol.kind, ProtocolKind::kMbtQ);
  EXPECT_EQ(s.params.protocol.scheduling, Scheduling::kTitForTat);
  EXPECT_EQ(s.params.internetAccessFraction, 0.5);
  EXPECT_EQ(s.params.newFilesPerDay, 10);
  EXPECT_EQ(s.params.frequentContactPeriod, kDay);
  EXPECT_EQ(s.params.faults.messageLossRate, 0.25);
  EXPECT_EQ(s.params.faults.churnDownFraction, 0.1);
  EXPECT_EQ(s.params.faults.churnMeanDowntime, 2 * kHour);
  EXPECT_EQ(s.trace.family, "dieselnet");
  EXPECT_EQ(s.trace.buses, 12);
}

TEST(ScenarioApply, BareSwitchMeansTrue) {
  Scenario s;
  EXPECT_EQ(s.apply("observed-popularity", ""), "");
  EXPECT_TRUE(s.params.useObservedPopularity);
  EXPECT_EQ(s.apply("observed-popularity", "false"), "");
  EXPECT_FALSE(s.params.useObservedPopularity);
}

TEST(ScenarioApply, RejectsUnknownKeysAndBadValues) {
  Scenario s;
  EXPECT_NE(s.apply("no-such-key", "1"), "");
  EXPECT_NE(s.apply("protocol", "flooding"), "");
  EXPECT_NE(s.apply("access", "lots"), "");
  EXPECT_NE(s.apply("files-per-day", "3.5"), "");
  EXPECT_NE(s.apply("churn-downtime-hours", "-1"), "");
}

/// A valid, non-default spelling for each vocabulary-valued key.
const std::map<std::string, std::string> kChoiceProbes = {
    {"trace", "campus.trace"},     {"protocol", "mbt-qm"},
    {"scheduling", "tft"},         {"download-mode", "coded"},
    {"adversary-attacks", "pollution,ack-spoof"}};

/// What `hdtn_sim --help` prints (the usage text goes to stderr).
std::string simHelpText() {
  return service::runChild(
             {"/bin/sh", "-c", std::string(HDTN_SIM_BINARY) + " --help 2>&1"},
             60.0)
      .output;
}

TEST(ScenarioApply, EveryKnownKeyIsAccepted) {
  // The knob table is what the CLI override loop iterates. Every row must
  // accept a valid value into its field, reject a malformed one strictly
  // (naming the key), and be listed by hdtn_sim --help.
  const std::string help = simHelpText();
  for (const Knob& knob : scenarioKnobs()) {
    SCOPED_TRACE(knob.key);
    const std::string key = knob.key;
    // Listed by hdtn_sim --help, with the default of a fresh Scenario.
    const std::string shown = knob.show(Scenario{});
    EXPECT_NE(help.find("--" + key + "=" + (shown.empty() ? "PATH" : shown)),
              std::string::npos);
    // Rejections name the key.
    const auto rejects = [&](const std::string& value) {
      Scenario s;
      const std::string error = s.apply(key, value);
      EXPECT_NE(error.find("'" + key + "'"), std::string::npos)
          << "value '" << value << "' got: '" << error << "'";
    };
    std::visit(
        [&](auto field) {
          if constexpr (std::is_same_v<decltype(field), Knob::Choice>) {
            ASSERT_EQ(kChoiceProbes.count(key), 1u) << "add a probe value";
            const std::string value = kChoiceProbes.at(key);
            Scenario s;
            EXPECT_EQ(s.apply(key, value), "");
            EXPECT_EQ(knob.show(s), value);
            if (key != "trace") rejects("no-such-" + key);
          } else {
            Scenario s;
            auto& target = field(s);
            using T = std::remove_reference_t<decltype(target)>;
            if constexpr (std::is_same_v<T, std::string>) {
              EXPECT_EQ(s.apply(key, "some text"), "");
              EXPECT_EQ(target, "some text");
            } else if constexpr (std::is_same_v<T, bool>) {
              EXPECT_EQ(s.apply(key, "true"), "");
              EXPECT_TRUE(target);
              rejects("maybe");
            } else if constexpr (std::is_floating_point_v<T>) {
              EXPECT_EQ(s.apply(key, "0.25"), "");
              EXPECT_EQ(target, 0.25);
              for (const char* bad : {"nan", "inf", "-inf", "1e999", "many"}) {
                rejects(bad);
              }
            } else if (knob.unit == Knob::Unit::kHours) {
              EXPECT_EQ(s.apply(key, "1.5"), "");
              EXPECT_EQ(target, static_cast<T>(1.5 * kHour));
              for (const char* bad : {"nan", "inf", "-inf", "1e300", "x"}) {
                rejects(bad);
              }
            } else {
              const T scale = knob.unit == Knob::Unit::kDays ? kDay : 1;
              EXPECT_EQ(s.apply(key, "7"), "");
              EXPECT_EQ(target, 7 * scale);
              EXPECT_EQ(knob.show(s), "7");
              for (const char* bad : {"3.5", "12abc", "", "seven"}) {
                rejects(bad);
              }
              // An integer is stored only when it fits the field (in the
              // key's unit); every 32-bit field rejects both probes.
              const long double max =
                  static_cast<long double>(std::numeric_limits<T>::max()) /
                  scale;
              for (const char* probe :
                   {"4294967297", "9223372036854775808",
                    "18446744073709551616"}) {
                if (std::stold(probe) > max) {
                  rejects(probe);
                } else {
                  Scenario fits;
                  EXPECT_EQ(fits.apply(key, probe), "") << probe;
                }
              }
              if constexpr (sizeof(T) <= 4) rejects("4294967297");
              if constexpr (std::is_unsigned_v<T>) rejects("-1");
            }
          }
        },
        knob.field);
  }
}

// --- the defects strict parsing closes, one test each ---------------------

TEST(ScenarioApply, RejectsFilesPerDayThatWouldNarrowToOne) {
  Scenario s;
  const std::string error = s.apply("files-per-day", "4294967297");
  EXPECT_NE(error.find("files-per-day"), std::string::npos) << error;
  EXPECT_EQ(s.params.newFilesPerDay, 40);
}

TEST(ScenarioApply, RejectsPiecesPerFileThatWouldNarrowToOne) {
  Scenario s;
  const std::string error = s.apply("pieces-per-file", "4294967297");
  EXPECT_NE(error.find("pieces-per-file"), std::string::npos) << error;
  EXPECT_EQ(s.params.piecesPerFile, 1u);
}

TEST(ScenarioApply, RejectsNanAttendance) {
  Scenario s;
  const std::string error = s.apply("trace-attendance", "nan");
  EXPECT_NE(error.find("trace-attendance"), std::string::npos) << error;
  EXPECT_EQ(s.trace.attendance, 0.85);
}

TEST(ScenarioApply, RejectsNegativeSeed) {
  Scenario s;
  const std::string error = s.apply("seed", "-1");
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
  EXPECT_EQ(s.params.seed, 42u);
}

TEST(ScenarioApply, RejectsInfiniteQuarantineThreshold) {
  Scenario s;
  const std::string error = s.apply("quarantine-threshold", "inf");
  EXPECT_NE(error.find("quarantine-threshold"), std::string::npos) << error;
  EXPECT_EQ(s.params.reputation.quarantineThreshold, 3.0);
}

TEST(ScenarioValidate, RejectsTraceKeyOfAnotherFamily) {
  Scenario s = nusScenario(24, 6, 3);
  EXPECT_EQ(s.apply("trace-buses", "7"), "");
  const std::vector<std::string> errors = s.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("trace-buses"), std::string::npos) << errors[0];
  // At its default the key is harmless, and it is fine for its own family.
  s.trace.buses = TraceSpec{}.buses;
  EXPECT_TRUE(s.validate().empty());
  Scenario diesel;
  diesel.trace.family = "dieselnet";
  diesel.trace.buses = 7;
  EXPECT_TRUE(diesel.validate().empty());
  // Generator keys: a trace file reads neither the seed nor the days, and
  // the random-waypoint generator runs for trace-hours, not days.
  Scenario file;
  EXPECT_EQ(file.apply("trace", "x.trace"), "");
  EXPECT_TRUE(file.validate().empty());
  EXPECT_EQ(file.apply("trace-seed", "7"), "");
  EXPECT_EQ(file.apply("trace-days", "3"), "");
  const std::vector<std::string> fileErrors = file.validate();
  ASSERT_EQ(fileErrors.size(), 2u);
  EXPECT_NE(fileErrors[0].find("trace-seed"), std::string::npos);
  EXPECT_NE(fileErrors[1].find("trace-days"), std::string::npos);
  Scenario rwp;
  rwp.trace.family = "rwp";
  rwp.trace.seed = 7;
  EXPECT_TRUE(rwp.validate().empty());
  rwp.trace.days = 3;
  ASSERT_EQ(rwp.validate().size(), 1u);
  EXPECT_NE(rwp.validate()[0].find("trace-days"), std::string::npos);
}

TEST(ScenarioCli, ReproducedDefectsExitTwoNamingTheKey) {
  for (const char* flag :
       {"--files-per-day=4294967297", "--pieces-per-file=4294967297",
        "--trace-attendance=nan", "--seed=-1", "--quarantine-threshold=inf",
        "--trace-buses=7"}) {
    const std::string key =
        std::string(flag).substr(2, std::string(flag).find('=') - 2);
    const service::ChildOutcome run = service::runChild(
        {"/bin/sh", "-c",
         std::string(HDTN_SIM_BINARY) +
             " --trace-family=nus --trace-students=20 --trace-courses=4"
             " --trace-days=2 --csv " +
             flag + " 2>&1"},
        60.0);
    EXPECT_EQ(run.cause, service::ExitCause::kCleanExit) << flag;
    EXPECT_EQ(run.exitCode, 2) << flag << ": " << run.output;
    EXPECT_NE(run.output.find(key), std::string::npos)
        << flag << ": " << run.output;
  }
}

TEST(ScenarioParse, ReadsFileFormatWithCommentsAndBlanks) {
  std::istringstream in(
      "# lossy campus run\n"
      "name = lossy-nus   # trailing comment\n"
      "\n"
      "trace-family = nus\n"
      "trace-students = 24\n"
      "protocol     = mbt-qm\n"
      "loss-rate    = 0.15\n");
  std::vector<std::string> errors;
  const auto scenario = Scenario::parse(in, &errors);
  ASSERT_TRUE(scenario.has_value()) << (errors.empty() ? "" : errors.front());
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(scenario->name, "lossy-nus");
  EXPECT_EQ(scenario->trace.family, "nus");
  EXPECT_EQ(scenario->trace.students, 24);
  EXPECT_EQ(scenario->params.protocol.kind, ProtocolKind::kMbtQm);
  EXPECT_EQ(scenario->params.faults.messageLossRate, 0.15);
}

TEST(ScenarioParse, ReportsLineNumberedErrors) {
  std::istringstream in(
      "protocol = mbt\n"
      "this line has no equals\n"
      "losss-rate = 0.1\n"
      "access = high\n");
  std::vector<std::string> errors;
  const auto scenario = Scenario::parse(in, &errors);
  EXPECT_FALSE(scenario.has_value());
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_NE(errors[0].find("line 2"), std::string::npos);
  EXPECT_NE(errors[1].find("line 3"), std::string::npos);
  EXPECT_NE(errors[1].find("losss-rate"), std::string::npos);
  EXPECT_NE(errors[2].find("line 4"), std::string::npos);
}

TEST(ScenarioFromFile, MissingFileIsAnError) {
  std::vector<std::string> errors;
  EXPECT_FALSE(
      Scenario::fromFile("/nonexistent/p.scenario", &errors).has_value());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("cannot read"), std::string::npos);
}

TEST(ScenarioValidate, CatchesTraceParamAndOutputProblems) {
  Scenario s;  // family "file" with no path
  EXPECT_FALSE(s.validate().empty());
  s.trace.family = "nus";
  EXPECT_TRUE(s.validate().empty());
  s.params.newFilesPerDay = 0;
  s.sampleEvery = 0;
  EXPECT_EQ(s.validate().size(), 2u);
}

TEST(TraceSpec, BuildsEveryFamily) {
  for (const char* family : {"nus", "dieselnet", "rwp"}) {
    TraceSpec spec;
    spec.family = family;
    spec.days = 2;
    spec.students = 20;
    spec.courses = 4;
    spec.buses = 8;
    spec.routes = 2;
    spec.nodes = 10;
    spec.hours = 2.0;
    std::string error;
    const auto trace = spec.build(&error);
    ASSERT_TRUE(trace.has_value()) << family << ": " << error;
    EXPECT_GT(trace->nodeCount(), 0u) << family;
  }
}

TEST(TraceSpec, RejectsUnknownFamilyAndMissingPath) {
  TraceSpec spec;
  spec.family = "warp";
  std::string error;
  EXPECT_FALSE(spec.build(&error).has_value());
  EXPECT_NE(error.find("trace-family"), std::string::npos);
  spec = TraceSpec{};  // family "file", empty path
  EXPECT_FALSE(spec.build(&error).has_value());
}

TEST(ScenarioApply, MatchesDirectFieldAssignment) {
  // Keys applied as text and fields assigned in C++ are one configuration.
  Scenario assigned = nusScenario(24, 6, 3);
  assigned.name = "assigned";
  assigned.trace.seed = 9;
  assigned.params.protocol.kind = ProtocolKind::kMbtQ;
  assigned.params.internetAccessFraction = 0.4;
  assigned.params.newFilesPerDay = 8;
  assigned.params.fileTtlDays = 2;
  assigned.params.frequentContactPeriod = kDay;
  assigned.params.seed = 11;
  assigned.params.faults.messageLossRate = 0.1;
  assigned.params.faults.churnDownFraction = 0.2;
  assigned.params.faults.churnMeanDowntime = 3 * kHour;
  EXPECT_TRUE(assigned.validate().empty());
  std::istringstream in(
      "name = assigned\ntrace-family = nus\ntrace-students = 24\n"
      "trace-courses = 6\ntrace-days = 3\ntrace-seed = 9\n"
      "protocol = mbt-q\naccess = 0.4\nfiles-per-day = 8\nttl-days = 2\n"
      "frequent-days = 1\nseed = 11\nloss-rate = 0.1\n"
      "churn-fraction = 0.2\nchurn-downtime-hours = 3\n");
  std::vector<std::string> errors;
  const auto parsed = Scenario::parse(in, &errors);
  ASSERT_TRUE(parsed.has_value()) << errors.front();
  for (const Knob& knob : scenarioKnobs()) {
    EXPECT_EQ(knob.show(*parsed), knob.show(assigned)) << knob.key;
  }
}

TEST(ScenarioValidate, ListsEveryProblem) {
  Scenario s = nusScenario(24, 6, 3);
  const std::string unknown = s.apply("no-such-key", "1");
  EXPECT_NE(unknown.find("no-such-key"), std::string::npos);
  s.params.newFilesPerDay = 0;
  s.sampleEvery = 0;
  s.trace.buses = 7;
  const std::vector<std::string> errors = s.validate();
  std::string all;
  for (const std::string& e : errors) all += e + "\n";
  EXPECT_EQ(errors.size(), 3u) << all;
  EXPECT_NE(all.find("newFilesPerDay"), std::string::npos) << all;
  EXPECT_NE(all.find("sample-every"), std::string::npos) << all;
  EXPECT_NE(all.find("trace-buses"), std::string::npos) << all;
}

TEST(RunScenario, MatchesHandWiredEngineRun) {
  Scenario s = nusScenario(24, 6, 3);
  s.params.protocol.kind = ProtocolKind::kMbtQm;
  s.params.frequentContactPeriod = kDay;
  s.params.faults.messageLossRate = 0.2;
  std::string error;
  const auto trace = s.trace.build(&error);
  ASSERT_TRUE(trace.has_value()) << error;
  const auto outcome = runScenario(s, *trace, &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  const EngineResult direct = runSimulation(*trace, s.params);
  EXPECT_EQ(outcome->result.delivery.filesDelivered,
            direct.delivery.filesDelivered);
  EXPECT_EQ(outcome->result.totals.faultMessagesDropped,
            direct.totals.faultMessagesDropped);
}

TEST(RunScenario, ConvenienceOverloadBuildsTheTrace) {
  Scenario s = nusScenario(20, 4, 2);
  s.params.frequentContactPeriod = kDay;
  std::string error;
  const auto outcome = runScenario(s, &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  EXPECT_GT(outcome->result.totals.contactsProcessed, 0u);
}

TEST(RunScenario, InvalidScenarioFailsWithMessage) {
  Scenario s;
  s.trace.family = "nus";
  s.params.fileTtlDays = 0;
  std::string error;
  EXPECT_FALSE(runScenario(s, &error).has_value());
  EXPECT_NE(error.find("fileTtlDays"), std::string::npos);
}

// --- checkpointed/resumed runs ----------------------------------------------

std::string readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// A small checkpointing scenario whose sample and checkpoint cadences are
/// deliberately misaligned (6 h vs 8 h), so boundaries of all three kinds
/// (sample-only, checkpoint-only, shared at 24 h) occur.
Scenario resumableScenario(const std::string& dir, bool resume) {
  Scenario s = nusScenario(30, 6, 3);
  s.name = "resumable";
  s.params.protocol.kind = ProtocolKind::kMbtQm;
  s.params.newFilesPerDay = 10;
  s.params.frequentContactPeriod = kDay;
  s.params.faults.messageLossRate = 0.1;
  s.eventsOut = dir + "/events.jsonl";
  s.timeseriesOut = dir + "/series.csv";
  s.sampleEvery = 6 * kHour;
  s.checkpointOut = dir + "/run.ckpt";
  s.checkpointEvery = 8 * kHour;
  s.resume = resume;
  return s;
}

TEST(RunScenarioCheckpoint, CheckpointedRunMatchesPlainRun) {
  const std::string dir = testing::TempDir() + "/sc_plain";
  std::filesystem::remove_all(dir);  // leftovers from a prior ctest run
  std::filesystem::create_directories(dir);
  std::string error;
  // Reference built without runScenario: an engine with a JSONL sink
  // attached, sampled by obs::runSampled, the series written by writeCsv.
  const Scenario base = resumableScenario(dir, false);
  const auto trace = base.trace.build(&error);
  ASSERT_TRUE(trace.has_value()) << error;
  std::ostringstream wantEvents;
  std::ostringstream wantSeries;
  std::uint64_t wantWritten = 0;
  EngineResult wantResult;
  {
    Engine engine(*trace, base.params);
    obs::JsonlEventSink sink(wantEvents);
    engine.setObserver(&sink);
    obs::TimeSeries series;
    wantResult = obs::runSampled(engine, base.sampleEvery, series);
    sink.finish();
    wantWritten = sink.eventsWritten();
    series.writeCsv(wantSeries);
  }
  ASSERT_GT(wantWritten, 0u);

  // Checkpoints off and on, with and without a time series (without one
  // the driver stops only at checkpoint boundaries, or not at all).
  for (const bool checkpointing : {false, true}) {
    for (const bool sampling : {true, false}) {
      SCOPED_TRACE(std::string(checkpointing ? "checkpoints on"
                                             : "checkpoints off") +
                   (sampling ? ", sampled" : ", unsampled"));
      Scenario s = resumableScenario(dir, false);
      if (!checkpointing) s.checkpointOut.clear();
      if (!sampling) s.timeseriesOut.clear();
      std::filesystem::remove(dir + "/series.csv");
      const auto outcome = runScenario(s, *trace, &error);
      ASSERT_TRUE(outcome.has_value()) << error;
      EXPECT_FALSE(outcome->resumed);
      EXPECT_EQ(outcome->eventsWritten, wantWritten);
      EXPECT_EQ(readAll(s.eventsOut), wantEvents.str());
      EXPECT_EQ(std::filesystem::exists(dir + "/series.csv"), sampling);
      if (sampling) {
        EXPECT_EQ(readAll(s.timeseriesOut), wantSeries.str());
      }
      EXPECT_EQ(outcome->result.delivery.filesDelivered,
                wantResult.delivery.filesDelivered);
      EXPECT_EQ(outcome->result.totals.pieceBroadcasts,
                wantResult.totals.pieceBroadcasts);
    }
  }
  // The last periodic checkpoint is left behind and is a valid file.
  const CheckpointInfo info =
      readCheckpointInfo(resumableScenario(dir, false).checkpointOut);
  EXPECT_EQ(info.version, kCheckpointVersion);
  EXPECT_GT(info.executedEvents, 0u);
}

TEST(RunScenarioCheckpoint, ResumeReproducesOutputsByteIdentically) {
  const std::string dir = testing::TempDir() + "/sc_resume";
  std::filesystem::remove_all(dir);  // leftovers from a prior ctest run
  std::filesystem::create_directories(dir);
  std::string error;
  const Scenario first = resumableScenario(dir, false);
  const auto full = runScenario(first, &error);
  ASSERT_TRUE(full.has_value()) << error;
  const std::string wantEvents = readAll(first.eventsOut);
  const std::string wantSeries = readAll(first.timeseriesOut);

  // Simulate a crash after the last checkpoint: the outputs carry a garbage
  // tail the checkpoint knows nothing about. Resume must truncate it back
  // to the recorded offsets and finish byte-identically.
  {
    std::ofstream events(first.eventsOut, std::ios::app);
    events << "{\"t\":GARBAGE half-written line";
    std::ofstream series(first.timeseriesOut, std::ios::app);
    series << "999999,partial row";
  }
  const Scenario again = resumableScenario(dir, true);
  const auto resumed = runScenario(again, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->eventsWritten, full->eventsWritten);
  EXPECT_EQ(readAll(again.eventsOut), wantEvents);
  EXPECT_EQ(readAll(again.timeseriesOut), wantSeries);
  EXPECT_EQ(resumed->result.delivery.filesDelivered,
            full->result.delivery.filesDelivered);
  EXPECT_EQ(resumed->result.totals.pieceBroadcasts,
            full->result.totals.pieceBroadcasts);
}

TEST(RunScenarioCheckpoint, ResumeWithoutCheckpointColdStarts) {
  const std::string dir = testing::TempDir() + "/sc_cold";
  std::filesystem::remove_all(dir);  // leftovers from a prior ctest run
  std::filesystem::create_directories(dir);
  std::string error;
  const Scenario s = resumableScenario(dir, true);  // nothing to resume yet
  const auto outcome = runScenario(s, &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  EXPECT_FALSE(outcome->resumed);
  EXPECT_GT(outcome->eventsWritten, 0u);
}

TEST(RunScenarioCheckpoint, ResumeWithMissingOutputFailsLoudly) {
  const std::string dir = testing::TempDir() + "/sc_missing";
  std::filesystem::remove_all(dir);  // leftovers from a prior ctest run
  std::filesystem::create_directories(dir);
  std::string error;
  const Scenario first = resumableScenario(dir, false);
  ASSERT_TRUE(runScenario(first, &error).has_value()) << error;
  std::filesystem::remove(first.eventsOut);
  const Scenario again = resumableScenario(dir, true);
  EXPECT_FALSE(runScenario(again, &error).has_value());
  EXPECT_NE(error.find("missing"), std::string::npos) << error;
}

TEST(RunScenarioCheckpoint, ValidationCatchesBadCheckpointConfig) {
  Scenario s;
  s.trace.family = "nus";
  s.resume = true;  // without checkpoint-out
  std::string error;
  EXPECT_FALSE(runScenario(s, &error).has_value());
  EXPECT_NE(error.find("resume requires checkpoint-out"), std::string::npos);

  Scenario t;
  t.trace.family = "nus";
  t.checkpointOut = "x.ckpt";
  t.checkpointEvery = 0;
  EXPECT_FALSE(runScenario(t, &error).has_value());
  EXPECT_NE(error.find("checkpoint-every"), std::string::npos);
}

}  // namespace
}  // namespace hdtn::core
