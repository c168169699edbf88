// The shared job-execution core: child spawning with memory or log-file
// capture, the cooperative stop protocol, and the retry classification the
// supervisor and the sweep service both use.
#include "src/service/exec.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace hdtn::service {
namespace {

namespace fs = std::filesystem;

std::string tempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(RunChildTest, CapturesExitCodeAndOutput) {
  const ChildOutcome run =
      runChild({"/bin/sh", "-c", "echo captured; exit 4"}, 10.0);
  EXPECT_EQ(run.cause, ExitCause::kCleanExit);
  EXPECT_EQ(run.exitCode, 4);
  EXPECT_EQ(run.output, "captured\n");
}

TEST(RunChildTest, KillsPastTheDeadline) {
  const ChildOutcome run = runChild({"/bin/sh", "-c", "sleep 30"}, 0.3);
  EXPECT_EQ(run.cause, ExitCause::kTimedOut);
}

/// True once `pid` no longer runs: gone, or a zombie awaiting its reaper.
bool processGone(pid_t pid, double withinSeconds) {
  const double deadline = monotonicSeconds() + withinSeconds;
  do {
    if (kill(pid, 0) != 0) return true;
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string pidField, comm, state;
    if (stat >> pidField >> comm >> state && state == "Z") return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } while (monotonicSeconds() < deadline);
  return false;
}

TEST(RunChildTest, DeadlineKillTakesTheGrandchildrenToo) {
  // The child backgrounds a grandchild and prints its pid; signalling only
  // the direct child would orphan the grandchild with the pipe still open.
  const double start = monotonicSeconds();
  const ChildOutcome run =
      runChild({"/bin/sh", "-c", "sleep 30 & echo $!; wait"}, 0.5);
  EXPECT_EQ(run.cause, ExitCause::kTimedOut);
  ASSERT_FALSE(run.output.empty());
  const pid_t grandchild = static_cast<pid_t>(std::stol(run.output));
  EXPECT_TRUE(processGone(grandchild, 5.0)) << "pid " << grandchild;
  EXPECT_LT(monotonicSeconds() - start, 10.0);
}

TEST(RunChildTest, InterruptingTheCallerStopsTheChildToo) {
  // The child leads its own process group, so a terminal's Ctrl-C reaches
  // only the caller; runChild passes it on before the caller dies of it.
  const std::string pidFile = testing::TempDir() + "/forwarded_child.pid";
  std::filesystem::remove(pidFile);
  const pid_t caller = fork();
  ASSERT_GE(caller, 0);
  if (caller == 0) {
    (void)runChild(
        {"/bin/sh", "-c", "echo $$ > " + pidFile + ".tmp && mv " + pidFile +
                              ".tmp " + pidFile + " && exec sleep 30"},
        60.0);
    _exit(0);
  }
  pid_t child = 0;
  const double deadline = monotonicSeconds() + 10.0;
  while (child == 0 && monotonicSeconds() < deadline) {
    std::ifstream in(pidFile);
    if (!(in >> child)) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(child, 0);
  // runChild registers the group right after the fork; leave it a moment.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  kill(caller, SIGINT);
  int status = 0;
  ASSERT_EQ(waitpid(caller, &status, 0), caller);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGINT) << status;
  EXPECT_TRUE(processGone(child, 5.0)) << "pid " << child;
}

TEST(RunChildTest, ReportsTheFatalSignal) {
  const ChildOutcome run = runChild({"/bin/sh", "-c", "kill -9 $$"}, 10.0);
  EXPECT_EQ(run.cause, ExitCause::kSignaled);
  EXPECT_EQ(run.signal, 9);
}

TEST(RunChildTest, ExecFailureIsExit127) {
  const ChildOutcome run = runChild({"/no/such/binary/anywhere"}, 10.0);
  EXPECT_EQ(run.cause, ExitCause::kCleanExit);
  EXPECT_EQ(run.exitCode, 127);
}

TEST(ChildProcessTest, LogFileModeRedirectsStdoutAndStderr) {
  const std::string log = tempPath("hdtn_exec_log_test.log");
  ChildProcess child;
  std::string error;
  ASSERT_TRUE(child.start({"/bin/sh", "-c", "echo out; echo err 1>&2"}, log,
                          &error))
      << error;
  const ChildOutcome run = child.wait();
  EXPECT_EQ(run.cause, ExitCause::kCleanExit);
  EXPECT_EQ(run.exitCode, 0);
  EXPECT_TRUE(run.output.empty());
  const std::string contents = readFile(log);
  EXPECT_NE(contents.find("out"), std::string::npos);
  EXPECT_NE(contents.find("err"), std::string::npos);
  fs::remove(log);
}

TEST(ChildProcessTest, RequestStopDeliversSigterm) {
  // A trap-aware child exits kPreemptedExitCode on SIGTERM — exactly the
  // worker preemption protocol.
  ChildProcess child;
  std::string error;
  ASSERT_TRUE(child.start({"/bin/sh", "-c",
                           "trap 'exit 75' TERM; "
                           "i=0; while [ $i -lt 400 ]; do sleep 0.05; "
                           "i=$((i+1)); done"},
                          "", &error))
      << error;
  // Give the shell a moment to install the trap before signaling.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(child.poll());
  child.requestStop();
  const ChildOutcome run = child.wait();
  ASSERT_EQ(run.cause, ExitCause::kCleanExit);
  EXPECT_EQ(run.exitCode, kPreemptedExitCode);
  EXPECT_EQ(classifyOutcome(run, RetryPolicy{}), RetryDecision::kPreempted);
}

TEST(ClassifyOutcomeTest, MapsEveryCauseToADecision) {
  const RetryPolicy policy;
  ChildOutcome outcome;
  outcome.cause = ExitCause::kCleanExit;
  outcome.exitCode = 0;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kSuccess);
  outcome.exitCode = kPreemptedExitCode;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kPreempted);
  // Deterministic validation failures fail fast; other clean nonzero exits
  // are transient and retry.
  outcome.exitCode = 2;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kFailFast);
  outcome.exitCode = 127;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kFailFast);
  outcome.exitCode = 1;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kRetry);
  outcome.exitCode = 9;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kRetry);
  outcome.cause = ExitCause::kSignaled;
  outcome.signal = 11;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kRetry);
  outcome.cause = ExitCause::kTimedOut;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kRetry);
}

TEST(BackoffTest, DoublesPerAttempt) {
  RetryPolicy policy;
  policy.backoffBaseSeconds = 0.5;
  EXPECT_DOUBLE_EQ(backoffSeconds(policy, 1), 0.0);
  EXPECT_DOUBLE_EQ(backoffSeconds(policy, 2), 0.5);
  EXPECT_DOUBLE_EQ(backoffSeconds(policy, 3), 1.0);
  EXPECT_DOUBLE_EQ(backoffSeconds(policy, 4), 2.0);
}

TEST(DescribeOutcomeTest, NamesTheFailure) {
  ChildOutcome outcome;
  outcome.cause = ExitCause::kCleanExit;
  outcome.exitCode = 3;
  EXPECT_EQ(describeOutcome(outcome, 60.0), "exit code 3");
  outcome.exitCode = kPreemptedExitCode;
  EXPECT_EQ(describeOutcome(outcome, 60.0), "preempted (checkpoint saved)");
  outcome.cause = ExitCause::kSignaled;
  outcome.signal = 9;
  EXPECT_EQ(describeOutcome(outcome, 60.0), "killed by signal 9");
  outcome.cause = ExitCause::kTimedOut;
  EXPECT_NE(describeOutcome(outcome, 60.0).find("timed out"),
            std::string::npos);
}

}  // namespace
}  // namespace hdtn::service
