// Correctness checks the benchmark applies to every workload's outputs.
//
// Each check takes plain data (counts, result structs, delivery records)
// and returns one message per violation, so the benchmark's tests can feed
// it violating inputs directly. The references are computed apart from the
// engine: from the trace itself (the foremost-arrival oracle), from the
// workload's parameters (publications), or from a second code path
// (observer events against EngineTotals, a restored run against an
// uninterrupted one).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/trace/contact_trace.hpp"
#include "src/util/types.hpp"

namespace perfbench {

using Errors = std::vector<std::string>;

/// (b) Every contact the benchmark fed must be counted processed.
[[nodiscard]] Errors checkFedProcessed(std::uint64_t fed,
                                       std::uint64_t processed);

/// Publication instants of a run whose schedule ends at `end`: one at 2 PM
/// on every day whose 2 PM lies strictly before `end`.
[[nodiscard]] std::uint64_t publicationInstants(hdtn::SimTime end);

/// (c) filesPublished must equal files-per-day times the publication
/// instants before `end`.
[[nodiscard]] Errors checkFilesPublished(std::uint64_t filesPublished,
                                         int filesPerDay, hdtn::SimTime end);

/// (d) Coded download: every decoded generation needs at least
/// `piecesPerFile` innovative frames, and with the defense on no polluted
/// generation may be delivered.
[[nodiscard]] Errors checkCodedInvariants(const hdtn::core::EngineTotals& t,
                                          std::uint32_t piecesPerFile);

/// (e) and determinism: two results of the same run must be identical,
/// field by field (delivery reports and every EngineTotals counter).
[[nodiscard]] Errors checkSameResult(const hdtn::core::EngineResult& expected,
                                     const hdtn::core::EngineResult& actual);

/// Hex digest of every field checkSameResult compares, so that results of
/// separate processes can be compared by their digests.
[[nodiscard]] std::string resultDigest(const hdtn::core::EngineResult& r);

/// Per-type event counts of a traced run, indexed by obs::SimEventType.
using EventCounts = std::vector<std::uint64_t>;

/// (f) Observer event counts must equal the EngineTotals counters the
/// engine keeps on a separate code path.
[[nodiscard]] Errors checkEventCounts(const EventCounts& counts,
                                      const hdtn::core::EngineTotals& totals);

/// One query whose target file reached its owner.
struct Delivery {
  hdtn::NodeId owner;
  hdtn::FileId file;
  hdtn::SimTime at = 0;
};

/// A published file the oracle tracks.
struct TrackedFile {
  hdtn::FileId id;
  hdtn::SimTime publishedAt = 0;
  hdtn::SimTime expiresAt = 0;
};

/// Foremost-arrival oracle: the earliest time each node can hold each file
/// when every source holds it from its publication and every contact moves
/// it instantly between all members at the contact's start. This is the
/// space-time-graph bound: no engine schedule can deliver earlier. Contacts
/// sharing a start instant are relaxed to a fixed point, so chains inside
/// one instant are allowed in any order.
class ArrivalOracle {
 public:
  ArrivalOracle(std::size_t nodeCount, std::vector<TrackedFile> files,
                std::span<const hdtn::NodeId> sources);

  /// Feeds the next contact; contacts must arrive in ascending start order.
  void addContact(const hdtn::trace::Contact& contact);
  /// Relaxes the last start instant; call once after the last contact.
  void finish();

  /// Earliest arrival of `file` at `node`; kTimeInfinity when unreachable
  /// or when the file is not tracked.
  [[nodiscard]] hdtn::SimTime arrival(hdtn::FileId file,
                                      hdtn::NodeId node) const;

 private:
  void relaxGroup();
  /// Index into files_ of a tracked id, or files_.size().
  [[nodiscard]] std::size_t slotOf(hdtn::FileId file) const;

  std::size_t nodeCount_;
  std::vector<TrackedFile> files_;           ///< ascending publishedAt
  std::vector<std::uint32_t> slotById_;      ///< file id -> slot (+1), 0 = none
  std::vector<hdtn::SimTime> arrival_;       ///< slot * nodeCount + node
  std::vector<hdtn::trace::Contact> group_;  ///< contacts of one instant
};

/// (a) Every delivery must be no earlier than the oracle allows.
[[nodiscard]] Errors checkOracleBound(std::span<const Delivery> deliveries,
                                      const ArrivalOracle& oracle);

/// Appends `more` to `into`, prefixing each message with `label`.
void appendErrors(Errors& into, const std::string& label, const Errors& more);

}  // namespace perfbench
