#include "src/checks.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/obs/events.hpp"

namespace perfbench {

using hdtn::SimTime;
using hdtn::kTimeInfinity;
using hdtn::core::DeliveryReport;
using hdtn::core::EngineTotals;
using hdtn::obs::SimEventType;

namespace {

std::string mismatch(const std::string& what, std::uint64_t expected,
                     std::uint64_t actual) {
  return what + ": expected " + std::to_string(expected) + ", got " +
         std::to_string(actual);
}

void compareReports(Errors& errors, const std::string& label,
                    const DeliveryReport& a, const DeliveryReport& b) {
  if (a.queries != b.queries || a.metadataDelivered != b.metadataDelivered ||
      a.filesDelivered != b.filesDelivered ||
      a.metadataRatio != b.metadataRatio || a.fileRatio != b.fileRatio ||
      a.meanMetadataDelaySeconds != b.meanMetadataDelaySeconds ||
      a.meanFileDelaySeconds != b.meanFileDelaySeconds) {
    errors.push_back(label + " delivery report differs (files " +
                     std::to_string(a.filesDelivered) + " vs " +
                     std::to_string(b.filesDelivered) + ")");
  }
}

}  // namespace

Errors checkFedProcessed(std::uint64_t fed, std::uint64_t processed) {
  if (fed == processed) return {};
  return {mismatch("contacts processed", fed, processed)};
}

std::uint64_t publicationInstants(SimTime end) {
  if (end <= hdtn::kDailyPublishHour) return 0;
  return static_cast<std::uint64_t>(
      (end - hdtn::kDailyPublishHour + hdtn::kDay - 1) / hdtn::kDay);
}

Errors checkFilesPublished(std::uint64_t filesPublished, int filesPerDay,
                           SimTime end) {
  const std::uint64_t expected =
      static_cast<std::uint64_t>(filesPerDay) * publicationInstants(end);
  if (filesPublished == expected) return {};
  return {mismatch("files published", expected, filesPublished)};
}

Errors checkCodedInvariants(const EngineTotals& t,
                            std::uint32_t piecesPerFile) {
  Errors errors;
  const std::uint64_t needed =
      static_cast<std::uint64_t>(piecesPerFile) * t.generationsDecoded;
  if (t.codedInnovativeFrames < needed) {
    errors.push_back("innovative frames " +
                     std::to_string(t.codedInnovativeFrames) + " < " +
                     std::to_string(piecesPerFile) + " x " +
                     std::to_string(t.generationsDecoded) +
                     " decoded generations");
  }
  if (t.pollutedDeliveries != 0) {
    errors.push_back("polluted generations delivered with the defense on: " +
                     std::to_string(t.pollutedDeliveries));
  }
  return errors;
}

Errors checkSameResult(const hdtn::core::EngineResult& expected,
                       const hdtn::core::EngineResult& actual) {
  Errors errors;
  compareReports(errors, "non-access", expected.delivery, actual.delivery);
  compareReports(errors, "access", expected.accessDelivery,
                 actual.accessDelivery);
  compareReports(errors, "contributor", expected.contributorDelivery,
                 actual.contributorDelivery);
  compareReports(errors, "free-rider", expected.freeRiderDelivery,
                 actual.freeRiderDelivery);
  // EngineTotals is a flat block of uint64 counters, so byte equality is
  // field equality and stays complete when counters are added.
  static_assert(std::has_unique_object_representations_v<EngineTotals>);
  if (std::memcmp(&expected.totals, &actual.totals, sizeof(EngineTotals)) !=
      0) {
    errors.push_back("engine totals differ (contacts " +
                     std::to_string(expected.totals.contactsProcessed) +
                     " vs " +
                     std::to_string(actual.totals.contactsProcessed) + ")");
  }
  return errors;
}

std::string resultDigest(const hdtn::core::EngineResult& r) {
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a
  const auto mix = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 0x100000001b3ull;
    }
  };
  for (const DeliveryReport* d : {&r.delivery, &r.accessDelivery,
                                  &r.contributorDelivery,
                                  &r.freeRiderDelivery}) {
    mix(&d->queries, sizeof d->queries);
    mix(&d->metadataDelivered, sizeof d->metadataDelivered);
    mix(&d->filesDelivered, sizeof d->filesDelivered);
    mix(&d->metadataRatio, sizeof d->metadataRatio);
    mix(&d->fileRatio, sizeof d->fileRatio);
    mix(&d->meanMetadataDelaySeconds, sizeof d->meanMetadataDelaySeconds);
    mix(&d->meanFileDelaySeconds, sizeof d->meanFileDelaySeconds);
  }
  mix(&r.totals, sizeof r.totals);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

Errors checkEventCounts(const EventCounts& counts, const EngineTotals& t) {
  Errors errors;
  const auto n = [&](SimEventType type) {
    const auto i = static_cast<std::size_t>(type);
    return i < counts.size() ? counts[i] : 0;
  };
  const auto expect = [&](const char* what, std::uint64_t events,
                          std::uint64_t total) {
    if (events != total) {
      errors.push_back(std::string(what) + ": " + std::to_string(events) +
                       " events vs total " + std::to_string(total));
    }
  };
  expect("contact_begin", n(SimEventType::kContactBegin), t.contactsProcessed);
  expect("contact_end", n(SimEventType::kContactEnd), t.contactsProcessed);
  expect("file_published", n(SimEventType::kFilePublished), t.filesPublished);
  expect("metadata_broadcast", n(SimEventType::kMetadataBroadcast),
         t.metadataBroadcasts);
  expect("piece_broadcast + coded_broadcast",
         n(SimEventType::kPieceBroadcast) + n(SimEventType::kCodedBroadcast),
         t.pieceBroadcasts);
  expect("piece_received", n(SimEventType::kPieceReceived),
         t.pieceReceptions);
  expect("coded_broadcast", n(SimEventType::kCodedBroadcast),
         t.codedBroadcasts);
  expect("innovative_frame", n(SimEventType::kInnovativeFrame),
         t.codedInnovativeFrames);
  expect("generation_decoded", n(SimEventType::kGenerationDecoded),
         t.generationsDecoded);
  expect("generation_rolled_back", n(SimEventType::kGenerationRolledBack),
         t.generationsRolledBack);
  expect("retransmit", n(SimEventType::kRetransmit), t.recoveryRetransmits);
  expect("repair_requested", n(SimEventType::kRepairRequested),
         t.repairRequests);
  expect("node_quarantined", n(SimEventType::kNodeQuarantined),
         t.nodesQuarantined);
  return errors;
}

ArrivalOracle::ArrivalOracle(std::size_t nodeCount,
                             std::vector<TrackedFile> files,
                             std::span<const hdtn::NodeId> sources)
    : nodeCount_(nodeCount), files_(std::move(files)) {
  std::sort(files_.begin(), files_.end(),
            [](const TrackedFile& a, const TrackedFile& b) {
              return a.publishedAt < b.publishedAt;
            });
  arrival_.assign(files_.size() * nodeCount_, kTimeInfinity);
  for (std::size_t slot = 0; slot < files_.size(); ++slot) {
    const std::uint32_t id = files_[slot].id.value;
    if (id >= slotById_.size()) slotById_.resize(id + 1, 0);
    slotById_[id] = static_cast<std::uint32_t>(slot + 1);
    for (hdtn::NodeId s : sources) {
      if (s.value < nodeCount_) {
        arrival_[slot * nodeCount_ + s.value] = files_[slot].publishedAt;
      }
    }
  }
}

void ArrivalOracle::addContact(const hdtn::trace::Contact& contact) {
  if (!group_.empty() && group_.front().start != contact.start) relaxGroup();
  group_.push_back(contact);
}

void ArrivalOracle::finish() { relaxGroup(); }

void ArrivalOracle::relaxGroup() {
  if (group_.empty()) return;
  const SimTime now = group_.front().start;
  for (std::size_t slot = 0; slot < files_.size(); ++slot) {
    const TrackedFile& f = files_[slot];
    if (f.publishedAt > now) break;  // files_ ascends by publication
    if (now >= f.expiresAt) continue;
    SimTime* row = arrival_.data() + slot * nodeCount_;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const hdtn::trace::Contact& c : group_) {
        bool reached = false;
        for (hdtn::NodeId m : c.members) {
          if (m.value < nodeCount_ && row[m.value] <= now) {
            reached = true;
            break;
          }
        }
        if (!reached) continue;
        for (hdtn::NodeId m : c.members) {
          if (m.value < nodeCount_ && row[m.value] > now) {
            row[m.value] = now;
            changed = true;
          }
        }
      }
    }
  }
  group_.clear();
}

std::size_t ArrivalOracle::slotOf(hdtn::FileId file) const {
  if (file.value >= slotById_.size() || slotById_[file.value] == 0) {
    return files_.size();
  }
  return slotById_[file.value] - 1;
}

SimTime ArrivalOracle::arrival(hdtn::FileId file, hdtn::NodeId node) const {
  const std::size_t slot = slotOf(file);
  if (slot == files_.size() || node.value >= nodeCount_) return kTimeInfinity;
  return arrival_[slot * nodeCount_ + node.value];
}

Errors checkOracleBound(std::span<const Delivery> deliveries,
                        const ArrivalOracle& oracle) {
  Errors errors;
  std::uint64_t violations = 0;
  for (const Delivery& d : deliveries) {
    const SimTime bound = oracle.arrival(d.file, d.owner);
    if (d.at >= bound) continue;
    if (++violations <= 3) {
      errors.push_back("node " + std::to_string(d.owner.value) + " got file " +
                       std::to_string(d.file.value) + " at " +
                       std::to_string(d.at) + ", before the foremost arrival " +
                       (bound == kTimeInfinity ? std::string("(unreachable)")
                                               : std::to_string(bound)));
    }
  }
  if (violations > 3) {
    errors.push_back(std::to_string(violations - 3) +
                     " more deliveries beat the oracle");
  }
  return errors;
}

void appendErrors(Errors& into, const std::string& label, const Errors& more) {
  for (const std::string& e : more) into.push_back(label + ": " + e);
}

}  // namespace perfbench
