// Durable attribution ledger: a write-ahead log of per-tick attribution
// records with segment rotation, background compaction, and crash recovery.
//
// The retention ring (serve::SnapshotStore) answers hot window queries from
// memory and forgets everything older by design; the ledger is the durable
// tier underneath it. Layout of a ledger directory:
//
//   wal-<first_epoch>.log    append-only segment of CRC-framed TickRecords
//                            (see ledger/format.hpp); exactly one is active,
//                            older ones are sealed and awaiting compaction.
//   cold-<first>-<last>.seg  a compacted sealed segment: the same frames,
//                            followed by a sparse (epoch, time, offset)
//                            index and a CRC'd footer, so a window seek is
//                            one binary search, a walk over at most
//                            `index_stride` frame headers (the 8-byte
//                            header and 24-byte record prefix of each), and
//                            one full read of the frame it returns.
//
// Rotation seals the active segment once it reaches segment_max_records or
// segment_max_bytes; sealed segments are compacted on a background thread
// (or inline, or never — see LedgerOptions). Compaction writes the cold file
// beside the WAL under a ".tmp" name and renames it into place before
// deleting the WAL, so a crash mid-compaction leaves either the old WAL or
// a complete cold segment, never a half state the reader trusts.
//
// Recovery (constructor): every WAL segment is scanned frame by frame and
// truncated at the first torn/corrupt record — a crash mid-append loses at
// most that one record, and the loss is WARN-logged and counted, never
// silent. Cold segments load by footer; a cold file with a bad footer falls
// back to a full scan and is re-queued for compaction.
//
// Point reads (at_or_before, at_epoch) CRC-check only the two frames whose
// prefixes decide the answer: the one returned and the one that ended the
// walk. Either failing its CRC, or a header that cannot be right, throws
// DamagedRecord instead of answering with a neighbouring record. Damage a
// walk does not catch cannot change its answer; verify_dir (`vmpower ledger
// verify`) is the full scan that finds it.
//
// Epochs are strictly ascending across the whole ledger and 1:1 with
// snapshot publish epochs, which is what lets checkpoint restore replay the
// ledger tail into the retention ring and continue byte-identically (see
// serve::SnapshotStore::restore_from_ledger).
//
// Thread safety: append() must come from one thread (the engine's publish
// path); reads are safe from any thread. Compaction synchronizes through
// the same state mutex when it swaps a WAL entry for its cold replacement.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ledger/format.hpp"
#include "obs/metrics.hpp"

namespace vmp::ledger {

struct LedgerOptions {
  std::filesystem::path dir;
  /// Rotation thresholds for the active segment (whichever trips first).
  std::uint64_t segment_max_records = 4096;
  std::uint64_t segment_max_bytes = 8ull << 20;
  /// Cold segments index every Nth record; a seek costs one binary search,
  /// at most N header-and-prefix reads, and the full read of one frame.
  std::uint64_t index_stride = 64;
  /// Compact sealed segments into indexed cold segments at all.
  bool auto_compact = true;
  /// Run compaction on a background thread instead of inline at rotation.
  bool background_compaction = true;
  /// When set, exports the vmpower_ledger_* metric families.
  obs::MetricsRegistry* metrics = nullptr;

  /// Throws std::invalid_argument on an empty dir or zero thresholds.
  void validate() const;
};

/// What recovery found when the ledger directory was opened.
struct RecoveryReport {
  std::uint64_t segments = 0;          ///< segments found on disk.
  std::uint64_t records = 0;           ///< intact records recovered.
  std::uint64_t torn_records = 0;      ///< damaged tails truncated away.
  std::uint64_t truncated_bytes = 0;   ///< bytes dropped with those tails.
  std::uint64_t rescanned_cold = 0;    ///< cold segments with a bad footer.
};

/// Point-in-time counters and extent of the ledger.
struct Stats {
  std::uint64_t oldest_epoch = 0;  ///< 0 when the ledger is empty.
  std::uint64_t tail_epoch = 0;
  double oldest_time_s = 0.0;
  double tail_time_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t segments = 0;
  std::uint64_t cold_segments = 0;
  std::uint64_t sealed_segments = 0;  ///< rotated, not yet compacted.
  std::uint64_t appended_records = 0;
  std::uint64_t appended_bytes = 0;
  std::uint64_t compacted_records = 0;
};

/// One segment's extent, for `vmpower ledger inspect`.
struct SegmentInfo {
  std::string file;
  bool cold = false;
  bool active = false;
  std::uint64_t first_epoch = 0;
  std::uint64_t last_epoch = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
};

/// Full-scan integrity check of a ledger directory (no mutation, no
/// truncation — the read-only counterpart of recovery, for `ledger verify`).
struct VerifyReport {
  std::uint64_t segments = 0;
  std::uint64_t records = 0;
  std::uint64_t torn_records = 0;
  std::uint64_t epoch_gaps = 0;
  bool clean() const noexcept { return torn_records == 0 && epoch_gaps == 0; }
};
[[nodiscard]] VerifyReport verify_dir(const std::filesystem::path& dir);

/// A point read met a frame that decides its answer but fails its CRC, or a
/// frame header that cannot be right. what() names the segment file and the
/// frame's offset.
class DamagedRecord : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Ledger {
 public:
  /// Opens (creating if needed) the ledger directory and runs recovery.
  /// Throws std::invalid_argument on bad options, std::runtime_error on I/O
  /// failure.
  explicit Ledger(LedgerOptions options);
  ~Ledger();

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Appends one record. `record.epoch` must exceed the current tail epoch
  /// (throws std::logic_error otherwise); the frame is flushed to the OS
  /// before return. Single writer.
  void append(const TickRecord& record);

  /// Newest record with time_s <= t_s; nullopt when t_s predates the oldest
  /// record (or the ledger is empty) — same step semantics as the ring.
  /// Throws DamagedRecord when a frame deciding the answer is damaged.
  [[nodiscard]] std::optional<TickRecord> at_or_before(double t_s) const;

  /// The record published at exactly `epoch`, if the ledger holds it.
  /// Throws DamagedRecord when a frame deciding the answer is damaged.
  [[nodiscard]] std::optional<TickRecord> at_epoch(std::uint64_t epoch) const;

  /// All records with epoch in [first, last], ascending. Clamped to the
  /// ledger's extent; empty when the ranges don't intersect.
  [[nodiscard]] std::vector<TickRecord> range(std::uint64_t first,
                                              std::uint64_t last) const;

  /// Drops every record with epoch > `epoch` (checkpoint restore rewinds the
  /// ledger to the checkpointed tick before the engine replays forward).
  /// Cold segments straddling the cut are rewritten as WAL segments.
  void truncate_after(std::uint64_t epoch);

  /// Synchronously compacts every sealed segment; returns how many.
  std::size_t compact_all();

  /// Blocks until the background compactor has drained its queue.
  void wait_for_compaction() const;

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] RecoveryReport recovery() const { return recovery_; }
  [[nodiscard]] std::vector<SegmentInfo> segments() const;
  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return options_.dir;
  }

 private:
  enum class Kind { kActive, kSealed, kCold };

  struct IndexEntry {
    std::uint64_t epoch = 0;
    double time_s = 0.0;
    std::uint64_t offset = 0;  ///< frame offset in the segment file.
  };

  struct Segment {
    Kind kind = Kind::kSealed;
    std::filesystem::path path;
    std::uint64_t first_epoch = 0;
    std::uint64_t last_epoch = 0;
    double first_time_s = 0.0;
    double last_time_s = 0.0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;       ///< file size.
    std::uint64_t frames_end = 0;  ///< end of the frames region (< bytes for
                                   ///< cold segments, which carry an index).
    std::vector<IndexEntry> index;  ///< dense (WAL) or sparse (cold).
  };

  void recover();
  /// Scans a WAL file, truncating any torn tail; returns the segment or
  /// nullopt for an empty file (which is deleted).
  std::optional<Segment> recover_wal(const std::filesystem::path& path);
  /// Loads a cold segment by footer; falls back to a full scan (and marks it
  /// sealed for re-compaction) when the footer is damaged.
  std::optional<Segment> recover_cold(const std::filesystem::path& path);

  void open_active_locked(std::uint64_t first_epoch);
  void seal_active_locked();
  /// Compacts the oldest sealed segment (if any); returns whether one was.
  bool compact_one();
  void compactor_loop();

  /// Walks frame headers forward from the index entry to the newest record
  /// with time_s <= t_s (or epoch <= epoch when `by_epoch`) and decodes it.
  [[nodiscard]] std::optional<TickRecord> scan_from(
      const Segment& segment, const IndexEntry& start, bool by_epoch,
      double t_s, std::uint64_t epoch) const;
  [[nodiscard]] const Segment* segment_for_time_locked(double t_s) const;
  [[nodiscard]] const Segment* segment_for_epoch_locked(
      std::uint64_t epoch) const;

  void register_metrics();
  void update_gauges_locked();

  LedgerOptions options_;
  RecoveryReport recovery_;

  mutable std::mutex mutex_;
  std::vector<Segment> segments_;  ///< ascending by first_epoch.
  std::ofstream active_;           ///< open iff some segment is kActive.
  std::uint64_t appended_records_ = 0;
  std::uint64_t appended_bytes_ = 0;
  std::uint64_t compacted_records_ = 0;

  mutable std::mutex compaction_mutex_;  ///< serializes compaction passes.
  mutable std::condition_variable work_cv_;
  mutable std::condition_variable idle_cv_;
  bool stop_ = false;
  std::thread compactor_;

  // Registered once in the constructor; null without options_.metrics.
  obs::Counter* appended_counter_ = nullptr;
  obs::Counter* appended_bytes_counter_ = nullptr;
  obs::Counter* compacted_counter_ = nullptr;
  obs::Counter* recovered_counter_ = nullptr;
  obs::Counter* torn_counter_ = nullptr;
  obs::Gauge* segments_gauge_ = nullptr;
  obs::Gauge* cold_segments_gauge_ = nullptr;
  obs::Gauge* tail_epoch_gauge_ = nullptr;
  obs::Gauge* oldest_epoch_gauge_ = nullptr;
};

}  // namespace vmp::ledger
