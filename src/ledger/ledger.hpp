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
//   cold-<first>-<last>.seg  a compacted sealed segment: the same frames at
//                            the same offsets, followed by an (epoch, time,
//                            offset) index entry for every frame and a
//                            CRC'd footer.
//
// Rotation seals the active segment once it reaches segment_max_records or
// kSegmentMaxBytes; sealed segments are compacted on a background thread
// (or inline, or never — see LedgerOptions). Compaction writes the cold file
// beside the WAL under a ".tmp" name and renames it into place before
// deleting the WAL, so a crash mid-compaction leaves either the old WAL or
// a complete cold segment, never a half state the reader trusts.
//
// Every segment, WAL or cold, keeps that dense index in memory: 24 bytes
// per record.
//
// Recovery (constructor): every WAL segment is scanned frame by frame and
// truncated at the first torn/corrupt record — a crash mid-append loses at
// most that one record, and the loss is WARN-logged and counted, never
// silent. Cold segments load by footer: the magic, the footer and the index
// are read, not the frames. A cold file with a bad footer falls back to a
// full scan and is re-queued for compaction; so is one whose intact footer
// indexes only some of its records (cold segments once indexed every 64th),
// which is logged at INFO and not counted as damage.
//
// Point reads (at_or_before, at_epoch) are one binary search of the index,
// one pread of exactly the frame it names, and one CRC. The index was
// CRC-checked when it loaded or built from CRC-checked frames, so the frame
// returned is the only one a read must check: a CRC mismatch, a header
// length other than the index's, or a record whose epoch or time differs
// from its entry throws DamagedRecord instead of answering. Damage to a
// frame no read returns cannot change an answer; verify_dir (`vmpower
// ledger verify`) is the full scan that finds it.
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

class SegmentFile;  // a segment file opened for positioned reads.

/// Byte threshold at which the active segment rotates, unless
/// LedgerOptions::segment_max_records trips first.
inline constexpr std::uint64_t kSegmentMaxBytes = 8ull << 20;

struct LedgerOptions {
  std::filesystem::path dir;
  /// Record threshold at which the active segment rotates, unless
  /// kSegmentMaxBytes trips first.
  std::uint64_t segment_max_records = 4096;
  /// Compact sealed segments into indexed cold segments at all.
  bool auto_compact = true;
  /// Run compaction on a background thread instead of inline at rotation.
  bool background_compaction = true;
  /// When set, exports the vmpower_ledger_* metric families.
  obs::MetricsRegistry* metrics = nullptr;

  /// Throws std::invalid_argument on an empty dir or a zero threshold.
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
  std::uint64_t first_epoch = 0;  ///< oldest intact record; 0 when none.
  std::uint64_t last_epoch = 0;   ///< newest intact record; 0 when none.
  bool clean() const noexcept { return torn_records == 0 && epoch_gaps == 0; }
};
[[nodiscard]] VerifyReport verify_dir(const std::filesystem::path& dir);

/// A read met the frame it would return, but the frame fails its CRC, has a
/// header that cannot be right, or holds a record other than the one the
/// index names. what() names the segment file and the frame's offset.
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
  /// Throws DamagedRecord when that record's frame is damaged.
  [[nodiscard]] std::optional<TickRecord> at_or_before(double t_s) const;

  /// The record published at exactly `epoch`, if the ledger holds it.
  /// Throws DamagedRecord when that record's frame is damaged.
  [[nodiscard]] std::optional<TickRecord> at_epoch(std::uint64_t epoch) const;

  /// All records with epoch in [first, last], ascending. Clamped to the
  /// ledger's extent; empty when the ranges don't intersect. Throws
  /// DamagedRecord when one of their frames is damaged.
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
    std::vector<IndexEntry> index;  ///< one entry per frame, ascending.
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

  /// Reads, CRC-checks and decodes the frame segment.index[i] names, from
  /// its offset to the next entry's (or frames_end); throws DamagedRecord
  /// on damage to that frame.
  [[nodiscard]] static TickRecord read_indexed(const SegmentFile& file,
                                               const Segment& segment,
                                               std::size_t i);
  [[nodiscard]] const Segment* segment_for_time_locked(double t_s) const;
  [[nodiscard]] const Segment* segment_for_epoch_locked(
      std::uint64_t epoch) const;

  /// Epochs the ledger could not keep: between two recovered segments,
  /// named by a cold segment's file but missing from its rescan, or past a
  /// frame that compaction found damaged.
  struct LostRange {
    std::uint64_t first_epoch = 0;
    std::uint64_t last_epoch = 0;
    double after_time_s = 0.0;   ///< last kept record before them, or -inf.
    double before_time_s = 0.0;  ///< first record after them, or +inf.
    std::string where;  ///< the file, or pair of files, that lost them.
  };
  /// Throws DamagedRecord when a point read by epoch (or by time t_s) could
  /// have answered with a lost record.
  void check_lost_locked(bool by_epoch, double t_s, std::uint64_t epoch) const;
  /// Epochs from `epoch` on are written afresh (append, truncate_after):
  /// no longer lost, and the record there (at time_s) bounds the one before.
  void forget_lost_from_locked(std::uint64_t epoch, double time_s);

  void register_metrics();
  void update_gauges_locked();

  LedgerOptions options_;
  RecoveryReport recovery_;

  mutable std::mutex mutex_;
  std::vector<Segment> segments_;  ///< ascending by first_epoch.
  std::string frame_;              ///< append's frame buffer, reused.
  std::vector<LostRange> lost_;    ///< usually empty.
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
