// Durable attribution ledger: a write-ahead log of per-tick attribution
// records with segment rotation, in-place sealing, and crash recovery.
//
// The retention ring (serve::SnapshotStore) answers hot window queries from
// memory and forgets everything older by design; the ledger is the durable
// tier underneath it. Layout of a ledger directory:
//
//   wal-<first_epoch>.log    the active segment: append-only CRC-framed
//                            TickRecords (see ledger/format.hpp).
//   cold-<first>-<last>.seg  a sealed segment: the same frames at the same
//                            offsets, followed by an (epoch, time, offset)
//                            index entry for every frame and a CRC'd footer.
//
// Rotation seals the active segment in place once it reaches
// segment_max_records or kSegmentMaxBytes, on the appending thread: the
// index append already built in memory and the footer are appended to the
// WAL file, the file is renamed cold-<first>-<last>.seg, and the cold magic
// is written over the WAL magic. No frame is re-read. Both magics are 8
// bytes, so a frame keeps its offset. A seal that fails throws from append,
// and the ledger refuses further appends until it is reopened.
//
// Every segment keeps that dense index in memory: 24 bytes per record.
//
// Recovery (constructor) decides whether a file is sealed from its footer,
// not from its name or magic, so a crash at any step of a seal reopens with
// every record. A file whose footer checks loads by footer (the magic, the
// footer and the index are read, not the frames), and a seal a crash
// stopped after its footer is finished. Any other file is scanned frame by
// frame: bytes after the last intact frame are either the start of the
// seal those frames get (a seal the crash cut short) or damage, which is
// truncated away in a WAL (a crash mid-append loses at most that one
// record), and WARN-logged and counted, never silent. Every scanned file
// except a tail WAL under the rotation thresholds is then sealed, so a
// cold file with a damaged footer or a sparse index (cold segments once
// indexed every 64th record) is resealed dense in place.
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
// path); reads are safe from any thread. The ledger starts no thread: a
// seal runs inside the append that fills its segment, under the state
// mutex every read takes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger/format.hpp"
#include "obs/metrics.hpp"

namespace vmp::ledger {

class SegmentFile;  // a segment file opened for positioned reads.
struct NamedRange;  // the epochs a segment file's name allows.

/// Byte threshold at which the active segment rotates, unless
/// LedgerOptions::segment_max_records trips first.
inline constexpr std::uint64_t kSegmentMaxBytes = 8ull << 20;

struct LedgerOptions {
  std::filesystem::path dir;
  /// Record threshold at which the active segment rotates, unless
  /// kSegmentMaxBytes trips first.
  std::uint64_t segment_max_records = 4096;
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
  std::uint64_t appended_records = 0;
  std::uint64_t appended_bytes = 0;
  std::uint64_t compacted_records = 0;  ///< records sealed into cold segments.
};

/// One segment's extent, for `vmpower ledger inspect`.
struct SegmentInfo {
  std::string file;
  bool cold = false;  ///< sealed; else the active WAL.
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

/// Where one frame sits in its segment file; a segment's index holds one per
/// frame, ascending, in memory and (once sealed) on disk.
struct IndexEntry {
  std::uint64_t epoch = 0;
  double time_s = 0.0;
  std::uint64_t offset = 0;  ///< frame offset in the segment file.
};

class Ledger {
 public:
  /// Opens (creating if needed) the ledger directory, runs recovery and
  /// seals every segment but a tail WAL under the rotation thresholds.
  /// Throws std::invalid_argument on bad options, std::runtime_error on I/O
  /// failure (a seal that cannot finish included).
  explicit Ledger(LedgerOptions options);

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Appends one record. `record.epoch` must exceed the current tail epoch
  /// (throws std::logic_error otherwise); the frame is flushed to the OS
  /// before return. When the record fills its segment, the segment is
  /// sealed before return; a seal that fails throws std::runtime_error
  /// after the record is durable, and every later append throws until the
  /// ledger is reopened, which finishes the seal. Single writer.
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
  /// A cold segment straddling the cut is cut and resealed in place.
  void truncate_after(std::uint64_t epoch);

  /// Returns at once: a segment is sealed by the append that fills it.
  /// Kept only because pipebench/bench_pipeline.cpp calls it.
  void wait_for_compaction() const {}

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] RecoveryReport recovery() const { return recovery_; }
  [[nodiscard]] std::vector<SegmentInfo> segments() const;
  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return options_.dir;
  }

 private:
  /// kActive is the WAL appends go to; during recovery, also any WAL or
  /// damaged cold file not sealed yet.
  enum class Kind { kActive, kCold };

  struct Segment {
    Kind kind = Kind::kActive;
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

    /// Sets records and the first and last epoch and time from a non-empty
    /// index.
    void take_extent_from_index();
  };

  void recover();
  /// Loads one segment file: by footer when its footer checks (finishing a
  /// seal a crash stopped after the footer), else by a frame scan that
  /// truncates what follows the last intact frame and leaves the segment
  /// kActive for recover() to resume or seal. nullopt when nothing
  /// recoverable survives (the file is deleted).
  std::optional<Segment> recover_segment(const std::filesystem::path& path,
                                         const NamedRange& named);

  void open_active_locked(std::uint64_t first_epoch);
  /// Seals a segment whose file ends at its last frame: appends the index
  /// and footer, then finishes the seal.
  void seal_locked(Segment& segment);
  /// A seal's last two steps, once its footer is whole: the cold name, then
  /// the cold magic.
  void finish_seal_locked(Segment& segment);

  /// Reads, CRC-checks and decodes the frame segment.index[i] names, from
  /// its offset to the next entry's (or frames_end); throws DamagedRecord
  /// on damage to that frame.
  [[nodiscard]] static TickRecord read_indexed(const SegmentFile& file,
                                               const Segment& segment,
                                               std::size_t i);
  [[nodiscard]] const Segment* segment_for_time_locked(double t_s) const;
  [[nodiscard]] const Segment* segment_for_epoch_locked(
      std::uint64_t epoch) const;

  /// Epochs the ledger could not keep: between two recovered segments, or
  /// named by a cold segment's file but missing from its rescan.
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
  /// Open while the last segment takes appends; closed with the last
  /// segment kActive only after a seal or rewind failed.
  std::ofstream active_;
  std::uint64_t appended_records_ = 0;
  std::uint64_t appended_bytes_ = 0;
  std::uint64_t compacted_records_ = 0;

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
