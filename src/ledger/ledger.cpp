#include "ledger/ledger.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/logging.hpp"

namespace vmp::ledger {

/// One segment file opened for positioned reads. Every read is a pread at an
/// explicit offset, so no two reads share a file position. A file that fails
/// to open has size 0 and fails every read.
class SegmentFile {
 public:
  explicit SegmentFile(const std::filesystem::path& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~SegmentFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  [[nodiscard]] std::uint64_t size() const {
    struct stat status {};
    if (fd_ < 0 || ::fstat(fd_, &status) != 0) return 0;
    return static_cast<std::uint64_t>(status.st_size);
  }

  /// Fills [out, out + size) from `offset`; false when the file ends first.
  bool read(std::uint64_t offset, char* out, std::size_t size) const {
    while (size > 0) {
      const ssize_t got = ::pread(fd_, out, size, static_cast<off_t>(offset));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      out += got;
      offset += static_cast<std::uint64_t>(got);
      size -= static_cast<std::size_t>(got);
    }
    return true;
  }

 private:
  int fd_ = -1;
};

namespace {

// Both magics are 8 bytes so a cold segment's frame offsets line up with the
// WAL segment it was compacted from.
constexpr std::string_view kWalMagic = "vmpwal1\n";
constexpr std::string_view kColdMagic = "vmpcold\n";
constexpr std::uint64_t kFooterMagic = 0x564D504C434F4C44ull;  // "VMPLCOLD".
// u64 index_offset + u32 entry_count + u64 record_count + u64 first_epoch +
// u64 last_epoch + u32 index_crc + u64 magic.
constexpr std::size_t kFooterBytes = 48;
constexpr std::size_t kIndexEntryBytes = 24;  // u64 epoch, f64 time, u64 off.

std::string segment_file_name(const char* prefix, std::uint64_t first,
                              std::uint64_t last = 0) {
  char buffer[64];
  if (last == 0)
    std::snprintf(buffer, sizeof buffer, "%s-%020" PRIu64 ".log", prefix,
                  first);
  else
    std::snprintf(buffer, sizeof buffer, "%s-%020" PRIu64 "-%020" PRIu64
                  ".seg", prefix, first, last);
  return buffer;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("ledger: cannot open " + path.string());
  std::string data;
  in.seekg(0, std::ios::end);
  data.resize(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  if (!in)
    throw std::runtime_error("ledger: cannot read " + path.string());
  return data;
}

/// Parsed cold-segment footer (offsets into the file).
struct ColdFooter {
  std::uint64_t index_offset = 0;
  std::uint32_t entry_count = 0;
  std::uint64_t record_count = 0;
  std::uint64_t first_epoch = 0;
  std::uint64_t last_epoch = 0;
  std::uint32_t index_crc = 0;

  [[nodiscard]] std::uint64_t index_bytes() const {
    return static_cast<std::uint64_t>(entry_count) * kIndexEntryBytes;
  }
};

std::string encode_footer(const ColdFooter& footer) {
  std::string out;
  out.reserve(kFooterBytes);
  put_u64(out, footer.index_offset);
  put_u32(out, footer.entry_count);
  put_u64(out, footer.record_count);
  put_u64(out, footer.first_epoch);
  put_u64(out, footer.last_epoch);
  put_u32(out, footer.index_crc);
  put_u64(out, kFooterMagic);
  return out;
}

/// A cold file's footer and the index block it points at.
struct ColdIndex {
  ColdFooter footer;
  std::string block;  ///< footer.entry_count entries of kIndexEntryBytes.
};

/// Reads a cold file's magic, footer and index block, and nothing else;
/// nullopt unless the magic matches, the footer indexes at least one record
/// and at most every record, its index block ends where the footer starts
/// and passes the footer's CRC, and the first and last entries carry the
/// footer's epochs, which lie outside that CRC.
std::optional<ColdIndex> read_cold_index(const SegmentFile& file) {
  const std::uint64_t size = file.size();
  char magic[kColdMagic.size()];
  char tail[kFooterBytes];
  if (size < sizeof magic + sizeof tail || !file.read(0, magic, sizeof magic) ||
      std::string_view(magic, sizeof magic) != kColdMagic ||
      !file.read(size - sizeof tail, tail, sizeof tail))
    return std::nullopt;
  ByteReader reader{std::string_view(tail, sizeof tail)};
  ColdIndex cold;
  ColdFooter& footer = cold.footer;
  std::uint64_t footer_magic = 0;
  if (!reader.get_u64(footer.index_offset) ||
      !reader.get_u32(footer.entry_count) ||
      !reader.get_u64(footer.record_count) ||
      !reader.get_u64(footer.first_epoch) ||
      !reader.get_u64(footer.last_epoch) || !reader.get_u32(footer.index_crc) ||
      !reader.get_u64(footer_magic) || footer_magic != kFooterMagic)
    return std::nullopt;
  if (footer.entry_count == 0 || footer.record_count < footer.entry_count ||
      footer.index_offset < kColdMagic.size() || footer.index_offset > size ||
      size - footer.index_offset != footer.index_bytes() + kFooterBytes)
    return std::nullopt;
  cold.block.resize(footer.index_bytes());
  if (!file.read(footer.index_offset, cold.block.data(), cold.block.size()) ||
      crc32(cold.block) != footer.index_crc)
    return std::nullopt;
  ByteReader first{std::string_view(cold.block).substr(0, 8)};
  ByteReader last{std::string_view(cold.block)
                      .substr(cold.block.size() - kIndexEntryBytes, 8)};
  std::uint64_t first_epoch = 0;
  std::uint64_t last_epoch = 0;
  if (!first.get_u64(first_epoch) || !last.get_u64(last_epoch) ||
      first_epoch != footer.first_epoch || last_epoch != footer.last_epoch)
    return std::nullopt;
  return cold;
}

/// WARN-logs and throws the DamagedRecord for the frame at `offset`.
[[noreturn]] void throw_damaged(const std::filesystem::path& path,
                                std::uint64_t offset, const char* what) {
  const std::string message = "ledger: " + path.filename().string() +
                              " at offset " + std::to_string(offset) + ": " +
                              what;
  VMP_LOG_WARN("%s", message.c_str());
  throw DamagedRecord(message);
}

}  // namespace

void LedgerOptions::validate() const {
  if (dir.empty())
    throw std::invalid_argument("LedgerOptions: dir must be set");
  if (segment_max_records == 0)
    throw std::invalid_argument(
        "LedgerOptions: segment thresholds must be >= 1");
}

Ledger::Ledger(LedgerOptions options) : options_(std::move(options)) {
  options_.validate();
  std::filesystem::create_directories(options_.dir);
  recover();
  register_metrics();
  if (options_.auto_compact && options_.background_compaction)
    compactor_ = std::thread([this] { compactor_loop(); });
  if (options_.auto_compact) {
    // Sealed segments left over from a previous process compact now.
    if (options_.background_compaction)
      work_cv_.notify_one();
    else
      compact_all();
  }
}

Ledger::~Ledger() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
  std::lock_guard lock(mutex_);
  if (active_.is_open()) active_.close();
}

// --- recovery ---------------------------------------------------------------

void Ledger::recover() {
  std::vector<std::filesystem::path> wal_files, cold_files;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".tmp")) {
      // A compaction that died mid-write; the source WAL still exists.
      std::filesystem::remove(entry.path());
      continue;
    }
    if (name.starts_with("wal-") && name.ends_with(".log"))
      wal_files.push_back(entry.path());
    else if (name.starts_with("cold-") && name.ends_with(".seg"))
      cold_files.push_back(entry.path());
  }

  // A cold segment's name promises its epoch range, even when the file is
  // too damaged to say so itself.
  std::vector<LostRange> promised;
  for (const auto& path : cold_files) {
    LostRange range;
    range.where = path.filename().string();
    if (std::sscanf(range.where.c_str(), "cold-%" SCNu64 "-%" SCNu64 ".seg",
                    &range.first_epoch, &range.last_epoch) == 2 &&
        range.first_epoch <= range.last_epoch)
      promised.push_back(range);
    if (auto segment = recover_cold(path)) {
      recovery_.records += segment->records;
      segments_.push_back(std::move(*segment));
    }
  }
  for (const auto& path : wal_files)
    if (auto segment = recover_wal(path)) {
      recovery_.records += segment->records;
      segments_.push_back(std::move(*segment));
    }
  recovery_.segments = segments_.size();
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) {
              return a.first_epoch < b.first_epoch;
            });

  // Lost epochs: every gap between recovered segments, and the promised
  // epochs before the first or after the last of them.
  std::uint64_t next = UINT64_MAX, last = 0;
  for (const Segment& segment : segments_) {
    next = std::min(next, segment.first_epoch);
    last = std::max(last, segment.last_epoch);
  }
  for (const LostRange& range : promised) {
    next = std::min(next, range.first_epoch);
    last = std::max(last, range.last_epoch);
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Segment* before = nullptr;
  const auto lose = [&](std::uint64_t first, std::uint64_t until,
                        const Segment* after) {
    LostRange lost{first, until, before ? before->last_time_s : -kInf,
                   after ? after->first_time_s : kInf, {}};
    for (const LostRange& range : promised)
      if (range.first_epoch <= until && first <= range.last_epoch) {
        lost.where = range.where;
        break;
      }
    if (lost.where.empty())
      lost.where = "between " + before->path.filename().string() + " and " +
                   after->path.filename().string();
    VMP_LOG_WARN("ledger: epochs %llu..%llu were lost (%s)",
                 static_cast<unsigned long long>(first),
                 static_cast<unsigned long long>(until), lost.where.c_str());
    lost_.push_back(std::move(lost));
  };
  for (const Segment& segment : segments_) {
    if (segment.first_epoch > next) lose(next, segment.first_epoch - 1, &segment);
    next = std::max(next, segment.last_epoch + 1);
    before = &segment;
  }
  if (next <= last) lose(next, last, nullptr);

  // The newest WAL segment resumes as the active one (unless it is already
  // at a rotation threshold, in which case the next append starts fresh).
  if (!segments_.empty() && segments_.back().kind == Kind::kSealed &&
      segments_.back().path.filename().string().starts_with("wal-") &&
      segments_.back().records < options_.segment_max_records &&
      segments_.back().bytes < kSegmentMaxBytes) {
    Segment& tail = segments_.back();
    active_.open(tail.path, std::ios::binary | std::ios::app);
    if (!active_)
      throw std::runtime_error("ledger: cannot reopen " + tail.path.string());
    tail.kind = Kind::kActive;
  }
}

std::optional<Ledger::Segment> Ledger::recover_wal(
    const std::filesystem::path& path) {
  const std::string data = read_file(path);
  if (data.size() < kWalMagic.size() ||
      std::string_view(data).substr(0, kWalMagic.size()) != kWalMagic) {
    ++recovery_.torn_records;
    recovery_.truncated_bytes += data.size();
    VMP_LOG_WARN("ledger: %s has a damaged header; dropping the segment",
                 path.filename().string().c_str());
    std::filesystem::remove(path);
    return std::nullopt;
  }

  Segment segment;
  segment.kind = Kind::kSealed;
  segment.path = path;
  std::size_t offset = kWalMagic.size();
  TickRecord record;
  for (;;) {
    const std::size_t frame_offset = offset;
    const FrameStatus status = read_frame(data, offset, record);
    if (status == FrameStatus::kEndOfLog) break;
    if (status == FrameStatus::kTorn ||
        (segment.records > 0 && record.epoch <= segment.last_epoch)) {
      // Damage (or an impossible epoch regression, which is damage too):
      // keep everything before it, truncate the rest, and say so.
      const std::uint64_t lost = data.size() - frame_offset;
      ++recovery_.torn_records;
      recovery_.truncated_bytes += lost;
      VMP_LOG_WARN(
          "ledger: %s torn at offset %zu; kept %llu records, truncated %llu "
          "bytes",
          path.filename().string().c_str(), frame_offset,
          static_cast<unsigned long long>(segment.records),
          static_cast<unsigned long long>(lost));
      std::filesystem::resize_file(path, frame_offset);
      offset = frame_offset;
      break;
    }
    if (segment.records == 0) {
      segment.first_epoch = record.epoch;
      segment.first_time_s = record.time_s;
    }
    segment.index.push_back({record.epoch, record.time_s, frame_offset});
    segment.last_epoch = record.epoch;
    segment.last_time_s = record.time_s;
    ++segment.records;
  }
  if (segment.records == 0) {
    std::filesystem::remove(path);  // nothing recoverable survives here.
    return std::nullopt;
  }
  segment.bytes = offset;
  segment.frames_end = offset;
  return segment;
}

std::optional<Ledger::Segment> Ledger::recover_cold(
    const std::filesystem::path& path) {
  Segment segment;
  segment.kind = Kind::kCold;
  segment.path = path;

  // Only the magic, the footer and the index are read, so reopening a ledger
  // costs its indexes, not its records.
  const SegmentFile file(path);
  segment.bytes = file.size();
  const std::optional<ColdIndex> cold = read_cold_index(file);
  const ColdFooter* footer = cold ? &cold->footer : nullptr;
  if (footer && footer->entry_count == footer->record_count) {
    ByteReader reader{cold->block};
    segment.index.resize(footer->entry_count);
    for (IndexEntry& entry : segment.index) {
      (void)reader.get_u64(entry.epoch);
      (void)reader.get_f64(entry.time_s);
      (void)reader.get_u64(entry.offset);
    }
    segment.records = footer->record_count;
    segment.first_epoch = footer->first_epoch;
    segment.last_epoch = footer->last_epoch;
    segment.frames_end = footer->index_offset;
    segment.first_time_s = segment.index.front().time_s;
    segment.last_time_s = segment.index.back().time_s;
    return segment;
  }

  // A sparse index (an intact footer indexing only some records, as cold
  // segments once did) or a damaged footer: the frames themselves are still
  // CRC-protected, so scan them like a WAL, keep the segment sealed, and let
  // compaction write it a dense index.
  const std::string data = read_file(path);
  segment.kind = Kind::kSealed;
  std::size_t offset = kColdMagic.size();
  TickRecord record;
  for (;;) {
    const std::size_t frame_offset = offset;
    const FrameStatus status = read_frame(data, offset, record);
    if (status != FrameStatus::kOk ||
        (segment.records > 0 && record.epoch <= segment.last_epoch)) {
      // The index/footer region reads as torn; stop quietly. The frames end
      // where the last indexed one does, which bounds that frame's reads.
      offset = frame_offset;
      break;
    }
    if (segment.records == 0) {
      segment.first_epoch = record.epoch;
      segment.first_time_s = record.time_s;
    }
    segment.index.push_back({record.epoch, record.time_s, frame_offset});
    segment.last_epoch = record.epoch;
    segment.last_time_s = record.time_s;
    ++segment.records;
  }
  // A sparse index is no damage when the frames it indexes are all there.
  if (footer && segment.records == footer->record_count &&
      offset == footer->index_offset) {
    VMP_LOG_INFO("ledger: %s has a sparse index; rebuilding it dense",
                 path.filename().string().c_str());
  } else {
    ++recovery_.rescanned_cold;
    VMP_LOG_WARN("ledger: %s has a damaged footer; rescanned its frames",
                 path.filename().string().c_str());
  }
  if (segment.records == 0) {
    ++recovery_.torn_records;
    recovery_.truncated_bytes += data.size();
    VMP_LOG_WARN("ledger: %s held no intact records; dropping it",
                 path.filename().string().c_str());
    std::filesystem::remove(path);
    return std::nullopt;
  }
  segment.frames_end = offset;
  return segment;
}

// --- append and rotation ----------------------------------------------------

void Ledger::open_active_locked(std::uint64_t first_epoch) {
  Segment segment;
  segment.kind = Kind::kActive;
  segment.path = options_.dir / segment_file_name("wal", first_epoch);
  segment.first_epoch = first_epoch;
  segment.last_epoch = first_epoch - 1;  // no records yet.
  active_.open(segment.path, std::ios::binary | std::ios::trunc);
  if (!active_)
    throw std::runtime_error("ledger: cannot create " +
                             segment.path.string());
  active_.write(kWalMagic.data(),
                static_cast<std::streamsize>(kWalMagic.size()));
  segment.bytes = kWalMagic.size();
  segment.frames_end = segment.bytes;
  segments_.push_back(std::move(segment));
}

void Ledger::seal_active_locked() {
  active_.close();
  segments_.back().kind = Kind::kSealed;
}

void Ledger::append(const TickRecord& record) {
  bool rotated = false;
  {
    std::lock_guard lock(mutex_);
    if (!segments_.empty() && record.epoch <= segments_.back().last_epoch)
      throw std::logic_error(
          "Ledger::append: epoch " + std::to_string(record.epoch) +
          " does not follow tail " +
          std::to_string(segments_.back().last_epoch));
    if (segments_.empty() || segments_.back().kind != Kind::kActive)
      open_active_locked(record.epoch);

    frame_.clear();
    append_frame(frame_, record);
    Segment& tail = segments_.back();
    active_.write(frame_.data(), static_cast<std::streamsize>(frame_.size()));
    active_.flush();
    if (!active_)
      throw std::runtime_error("ledger: append failed on " +
                               tail.path.string());
    if (tail.records == 0) {
      tail.first_epoch = record.epoch;
      tail.first_time_s = record.time_s;
    }
    forget_lost_from_locked(record.epoch, record.time_s);
    tail.index.push_back({record.epoch, record.time_s, tail.bytes});
    tail.last_epoch = record.epoch;
    tail.last_time_s = record.time_s;
    tail.bytes += frame_.size();
    tail.frames_end = tail.bytes;
    ++tail.records;
    ++appended_records_;
    appended_bytes_ += frame_.size();
    if (appended_counter_) appended_counter_->inc();
    if (appended_bytes_counter_) appended_bytes_counter_->inc(frame_.size());

    if (tail.records >= options_.segment_max_records ||
        tail.bytes >= kSegmentMaxBytes) {
      seal_active_locked();
      rotated = true;
    }
    update_gauges_locked();
  }
  if (rotated && options_.auto_compact) {
    if (options_.background_compaction)
      work_cv_.notify_one();
    else
      (void)compact_one();
  }
}

// --- compaction -------------------------------------------------------------

bool Ledger::compact_one() {
  std::lock_guard compaction_lock(compaction_mutex_);
  std::filesystem::path source;
  std::uint64_t frames_end = 0;
  std::uint64_t records = 0;
  {
    std::lock_guard lock(mutex_);
    const auto it =
        std::find_if(segments_.begin(), segments_.end(),
                     [](const Segment& s) { return s.kind == Kind::kSealed; });
    if (it == segments_.end()) return false;
    source = it->path;
    frames_end = it->frames_end;
    records = it->records;
  }

  // The sealed file is immutable, so the rewrite happens without the state
  // lock. Every frame is CRC-checked and indexed; the cold file is then the
  // cold magic, the frames region copied verbatim (no re-encode, so the
  // records stay bit-identical, and both magics are 8 bytes, so every frame
  // keeps its offset), the index and the footer, written from these bytes.
  const std::string data = read_file(source);
  const std::string_view frames =
      std::string_view(data).substr(0, std::min<std::uint64_t>(frames_end,
                                                               data.size()));
  std::string index_block;
  index_block.reserve(records * kIndexEntryBytes);
  ColdFooter footer;
  std::size_t offset = kWalMagic.size();
  TickRecord record;
  for (;;) {
    const std::size_t frame_offset = offset;
    if (read_frame(frames, offset, record) != FrameStatus::kOk) break;
    if (footer.record_count == 0) footer.first_epoch = record.epoch;
    footer.last_epoch = record.epoch;
    put_u64(index_block, record.epoch);
    put_f64(index_block, record.time_s);
    put_u64(index_block, frame_offset);
    ++footer.record_count;
  }

  std::filesystem::path cold_path;
  if (footer.record_count > 0) {
    footer.index_offset = offset;
    footer.entry_count = static_cast<std::uint32_t>(footer.record_count);
    footer.index_crc = crc32(index_block);
    cold_path = options_.dir / segment_file_name("cold", footer.first_epoch,
                                                 footer.last_epoch);
    const std::filesystem::path tmp_path = cold_path.string() + ".tmp";
    const std::string footer_bytes = encode_footer(footer);
    std::ofstream file(tmp_path, std::ios::binary | std::ios::trunc);
    file.write(kColdMagic.data(),
               static_cast<std::streamsize>(kColdMagic.size()));
    file.write(frames.data() + kWalMagic.size(),
               static_cast<std::streamsize>(offset - kWalMagic.size()));
    file.write(index_block.data(),
               static_cast<std::streamsize>(index_block.size()));
    file.write(footer_bytes.data(),
               static_cast<std::streamsize>(footer_bytes.size()));
    file.close();
    if (!file)
      throw std::runtime_error("ledger: cannot write " + tmp_path.string());
    std::filesystem::rename(tmp_path, cold_path);
  }

  {
    std::lock_guard lock(mutex_);
    const auto it = std::find_if(
        segments_.begin(), segments_.end(),
        [&source](const Segment& s) { return s.path == source; });
    if (it != segments_.end() && footer.record_count < it->records) {
      // A frame was damaged after it was written: the records from it on
      // are lost, and reads of them say so instead of answering around them.
      const std::size_t kept = static_cast<std::size_t>(footer.record_count);
      constexpr double kInf = std::numeric_limits<double>::infinity();
      LostRange lost{it->index[kept].epoch, it->last_epoch, -kInf, kInf,
                     source.filename().string()};
      if (kept > 0)
        lost.after_time_s = it->index[kept - 1].time_s;
      else if (it != segments_.begin())
        lost.after_time_s = std::prev(it)->last_time_s;
      if (std::next(it) != segments_.end())
        lost.before_time_s = std::next(it)->first_time_s;
      VMP_LOG_WARN("ledger: %s is damaged at offset %zu; epochs %llu..%llu "
                   "were lost",
                   lost.where.c_str(), offset,
                   static_cast<unsigned long long>(lost.first_epoch),
                   static_cast<unsigned long long>(lost.last_epoch));
      lost_.push_back(std::move(lost));
      it->index.resize(kept);
      it->records = kept;
      if (kept > 0) {
        it->last_epoch = it->index.back().epoch;
        it->last_time_s = it->index.back().time_s;
      }
    }
    if (it != segments_.end() && footer.record_count == 0) {
      segments_.erase(it);  // nothing intact: drop the entry and the file.
    } else if (it != segments_.end()) {
      // The segment keeps its dense in-memory index: the one just written
      // indexes the same frames at the same offsets.
      it->kind = Kind::kCold;
      it->path = cold_path;
      it->frames_end = offset;
      it->bytes = offset + index_block.size() + kFooterBytes;
    }
    compacted_records_ += footer.record_count;
    if (compacted_counter_) compacted_counter_->inc(footer.record_count);
    if (source != cold_path) std::filesystem::remove(source);
    update_gauges_locked();
  }
  idle_cv_.notify_all();
  return true;
}

std::size_t Ledger::compact_all() {
  std::size_t compacted = 0;
  while (compact_one()) ++compacted;
  return compacted;
}

void Ledger::compactor_loop() {
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [this] {
        return stop_ ||
               std::any_of(segments_.begin(), segments_.end(),
                           [](const Segment& s) {
                             return s.kind == Kind::kSealed;
                           });
      });
      if (stop_) return;
    }
    (void)compact_one();
  }
}

void Ledger::wait_for_compaction() const {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return std::none_of(
        segments_.begin(), segments_.end(),
        [](const Segment& s) { return s.kind == Kind::kSealed; });
  });
}

// --- queries ----------------------------------------------------------------

const Ledger::Segment* Ledger::segment_for_time_locked(double t_s) const {
  const Segment* found = nullptr;
  for (const Segment& segment : segments_) {
    if (segment.records == 0) continue;
    if (segment.first_time_s <= t_s) found = &segment;
    else break;
  }
  return found;
}

const Ledger::Segment* Ledger::segment_for_epoch_locked(
    std::uint64_t epoch) const {
  for (const Segment& segment : segments_)
    if (segment.records > 0 && segment.first_epoch <= epoch &&
        epoch <= segment.last_epoch)
      return &segment;
  return nullptr;
}

TickRecord Ledger::read_indexed(const SegmentFile& file,
                                const Segment& segment, std::size_t i) {
  const IndexEntry& entry = segment.index[i];
  const std::uint64_t end = i + 1 < segment.index.size()
                                ? segment.index[i + 1].offset
                                : segment.frames_end;
  // The index was CRC-checked when it loaded or built from CRC-checked
  // frames, so it gives the frame's extent before a byte of it is read, and
  // the frame is the only one whose CRC the read needs.
  if (end < entry.offset || end - entry.offset < kHeaderBytes ||
      end - entry.offset - kHeaderBytes > kMaxRecordBytes)
    throw_damaged(segment.path, entry.offset, "impossible index extent");
  std::string frame(end - entry.offset, '\0');
  if (!file.read(entry.offset, frame.data(), frame.size()))
    throw_damaged(segment.path, entry.offset, "unreadable frame");
  ByteReader header{frame};
  std::uint32_t length = 0, crc = 0;
  (void)header.get_u32(length);
  (void)header.get_u32(crc);
  if (length != frame.size() - kHeaderBytes)
    throw_damaged(segment.path, entry.offset, "impossible header");
  const std::string_view body = std::string_view(frame).substr(kHeaderBytes);
  if (crc32(body) != crc)
    throw_damaged(segment.path, entry.offset, "CRC mismatch");
  auto record = decode_record(body);
  if (!record)
    throw_damaged(segment.path, entry.offset, "undecodable body");
  if (record->epoch != entry.epoch ||
      std::bit_cast<std::uint64_t>(record->time_s) !=
          std::bit_cast<std::uint64_t>(entry.time_s))
    throw_damaged(segment.path, entry.offset, "record differs from its index");
  return std::move(*record);
}

void Ledger::forget_lost_from_locked(std::uint64_t epoch, double time_s) {
  std::erase_if(lost_, [&](const LostRange& lost) {
    return lost.first_epoch >= epoch;
  });
  for (LostRange& lost : lost_)
    if (lost.last_epoch + 1 >= epoch) {
      lost.last_epoch = epoch - 1;
      lost.before_time_s = time_s;
    }
}

void Ledger::check_lost_locked(bool by_epoch, double t_s,
                               std::uint64_t epoch) const {
  for (const LostRange& lost : lost_) {
    // By time, a lost record may be the answer from the last kept record's
    // time on (a lost record could share it) until the next kept one.
    if (by_epoch ? lost.first_epoch <= epoch && epoch <= lost.last_epoch
                 : lost.after_time_s <= t_s && t_s < lost.before_time_s)
      throw DamagedRecord("ledger: epochs " + std::to_string(lost.first_epoch) +
                          ".." + std::to_string(lost.last_epoch) +
                          " were lost (" + lost.where + ")");
  }
}

std::optional<TickRecord> Ledger::at_or_before(double t_s) const {
  std::lock_guard lock(mutex_);
  check_lost_locked(/*by_epoch=*/false, t_s, 0);
  const Segment* segment = segment_for_time_locked(t_s);
  if (!segment) return std::nullopt;
  // Last entry with time_s <= t_s (the first entry qualifies by the segment
  // choice above).
  const auto it = std::upper_bound(
      segment->index.begin(), segment->index.end(), t_s,
      [](double t, const IndexEntry& entry) { return t < entry.time_s; });
  return read_indexed(SegmentFile(segment->path), *segment,
                      static_cast<std::size_t>(
                          std::prev(it) - segment->index.begin()));
}

std::optional<TickRecord> Ledger::at_epoch(std::uint64_t epoch) const {
  std::lock_guard lock(mutex_);
  check_lost_locked(/*by_epoch=*/true, 0.0, epoch);
  const Segment* segment = segment_for_epoch_locked(epoch);
  if (!segment) return std::nullopt;
  const auto it = std::lower_bound(
      segment->index.begin(), segment->index.end(), epoch,
      [](const IndexEntry& entry, std::uint64_t e) { return entry.epoch < e; });
  if (it == segment->index.end() || it->epoch != epoch) return std::nullopt;
  return read_indexed(SegmentFile(segment->path), *segment,
                      static_cast<std::size_t>(it - segment->index.begin()));
}

std::vector<TickRecord> Ledger::range(std::uint64_t first,
                                      std::uint64_t last) const {
  std::lock_guard lock(mutex_);
  std::vector<TickRecord> records;
  for (const Segment& segment : segments_) {
    if (segment.records == 0 || segment.last_epoch < first) continue;
    if (segment.first_epoch > last) break;
    const SegmentFile file(segment.path);
    auto it = std::lower_bound(
        segment.index.begin(), segment.index.end(), first,
        [](const IndexEntry& entry, std::uint64_t e) { return entry.epoch < e; });
    for (; it != segment.index.end() && it->epoch <= last; ++it)
      records.push_back(read_indexed(
          file, segment, static_cast<std::size_t>(it - segment.index.begin())));
  }
  return records;
}

// --- truncation (checkpoint restore rewind) ---------------------------------

void Ledger::truncate_after(std::uint64_t epoch) {
  std::lock_guard compaction_lock(compaction_mutex_);
  std::lock_guard lock(mutex_);

  forget_lost_from_locked(epoch + 1, std::numeric_limits<double>::infinity());

  while (!segments_.empty() && segments_.back().first_epoch > epoch) {
    if (segments_.back().kind == Kind::kActive) active_.close();
    std::filesystem::remove(segments_.back().path);
    segments_.pop_back();
  }
  if (segments_.empty() || segments_.back().last_epoch <= epoch) {
    update_gauges_locked();
    return;
  }

  // The first dropped record's offset ends the kept frames.
  Segment& tail = segments_.back();
  const auto it = std::upper_bound(
      tail.index.begin(), tail.index.end(), epoch,
      [](std::uint64_t e, const IndexEntry& entry) { return e < entry.epoch; });
  const std::uint64_t cut = it->offset;
  if (tail.path.filename().string().starts_with("cold-")) {
    // Rewrite the straddling cold segment as a WAL holding only the kept
    // frames, at the same offsets; compaction will rebuild its index later.
    std::string frames(cut - kColdMagic.size(), '\0');
    if (!SegmentFile(tail.path).read(kColdMagic.size(), frames.data(),
                                     frames.size()))
      throw std::runtime_error("ledger: cannot read " + tail.path.string());
    const std::filesystem::path wal_path =
        options_.dir / segment_file_name("wal", tail.first_epoch);
    {
      std::ofstream file(wal_path, std::ios::binary | std::ios::trunc);
      file.write(kWalMagic.data(),
                 static_cast<std::streamsize>(kWalMagic.size()));
      file.write(frames.data(), static_cast<std::streamsize>(frames.size()));
      file.close();
      if (!file)
        throw std::runtime_error("ledger: cannot rewrite " + wal_path.string());
    }
    std::filesystem::remove(tail.path);
    tail.path = wal_path;
    tail.kind = Kind::kSealed;
  } else {
    if (tail.kind == Kind::kActive) active_.close();
    std::filesystem::resize_file(tail.path, cut);
  }
  tail.index.erase(it, tail.index.end());
  tail.records = tail.index.size();
  tail.bytes = cut;
  tail.frames_end = cut;
  tail.last_epoch = tail.index.back().epoch;
  tail.last_time_s = tail.index.back().time_s;
  if (tail.kind == Kind::kActive) {
    active_.open(tail.path, std::ios::binary | std::ios::app);
    if (!active_)
      throw std::runtime_error("ledger: cannot reopen " + tail.path.string());
  }
  update_gauges_locked();
}

// --- stats and metrics ------------------------------------------------------

Stats Ledger::stats() const {
  std::lock_guard lock(mutex_);
  Stats stats;
  for (const Segment& segment : segments_) {
    if (segment.records == 0) continue;
    if (stats.records == 0) {
      stats.oldest_epoch = segment.first_epoch;
      stats.oldest_time_s = segment.first_time_s;
    }
    stats.records += segment.records;
    stats.tail_epoch = segment.last_epoch;
    stats.tail_time_s = segment.last_time_s;
  }
  stats.segments = segments_.size();
  for (const Segment& segment : segments_) {
    if (segment.kind == Kind::kCold) ++stats.cold_segments;
    if (segment.kind == Kind::kSealed) ++stats.sealed_segments;
  }
  stats.appended_records = appended_records_;
  stats.appended_bytes = appended_bytes_;
  stats.compacted_records = compacted_records_;
  return stats;
}

std::vector<SegmentInfo> Ledger::segments() const {
  std::lock_guard lock(mutex_);
  std::vector<SegmentInfo> infos;
  infos.reserve(segments_.size());
  for (const Segment& segment : segments_) {
    SegmentInfo info;
    info.file = segment.path.filename().string();
    info.cold = segment.kind == Kind::kCold;
    info.active = segment.kind == Kind::kActive;
    info.first_epoch = segment.first_epoch;
    info.last_epoch = segment.last_epoch;
    info.records = segment.records;
    info.bytes = segment.bytes;
    infos.push_back(std::move(info));
  }
  return infos;
}

void Ledger::register_metrics() {
  if (!options_.metrics) return;
  obs::MetricsRegistry& registry = *options_.metrics;
  appended_counter_ =
      &registry.counter("vmpower_ledger_appended_records_total",
                        "Attribution records appended to the ledger WAL");
  appended_bytes_counter_ =
      &registry.counter("vmpower_ledger_appended_bytes_total",
                        "Framed bytes appended to the ledger WAL");
  compacted_counter_ =
      &registry.counter("vmpower_ledger_compacted_records_total",
                        "Records rewritten into indexed cold segments");
  recovered_counter_ =
      &registry.counter("vmpower_ledger_recovered_records_total",
                        "Intact records found by ledger crash recovery");
  torn_counter_ = &registry.counter(
      "vmpower_ledger_torn_records_total",
      "Torn or corrupt records truncated away at ledger recovery");
  segments_gauge_ = &registry.gauge("vmpower_ledger_segments",
                                    "Ledger segments on disk (all tiers)");
  cold_segments_gauge_ =
      &registry.gauge("vmpower_ledger_cold_segments",
                      "Compacted, index-bearing cold segments");
  tail_epoch_gauge_ = &registry.gauge(
      "vmpower_ledger_tail_epoch", "Epoch of the newest ledger record");
  oldest_epoch_gauge_ = &registry.gauge(
      "vmpower_ledger_oldest_epoch", "Epoch of the oldest ledger record");
  recovered_counter_->inc(recovery_.records);
  torn_counter_->inc(recovery_.torn_records);
  std::lock_guard lock(mutex_);
  update_gauges_locked();
}

void Ledger::update_gauges_locked() {
  if (!segments_gauge_) return;
  segments_gauge_->set(static_cast<double>(segments_.size()));
  std::uint64_t cold = 0, oldest = 0, tail = 0;
  for (const Segment& segment : segments_) {
    if (segment.kind == Kind::kCold) ++cold;
    if (segment.records == 0) continue;
    if (oldest == 0) oldest = segment.first_epoch;
    tail = segment.last_epoch;
  }
  cold_segments_gauge_->set(static_cast<double>(cold));
  tail_epoch_gauge_->set(static_cast<double>(tail));
  oldest_epoch_gauge_->set(static_cast<double>(oldest));
}

// --- offline verification ---------------------------------------------------

VerifyReport verify_dir(const std::filesystem::path& dir) {
  VerifyReport report;
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if ((name.starts_with("wal-") && name.ends_with(".log")) ||
        (name.starts_with("cold-") && name.ends_with(".seg"))) {
      // Epoch prefix follows the "wal-"/"cold-" tag; names sort by it.
      const std::size_t dash = name.find('-');
      files.emplace_back(std::stoull(name.substr(dash + 1)), entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  std::uint64_t previous_last = 0;
  for (const auto& [first, path] : files) {
    ++report.segments;
    const std::string data = read_file(path);
    const bool cold = path.filename().string().starts_with("cold-");
    std::size_t frames_end = data.size();
    if (cold) {
      if (const auto index = read_cold_index(SegmentFile(path))) {
        frames_end = index->footer.index_offset;
      } else {
        ++report.torn_records;  // the footer itself is damaged.
      }
    } else if (data.size() < kWalMagic.size() ||
               std::string_view(data).substr(0, kWalMagic.size()) !=
                   kWalMagic) {
      ++report.torn_records;
      continue;
    }
    std::size_t offset = cold ? kColdMagic.size() : kWalMagic.size();
    std::uint64_t last_epoch = 0;
    TickRecord record;
    for (;;) {
      const FrameStatus status = read_frame(
          std::string_view(data).substr(0, frames_end), offset, record);
      if (status == FrameStatus::kEndOfLog) break;
      if (status == FrameStatus::kTorn ||
          (last_epoch != 0 && record.epoch <= last_epoch)) {
        ++report.torn_records;
        break;
      }
      if (last_epoch == 0 && previous_last != 0 &&
          record.epoch != previous_last + 1)
        ++report.epoch_gaps;
      last_epoch = record.epoch;
      ++report.records;
      if (report.first_epoch == 0) report.first_epoch = record.epoch;
      report.last_epoch = std::max(report.last_epoch, record.epoch);
    }
    if (last_epoch != 0) previous_last = last_epoch;
  }
  return report;
}

}  // namespace vmp::ledger
