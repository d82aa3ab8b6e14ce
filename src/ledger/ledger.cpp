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

/// The epochs a segment file's name allows: wal-<first>.log starts at
/// <first>; cold-<first>-<last>.seg starts at <first> and ends by <last>.
struct NamedRange {
  std::uint64_t first = 0;
  std::uint64_t last = UINT64_MAX;
};

namespace {

// Both magics are 8 bytes so a frame has the same offset in a WAL segment
// and in the cold segment its seal makes of it.
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

/// nullopt when `name` is not a segment file's.
std::optional<NamedRange> parse_segment_name(const std::string& name) {
  NamedRange range;
  int end = 0;
  if (std::sscanf(name.c_str(), "wal-%" SCNu64 ".log%n", &range.first,
                  &end) != 1 &&
      std::sscanf(name.c_str(), "cold-%" SCNu64 "-%" SCNu64 ".seg%n",
                  &range.first, &range.last, &end) != 2)
    return std::nullopt;
  if (static_cast<std::size_t>(end) != name.size() || range.first > range.last)
    return std::nullopt;
  return range;
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

/// Whether a file starts with a magic a ledger writes: a seal replaces the
/// WAL magic with the cold one as its last step.
bool known_magic(std::string_view data) {
  return data.starts_with(kWalMagic) || data.starts_with(kColdMagic);
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

/// What a seal appends after a segment's frames: an index entry for every
/// frame, then the footer that checks them.
std::string seal_tail(const std::vector<IndexEntry>& index,
                      std::uint64_t frames_end) {
  std::string tail;
  tail.reserve(index.size() * kIndexEntryBytes + kFooterBytes);
  for (const IndexEntry& entry : index) {
    put_u64(tail, entry.epoch);
    put_f64(tail, entry.time_s);
    put_u64(tail, entry.offset);
  }
  const std::uint32_t index_crc = crc32(tail);
  put_u64(tail, frames_end);
  put_u32(tail, static_cast<std::uint32_t>(index.size()));
  put_u64(tail, index.size());
  put_u64(tail, index.front().epoch);
  put_u64(tail, index.back().epoch);
  put_u32(tail, index_crc);
  put_u64(tail, kFooterMagic);
  return tail;
}

/// A sealed file's footer and the index block it points at.
struct ColdIndex {
  ColdFooter footer;
  std::string block;  ///< footer.entry_count entries of kIndexEntryBytes.
  bool cold_magic = false;  ///< else the WAL magic a seal has yet to replace.
};

/// Reads a file's magic, footer and index block, and nothing else. nullopt
/// unless the magic is one a ledger writes, the footer indexes at least one
/// record and at most every record, its index block ends where the footer
/// starts and passes the footer's CRC, and the first and last entries carry
/// the footer's epochs, which lie outside that CRC. Those epochs must lie in
/// the range the file's name allows, starting at its first: the name and
/// the footer come from the same seal, so a footer outside it was copied
/// from another file.
std::optional<ColdIndex> read_cold_index(const SegmentFile& file,
                                         const NamedRange& named) {
  const std::uint64_t size = file.size();
  char magic[kColdMagic.size()];
  char tail[kFooterBytes];
  if (size < sizeof magic + sizeof tail || !file.read(0, magic, sizeof magic) ||
      !known_magic(std::string_view(magic, sizeof magic)) ||
      !file.read(size - sizeof tail, tail, sizeof tail))
    return std::nullopt;
  ByteReader reader{std::string_view(tail, sizeof tail)};
  ColdIndex cold;
  cold.cold_magic = std::string_view(magic, sizeof magic) == kColdMagic;
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
      footer.first_epoch != named.first || footer.last_epoch > named.last ||
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

/// The frames of a segment file's bytes, from just after its magic up to the
/// first that fails to read, breaks epoch order or leaves the range the
/// file's name allows (the first frame carries its first epoch): a frame
/// copied in from another segment ends the scan like any damage.
struct FrameScan {
  std::vector<IndexEntry> index;
  std::size_t end = 0;  ///< where the intact frames stop.
};

FrameScan scan_frames(std::string_view data, const NamedRange& named) {
  FrameScan scan;
  scan.end = std::min(kWalMagic.size(), data.size());
  TickRecord record;
  for (std::size_t offset = scan.end;
       read_frame(data, offset, record) == FrameStatus::kOk &&
       (scan.index.empty() ? record.epoch == named.first
                           : record.epoch > scan.index.back().epoch) &&
       record.epoch <= named.last;
       scan.end = offset)
    scan.index.push_back({record.epoch, record.time_s, scan.end});
  return scan;
}

/// Whether the bytes after a scanned file's intact frames are no damage:
/// none, or the start of the seal those frames get, which a crash cut short.
/// (A frame header cut after 1-3 bytes can read the same; it held no record
/// an append returned.)
bool ends_cleanly(std::string_view data, const FrameScan& scan) {
  const std::string_view rest = data.substr(scan.end);
  return rest.empty() ||
         (known_magic(data) && !scan.index.empty() &&
          seal_tail(scan.index, scan.end).starts_with(rest));
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

void Ledger::Segment::take_extent_from_index() {
  records = index.size();
  first_epoch = index.front().epoch;
  first_time_s = index.front().time_s;
  last_epoch = index.back().epoch;
  last_time_s = index.back().time_s;
}

Ledger::Ledger(LedgerOptions options) : options_(std::move(options)) {
  options_.validate();
  std::filesystem::create_directories(options_.dir);
  recover();
  register_metrics();
}

// --- recovery ---------------------------------------------------------------

void Ledger::recover() {
  // A cold segment's name promises its epoch range, even when the file is
  // too damaged to say so itself.
  std::vector<LostRange> promised;
  std::vector<std::pair<std::filesystem::path, NamedRange>> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir)) {
    const std::string name = entry.path().filename().string();
    const std::optional<NamedRange> named = parse_segment_name(name);
    if (!entry.is_regular_file() || !named) continue;
    files.emplace_back(entry.path(), *named);
    if (name.starts_with("cold-"))
      promised.push_back({named->first, named->last, 0.0, 0.0, name});
  }
  for (const auto& [path, named] : files)
    if (auto segment = recover_segment(path, named)) {
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

  // Only the newest segment may stay unsealed, and only a WAL under both
  // rotation thresholds: it resumes as the active one. Every other segment
  // a crash, a damaged footer or an older build left unsealed is sealed.
  for (Segment& segment : segments_) {
    if (segment.kind == Kind::kCold) continue;
    if (&segment == &segments_.back() &&
        segment.path.filename().string().starts_with("wal-") &&
        segment.records < options_.segment_max_records &&
        segment.bytes < kSegmentMaxBytes) {
      active_.open(segment.path, std::ios::binary | std::ios::app);
      if (!active_)
        throw std::runtime_error("ledger: cannot reopen " +
                                 segment.path.string());
    } else {
      seal_locked(segment);
    }
  }
}

std::optional<Ledger::Segment> Ledger::recover_segment(
    const std::filesystem::path& path, const NamedRange& named) {
  const std::string name = path.filename().string();
  Segment segment;
  segment.path = path;
  std::optional<ColdIndex> cold;
  {
    const SegmentFile file(path);
    segment.bytes = file.size();
    cold = read_cold_index(file, named);
  }
  if (cold && cold->footer.entry_count == cold->footer.record_count) {
    // Sealed, whatever the name and magic say. Only the magic, the footer
    // and the index were read, so reopening costs indexes, not records.
    ByteReader reader{cold->block};
    segment.index.resize(cold->footer.entry_count);
    for (IndexEntry& entry : segment.index) {
      (void)reader.get_u64(entry.epoch);
      (void)reader.get_f64(entry.time_s);
      (void)reader.get_u64(entry.offset);
    }
    segment.take_extent_from_index();
    segment.frames_end = cold->footer.index_offset;
    segment.kind = Kind::kCold;
    if (!cold->cold_magic ||
        name != segment_file_name("cold", segment.first_epoch,
                                  segment.last_epoch))
      finish_seal_locked(segment);  // a crash stopped it after the footer.
    return segment;
  }

  // No footer indexes every frame, so the frames themselves are read.
  const std::string data = read_file(path);
  const bool wal = name.starts_with("wal-");
  if (wal && !data.starts_with(kWalMagic)) {
    ++recovery_.torn_records;
    recovery_.truncated_bytes += data.size();
    VMP_LOG_WARN("ledger: %s has a damaged header; dropping the segment",
                 name.c_str());
    std::filesystem::remove(path);
    return std::nullopt;
  }
  const FrameScan scan = scan_frames(data, named);
  if (ends_cleanly(data, scan)) {
    if (scan.end < data.size())
      VMP_LOG_INFO("ledger: %s was cut short while sealing; sealing it again",
                   name.c_str());
  } else if (wal) {
    // Damage (or an impossible epoch regression, which is damage too):
    // keep everything before it, truncate the rest, and say so.
    const std::uint64_t lost = data.size() - scan.end;
    ++recovery_.torn_records;
    recovery_.truncated_bytes += lost;
    VMP_LOG_WARN(
        "ledger: %s torn at offset %zu; kept %zu records, truncated %llu "
        "bytes",
        name.c_str(), scan.end, scan.index.size(),
        static_cast<unsigned long long>(lost));
  } else if (cold && scan.index.size() == cold->footer.record_count &&
             scan.end == cold->footer.index_offset) {
    // A sparse index is no damage when the frames it indexes are all there.
    VMP_LOG_INFO("ledger: %s has a sparse index; rebuilding it dense",
                 name.c_str());
  } else {
    ++recovery_.rescanned_cold;
    VMP_LOG_WARN("ledger: %s has a damaged footer; rescanned its frames",
                 name.c_str());
  }
  if (scan.index.empty()) {
    if (!wal) {
      ++recovery_.torn_records;
      recovery_.truncated_bytes += data.size();
      VMP_LOG_WARN("ledger: %s held no intact records; dropping it",
                   name.c_str());
    }
    std::filesystem::remove(path);  // nothing recoverable survives here.
    return std::nullopt;
  }
  // The file ends at its last intact frame, as a seal or an append needs.
  if (scan.end < data.size()) std::filesystem::resize_file(path, scan.end);
  segment.index = scan.index;
  segment.take_extent_from_index();
  segment.bytes = scan.end;
  segment.frames_end = scan.end;
  return segment;
}

// --- append, rotation and the seal -----------------------------------------

void Ledger::open_active_locked(std::uint64_t first_epoch) {
  Segment segment;
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

void Ledger::seal_locked(Segment& segment) {
  // The index and footer are flushed before the rename. Until they are
  // whole, recovery scans the frames and seals them again; once they are,
  // it loads the file by its footer and finishes the seal.
  const std::string tail = seal_tail(segment.index, segment.frames_end);
  std::ofstream file(segment.path, std::ios::binary | std::ios::app);
  file.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  file.close();
  if (!file)
    throw std::runtime_error("ledger: cannot seal " + segment.path.string());
  segment.bytes = segment.frames_end + tail.size();
  compacted_records_ += segment.records;
  if (compacted_counter_) compacted_counter_->inc(segment.records);
  finish_seal_locked(segment);
}

void Ledger::finish_seal_locked(Segment& segment) {
  const std::filesystem::path cold_path =
      options_.dir /
      segment_file_name("cold", segment.first_epoch, segment.last_epoch);
  if (segment.path != cold_path) {
    std::filesystem::rename(segment.path, cold_path);
    segment.path = cold_path;
  }
  std::fstream file(cold_path, std::ios::binary | std::ios::in | std::ios::out);
  file.write(kColdMagic.data(),
             static_cast<std::streamsize>(kColdMagic.size()));
  file.close();
  if (!file)
    throw std::runtime_error("ledger: cannot seal " + cold_path.string());
  segment.kind = Kind::kCold;
}

void Ledger::append(const TickRecord& record) {
  std::lock_guard lock(mutex_);
  if (!segments_.empty() && record.epoch <= segments_.back().last_epoch)
    throw std::logic_error(
        "Ledger::append: epoch " + std::to_string(record.epoch) +
        " does not follow tail " +
        std::to_string(segments_.back().last_epoch));
  if (segments_.empty() || segments_.back().kind == Kind::kCold)
    open_active_locked(record.epoch);
  else if (!active_.is_open())
    throw std::runtime_error(
        "ledger: a failed seal or rewind left " +
        segments_.back().path.filename().string() +
        " unfinished; reopen the ledger to finish it");

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
    active_.close();
    seal_locked(tail);
  }
  update_gauges_locked();
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

  // The first dropped record's offset ends the kept frames: the file is cut
  // there, then a cold one is resealed (under a shorter name) and the
  // active WAL reopened.
  Segment& tail = segments_.back();
  const auto it = std::upper_bound(
      tail.index.begin(), tail.index.end(), epoch,
      [](std::uint64_t e, const IndexEntry& entry) { return e < entry.epoch; });
  const std::uint64_t cut = it->offset;
  if (tail.kind == Kind::kActive) active_.close();
  std::filesystem::resize_file(tail.path, cut);
  tail.index.erase(it, tail.index.end());
  tail.take_extent_from_index();
  tail.bytes = cut;
  tail.frames_end = cut;
  if (tail.kind == Kind::kCold) {
    seal_locked(tail);
  } else {
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
  for (const Segment& segment : segments_)
    if (segment.kind == Kind::kCold) ++stats.cold_segments;
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
                        "Records sealed into indexed cold segments");
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
                      "Sealed, index-bearing cold segments");
  tail_epoch_gauge_ = &registry.gauge(
      "vmpower_ledger_tail_epoch", "Epoch of the newest ledger record");
  oldest_epoch_gauge_ = &registry.gauge(
      "vmpower_ledger_oldest_epoch", "Epoch of the oldest ledger record");
  recovered_counter_->inc(recovery_.records);
  torn_counter_->inc(recovery_.torn_records);
  compacted_counter_->inc(compacted_records_);  // sealed by recovery.
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
  std::vector<std::pair<NamedRange, std::filesystem::path>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const auto named = parse_segment_name(entry.path().filename().string());
    if (entry.is_regular_file() && named)
      files.emplace_back(*named, entry.path());
  }
  std::sort(files.begin(), files.end(), [](const auto& a, const auto& b) {
    return a.first.first < b.first.first;
  });

  std::uint64_t previous_last = 0;
  for (const auto& [named, path] : files) {
    ++report.segments;
    const std::string data = read_file(path);
    if (!known_magic(data)) {
      ++report.torn_records;  // recovery drops such a WAL, rescans such a cold.
      if (path.filename().string().starts_with("wal-")) continue;
    }
    // As in recovery, a file whose footer checks is sealed, whatever its name
    // or magic say, and its frames end where its index starts; any other
    // file's frames must end cleanly.
    const auto cold = read_cold_index(SegmentFile(path), named);
    const std::string_view frames = std::string_view(data).substr(
        0, cold ? cold->footer.index_offset : data.size());
    const FrameScan scan = scan_frames(frames, named);
    if (cold ? scan.end < frames.size() : !ends_cleanly(frames, scan))
      ++report.torn_records;
    for (const IndexEntry& entry : scan.index) {
      if (&entry == &scan.index.front() && previous_last != 0 &&
          entry.epoch != previous_last + 1)
        ++report.epoch_gaps;
      ++report.records;
      if (report.first_epoch == 0) report.first_epoch = entry.epoch;
      report.last_epoch = std::max(report.last_epoch, entry.epoch);
    }
    if (!scan.index.empty()) previous_last = scan.index.back().epoch;
  }
  return report;
}

}  // namespace vmp::ledger
