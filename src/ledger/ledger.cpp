#include "ledger/ledger.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "util/logging.hpp"

namespace vmp::ledger {

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
};

std::string encode_footer(const ColdFooter& footer, std::uint32_t index_crc) {
  std::string out;
  out.reserve(kFooterBytes);
  put_u64(out, footer.index_offset);
  put_u32(out, footer.entry_count);
  put_u64(out, footer.record_count);
  put_u64(out, footer.first_epoch);
  put_u64(out, footer.last_epoch);
  put_u32(out, index_crc);
  put_u64(out, kFooterMagic);
  return out;
}

/// Validates the footer and index CRC of a cold file's contents; nullopt on
/// any damage (the caller falls back to a frame-by-frame scan).
std::optional<ColdFooter> decode_footer(std::string_view data) {
  if (data.size() < kColdMagic.size() + kFooterBytes) return std::nullopt;
  if (data.substr(0, kColdMagic.size()) != kColdMagic) return std::nullopt;
  ByteReader reader{data.substr(data.size() - kFooterBytes)};
  ColdFooter footer;
  std::uint32_t index_crc = 0;
  std::uint64_t magic = 0;
  if (!reader.get_u64(footer.index_offset) ||
      !reader.get_u32(footer.entry_count) ||
      !reader.get_u64(footer.record_count) ||
      !reader.get_u64(footer.first_epoch) ||
      !reader.get_u64(footer.last_epoch) || !reader.get_u32(index_crc) ||
      !reader.get_u64(magic))
    return std::nullopt;
  if (magic != kFooterMagic) return std::nullopt;
  const std::uint64_t index_bytes =
      static_cast<std::uint64_t>(footer.entry_count) * kIndexEntryBytes;
  if (footer.index_offset < kColdMagic.size() ||
      footer.index_offset + index_bytes + kFooterBytes != data.size())
    return std::nullopt;
  if (crc32(data.substr(footer.index_offset, index_bytes)) != index_crc)
    return std::nullopt;
  // The epochs and record count lie outside the index CRC. Compaction always
  // indexes the first and last record, so they must match those entries, and
  // the records must cover every entry.
  if (footer.entry_count == 0 || footer.record_count < footer.entry_count)
    return std::nullopt;
  ByteReader first{data.substr(footer.index_offset, 8)};
  ByteReader last{
      data.substr(footer.index_offset + index_bytes - kIndexEntryBytes, 8)};
  std::uint64_t first_epoch = 0;
  std::uint64_t last_epoch = 0;
  if (!first.get_u64(first_epoch) || !last.get_u64(last_epoch) ||
      first_epoch != footer.first_epoch || last_epoch != footer.last_epoch)
    return std::nullopt;
  return footer;
}

/// A frame's header and record prefix, read without the rest of its body.
struct FrameHead {
  std::uint32_t length = 0;  ///< body bytes.
  std::uint32_t crc = 0;
  RecordPrefix prefix;
};

/// One segment file opened for positioned reads of its frames region, which
/// ends at `frames_end`. Every read is a pread at an explicit offset, so no
/// two reads share a file position. A file that fails to open reads as
/// damaged from its first frame.
class FrameReader {
 public:
  FrameReader(const std::filesystem::path& path, std::uint64_t frames_end)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)),
        frames_end_(frames_end) {}
  ~FrameReader() {
    if (fd_ >= 0) ::close(fd_);
  }
  FrameReader(const FrameReader&) = delete;
  FrameReader& operator=(const FrameReader&) = delete;

  /// Header and prefix of the frame at `offset`; nullopt when the read
  /// falls short or the header cannot be right: a length above
  /// kMaxRecordBytes, a body shorter than the prefix, or a frame running
  /// past frames_end.
  [[nodiscard]] std::optional<FrameHead> head(std::uint64_t offset) const {
    char bytes[kFrameHeaderBytes + kRecordPrefixBytes];
    if (offset > frames_end_ || frames_end_ - offset < sizeof bytes ||
        !read(offset, bytes, sizeof bytes))
      return std::nullopt;
    ByteReader header{std::string_view(bytes, kFrameHeaderBytes)};
    FrameHead head;
    (void)header.get_u32(head.length);
    (void)header.get_u32(head.crc);
    if (head.length > kMaxRecordBytes || head.length < kRecordPrefixBytes ||
        head.length > frames_end_ - offset - kFrameHeaderBytes)
      return std::nullopt;
    head.prefix = *decode_prefix(
        std::string_view(bytes + kFrameHeaderBytes, kRecordPrefixBytes));
    return head;
  }

  /// Body of the frame at `offset`; nullopt when the read falls short or
  /// the body fails the CRC in `head`.
  [[nodiscard]] std::optional<std::string> body(std::uint64_t offset,
                                                const FrameHead& head) const {
    std::string body(head.length, '\0');
    if (!read(offset + kFrameHeaderBytes, body.data(), body.size()) ||
        crc32(body) != head.crc)
      return std::nullopt;
    return body;
  }

  /// Reads, CRC-checks and decodes the frame at `offset`, with read_frame's
  /// statuses: on kOk `offset` moves past the frame.
  FrameStatus next(std::uint64_t& offset, TickRecord& record) const {
    if (offset == frames_end_) return FrameStatus::kEndOfLog;
    const auto head = this->head(offset);
    if (!head) return FrameStatus::kTorn;
    const auto body = this->body(offset, *head);
    auto decoded = body ? decode_record(*body) : std::nullopt;
    if (!decoded) return FrameStatus::kTorn;
    record = std::move(*decoded);
    offset += kFrameHeaderBytes + head->length;
    return FrameStatus::kOk;
  }

 private:
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

  int fd_ = -1;
  std::uint64_t frames_end_ = 0;
};

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
  if (segment_max_records == 0 || segment_max_bytes == 0)
    throw std::invalid_argument(
        "LedgerOptions: segment thresholds must be >= 1");
  if (index_stride == 0)
    throw std::invalid_argument("LedgerOptions: index_stride must be >= 1");
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

  for (const auto& path : cold_files)
    if (auto segment = recover_cold(path)) {
      recovery_.records += segment->records;
      segments_.push_back(std::move(*segment));
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
  for (std::size_t i = 1; i < segments_.size(); ++i)
    if (segments_[i].first_epoch != segments_[i - 1].last_epoch + 1)
      VMP_LOG_WARN(
          "ledger: epoch gap between %s (last %llu) and %s (first %llu)",
          segments_[i - 1].path.filename().string().c_str(),
          static_cast<unsigned long long>(segments_[i - 1].last_epoch),
          segments_[i].path.filename().string().c_str(),
          static_cast<unsigned long long>(segments_[i].first_epoch));

  // The newest WAL segment resumes as the active one (unless it is already
  // at a rotation threshold, in which case the next append starts fresh).
  if (!segments_.empty() && segments_.back().kind == Kind::kSealed &&
      segments_.back().path.filename().string().starts_with("wal-") &&
      segments_.back().records < options_.segment_max_records &&
      segments_.back().bytes < options_.segment_max_bytes) {
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
  const std::string data = read_file(path);
  Segment segment;
  segment.kind = Kind::kCold;
  segment.path = path;
  segment.bytes = data.size();

  if (const auto footer = decode_footer(data)) {
    ByteReader reader{std::string_view(data).substr(
        footer->index_offset,
        static_cast<std::size_t>(footer->entry_count) * kIndexEntryBytes)};
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
    if (!segment.index.empty()) {
      segment.first_time_s = segment.index.front().time_s;
      segment.last_time_s = segment.index.back().time_s;
    }
    return segment;
  }

  // Footer damaged: the frames themselves are still CRC-protected, so scan
  // them like a WAL, keep the segment sealed, and let compaction rebuild it.
  ++recovery_.rescanned_cold;
  VMP_LOG_WARN("ledger: %s has a damaged footer; rescanning frames",
               path.filename().string().c_str());
  segment.kind = Kind::kSealed;
  std::size_t offset = kColdMagic.size();
  TickRecord record;
  for (;;) {
    const std::size_t frame_offset = offset;
    const FrameStatus status = read_frame(data, offset, record);
    if (status != FrameStatus::kOk ||
        (segment.records > 0 && record.epoch <= segment.last_epoch))
      break;  // the index/footer region reads as torn; stop quietly.
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

    std::string frame;
    append_frame(frame, record);
    Segment& tail = segments_.back();
    active_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    active_.flush();
    if (!active_)
      throw std::runtime_error("ledger: append failed on " +
                               tail.path.string());
    if (tail.records == 0) {
      tail.first_epoch = record.epoch;
      tail.first_time_s = record.time_s;
    }
    tail.index.push_back({record.epoch, record.time_s, tail.bytes});
    tail.last_epoch = record.epoch;
    tail.last_time_s = record.time_s;
    tail.bytes += frame.size();
    tail.frames_end = tail.bytes;
    ++tail.records;
    ++appended_records_;
    appended_bytes_ += frame.size();
    if (appended_counter_) appended_counter_->inc();
    if (appended_bytes_counter_) appended_bytes_counter_->inc(frame.size());

    if (tail.records >= options_.segment_max_records ||
        tail.bytes >= options_.segment_max_bytes) {
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
  std::uint64_t stride = options_.index_stride;
  {
    std::lock_guard lock(mutex_);
    const auto it =
        std::find_if(segments_.begin(), segments_.end(),
                     [](const Segment& s) { return s.kind == Kind::kSealed; });
    if (it == segments_.end()) return false;
    source = it->path;
  }

  // The sealed file is immutable, so the expensive rewrite happens without
  // the state lock: copy the frames verbatim (no re-encode — the records
  // stay bit-identical), sampling every `stride`-th record plus the last
  // into the sparse index.
  const std::string data = read_file(source);
  const bool was_cold =
      source.filename().string().starts_with("cold-");  // footer rebuild.
  std::size_t offset = was_cold ? kColdMagic.size() : kWalMagic.size();
  std::string out(kColdMagic);
  std::string index_block;
  ColdFooter footer;
  std::uint64_t indexed = 0;
  IndexEntry last_entry;
  std::vector<IndexEntry> index;
  TickRecord record;
  for (;;) {
    const std::size_t frame_offset = offset;
    if (read_frame(data, offset, record) != FrameStatus::kOk) break;
    const std::uint64_t out_offset = out.size();
    out.append(data, frame_offset, offset - frame_offset);
    if (footer.record_count == 0) footer.first_epoch = record.epoch;
    footer.last_epoch = record.epoch;
    last_entry = {record.epoch, record.time_s, out_offset};
    if (footer.record_count % stride == 0) {
      index.push_back(last_entry);
      ++indexed;
    }
    ++footer.record_count;
  }
  if (footer.record_count == 0) {
    // Nothing intact: drop the segment entry and the file.
    std::lock_guard lock(mutex_);
    const auto it = std::find_if(
        segments_.begin(), segments_.end(),
        [&source](const Segment& s) { return s.path == source; });
    if (it != segments_.end()) segments_.erase(it);
    std::filesystem::remove(source);
    update_gauges_locked();
    idle_cv_.notify_all();
    return true;
  }
  if (index.back().offset != last_entry.offset) {
    index.push_back(last_entry);  // the tail record is always indexed.
    ++indexed;
  }
  footer.index_offset = out.size();
  footer.entry_count = static_cast<std::uint32_t>(indexed);
  for (const IndexEntry& entry : index) {
    put_u64(index_block, entry.epoch);
    put_f64(index_block, entry.time_s);
    put_u64(index_block, entry.offset);
  }
  out += index_block;
  out += encode_footer(footer, crc32(index_block));

  const std::filesystem::path cold_path =
      options_.dir /
      segment_file_name("cold", footer.first_epoch, footer.last_epoch);
  const std::filesystem::path tmp_path =
      cold_path.string() + ".tmp";
  {
    std::ofstream file(tmp_path, std::ios::binary | std::ios::trunc);
    if (!file ||
        !file.write(out.data(), static_cast<std::streamsize>(out.size())))
      throw std::runtime_error("ledger: cannot write " + tmp_path.string());
  }
  std::filesystem::rename(tmp_path, cold_path);

  {
    std::lock_guard lock(mutex_);
    const auto it = std::find_if(
        segments_.begin(), segments_.end(),
        [&source](const Segment& s) { return s.path == source; });
    if (it != segments_.end()) {
      it->kind = Kind::kCold;
      it->path = cold_path;
      it->index = std::move(index);
      it->bytes = out.size();
      it->frames_end = footer.index_offset;
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

std::optional<TickRecord> Ledger::scan_from(const Segment& segment,
                                            const IndexEntry& start,
                                            bool by_epoch, double t_s,
                                            std::uint64_t epoch) const {
  const FrameReader file(segment.path, segment.frames_end);
  // Walk headers and prefixes only. `found` is the newest frame at or before
  // the target; `stop` is the frame whose prefix ended the walk.
  std::optional<std::pair<std::uint64_t, FrameHead>> found, stop;
  for (std::uint64_t cursor = start.offset; cursor != segment.frames_end;) {
    const auto head = file.head(cursor);
    if (!head)
      throw_damaged(segment.path, cursor, "unreadable or impossible header");
    if (by_epoch ? head->prefix.epoch > epoch : head->prefix.time_s > t_s) {
      stop.emplace(cursor, *head);
      break;
    }
    found.emplace(cursor, *head);
    if (by_epoch && head->prefix.epoch == epoch) break;
    cursor += kFrameHeaderBytes + head->length;
  }
  // Those two prefixes decided the answer, so both frames must pass their
  // CRC; the frames walked over in between cannot change it.
  if (stop && !file.body(stop->first, stop->second))
    throw_damaged(segment.path, stop->first, "CRC mismatch");
  if (!found) return std::nullopt;
  const auto body = file.body(found->first, found->second);
  if (!body) throw_damaged(segment.path, found->first, "CRC mismatch");
  auto record = decode_record(*body);
  if (!record) throw_damaged(segment.path, found->first, "undecodable body");
  return record;
}

std::optional<TickRecord> Ledger::at_or_before(double t_s) const {
  std::lock_guard lock(mutex_);
  const Segment* segment = segment_for_time_locked(t_s);
  if (!segment) return std::nullopt;
  // Last index entry with time_s <= t_s (the first entry qualifies by the
  // segment choice above).
  const auto it = std::upper_bound(
      segment->index.begin(), segment->index.end(), t_s,
      [](double t, const IndexEntry& entry) { return t < entry.time_s; });
  return scan_from(*segment, *std::prev(it), /*by_epoch=*/false, t_s, 0);
}

std::optional<TickRecord> Ledger::at_epoch(std::uint64_t epoch) const {
  std::lock_guard lock(mutex_);
  const Segment* segment = segment_for_epoch_locked(epoch);
  if (!segment) return std::nullopt;
  const auto it = std::upper_bound(
      segment->index.begin(), segment->index.end(), epoch,
      [](std::uint64_t e, const IndexEntry& entry) { return e < entry.epoch; });
  auto record =
      scan_from(*segment, *std::prev(it), /*by_epoch=*/true, 0.0, epoch);
  if (record && record->epoch != epoch) return std::nullopt;
  return record;
}

std::vector<TickRecord> Ledger::range(std::uint64_t first,
                                      std::uint64_t last) const {
  std::lock_guard lock(mutex_);
  std::vector<TickRecord> records;
  for (const Segment& segment : segments_) {
    if (segment.records == 0 || segment.last_epoch < first) continue;
    if (segment.first_epoch > last) break;
    const std::uint64_t from = std::max(first, segment.first_epoch);
    const auto it = std::upper_bound(
        segment.index.begin(), segment.index.end(), from,
        [](std::uint64_t e, const IndexEntry& entry) {
          return e < entry.epoch;
        });
    const FrameReader file(segment.path, segment.frames_end);
    std::uint64_t cursor = std::prev(it)->offset;
    TickRecord record;
    while (file.next(cursor, record) == FrameStatus::kOk) {
      if (record.epoch > last) break;
      if (record.epoch >= first) records.push_back(std::move(record));
    }
  }
  return records;
}

// --- truncation (checkpoint restore rewind) ---------------------------------

void Ledger::truncate_after(std::uint64_t epoch) {
  std::lock_guard compaction_lock(compaction_mutex_);
  std::lock_guard lock(mutex_);

  while (!segments_.empty() && segments_.back().first_epoch > epoch) {
    if (segments_.back().kind == Kind::kActive) active_.close();
    std::filesystem::remove(segments_.back().path);
    segments_.pop_back();
  }
  if (segments_.empty() || segments_.back().last_epoch <= epoch) {
    update_gauges_locked();
    return;
  }

  Segment& tail = segments_.back();
  if (tail.kind == Kind::kCold) {
    // Rewrite the straddling cold segment as a WAL holding only the kept
    // prefix; compaction will rebuild its index later.
    const FrameReader cold(tail.path, tail.frames_end);
    std::string out(kWalMagic);
    Segment replacement;
    replacement.kind = Kind::kSealed;
    std::uint64_t cursor = kColdMagic.size();
    TickRecord record;
    while (cold.next(cursor, record) == FrameStatus::kOk) {
      if (record.epoch > epoch) break;
      const std::uint64_t out_offset = out.size();
      // Re-frame from the decoded record: offsets shift, bytes do not.
      append_frame(out, record);
      if (replacement.records == 0) {
        replacement.first_epoch = record.epoch;
        replacement.first_time_s = record.time_s;
      }
      replacement.index.push_back({record.epoch, record.time_s, out_offset});
      replacement.last_epoch = record.epoch;
      replacement.last_time_s = record.time_s;
      ++replacement.records;
    }
    const std::filesystem::path old_path = tail.path;
    replacement.path =
        options_.dir / segment_file_name("wal", replacement.first_epoch);
    replacement.bytes = out.size();
    replacement.frames_end = out.size();
    {
      std::ofstream file(replacement.path,
                         std::ios::binary | std::ios::trunc);
      if (!file ||
          !file.write(out.data(), static_cast<std::streamsize>(out.size())))
        throw std::runtime_error("ledger: cannot rewrite " +
                                 replacement.path.string());
    }
    std::filesystem::remove(old_path);
    if (replacement.records == 0) {
      std::filesystem::remove(replacement.path);
      segments_.pop_back();
    } else {
      tail = std::move(replacement);
    }
  } else {
    // Dense index: the first dropped record's offset is the new file size.
    const auto it = std::upper_bound(
        tail.index.begin(), tail.index.end(), epoch,
        [](std::uint64_t e, const IndexEntry& entry) {
          return e < entry.epoch;
        });
    const std::uint64_t cut = it->offset;
    if (tail.kind == Kind::kActive) active_.close();
    std::filesystem::resize_file(tail.path, cut);
    tail.index.erase(it, tail.index.end());
    tail.records = tail.index.size();
    tail.bytes = cut;
    tail.frames_end = cut;
    tail.last_epoch = tail.index.back().epoch;
    tail.last_time_s = tail.index.back().time_s;
    if (tail.kind == Kind::kActive) {
      active_.open(tail.path, std::ios::binary | std::ios::app);
      if (!active_)
        throw std::runtime_error("ledger: cannot reopen " +
                                 tail.path.string());
    }
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
      if (const auto footer = decode_footer(data)) {
        frames_end = footer->index_offset;
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
    }
    if (last_epoch != 0) previous_last = last_epoch;
  }
  return report;
}

}  // namespace vmp::ledger
