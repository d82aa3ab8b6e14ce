// Durable attribution ledger: on-disk format, rotation and the in-place
// seal, crash recovery (torn tails, byte flips, multi-byte damage and
// splices, damaged footers, every crash window of a seal), checkpoint
// rewind, and
// the end-to-end promise — answers served from the ledger are byte-identical
// to the retention-ring answers they replace, across a full restart.
#include "ledger/ledger.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "fleet/engine.hpp"
#include "fleet/faults.hpp"
#include "serve/protocol.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"
#include "util/logging.hpp"

namespace vmp::ledger {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory per test, removed on destruction (success or
/// failure) so ledger files never accumulate under /tmp.
struct ScratchDir {
  fs::path path;

  ScratchDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("vmp-ledger-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Deterministic record at `epoch` with awkward doubles (not short decimals)
/// so bit-exactness is actually exercised, not satisfied by accident.
TickRecord record_at(std::uint64_t epoch) {
  const double t = static_cast<double>(epoch);
  TickRecord record;
  record.epoch = epoch;
  record.tick = epoch;
  record.time_s = t;
  record.period_s = 1.0;
  record.vms = {{0, 1, 1, 0.1 * t, 10.1 * t}, {0, 2, 2, 0.2 * t, 20.2 * t}};
  record.tenants = {{1, 0.1 * t, 101.3 * t}, {2, 0.2 * t, 202.7 * t}};
  record.total_power_w = 0.3 * t;
  record.total_energy_j = 304.0 * t;
  record.unattributed_j = 0.0;
  return record;
}

void expect_bit_identical(const TickRecord& a, const TickRecord& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.tick, b.tick);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.time_s),
            std::bit_cast<std::uint64_t>(b.time_s));
  ASSERT_EQ(a.vms.size(), b.vms.size());
  for (std::size_t i = 0; i < a.vms.size(); ++i) {
    EXPECT_EQ(a.vms[i].tenant, b.vms[i].tenant);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.vms[i].energy_j),
              std::bit_cast<std::uint64_t>(b.vms[i].energy_j));
  }
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.tenants[i].energy_j),
              std::bit_cast<std::uint64_t>(b.tenants[i].energy_j));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_energy_j),
            std::bit_cast<std::uint64_t>(b.total_energy_j));
}

LedgerOptions small_segments(const fs::path& dir,
                             std::uint64_t max_records = 8) {
  LedgerOptions options;
  options.dir = dir;
  options.segment_max_records = max_records;
  return options;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The encoded body of an answer ("" for none): equal strings mean
/// bit-identical records.
std::string encoded(const std::optional<TickRecord>& record) {
  return record ? encode_record(*record) : std::string();
}

fs::path only_file(const fs::path& dir, std::string_view prefix) {
  fs::path found;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().filename().string().starts_with(prefix)) {
      EXPECT_TRUE(found.empty()) << "two files start with " << prefix;
      found = entry.path();
    }
  EXPECT_FALSE(found.empty()) << "no file starts with " << prefix;
  return found;
}

// --- format -----------------------------------------------------------------

TEST(LedgerFormat, RecordRoundTripIsBitExact) {
  const TickRecord record = record_at(37);
  const std::string body = encode_record(record);
  const auto decoded = decode_record(body);
  ASSERT_TRUE(decoded.has_value());
  expect_bit_identical(record, *decoded);
  // Re-encoding the decoded record reproduces the bytes exactly.
  EXPECT_EQ(encode_record(*decoded), body);
}

TEST(LedgerFormat, DecodeRejectsTruncatedAndOverstatedBodies) {
  const std::string body = encode_record(record_at(5));
  EXPECT_FALSE(decode_record(body.substr(0, body.size() - 1)).has_value());
  EXPECT_FALSE(decode_record(body.substr(0, 10)).has_value());
  EXPECT_FALSE(decode_record("").has_value());
}

TEST(LedgerFormat, FrameReaderDetectsDamage) {
  std::string log;
  append_frame(log, record_at(1));
  append_frame(log, record_at(2));

  std::size_t offset = 0;
  TickRecord record;
  EXPECT_EQ(read_frame(log, offset, record), FrameStatus::kOk);
  EXPECT_EQ(record.epoch, 1u);
  const std::size_t second = offset;
  EXPECT_EQ(read_frame(log, offset, record), FrameStatus::kOk);
  EXPECT_EQ(record.epoch, 2u);
  EXPECT_EQ(read_frame(log, offset, record), FrameStatus::kEndOfLog);

  // A flipped body byte fails the CRC; the offset stays put (torn tail).
  std::string flipped = log;
  flipped[second + kHeaderBytes + 3] ^= 0x40;
  offset = second;
  EXPECT_EQ(read_frame(flipped, offset, record), FrameStatus::kTorn);
  EXPECT_EQ(offset, second);

  // A frame cut mid-body is torn, not end-of-log.
  std::string cut = log.substr(0, log.size() - 5);
  offset = second;
  EXPECT_EQ(read_frame(cut, offset, record), FrameStatus::kTorn);

  // An insane declared length is damage, never an allocation.
  std::string insane = log.substr(0, second);
  insane += std::string(4, '\xff');  // length prefix ~4 GiB.
  insane += std::string(8, '\0');
  offset = second;
  EXPECT_EQ(read_frame(insane, offset, record), FrameStatus::kTorn);
}

TEST(LedgerFormat, Crc32MatchesTheBitwiseDefinition) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  // Every length 0-4995 at start offsets 0-7: each alignment, and each count
  // of bytes left after the eight-byte steps. The reference shifts one bit
  // at a time, once per start, and is read at every length on the way.
  std::string data(5003, '\0');
  std::uint32_t state = 12345;
  for (char& byte : data) {
    state = state * 1103515245u + 12345u;
    byte = static_cast<char>(state >> 24);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    std::uint32_t reference = 0xFFFFFFFFu;
    for (std::size_t length = 0; length <= 4995; ++length) {
      if (length > 0) {
        reference ^= static_cast<std::uint8_t>(data[start + length - 1]);
        for (int bit = 0; bit < 8; ++bit)
          reference = (reference & 1u) ? 0xEDB88320u ^ (reference >> 1)
                                       : reference >> 1;
      }
      const std::uint32_t got =
          crc32(std::string_view(data).substr(start, length));
      if (got != (reference ^ 0xFFFFFFFFu)) {
        ADD_FAILURE() << "start " << start << ", length " << length;
        return;
      }
    }
  }
}

// --- append / rotation / seal / queries --------------------------------------

TEST(Ledger, OptionsValidate) {
  EXPECT_THROW(Ledger{LedgerOptions{}}, std::invalid_argument);
  ScratchDir scratch;
  LedgerOptions zero = small_segments(scratch.path);
  zero.segment_max_records = 0;
  EXPECT_THROW(Ledger{zero}, std::invalid_argument);
}

TEST(Ledger, AppendRotatesCompactsAndAnswersQueries) {
  ScratchDir scratch;
  Ledger log(small_segments(scratch.path));
  for (std::uint64_t epoch = 1; epoch <= 30; ++epoch)
    log.append(record_at(epoch));

  const Stats stats = log.stats();
  EXPECT_EQ(stats.records, 30u);
  EXPECT_EQ(stats.oldest_epoch, 1u);
  EXPECT_EQ(stats.tail_epoch, 30u);
  EXPECT_EQ(stats.cold_segments, 3u);  // 30 records over 8-record segments.

  // Point lookups cross the cold index and the active WAL alike.
  const auto cold = log.at_epoch(17);
  ASSERT_TRUE(cold.has_value());
  expect_bit_identical(record_at(17), *cold);
  const auto hot = log.at_epoch(30);
  ASSERT_TRUE(hot.has_value());
  expect_bit_identical(record_at(30), *hot);
  EXPECT_FALSE(log.at_epoch(0).has_value());
  EXPECT_FALSE(log.at_epoch(31).has_value());

  // Step semantics: newest record at-or-before t.
  EXPECT_EQ(log.at_or_before(12.5)->epoch, 12u);
  EXPECT_EQ(log.at_or_before(12.0)->epoch, 12u);
  EXPECT_EQ(log.at_or_before(99.0)->epoch, 30u);
  EXPECT_FALSE(log.at_or_before(0.5).has_value());

  // Ranges clamp to the extent and come back ascending.
  const auto records = log.range(5, 20);
  ASSERT_EQ(records.size(), 16u);
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(records[i].epoch, 5 + i);
  EXPECT_EQ(log.range(25, 99).size(), 6u);
  EXPECT_TRUE(log.range(40, 50).empty());

  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

TEST(Ledger, PointReadsEqualAFullDecode) {
  ScratchDir scratch;
  // 10-record segments: the first, inner and last frames of cold segments,
  // and of a WAL tail.
  Ledger log(small_segments(scratch.path, 10));
  for (std::uint64_t epoch = 1; epoch <= 43; ++epoch)
    log.append(record_at(epoch));
  ASSERT_EQ(log.stats().cold_segments, 4u);
  const std::vector<TickRecord> all = log.range(1, 43);
  ASSERT_EQ(all.size(), 43u);

  for (const TickRecord& record : all)
    EXPECT_EQ(encoded(log.at_epoch(record.epoch)), encode_record(record))
        << "at_epoch(" << record.epoch << ")";
  // Every record time, halfway to the next, before the first, after the last.
  std::vector<double> times = {0.5, all.back().time_s + 1e3};
  for (const TickRecord& record : all) {
    times.push_back(record.time_s);
    times.push_back(record.time_s + 0.5);
  }
  for (const double t : times) {
    std::optional<TickRecord> expected;
    for (const TickRecord& record : all)
      if (record.time_s <= t) expected = record;
    EXPECT_EQ(encoded(log.at_or_before(t)), encoded(expected))
        << "at_or_before(" << t << ")";
  }
}

TEST(Ledger, AppendEnforcesEpochMonotonicity) {
  ScratchDir scratch;
  Ledger log(small_segments(scratch.path));
  log.append(record_at(5));
  EXPECT_THROW(log.append(record_at(5)), std::logic_error);
  EXPECT_THROW(log.append(record_at(4)), std::logic_error);
  log.append(record_at(7));  // gaps forward are the caller's business.
  EXPECT_EQ(log.stats().tail_epoch, 7u);
}

TEST(Ledger, ReopenRecoversEverythingAndResumesTheTailWal) {
  ScratchDir scratch;
  auto log = std::make_unique<Ledger>(small_segments(scratch.path));
  for (std::uint64_t epoch = 1; epoch <= 20; ++epoch)
    log->append(record_at(epoch));
  const std::uint64_t segments_before = log->stats().segments;
  log.reset();  // clean shutdown.

  log = std::make_unique<Ledger>(small_segments(scratch.path));
  const RecoveryReport report = log->recovery();
  EXPECT_EQ(report.records, 20u);
  EXPECT_EQ(report.torn_records, 0u);
  EXPECT_EQ(log->stats().tail_epoch, 20u);
  expect_bit_identical(record_at(13), *log->at_epoch(13));

  // The under-threshold tail WAL resumes as active: appending continues in
  // place instead of opening a fresh segment.
  log->append(record_at(21));
  EXPECT_EQ(log->stats().segments, segments_before);
  EXPECT_EQ(log->stats().tail_epoch, 21u);
}

// --- damage: torn tails, byte flips, broken footers -------------------------

TEST(Ledger, RecoveryTruncatesATornTail) {
  ScratchDir scratch;
  const LedgerOptions options = small_segments(scratch.path, 1024);
  auto log = std::make_unique<Ledger>(options);
  for (std::uint64_t epoch = 1; epoch <= 10; ++epoch)
    log->append(record_at(epoch));
  fs::path wal;
  for (const auto& entry : fs::directory_iterator(scratch.path))
    wal = entry.path();
  log.reset();

  // Chop mid-record, as a crash between write and flush would.
  fs::resize_file(wal, fs::file_size(wal) - 3);
  EXPECT_FALSE(verify_dir(scratch.path).clean());

  log = std::make_unique<Ledger>(options);
  EXPECT_EQ(log->recovery().torn_records, 1u);
  EXPECT_EQ(log->recovery().records, 9u);
  EXPECT_GT(log->recovery().truncated_bytes, 0u);
  EXPECT_EQ(log->stats().tail_epoch, 9u);
  expect_bit_identical(record_at(9), *log->at_epoch(9));

  // The lost epoch can simply be re-appended; the file is clean again.
  log->append(record_at(10));
  log.reset();
  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

TEST(Ledger, RecoveryKeepsRecordsBeforeAByteFlip) {
  ScratchDir scratch;
  const LedgerOptions options = small_segments(scratch.path, 1024);
  auto log = std::make_unique<Ledger>(options);
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch)
    log->append(record_at(epoch));
  fs::path wal;
  for (const auto& entry : fs::directory_iterator(scratch.path))
    wal = entry.path();
  const std::uint64_t intact_bytes = fs::file_size(wal);
  for (std::uint64_t epoch = 6; epoch <= 10; ++epoch)
    log->append(record_at(epoch));
  log.reset();

  {  // Flip one byte inside record 6's frame (bit rot / partial overwrite).
    std::fstream file(wal, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(intact_bytes + 12));
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(intact_bytes + 12));
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(static_cast<std::streamoff>(intact_bytes + 12));
    file.write(&byte, 1);
  }

  log = std::make_unique<Ledger>(options);
  EXPECT_EQ(log->recovery().records, 5u);  // everything before the flip.
  EXPECT_EQ(log->recovery().torn_records, 1u);
  EXPECT_EQ(log->stats().tail_epoch, 5u);
  expect_bit_identical(record_at(5), *log->at_epoch(5));
  EXPECT_FALSE(log->at_epoch(6).has_value());
}

TEST(Ledger, DamagedColdFooterFallsBackToRescanAndRecompacts) {
  ScratchDir scratch;
  auto log = std::make_unique<Ledger>(small_segments(scratch.path));
  for (std::uint64_t epoch = 1; epoch <= 16; ++epoch)
    log->append(record_at(epoch));
  ASSERT_EQ(log->stats().cold_segments, 2u);
  log.reset();

  fs::path cold;
  for (const auto& entry : fs::directory_iterator(scratch.path))
    if (entry.path().filename().string().starts_with("cold-")) {
      cold = entry.path();
      break;
    }
  ASSERT_FALSE(cold.empty());
  const std::string intact = read_bytes(cold);
  {  // Wreck the footer magic; the frames stay CRC-protected.
    std::fstream file(cold, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(fs::file_size(cold) - 1));
    file.write("\0", 1);
  }

  log = std::make_unique<Ledger>(small_segments(scratch.path));
  EXPECT_EQ(log->recovery().rescanned_cold, 1u);
  const Stats stats = log->stats();
  EXPECT_EQ(stats.records, 16u);  // nothing lost — and resealed in place.
  EXPECT_EQ(stats.cold_segments, 2u);
  EXPECT_EQ(read_bytes(cold), intact);
  expect_bit_identical(record_at(3), *log->at_epoch(3));
  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

/// Rewrites a dense cold segment as cold segments were once written: its
/// index keeps entries 0, 4, 8, ... and the last, and its footer says so.
void make_index_sparse(const fs::path& cold) {
  constexpr std::size_t kFooter = 48, kEntry = 24;
  const std::string bytes = read_bytes(cold);
  ByteReader footer{std::string_view(bytes).substr(bytes.size() - kFooter)};
  std::uint64_t index_offset = 0, records = 0, first = 0, last = 0, magic = 0;
  std::uint32_t entries = 0, crc = 0;
  ASSERT_TRUE(footer.get_u64(index_offset) && footer.get_u32(entries) &&
              footer.get_u64(records) && footer.get_u64(first) &&
              footer.get_u64(last) && footer.get_u32(crc) &&
              footer.get_u64(magic));
  ASSERT_EQ(entries, records) << cold;
  std::string index;
  for (std::uint32_t i = 0; i < entries; ++i)
    if (i % 4 == 0 || i + 1 == entries)
      index += bytes.substr(index_offset + i * kEntry, kEntry);
  std::string sparse = bytes.substr(0, index_offset) + index;
  put_u64(sparse, index_offset);
  put_u32(sparse, static_cast<std::uint32_t>(index.size() / kEntry));
  put_u64(sparse, records);
  put_u64(sparse, first);
  put_u64(sparse, last);
  put_u32(sparse, crc32(index));
  put_u64(sparse, magic);
  write_bytes(cold, sparse);
}

TEST(Ledger, SparseIndexedColdSegmentsReadRightAndCompactDense) {
  ScratchDir scratch, intact;
  Ledger truth(small_segments(intact.path, 10));
  {
    Ledger log(small_segments(scratch.path, 10));
    for (std::uint64_t epoch = 1; epoch <= 43; ++epoch) {
      log.append(record_at(epoch));
      truth.append(record_at(epoch));
    }
    ASSERT_EQ(log.stats().cold_segments, 4u);
  }
  std::vector<fs::path> colds;
  for (const auto& entry : fs::directory_iterator(scratch.path))
    if (entry.path().filename().string().starts_with("cold-")) {
      colds.push_back(entry.path());
      make_index_sparse(entry.path());
    }
  ASSERT_EQ(colds.size(), 4u);

  // Opened, they are read right and resealed dense, and an index that is
  // only sparse is no damage: logged at INFO, never WARN, and not counted.
  std::size_t warned = 0, rebuilt = 0;
  const util::LogLevel level = util::log_level();
  util::set_log_level(util::LogLevel::kInfo);
  util::set_log_sink([&](util::LogLevel line_level, std::string_view line) {
    if (line_level >= util::LogLevel::kWarn) ++warned;
    if (line.find("sparse index") != std::string_view::npos) ++rebuilt;
  });
  {
    const Ledger log(small_segments(scratch.path, 10));
    EXPECT_EQ(log.recovery().rescanned_cold, 0u);
    EXPECT_EQ(log.stats().records, 43u);
    for (std::uint64_t epoch = 0; epoch <= 44; ++epoch)
      EXPECT_EQ(encoded(log.at_epoch(epoch)), encoded(truth.at_epoch(epoch)))
          << "at_epoch(" << epoch << ")";
    for (double t = 0.0; t <= 44.0; t += 0.5)
      EXPECT_EQ(encoded(log.at_or_before(t)), encoded(truth.at_or_before(t)))
          << "at_or_before(" << t << ")";
  }
  util::set_log_sink({});
  util::set_log_level(level);
  EXPECT_EQ(warned, 0u);
  EXPECT_EQ(rebuilt, 4u);

  // Each is now sealed with a dense index, under the same name.
  {
    const Ledger log(small_segments(scratch.path, 10));
    EXPECT_EQ(log.stats().cold_segments, 4u);
  }
  for (const fs::path& cold : colds) {
    const std::string bytes = read_bytes(cold);
    ByteReader footer{std::string_view(bytes).substr(bytes.size() - 48)};
    std::uint64_t index_offset = 0, records = 0;
    std::uint32_t entries = 0;
    ASSERT_TRUE(footer.get_u64(index_offset) && footer.get_u32(entries) &&
                footer.get_u64(records));
    EXPECT_EQ(entries, records) << cold;
  }
  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

TEST(Ledger, APointReadChecksOnlyTheFrameItReturns) {
  ScratchDir scratch;
  {
    Ledger log(small_segments(scratch.path));
    for (std::uint64_t epoch = 1; epoch <= 20; ++epoch)
      log.append(record_at(epoch));
    ASSERT_EQ(log.stats().cold_segments, 2u);  // 1-8, 9-16; WAL 17-20.
  }
  // Bit rot in the body of frame k + 1, inside cold segment 1-8.
  constexpr std::uint64_t k = 4;
  const fs::path cold = only_file(scratch.path, "cold-00000000000000000001-");
  std::string bytes = read_bytes(cold);
  std::size_t offset = 8;
  TickRecord record;
  for (std::uint64_t epoch = 1; epoch <= k; ++epoch)
    ASSERT_EQ(read_frame(bytes, offset, record), FrameStatus::kOk);
  const std::size_t damaged = offset;
  bytes[damaged + kHeaderBytes + 40] ^= 0x7f;
  write_bytes(cold, bytes);

  const Ledger log(small_segments(scratch.path));
  // The answer's own frame is intact, so the damage next to it is no reason
  // to refuse it.
  EXPECT_EQ(encoded(log.at_or_before(static_cast<double>(k) + 0.5)),
            encode_record(record_at(k)));
  EXPECT_EQ(encoded(log.at_epoch(k + 2)), encode_record(record_at(k + 2)));
  // Reading the damaged frame itself is an error naming the file and offset.
  const std::string where =
      cold.filename().string() + " at offset " + std::to_string(damaged);
  for (const bool by_epoch : {true, false}) {
    try {
      (void)(by_epoch ? log.at_epoch(k + 1)
                      : log.at_or_before(static_cast<double>(k) + 1.5));
      ADD_FAILURE() << "a damaged frame was answered";
    } catch (const DamagedRecord& damage) {
      EXPECT_NE(std::string(damage.what()).find(where), std::string::npos)
          << damage.what();
    }
  }
}

TEST(Ledger, AFrameDamagedBeforeItsSealIsReportedByTheReadThatMeetsIt) {
  ScratchDir scratch;
  auto log = std::make_unique<Ledger>(small_segments(scratch.path));
  for (std::uint64_t epoch = 1; epoch <= 7; ++epoch)
    log->append(record_at(epoch));  // the active WAL 1-7, one short of full.
  const fs::path wal = only_file(scratch.path, "wal-00000000000000000001");
  std::string bytes = read_bytes(wal);
  std::size_t offset = 8;
  TickRecord record;
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch)
    ASSERT_EQ(read_frame(bytes, offset, record), FrameStatus::kOk);
  const std::size_t damaged = offset;
  bytes[damaged + kHeaderBytes + 40] ^= 0x7f;  // epoch 6, before its seal.
  write_bytes(wal, bytes);

  // The append of epoch 8 seals the segment without reading a frame back,
  // so no record is dropped, the damaged one included.
  log->append(record_at(8));
  EXPECT_EQ(log->stats().cold_segments, 1u);
  EXPECT_EQ(log->stats().records, 8u);
  const fs::path cold =
      only_file(scratch.path, "cold-00000000000000000001-00000000000000000008");
  const std::string where =
      cold.filename().string() + " at offset " + std::to_string(damaged);
  EXPECT_FALSE(verify_dir(scratch.path).clean());

  // Before and after a reopen, the reads that meet epoch 6 say so, naming
  // the file and the offset, and its neighbours answer.
  for (int life = 0; life < 2; ++life) {
    if (life == 1) {
      log.reset();
      log = std::make_unique<Ledger>(small_segments(scratch.path));
      EXPECT_EQ(log->recovery().torn_records, 0u);
      EXPECT_EQ(log->recovery().rescanned_cold, 0u);
    }
    for (const std::uint64_t epoch : {1, 5, 7, 8})
      EXPECT_EQ(encoded(log->at_epoch(epoch)), encode_record(record_at(epoch)))
          << epoch;
    EXPECT_EQ(encoded(log->at_or_before(5.5)), encode_record(record_at(5)));
    EXPECT_EQ(encoded(log->at_or_before(7.5)), encode_record(record_at(7)));
    for (const bool by_epoch : {true, false}) {
      try {
        (void)(by_epoch ? log->at_epoch(6) : log->at_or_before(6.5));
        ADD_FAILURE() << "a damaged frame was answered";
      } catch (const DamagedRecord& damage) {
        EXPECT_NE(std::string(damage.what()).find(where), std::string::npos)
            << damage.what();
      }
    }
  }
}

/// The files of a directory, by name, with their bytes.
std::map<std::string, std::string> snapshot(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir))
    files[entry.path().filename().string()] = read_bytes(entry.path());
  return files;
}

/// Empties `dir` and writes `files` into it.
void restore(const fs::path& dir,
             const std::map<std::string, std::string>& files) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& [name, bytes] : files) write_bytes(dir / name, bytes);
}

/// Where a sealed file's index starts: its frames end there.
std::size_t index_offset_of(const std::string& sealed) {
  ByteReader footer{std::string_view(sealed).substr(sealed.size() - 48)};
  std::uint64_t index_offset = 0;
  EXPECT_TRUE(footer.get_u64(index_offset));
  return static_cast<std::size_t>(index_offset);
}

TEST(Ledger, ASealThatFailsThrowsFromAppendAndAReopenFinishesIt) {
  ScratchDir scratch;
  // A non-empty directory where the cold file goes fails the seal's rename,
  // whoever runs the test.
  const fs::path obstacle =
      scratch.path / "cold-00000000000000000001-00000000000000000008.seg";
  fs::create_directories(obstacle / "keep");
  {
    Ledger log(small_segments(scratch.path));
    for (std::uint64_t epoch = 1; epoch <= 7; ++epoch)
      log.append(record_at(epoch));
    // Epoch 8 is durable when its segment's seal fails.
    EXPECT_THROW(log.append(record_at(8)), std::runtime_error);
    EXPECT_EQ(log.stats().tail_epoch, 8u);
    // No append goes past the half-written seal...
    EXPECT_THROW(log.append(record_at(9)), std::runtime_error);
    EXPECT_EQ(log.stats().tail_epoch, 8u);
    // ...and every record appended still answers.
    for (std::uint64_t epoch = 1; epoch <= 8; ++epoch)
      EXPECT_EQ(encoded(log.at_epoch(epoch)), encode_record(record_at(epoch)))
          << epoch;
  }
  // While the obstacle stands, a reopen cannot finish the seal, and says so.
  EXPECT_THROW(Ledger{small_segments(scratch.path)}, std::runtime_error);

  fs::remove_all(obstacle);
  Ledger log(small_segments(scratch.path));
  EXPECT_EQ(log.recovery().records, 8u);
  EXPECT_EQ(log.recovery().torn_records, 0u);
  EXPECT_EQ(log.stats().cold_segments, 1u);
  EXPECT_TRUE(fs::is_regular_file(obstacle));
  for (std::uint64_t epoch = 1; epoch <= 8; ++epoch)
    EXPECT_EQ(encoded(log.at_epoch(epoch)), encode_record(record_at(epoch)))
        << epoch;
  log.append(record_at(9));
  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

TEST(Ledger, EveryCrashWindowOfASealReopensWithEveryRecord) {
  // The uninterrupted result: cold 1-8 and cold 9-16, the second sealed by
  // the append of epoch 16.
  ScratchDir sealed;
  {
    Ledger log(small_segments(sealed.path));
    for (std::uint64_t epoch = 1; epoch <= 16; ++epoch)
      log.append(record_at(epoch));
  }
  const std::map<std::string, std::string> done = snapshot(sealed.path);
  const std::string cold_name =
      "cold-00000000000000000009-00000000000000000016.seg";
  const std::string wal_name = "wal-00000000000000000009.log";
  ASSERT_EQ(done.size(), 2u);
  ASSERT_EQ(done.count(cold_name), 1u);
  const std::string& cold = done.at(cold_name);
  const std::size_t frames_end = index_offset_of(cold);
  const std::string wal = "vmpwal1\n" + cold.substr(8, frames_end - 8);
  const std::string tail = cold.substr(frames_end);

  // Every state a crash can leave, in the seal's order: the index and footer
  // appended under the wal- name (each length of that write, from none to
  // all), the file renamed with the WAL magic still in it, and the end.
  struct State {
    std::string name, bytes, what;
  };
  std::vector<State> states;
  for (std::size_t written = 0; written <= tail.size(); ++written)
    states.push_back({wal_name, wal + tail.substr(0, written),
                      std::to_string(written) + " bytes of index and footer"});
  states.push_back({cold_name, wal + tail, "renamed, WAL magic"});
  states.push_back({cold_name, cold, "sealed"});

  ScratchDir scratch;
  for (const State& state : states) {
    std::map<std::string, std::string> files = done;
    files.erase(cold_name);
    files[state.name] = state.bytes;
    restore(scratch.path, files);
    EXPECT_TRUE(verify_dir(scratch.path).clean()) << state.what;
    {
      const Ledger log(small_segments(scratch.path));
      EXPECT_EQ(log.recovery().torn_records, 0u) << state.what;
      EXPECT_EQ(log.recovery().rescanned_cold, 0u) << state.what;
      EXPECT_EQ(log.stats().records, 16u) << state.what;
      for (std::uint64_t epoch = 1; epoch <= 16; ++epoch)
        EXPECT_EQ(encoded(log.at_epoch(epoch)), encode_record(record_at(epoch)))
            << state.what << ", epoch " << epoch;
    }
    EXPECT_TRUE(snapshot(scratch.path) == done) << state.what;
  }
}

TEST(Ledger, EveryCrashWindowOfARewindKeepsTheRecordsItKept) {
  // Rewinding epochs 1-30 (cold 1-8, 9-16, 17-24, the active WAL 25-30) to
  // 20 deletes the WAL, cuts cold 17-24 after epoch 20's frame and reseals
  // it as cold 17-20.
  ScratchDir before, after;
  for (const bool rewound : {false, true}) {
    Ledger log(small_segments(rewound ? after.path : before.path));
    for (std::uint64_t epoch = 1; epoch <= 30; ++epoch)
      log.append(record_at(epoch));
    if (rewound) log.truncate_after(20);
  }
  std::map<std::string, std::string> start = snapshot(before.path);
  const std::map<std::string, std::string> done = snapshot(after.path);
  const std::string old_name =
      "cold-00000000000000000017-00000000000000000024.seg";
  const std::string new_name =
      "cold-00000000000000000017-00000000000000000020.seg";
  ASSERT_EQ(start.erase("wal-00000000000000000025.log"), 1u);
  ASSERT_EQ(done.count(new_name), 1u);
  const std::string& resealed = done.at(new_name);
  const std::size_t cut = index_offset_of(resealed);

  // Every state a crash can leave after the WAL is gone: the cold file cut,
  // then each length of its new index and footer under the old name, then
  // the new name (the cold magic it rewrites is already there).
  std::vector<std::pair<std::map<std::string, std::string>, std::string>>
      states = {{start, "WAL deleted"}};
  for (std::size_t written = 0; written <= resealed.size() - cut; ++written) {
    std::map<std::string, std::string> files = start;
    files[old_name] = resealed.substr(0, cut + written);
    states.emplace_back(files, "cut, " + std::to_string(written) +
                                   " bytes of index and footer");
  }
  states.emplace_back(done, "renamed");

  ScratchDir scratch;
  util::set_log_sink([](util::LogLevel, std::string_view) {});
  for (const auto& [files, what] : states) {
    restore(scratch.path, files);
    EXPECT_TRUE(verify_dir(scratch.path).clean()) << what;
    Ledger log(small_segments(scratch.path));
    for (std::uint64_t epoch = 1; epoch <= 30; ++epoch) {
      // Kept records answer; dropped ones are absent, reported, or (before
      // the cut) still the record that was written.
      try {
        const std::string got = encoded(log.at_epoch(epoch));
        if (epoch <= 20 || !got.empty()) {
          EXPECT_EQ(got, encode_record(record_at(epoch)))
              << what << ", epoch " << epoch;
        }
      } catch (const DamagedRecord&) {
        EXPECT_GT(epoch, 20u) << what;
      }
    }
    // The rewind a resume repeats leaves what an uninterrupted one did.
    log.truncate_after(20);
    EXPECT_TRUE(snapshot(scratch.path) == done) << what;
  }
  util::set_log_sink({});
}

struct Query {
  bool by_epoch;
  double t_s;
  std::uint64_t epoch;
};

/// An intact ledger of epochs 1..20 (cold 1-8 and 9-16, the active WAL
/// 17-20), and a check that reopens a fresh copy of it with one file
/// damaged. A reopen may reseal, rename or truncate a file, so no case sees
/// another's leftovers.
class DamageHarness {
 public:
  DamageHarness() {
    {
      Ledger log(small_segments(intact_.path));
      for (std::uint64_t epoch = 1; epoch <= 20; ++epoch)
        log.append(record_at(epoch));
      EXPECT_EQ(log.stats().cold_segments, 2u);
    }
    files_ = snapshot(intact_.path);
    for (double t = 0.0; t <= 21.0; t += 0.5) queries_.push_back({false, t, 0});
    for (std::uint64_t epoch = 1; epoch <= 20; ++epoch)
      queries_.push_back({true, 0.0, epoch});
    // truth_[tail - 16]: the answers of an intact ledger of epochs 1..tail.
    // Damage to the WAL may cost records past the cold segments.
    for (std::uint64_t tail = 16; tail <= 20; ++tail) {
      ScratchDir prefix;
      Ledger log(small_segments(prefix.path));
      for (std::uint64_t epoch = 1; epoch <= tail; ++epoch)
        log.append(record_at(epoch));
      truth_.emplace_back();
      for (const Query& query : queries_) truth_.back().push_back(ask(log, query));
    }
  }

  /// The name of the one file starting with `prefix`, and its intact bytes.
  const std::string& name(std::string_view prefix) const {
    for (const auto& [file, bytes] : files_)
      if (file.starts_with(prefix)) return file;
    throw std::logic_error("no ledger file starts with " + std::string(prefix));
  }
  const std::string& bytes(const std::string& file) const {
    return files_.at(file);
  }

  /// Reopens the ledger with `file` holding `damaged`. Every answer must be
  /// the one an intact ledger of the recovered prefix gives, or a
  /// DamagedRecord naming the file; cold damage must keep every record, and
  /// WAL recovery a prefix of the valid ones.
  void check(const std::string& file, const std::string& damaged,
             const std::string& what) {
    std::map<std::string, std::string> files = files_;
    files[file] = damaged;
    restore(work_.path, files);
    const Ledger log(small_segments(work_.path));
    const std::uint64_t tail = log.stats().tail_epoch;
    if (tail > 20 || tail < (file.starts_with("wal-") ? 16u : 20u)) {
      ADD_FAILURE() << what << ": recovered tail " << tail;
      return;
    }
    const std::vector<std::string>& expected = truth_[tail - 16];
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      ++answers;
      try {
        if (ask(log, queries_[q]) != expected[q] && ++wrong <= 5)
          ADD_FAILURE() << what << ": wrong answer to "
                        << (queries_[q].by_epoch ? "at_epoch(" : "at_or_before(")
                        << (queries_[q].by_epoch
                                ? static_cast<double>(queries_[q].epoch)
                                : queries_[q].t_s)
                        << ")";
      } catch (const DamagedRecord& damage) {
        ++reported;
        EXPECT_NE(std::string(damage.what()).find(file), std::string::npos)
            << what << ": " << damage.what();
      }
    }
  }

  std::size_t answers = 0, reported = 0, wrong = 0;

 private:
  static std::string ask(const Ledger& log, const Query& query) {
    return encoded(query.by_epoch ? log.at_epoch(query.epoch)
                                  : log.at_or_before(query.t_s));
  }

  ScratchDir intact_, work_;
  std::map<std::string, std::string> files_;
  std::vector<Query> queries_;
  std::vector<std::vector<std::string>> truth_;
};

TEST(Ledger, EverySingleByteFlipIsAnsweredRightOrReported) {
  DamageHarness harness;
  // Every byte of each file: magic, frames, index and footer.
  const std::string& cold = harness.name("cold-00000000000000000009-");
  const std::string& wal = harness.name("wal-");
  const std::string& cold_bytes = harness.bytes(cold);
  const std::string& wal_bytes = harness.bytes(wal);

  // Count the WARN lines a damaged cold read logs instead of printing them.
  std::size_t warned = 0;
  const std::string damage_line = cold + " at offset ";
  util::set_log_sink([&](util::LogLevel level, std::string_view line) {
    if (level == util::LogLevel::kWarn &&
        line.find(damage_line) != std::string_view::npos)
      ++warned;
  });
  for (std::size_t at = 0; at < cold_bytes.size(); ++at) {
    std::string damaged = cold_bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x5a);
    harness.check(cold, damaged, "cold byte " + std::to_string(at) + " flipped");
  }
  EXPECT_GT(harness.reported, 0u);
  EXPECT_EQ(warned, harness.reported);
  for (std::size_t size = 0; size < cold_bytes.size(); ++size)
    harness.check(cold, cold_bytes.substr(0, size),
                  "cold truncated to " + std::to_string(size));
  for (std::size_t at = 0; at < wal_bytes.size(); ++at) {
    std::string damaged = wal_bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x5a);
    harness.check(wal, damaged, "WAL byte " + std::to_string(at) + " flipped");
  }
  for (std::size_t size = 0; size < wal_bytes.size(); ++size)
    harness.check(wal, wal_bytes.substr(0, size),
                  "WAL truncated to " + std::to_string(size));
  util::set_log_sink({});
  EXPECT_EQ(harness.wrong, 0u) << "of " << harness.answers << " answers";
}

TEST(Ledger, SeededMultiByteDamageAndSplicesAreAnsweredRightOrReported) {
  DamageHarness harness;
  const std::string& cold1 = harness.name("cold-00000000000000000001-");
  const std::string& cold9 = harness.name("cold-00000000000000000009-");
  const std::string& wal = harness.name("wal-");
  util::set_log_sink([](util::LogLevel, std::string_view) {});
  std::mt19937_64 rng(34);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  // Runs of 2-64 random bytes over the sealed cold 9-16 and the tail WAL.
  for (int run = 0; run < 400; ++run) {
    const std::string& file = run % 2 == 0 ? cold9 : wal;
    std::string damaged = harness.bytes(file);
    const std::size_t length = 2 + below(63);
    const std::size_t at = below(damaged.size() - length + 1);
    for (std::size_t i = 0; i < length; ++i)
      damaged[at + i] = static_cast<char>(rng());
    harness.check(file, damaged,
                  file + ": " + std::to_string(length) + " random bytes at " +
                      std::to_string(at));
  }
  // Splices: a range of one segment file copied over another's, at the same
  // offset half the time (segments of one record shape put their frames
  // there, so whole frames with intact CRCs land in the wrong segment).
  const std::string* const files[] = {&cold1, &cold9, &wal};
  for (int splice = 0; splice < 400; ++splice) {
    const std::string& to = splice % 2 == 0 ? cold9 : wal;
    const std::string* from = files[below(3)];
    if (*from == to) from = &cold1;
    const std::string& source = harness.bytes(*from);
    std::string damaged = harness.bytes(to);
    const std::size_t length =
        2 + below(std::min(source.size(), damaged.size()) - 1);
    const std::size_t at = below(source.size() - length + 1);
    const std::size_t into = splice % 4 < 2 && at + length <= damaged.size()
                                 ? at
                                 : below(damaged.size() - length + 1);
    damaged.replace(into, length, source, at, length);
    harness.check(to, damaged,
                  to + ": " + std::to_string(length) + " bytes of " + *from +
                      " from " + std::to_string(at) + " at " +
                      std::to_string(into));
  }
  util::set_log_sink({});
  EXPECT_GT(harness.reported, 0u);
  EXPECT_EQ(harness.wrong, 0u) << "of " << harness.answers << " answers";
}

TEST(Ledger, LostEpochsAreReportedUntilWrittenAgain) {
  ScratchDir scratch;
  {
    Ledger log(small_segments(scratch.path));
    for (std::uint64_t epoch = 1; epoch <= 16; ++epoch)
      log.append(record_at(epoch));
    ASSERT_EQ(log.stats().cold_segments, 2u);  // 1-8, 9-16; no WAL.
  }
  // Cut the newest cold segment mid-frame: its name still says 9-16.
  const fs::path cold = only_file(scratch.path, "cold-00000000000000000009-");
  write_bytes(cold, read_bytes(cold).substr(0, 600));

  Ledger log(small_segments(scratch.path));
  const std::uint64_t tail = log.stats().tail_epoch;
  ASSERT_GE(tail, 9u);
  ASSERT_LT(tail, 16u);
  expect_bit_identical(record_at(tail), *log.at_epoch(tail));
  EXPECT_THROW((void)log.at_epoch(16), DamagedRecord);
  EXPECT_THROW((void)log.at_or_before(15.5), DamagedRecord);
  EXPECT_FALSE(log.at_epoch(17).has_value());  // never written.

  // Writing the lost epochs again makes them answerable.
  for (std::uint64_t epoch = tail + 1; epoch <= 16; ++epoch)
    log.append(record_at(epoch));
  expect_bit_identical(record_at(16), *log.at_epoch(16));
  expect_bit_identical(record_at(15), *log.at_or_before(15.5));
}

TEST(Ledger, VerifyDirCountsEpochGaps) {
  ScratchDir scratch;
  {
    Ledger log(small_segments(scratch.path));
    for (std::uint64_t epoch = 1; epoch <= 24; ++epoch)
      log.append(record_at(epoch));
  }
  fs::path middle;
  for (const auto& entry : fs::directory_iterator(scratch.path))
    if (entry.path().filename().string().starts_with("cold-") &&
        entry.path().filename().string().find("0000000000000000000" "9") !=
            std::string::npos)
      middle = entry.path();
  ASSERT_FALSE(middle.empty()) << "expected a cold segment starting at 9";
  fs::remove(middle);  // epochs 9..16 vanish.

  const VerifyReport report = verify_dir(scratch.path);
  EXPECT_EQ(report.epoch_gaps, 1u);
  EXPECT_FALSE(report.clean());
}

// --- truncation (checkpoint rewind) -----------------------------------------

TEST(Ledger, TruncateAfterRewindsAcrossAllTiers) {
  ScratchDir scratch;
  Ledger log(small_segments(scratch.path));
  for (std::uint64_t epoch = 1; epoch <= 30; ++epoch)
    log.append(record_at(epoch));
  // Tiers now: cold 1-8, 9-16, 17-24; active WAL 25-30.

  log.truncate_after(99);  // past the tail: no-op.
  EXPECT_EQ(log.stats().tail_epoch, 30u);

  log.truncate_after(20);  // drops the WAL, cuts cold 17-24 and reseals it.
  Stats stats = log.stats();
  EXPECT_EQ(stats.tail_epoch, 20u);
  EXPECT_EQ(stats.records, 20u);
  EXPECT_EQ(stats.cold_segments, 3u);
  (void)only_file(scratch.path, "cold-00000000000000000017-00000000000000000020");
  expect_bit_identical(record_at(20), *log.at_epoch(20));
  EXPECT_FALSE(log.at_epoch(21).has_value());

  log.truncate_after(8);  // drops whole segments.
  stats = log.stats();
  EXPECT_EQ(stats.tail_epoch, 8u);
  EXPECT_EQ(stats.records, 8u);

  // The rewound ledger accepts the replayed-forward epochs again.
  log.append(record_at(9));
  EXPECT_EQ(log.stats().tail_epoch, 9u);
  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

TEST(Ledger, TruncateAfterResizesTheActiveWalInPlace) {
  ScratchDir scratch;
  Ledger log(small_segments(scratch.path, 1024));
  for (std::uint64_t epoch = 1; epoch <= 10; ++epoch)
    log.append(record_at(epoch));

  log.truncate_after(7);
  EXPECT_EQ(log.stats().tail_epoch, 7u);
  EXPECT_EQ(log.stats().records, 7u);
  log.append(record_at(8));  // the same file keeps accepting appends.
  EXPECT_EQ(log.stats().tail_epoch, 8u);
  EXPECT_EQ(log.stats().segments, 1u);
  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

// --- concurrency -------------------------------------------------------------

TEST(Ledger, PointReadsRacingSealingAppendsAreByteIdentical) {
  ScratchDir scratch;
  // A seal every 8 appends, each under the lock the reads take.
  Ledger log(small_segments(scratch.path));
  constexpr std::uint64_t kRecords = 400;
  std::atomic<std::uint64_t> appended{0};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads[2] = {0, 0};

  const auto reader = [&](std::uint64_t seed, std::atomic<std::uint64_t>& count) {
    for (std::uint64_t i = seed; !done.load(); i += 7) {
      const std::uint64_t tail = appended.load();
      if (tail == 0) continue;
      const std::uint64_t epoch = 1 + i % tail;
      const std::string expected = encode_record(record_at(epoch));
      EXPECT_EQ(encoded(log.at_epoch(epoch)), expected) << epoch;
      EXPECT_EQ(encoded(log.at_or_before(static_cast<double>(epoch) + 0.5)),
                expected)
          << epoch;
      ++count;
    }
  };
  std::thread first(reader, 0, std::ref(reads[0]));
  std::thread second(reader, 3, std::ref(reads[1]));
  for (std::uint64_t epoch = 1; epoch <= kRecords; ++epoch) {
    log.append(record_at(epoch));
    appended.store(epoch);
    // Appends outrun reads by far; pacing them keeps both readers reading
    // all the way through the 50 seals.
    while (reads[0].load() < epoch || reads[1].load() < epoch)
      std::this_thread::yield();
  }
  done.store(true);
  first.join();
  second.join();

  EXPECT_EQ(log.stats().compacted_records, kRecords);
  EXPECT_EQ(log.stats().cold_segments, kRecords / 8);
  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

// --- metrics ----------------------------------------------------------------

TEST(Ledger, ExportsMetricFamilies) {
  ScratchDir scratch;
  obs::MetricsRegistry registry;
  LedgerOptions options = small_segments(scratch.path);
  options.metrics = &registry;
  Ledger log(options);
  for (std::uint64_t epoch = 1; epoch <= 10; ++epoch)
    log.append(record_at(epoch));

  const std::string dump = registry.to_prometheus();
  for (const char* family :
       {"vmpower_ledger_appended_records_total",
        "vmpower_ledger_appended_bytes_total",
        "vmpower_ledger_compacted_records_total",
        "vmpower_ledger_recovered_records_total",
        "vmpower_ledger_torn_records_total", "vmpower_ledger_segments",
        "vmpower_ledger_cold_segments", "vmpower_ledger_tail_epoch",
        "vmpower_ledger_oldest_epoch"})
    EXPECT_NE(dump.find(family), std::string::npos) << family;
  EXPECT_NE(dump.find("vmpower_ledger_tail_epoch 10"), std::string::npos);
}

TEST(Ledger, InvariantMonitorFlagsTailLagAndReplayMismatch) {
  obs::MetricsRegistry registry;
  obs::InvariantMonitor monitor(registry);
  monitor.observe_ledger(/*snapshot_epoch=*/7, /*ledger_tail_epoch=*/7);
  monitor.observe_ledger_replay(7, 304.0, 304.0);
  EXPECT_EQ(monitor.breaches(), 0u);
  monitor.observe_ledger(8, 7);  // an append was skipped: durable hole.
  EXPECT_EQ(monitor.breaches(), 1u);
  monitor.observe_ledger_replay(8, 304.0, 304.0000000001);
  EXPECT_EQ(monitor.breaches(), 2u);
}

}  // namespace
}  // namespace vmp::ledger

// --- serving integration: the ledger under the retention ring ---------------

namespace vmp::serve {
namespace {

namespace fs = std::filesystem;
using ledger::Ledger;
using ledger::LedgerOptions;

/// Same linear synthetic fleet as test_serve.cpp: tenant 1 draws 100t J,
/// tenant 2 draws 200t J, VM (0,1) draws 10t J.
Snapshot synthetic_at(double t) {
  Snapshot snapshot;
  snapshot.tick = static_cast<std::uint64_t>(t);
  snapshot.time_s = t;
  snapshot.vms = {{0, 1, 1, t, 10.0 * t}, {0, 2, 2, 2.0 * t, 20.0 * t}};
  snapshot.tenants = {{1, t, 100.0 * t}, {2, 2.0 * t, 200.0 * t}};
  snapshot.total_power_w = 3.0 * t;
  snapshot.total_energy_j = 300.0 * t;
  return snapshot;
}

Request window_request(QueryKind kind, double t0, double t1) {
  Request request;
  request.kind = kind;
  request.host = 0;
  request.vm = 1;
  request.tenant = 2;
  request.t0 = t0;
  request.t1 = t1;
  return request;
}

struct Scratch {
  fs::path path;
  Scratch() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("vmp-ledger-serve-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

LedgerOptions ledger_options(const fs::path& dir) {
  LedgerOptions options;
  options.dir = dir;
  options.segment_max_records = 8;
  return options;
}

TEST(LedgerServe, RestartServesByteIdenticalWindowAnswers) {
  Scratch scratch;
  const std::vector<Request> requests = {
      window_request(QueryKind::kTenantEnergy, 5.0, 15.0),
      window_request(QueryKind::kVmEnergy, 3.0, 33.0),
      window_request(QueryKind::kTenantCost, 7.0, 29.0),
  };

  // First life: big ring, every publish mirrored into the ledger.
  std::vector<std::string> hot_answers;
  {
    auto log = std::make_unique<Ledger>(ledger_options(scratch.path));
    SnapshotStore store(64);
    store.set_ledger(log.get());
    for (int t = 1; t <= 40; ++t) store.publish(synthetic_at(t));
    QueryEngine hot(store);
    for (const Request& request : requests) {
      const Response response = hot.execute(request);
      ASSERT_TRUE(response.ok) << request.canonical();
      hot_answers.push_back(encode_response(response));
    }
    EXPECT_EQ(log->stats().tail_epoch, 40u);
  }  // process "dies": ledger closed, ring gone.

  // Second life: tiny ring refilled from the ledger tail; the windows above
  // now resolve through the cold path — and must answer byte-identically.
  auto log = std::make_unique<Ledger>(ledger_options(scratch.path));
  EXPECT_EQ(log->recovery().torn_records, 0u);
  SnapshotStore store(8);
  EXPECT_EQ(store.restore_from_ledger(*log), 8u);
  store.set_ledger(log.get());
  EXPECT_EQ(store.latest()->epoch, 40u);
  EXPECT_EQ(store.oldest()->epoch, 33u);

  QueryEngine cold(store);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Response response = cold.execute(requests[i]);
    ASSERT_TRUE(response.ok) << requests[i].canonical();
    EXPECT_EQ(encode_response(response), hot_answers[i])
        << requests[i].canonical();
  }

  // The restored store continues the epoch sequence into the same ledger.
  store.publish(synthetic_at(41));
  EXPECT_EQ(store.latest()->epoch, 41u);
  EXPECT_EQ(log->stats().tail_epoch, 41u);
}

// The ring and the ledger hold one record type: every epoch an engine
// publishes reads back from the ledger, and from a ring restored out of it,
// as the same bytes. Faults with zero backoff degrade some host-ticks, whose
// VMs carry their last instant power forward into the record.
TEST(LedgerServe, EngineSnapshotsAreTheRecordsTheLedgerHolds) {
  const std::vector<common::VmConfig> fleet = {common::paper_vm_type(1),
                                               common::paper_vm_type(2)};
  core::CollectionOptions collection;
  collection.duration_s = 30.0;
  const auto dataset =
      core::collect_offline_dataset(sim::xeon_prototype(), fleet, collection);
  fleet::FleetOptions options;
  options.hosts = 2;
  options.threads = 2;
  options.fleet_per_host = fleet;
  options.faults = fleet::parse_fault_spec("meter:0.3,dropout:0.1,stale:0.2");
  options.retry_backoff_base = std::chrono::microseconds{0};
  fleet::FleetEngine engine(options, dataset);

  Scratch scratch;
  Ledger log(ledger_options(scratch.path));
  SnapshotStore store(64);
  store.attach(engine);
  store.set_ledger(&log);
  engine.run(30);
  ASSERT_GT(engine.degraded_ticks(), 0u);
  ASSERT_EQ(log.stats().tail_epoch, 30u);
  EXPECT_GT(log.stats().cold_segments, 0u);

  SnapshotStore restored(64);
  ASSERT_EQ(restored.restore_from_ledger(log), 30u);
  for (std::uint64_t epoch = 1; epoch <= 30; ++epoch) {
    const auto record = log.at_epoch(epoch);
    ASSERT_TRUE(record.has_value()) << epoch;
    const auto ring = store.at_or_before(record->time_s);
    const auto replayed = restored.at_or_before(record->time_s);
    ASSERT_NE(ring, nullptr) << epoch;
    ASSERT_NE(replayed, nullptr) << epoch;
    EXPECT_EQ(ring->epoch, epoch);
    const std::string bytes = ledger::encode_record(*record);
    EXPECT_EQ(ledger::encode_record(*ring), bytes) << epoch;
    EXPECT_EQ(ledger::encode_record(*replayed), bytes) << epoch;
  }
}

TEST(LedgerServe, WindowErrorsCarryTheOldestReachableEpoch) {
  // No ledger: a bound past the ring is kOutOfRetention, detail = the
  // oldest epoch still in the ring.
  {
    SnapshotStore store(4);
    for (int t = 1; t <= 11; ++t) store.publish(synthetic_at(t));
    QueryEngine engine(store);
    const Response response =
        engine.execute(window_request(QueryKind::kTenantEnergy, 3.0, 10.0));
    ASSERT_FALSE(response.ok);
    EXPECT_EQ(response.code, ErrorCode::kOutOfRetention);
    EXPECT_EQ(response.detail, 8u);  // ring holds epochs 8..11.
  }

  // With a ledger attached late (epochs 1-5 never durably logged): a bound
  // past the ledger's own oldest record is kOutOfHistory, detail = the
  // ledger's oldest epoch.
  {
    Scratch scratch;
    auto log = std::make_unique<Ledger>(ledger_options(scratch.path));
    SnapshotStore store(4);
    for (int t = 1; t <= 5; ++t) store.publish(synthetic_at(t));
    store.set_ledger(log.get());
    for (int t = 6; t <= 20; ++t) store.publish(synthetic_at(t));
    QueryEngine engine(store);

    const Response too_old =
        engine.execute(window_request(QueryKind::kTenantEnergy, 2.0, 19.0));
    ASSERT_FALSE(too_old.ok);
    EXPECT_EQ(too_old.code, ErrorCode::kOutOfHistory);
    EXPECT_EQ(too_old.detail, 6u);

    // Clamping to the advertised epoch's time makes the query answerable,
    // served from the ledger's cold records.
    const Response clamped =
        engine.execute(window_request(QueryKind::kTenantEnergy, 6.0, 19.0));
    ASSERT_TRUE(clamped.ok);
    EXPECT_DOUBLE_EQ(clamped.values.at(0), 200.0 * (19.0 - 6.0));
  }
}

TEST(LedgerServe, WindowBoundExactlyAtTheOldestRingEpochStaysInTheRing) {
  Scratch scratch;
  auto log = std::make_unique<Ledger>(ledger_options(scratch.path));
  SnapshotStore store(4);
  store.set_ledger(log.get());
  for (int t = 1; t <= 12; ++t) store.publish(synthetic_at(t));
  // Ring holds epochs 9..12; the ledger holds everything.
  ASSERT_EQ(store.oldest()->epoch, 9u);

  QueryEngine engine(store);
  // Lower bound exactly at the oldest ring snapshot's time: at_or_before is
  // inclusive, so this is the last window the ring itself can answer — the
  // fall-through boundary, one tick after which the ledger takes over.
  const Response at_edge =
      engine.execute(window_request(QueryKind::kTenantEnergy, 9.0, 12.0));
  ASSERT_TRUE(at_edge.ok) << at_edge.message;
  EXPECT_DOUBLE_EQ(at_edge.values.at(0), 200.0 * (12.0 - 9.0));

  // One instant earlier resolves the bound through the ledger (epoch 8) and
  // must agree with the arithmetic the ring would have produced.
  const Response below_edge =
      engine.execute(window_request(QueryKind::kTenantEnergy, 8.999, 12.0));
  ASSERT_TRUE(below_edge.ok) << below_edge.message;
  EXPECT_DOUBLE_EQ(below_edge.values.at(0), 200.0 * (12.0 - 8.0));
}

TEST(LedgerServe, EmptyRingWithNonEmptyLedgerServesFromTheTail) {
  Scratch scratch;
  // First life writes durable history.
  {
    auto log = std::make_unique<Ledger>(ledger_options(scratch.path));
    SnapshotStore store(8);
    store.set_ledger(log.get());
    for (int t = 1; t <= 20; ++t) store.publish(synthetic_at(t));
  }

  // Second life: the ledger is attached but the ring was never refilled
  // (restore_from_ledger not called, no publish yet). Point and window
  // queries must answer from the ledger tail instead of kNoSnapshot.
  auto log = std::make_unique<Ledger>(ledger_options(scratch.path));
  SnapshotStore store(8);
  store.set_ledger(log.get());
  ASSERT_EQ(store.latest(), nullptr);

  QueryEngine engine(store);
  const Response point = engine.execute(window_request(QueryKind::kStats, 0, 0));
  ASSERT_TRUE(point.ok) << point.message;
  EXPECT_EQ(point.epoch, 20u);  // the ledger tail epoch.
  EXPECT_DOUBLE_EQ(point.values.at(1), 20.0);  // time_s.

  const Response window =
      engine.execute(window_request(QueryKind::kTenantEnergy, 5.0, 15.0));
  ASSERT_TRUE(window.ok) << window.message;
  EXPECT_DOUBLE_EQ(window.values.at(0), 200.0 * (15.0 - 5.0));

  // An empty ring with an *empty* ledger is still kNoSnapshot.
  Scratch empty_scratch;
  auto empty_log = std::make_unique<Ledger>(ledger_options(empty_scratch.path));
  SnapshotStore empty_store(8);
  empty_store.set_ledger(empty_log.get());
  QueryEngine empty_engine(empty_store);
  const Response none =
      empty_engine.execute(window_request(QueryKind::kStats, 0, 0));
  ASSERT_FALSE(none.ok);
  EXPECT_EQ(none.code, ErrorCode::kNoSnapshot);
}

TEST(LedgerServe, DamagedBoundFrameIsAnErrorNotAnotherRecord) {
  Scratch scratch;
  auto log = std::make_unique<Ledger>(ledger_options(scratch.path));
  SnapshotStore store(4);  // ring holds 33..36: epoch 1 is cold.
  store.set_ledger(log.get());
  for (int t = 1; t <= 36; ++t) store.publish(synthetic_at(t));
  QueryEngine engine(store);

  // Bit rot inside epoch 1's body: the index still names the frame, and its
  // CRC must refuse it. Reading it as missing would answer from the genesis
  // baseline (the ledger starts at epoch 1).
  const fs::path cold =
      ledger::only_file(scratch.path, "cold-00000000000000000001-");
  {
    std::fstream file(cold, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(8 + ledger::kHeaderBytes + 40);  // magic, header, body.
    file.write("\x7f", 1);
  }
  const Response window =
      engine.execute(window_request(QueryKind::kTenantEnergy, 1.5, 35.0));
  ASSERT_FALSE(window.ok) << window.values.at(0);
  EXPECT_EQ(window.code, ErrorCode::kUnavailable);
  EXPECT_NE(window.message.find(cold.filename().string() + " at offset 8"),
            std::string::npos)
      << window.message;

  // An empty ring answering from the ledger tail reports the same way.
  const fs::path wal = scratch.path / "wal-00000000000000000033.log";
  ASSERT_TRUE(fs::exists(wal));
  {
    std::fstream file(wal, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(fs::file_size(wal) - 1));
    file.write("\x7f", 1);
  }
  SnapshotStore empty_ring(4);
  empty_ring.set_ledger(log.get());
  QueryEngine tail_engine(empty_ring);
  const Response stats =
      tail_engine.execute(window_request(QueryKind::kStats, 0, 0));
  ASSERT_FALSE(stats.ok);
  EXPECT_EQ(stats.code, ErrorCode::kUnavailable);
  EXPECT_NE(stats.message.find(wal.filename().string()), std::string::npos)
      << stats.message;
}

TEST(LedgerServe, LedgerReachingEpochOneExtendsTheGenesisBaseline) {
  Scratch scratch;
  auto log = std::make_unique<Ledger>(ledger_options(scratch.path));
  SnapshotStore store(2);  // ring far too small to hold the window.
  store.set_ledger(log.get());
  for (int t = 1; t <= 10; ++t) store.publish(synthetic_at(t));
  QueryEngine engine(store);

  // t0 predates even the ledger — but the ledger's oldest epoch is 1, so
  // "before accounting started" is a zero baseline, not missing history.
  const Response response =
      engine.execute(window_request(QueryKind::kTenantEnergy, 0.25, 10.0));
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_DOUBLE_EQ(response.values.at(0), 200.0 * 10.0);
}

}  // namespace
}  // namespace vmp::serve
