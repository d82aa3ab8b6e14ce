// Durable attribution ledger: on-disk format, rotation/compaction, crash
// recovery (torn tails, byte flips, damaged footers), checkpoint rewind, and
// the end-to-end promise — answers served from the ledger are byte-identical
// to the retention-ring answers they replace, across a full restart.
#include "ledger/ledger.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

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
  options.index_stride = 4;
  options.background_compaction = false;  // deterministic tests.
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
  flipped[second + kFrameHeaderBytes + 3] ^= 0x40;
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

// --- append / rotation / compaction / queries -------------------------------

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
  EXPECT_GE(stats.cold_segments, 3u);  // 30 records over 8-record segments.
  EXPECT_EQ(stats.sealed_segments, 0u);

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
  // 10-record segments indexed every 4th record plus the last: walks of 0-3
  // frames, the segment's last frame, and a WAL tail with a dense index.
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
  LedgerOptions options = small_segments(scratch.path, 1024);
  options.auto_compact = false;  // one WAL file, easy to wound.
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
  LedgerOptions options = small_segments(scratch.path, 1024);
  options.auto_compact = false;
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
  {  // Wreck the footer magic; the frames stay CRC-protected.
    std::fstream file(cold, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(fs::file_size(cold) - 1));
    file.write("\0", 1);
  }

  log = std::make_unique<Ledger>(small_segments(scratch.path));
  EXPECT_EQ(log->recovery().rescanned_cold, 1u);
  const Stats stats = log->stats();
  EXPECT_EQ(stats.records, 16u);  // nothing lost — and recompacted already.
  EXPECT_EQ(stats.cold_segments, 2u);
  EXPECT_EQ(stats.sealed_segments, 0u);
  expect_bit_identical(record_at(3), *log->at_epoch(3));
  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

TEST(Ledger, EverySingleByteFlipIsAnsweredRightOrReported) {
  ScratchDir scratch;
  // Opened without compaction, so a reopen never rewrites a damaged file.
  LedgerOptions options = small_segments(scratch.path);
  options.auto_compact = false;
  {
    Ledger log(small_segments(scratch.path));
    for (std::uint64_t epoch = 1; epoch <= 20; ++epoch)
      log.append(record_at(epoch));
    ASSERT_EQ(log.stats().cold_segments, 2u);  // 1-8, 9-16; WAL 17-20.
  }
  const fs::path cold = only_file(scratch.path, "cold-00000000000000000009-");
  // Every byte of the file: magic, frames, sparse index and footer.
  const std::string pristine = read_bytes(cold);

  struct Query {
    bool by_epoch;
    double t_s;
    std::uint64_t epoch;
  };
  std::vector<Query> queries;
  for (double t = 0.0; t <= 21.0; t += 0.5) queries.push_back({false, t, 0});
  for (std::uint64_t epoch = 1; epoch <= 20; ++epoch)
    queries.push_back({true, 0.0, epoch});
  const auto ask = [](const Ledger& log, const Query& query) {
    return encoded(query.by_epoch ? log.at_epoch(query.epoch)
                                  : log.at_or_before(query.t_s));
  };
  std::vector<std::string> truth;
  {
    const Ledger log(options);
    for (const Query& query : queries) truth.push_back(ask(log, query));
  }

  // Count the WARN lines a damaged read logs instead of printing them.
  std::size_t warned = 0;
  const std::string damage_line = cold.filename().string() + " at offset ";
  util::set_log_sink([&](util::LogLevel level, std::string_view line) {
    if (level == util::LogLevel::kWarn &&
        line.find(damage_line) != std::string_view::npos)
      ++warned;
  });
  std::size_t answers = 0, reported = 0, wrong = 0;
  for (std::size_t at = 0; at < pristine.size(); ++at) {
    std::string damaged = pristine;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x5a);
    write_bytes(cold, damaged);
    const Ledger log(options);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ++answers;
      try {
        if (ask(log, queries[q]) != truth[q] && ++wrong <= 5)
          ADD_FAILURE() << "byte " << at << " flipped: wrong answer to "
                        << (queries[q].by_epoch ? "at_epoch(" : "at_or_before(")
                        << (queries[q].by_epoch
                                ? static_cast<double>(queries[q].epoch)
                                : queries[q].t_s)
                        << ")";
      } catch (const DamagedRecord& damage) {
        ++reported;
        EXPECT_NE(std::string(damage.what()).find(cold.filename().string()),
                  std::string::npos);
      }
    }
  }
  util::set_log_sink({});
  write_bytes(cold, pristine);
  EXPECT_EQ(wrong, 0u) << "of " << answers << " answers";
  EXPECT_GT(reported, 0u);
  EXPECT_EQ(warned, reported);
  EXPECT_TRUE(verify_dir(scratch.path).clean());
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

  log.truncate_after(20);  // drops the WAL, splits cold 17-24.
  Stats stats = log.stats();
  EXPECT_EQ(stats.tail_epoch, 20u);
  EXPECT_EQ(stats.records, 20u);
  expect_bit_identical(record_at(20), *log.at_epoch(20));
  EXPECT_FALSE(log.at_epoch(21).has_value());

  log.truncate_after(8);  // drops whole segments.
  stats = log.stats();
  EXPECT_EQ(stats.tail_epoch, 8u);
  EXPECT_EQ(stats.records, 8u);

  // The rewound ledger accepts the replayed-forward epochs again.
  log.append(record_at(9));
  EXPECT_EQ(log.stats().tail_epoch, 9u);
  log.wait_for_compaction();
  EXPECT_TRUE(verify_dir(scratch.path).clean());
}

TEST(Ledger, TruncateAfterResizesTheActiveWalInPlace) {
  ScratchDir scratch;
  LedgerOptions options = small_segments(scratch.path, 1024);
  options.auto_compact = false;
  Ledger log(options);
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

TEST(Ledger, PointReadsDuringBackgroundCompactionAreByteIdentical) {
  ScratchDir scratch;
  LedgerOptions options = small_segments(scratch.path);
  options.background_compaction = true;  // reads race the segment swaps.
  Ledger log(options);
  constexpr std::uint64_t kRecords = 400;
  std::atomic<std::uint64_t> appended{0};
  std::atomic<bool> done{false};

  const auto reader = [&](std::uint64_t seed, std::uint64_t& reads) {
    for (std::uint64_t i = seed; !done.load(); i += 7) {
      const std::uint64_t tail = appended.load();
      if (tail == 0) continue;
      const std::uint64_t epoch = 1 + i % tail;
      const std::string expected = encode_record(record_at(epoch));
      EXPECT_EQ(encoded(log.at_epoch(epoch)), expected) << epoch;
      EXPECT_EQ(encoded(log.at_or_before(static_cast<double>(epoch) + 0.5)),
                expected)
          << epoch;
      ++reads;
    }
  };
  std::uint64_t reads[2] = {0, 0};
  std::thread first(reader, 0, std::ref(reads[0]));
  std::thread second(reader, 3, std::ref(reads[1]));
  for (std::uint64_t epoch = 1; epoch <= kRecords; ++epoch) {
    log.append(record_at(epoch));
    appended.store(epoch);
  }
  log.wait_for_compaction();
  done.store(true);
  first.join();
  second.join();

  EXPECT_GT(reads[0], 0u);
  EXPECT_GT(reads[1], 0u);
  EXPECT_EQ(log.stats().compacted_records, kRecords);
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

TEST(LedgerServe, SnapshotRecordConversionIsBitExact) {
  const Snapshot snapshot = synthetic_at(9.0);
  Snapshot back = to_snapshot(to_record(snapshot));
  back.epoch = snapshot.epoch;
  EXPECT_EQ(back.vms.size(), snapshot.vms.size());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.vms[0].energy_j),
            std::bit_cast<std::uint64_t>(snapshot.vms[0].energy_j));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.tenants[1].energy_j),
            std::bit_cast<std::uint64_t>(snapshot.tenants[1].energy_j));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.total_energy_j),
            std::bit_cast<std::uint64_t>(snapshot.total_energy_j));
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

LedgerOptions inline_options(const fs::path& dir) {
  LedgerOptions options;
  options.dir = dir;
  options.segment_max_records = 8;
  options.index_stride = 4;
  options.background_compaction = false;
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
    auto log = std::make_unique<Ledger>(inline_options(scratch.path));
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
  auto log = std::make_unique<Ledger>(inline_options(scratch.path));
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
    auto log = std::make_unique<Ledger>(inline_options(scratch.path));
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
  auto log = std::make_unique<Ledger>(inline_options(scratch.path));
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
    auto log = std::make_unique<Ledger>(inline_options(scratch.path));
    SnapshotStore store(8);
    store.set_ledger(log.get());
    for (int t = 1; t <= 20; ++t) store.publish(synthetic_at(t));
  }

  // Second life: the ledger is attached but the ring was never refilled
  // (restore_from_ledger not called, no publish yet). Point and window
  // queries must answer from the ledger tail instead of kNoSnapshot.
  auto log = std::make_unique<Ledger>(inline_options(scratch.path));
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
  auto empty_log = std::make_unique<Ledger>(inline_options(empty_scratch.path));
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
  auto log = std::make_unique<Ledger>(inline_options(scratch.path));
  SnapshotStore store(4);  // ring holds 33..36: epoch 1 is cold.
  store.set_ledger(log.get());
  for (int t = 1; t <= 36; ++t) store.publish(synthetic_at(t));
  QueryEngine engine(store);

  // Bit rot inside epoch 1's body, past its prefix: the walk still lands
  // on the frame, and its CRC must refuse it. Reading it as missing would
  // answer from the genesis baseline (the ledger starts at epoch 1).
  const fs::path cold =
      ledger::only_file(scratch.path, "cold-00000000000000000001-");
  {
    std::fstream file(cold, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(8 + ledger::kFrameHeaderBytes + 40);  // magic, header, body.
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
  auto log = std::make_unique<Ledger>(inline_options(scratch.path));
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
