// On-disk format of the durable attribution ledger.
//
// The ledger is an append-only log of per-tick attribution records. Every
// record is framed as
//
//   [u32 body length][u32 CRC32(body)][body]
//
// with all integers big-endian and doubles as IEEE-754 bit patterns, exactly
// like the wire protocol — a record read back is bit-identical to the one
// appended, which is what lets window queries served from the ledger match
// the retention ring byte for byte. The CRC (reflected polynomial
// 0xEDB88320, the zlib/PNG one) covers the body only; a frame whose length
// is insane, whose body is short, or whose CRC mismatches marks the *torn
// tail* of a segment: recovery keeps every record before it and truncates
// the rest, so a crash mid-append loses at most the record being written.
//
// Records carry cumulative energies (not per-tick increments), so each one
// is self-contained: answering a window query needs only the two records
// bracketing the window, never a replay from the start of history. Nothing
// in a frame points at its neighbours: the ledger's index records where
// each frame starts, so a point read fetches one frame and checks one CRC.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vmp::ledger {

/// One VM's attribution state at a tick.
struct VmEntry {
  std::uint32_t host = 0;
  std::uint32_t vm = 0;
  std::uint32_t tenant = 0;  ///< 0 = unbound (unattributed bucket).
  double power_w = 0.0;      ///< instant Shapley share at this tick.
  double energy_j = 0.0;     ///< cumulative attributed energy.
};

/// One tenant's cross-host roll-up at a tick.
struct TenantEntry {
  std::uint32_t tenant = 0;
  double power_w = 0.0;   ///< sum of the tenant's VM instant shares.
  double energy_j = 0.0;  ///< cumulative cross-host energy (Additivity).
};

/// The fleet's full attribution state at one publish epoch, with cumulative
/// energies so the record is self-contained. This is the one declaration of
/// a tick's attribution: the serve tier publishes it as serve::Snapshot, the
/// ledger persists it, and cold queries read it back. Immutable once
/// published — never mutated — so it is safe to share across threads
/// without locks.
struct TickRecord {
  /// Publish sequence number, assigned by the store; strictly ascending.
  std::uint64_t epoch = 0;
  std::uint64_t tick = 0;
  double time_s = 0.0;  ///< tick boundary in accounting time (tick*period).
  double period_s = 1.0;
  std::vector<VmEntry> vms;          ///< sorted by (host, vm).
  std::vector<TenantEntry> tenants;  ///< sorted by tenant.
  double total_power_w = 0.0;
  double total_energy_j = 0.0;  ///< measured host energy (fleet roll-up).
  double unattributed_j = 0.0;

  /// Binary search; nullptr when the (host, vm) pair is unknown.
  [[nodiscard]] const VmEntry* find_vm(std::uint32_t host,
                                       std::uint32_t vm) const noexcept;
  [[nodiscard]] const TenantEntry* find_tenant(
      std::uint32_t tenant) const noexcept;
};

/// Frame header: u32 body length + u32 CRC32.
inline constexpr std::size_t kHeaderBytes = 8;
/// Upper bound on one record body; a declared length beyond this is treated
/// as a torn/corrupt frame, never an allocation.
inline constexpr std::size_t kMaxRecordBytes = 16 * 1024 * 1024;

/// CRC32 (reflected 0xEDB88320, zlib polynomial) of `data`, computed eight
/// bytes per step (slicing-by-8); the value is the bytewise algorithm's.
[[nodiscard]] std::uint32_t crc32(std::string_view data) noexcept;

/// --- byte codec (big-endian, shared with the segment index/footer) ---------

void put_u32(std::string& out, std::uint32_t value);
void put_u64(std::string& out, std::uint64_t value);
void put_f64(std::string& out, double value);

/// Cursor over a byte buffer; every get_* fails (returns false) on underrun.
struct ByteReader {
  std::string_view data;
  std::size_t pos = 0;

  bool get_u32(std::uint32_t& value);
  bool get_u64(std::uint64_t& value);
  bool get_f64(double& value);
  [[nodiscard]] bool exhausted() const { return pos == data.size(); }
};

/// --- record bodies ---------------------------------------------------------

[[nodiscard]] std::string encode_record(const TickRecord& record);
/// nullopt on truncated or malformed bodies (counts mismatching the length).
[[nodiscard]] std::optional<TickRecord> decode_record(std::string_view body);

/// --- framing ---------------------------------------------------------------

/// Appends one CRC-framed record to `out`: the frame is sized once, the body
/// encoded in place, and the length and CRC written in front of it.
void append_frame(std::string& out, const TickRecord& record);

/// Outcome of reading one frame at an offset of a segment's byte buffer.
enum class FrameStatus {
  kOk,        ///< record decoded; offset advanced past the frame.
  kEndOfLog,  ///< exactly at the end: a cleanly closed segment.
  kTorn,      ///< short header/body, insane length, CRC or decode failure.
};

/// Reads the frame at `offset` in `data`. On kOk, `record` holds the decoded
/// record and `offset` points at the next frame. On kTorn, `offset` is
/// unchanged: everything from it onward is the damaged tail.
[[nodiscard]] FrameStatus read_frame(std::string_view data, std::size_t& offset,
                                     TickRecord& record);

}  // namespace vmp::ledger
