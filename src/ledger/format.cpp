#include "ledger/format.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

namespace vmp::ledger {

// Same big-endian byte order as the wire protocol, so dumps are readable
// with the same tooling and doubles round-trip bit-exactly.

void put_u32(std::string& out, std::uint32_t value) {
  for (int shift = 24; shift >= 0; shift -= 8)
    out.push_back(static_cast<char>((value >> shift) & 0xff));
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int shift = 56; shift >= 0; shift -= 8)
    out.push_back(static_cast<char>((value >> shift) & 0xff));
}

void put_f64(std::string& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

bool ByteReader::get_u32(std::uint32_t& value) {
  if (pos + 4 > data.size()) return false;
  value = 0;
  for (int i = 0; i < 4; ++i)
    value = (value << 8) | static_cast<std::uint8_t>(data[pos++]);
  return true;
}

bool ByteReader::get_u64(std::uint64_t& value) {
  if (pos + 8 > data.size()) return false;
  value = 0;
  for (int i = 0; i < 8; ++i)
    value = (value << 8) | static_cast<std::uint8_t>(data[pos++]);
  return true;
}

bool ByteReader::get_f64(double& value) {
  std::uint64_t bits = 0;
  if (!get_u64(bits)) return false;
  value = std::bit_cast<double>(bits);
  return true;
}

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[n] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

}  // namespace

std::uint32_t crc32(std::string_view data) noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char byte : data)
    crc = kCrcTable[(crc ^ static_cast<std::uint8_t>(byte)) & 0xffu] ^
          (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string encode_record(const TickRecord& record) {
  std::string body;
  body.reserve(64 + record.vms.size() * 28 + record.tenants.size() * 20);
  put_u64(body, record.epoch);
  put_u64(body, record.tick);
  put_f64(body, record.time_s);
  put_f64(body, record.period_s);
  put_f64(body, record.total_power_w);
  put_f64(body, record.total_energy_j);
  put_f64(body, record.unattributed_j);
  put_u32(body, static_cast<std::uint32_t>(record.vms.size()));
  put_u32(body, static_cast<std::uint32_t>(record.tenants.size()));
  for (const VmEntry& vm : record.vms) {
    put_u32(body, vm.host);
    put_u32(body, vm.vm);
    put_u32(body, vm.tenant);
    put_f64(body, vm.power_w);
    put_f64(body, vm.energy_j);
  }
  for (const TenantEntry& tenant : record.tenants) {
    put_u32(body, tenant.tenant);
    put_f64(body, tenant.power_w);
    put_f64(body, tenant.energy_j);
  }
  return body;
}

std::optional<TickRecord> decode_record(std::string_view body) {
  ByteReader reader{body};
  TickRecord record;
  std::uint32_t vm_count = 0, tenant_count = 0;
  if (!reader.get_u64(record.epoch) || !reader.get_u64(record.tick) ||
      !reader.get_f64(record.time_s) || !reader.get_f64(record.period_s) ||
      !reader.get_f64(record.total_power_w) ||
      !reader.get_f64(record.total_energy_j) ||
      !reader.get_f64(record.unattributed_j) || !reader.get_u32(vm_count) ||
      !reader.get_u32(tenant_count))
    return std::nullopt;
  // Counts are bounded by the remaining bytes before any allocation, so a
  // corrupt count cannot balloon memory.
  if (static_cast<std::size_t>(vm_count) * 28 +
          static_cast<std::size_t>(tenant_count) * 20 >
      body.size() - reader.pos)
    return std::nullopt;
  record.vms.resize(vm_count);
  for (VmEntry& vm : record.vms)
    if (!reader.get_u32(vm.host) || !reader.get_u32(vm.vm) ||
        !reader.get_u32(vm.tenant) || !reader.get_f64(vm.power_w) ||
        !reader.get_f64(vm.energy_j))
      return std::nullopt;
  record.tenants.resize(tenant_count);
  for (TenantEntry& tenant : record.tenants)
    if (!reader.get_u32(tenant.tenant) || !reader.get_f64(tenant.power_w) ||
        !reader.get_f64(tenant.energy_j))
      return std::nullopt;
  if (!reader.exhausted()) return std::nullopt;  // trailing garbage.
  return record;
}

const VmEntry* TickRecord::find_vm(std::uint32_t host,
                                   std::uint32_t vm) const noexcept {
  const auto it = std::lower_bound(
      vms.begin(), vms.end(), std::make_pair(host, vm),
      [](const VmEntry& entry,
         std::pair<std::uint32_t, std::uint32_t> key) noexcept {
        return std::make_pair(entry.host, entry.vm) < key;
      });
  if (it == vms.end() || it->host != host || it->vm != vm) return nullptr;
  return &*it;
}

const TenantEntry* TickRecord::find_tenant(
    std::uint32_t tenant) const noexcept {
  const auto it = std::lower_bound(
      tenants.begin(), tenants.end(), tenant,
      [](const TenantEntry& entry, std::uint32_t id) noexcept {
        return entry.tenant < id;
      });
  if (it == tenants.end() || it->tenant != tenant) return nullptr;
  return &*it;
}

std::optional<RecordPrefix> decode_prefix(std::string_view body) {
  ByteReader reader{body};
  RecordPrefix prefix;
  if (!reader.get_u64(prefix.epoch) || !reader.get_u64(prefix.tick) ||
      !reader.get_f64(prefix.time_s))
    return std::nullopt;
  return prefix;
}

void append_frame(std::string& out, const TickRecord& record) {
  const std::string body = encode_record(record);
  put_u32(out, static_cast<std::uint32_t>(body.size()));
  put_u32(out, crc32(body));
  out.append(body);
}

FrameStatus read_frame(std::string_view data, std::size_t& offset,
                       TickRecord& record) {
  if (offset == data.size()) return FrameStatus::kEndOfLog;
  if (offset + kFrameHeaderBytes > data.size()) return FrameStatus::kTorn;
  ByteReader header{data.substr(offset, kFrameHeaderBytes)};
  std::uint32_t length = 0, crc = 0;
  (void)header.get_u32(length);
  (void)header.get_u32(crc);
  if (length > kMaxRecordBytes ||
      offset + kFrameHeaderBytes + length > data.size())
    return FrameStatus::kTorn;
  const std::string_view body =
      data.substr(offset + kFrameHeaderBytes, length);
  if (crc32(body) != crc) return FrameStatus::kTorn;
  auto decoded = decode_record(body);
  if (!decoded) return FrameStatus::kTorn;
  record = std::move(*decoded);
  offset += kFrameHeaderBytes + length;
  return FrameStatus::kOk;
}

}  // namespace vmp::ledger
