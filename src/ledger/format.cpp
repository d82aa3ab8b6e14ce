#include "ledger/format.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

namespace vmp::ledger {

// Same big-endian byte order as the wire protocol, so dumps are readable
// with the same tooling and doubles round-trip bit-exactly.

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

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the bytewise table; tables[k][n] is the CRC register after
// byte n is followed by k zero bytes, so eight lookups advance eight bytes.
constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][n] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t n = 0; n < 256; ++n)
      tables[k][n] = (tables[k - 1][n] >> 8) ^
                     tables[0][tables[k - 1][n] & 0xffu];
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Four bytes as a little-endian word, the order the reflected CRC consumes.
std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// Big-endian stores into a frame already sized for them; each returns the
// byte after the value.
char* store_u32(char* at, std::uint32_t value) noexcept {
  for (int shift = 24; shift >= 0; shift -= 8)
    *at++ = static_cast<char>((value >> shift) & 0xff);
  return at;
}

char* store_u64(char* at, std::uint64_t value) noexcept {
  for (int shift = 56; shift >= 0; shift -= 8)
    *at++ = static_cast<char>((value >> shift) & 0xff);
  return at;
}

char* store_f64(char* at, double value) noexcept {
  return store_u64(at, std::bit_cast<std::uint64_t>(value));
}

std::size_t body_bytes(const TickRecord& record) noexcept {
  return 64 + record.vms.size() * 28 + record.tenants.size() * 20;
}

/// Writes the record's body into the body_bytes(record) bytes at `at`.
void encode_body(const TickRecord& record, char* at) noexcept {
  at = store_u64(at, record.epoch);
  at = store_u64(at, record.tick);
  at = store_f64(at, record.time_s);
  at = store_f64(at, record.period_s);
  at = store_f64(at, record.total_power_w);
  at = store_f64(at, record.total_energy_j);
  at = store_f64(at, record.unattributed_j);
  at = store_u32(at, static_cast<std::uint32_t>(record.vms.size()));
  at = store_u32(at, static_cast<std::uint32_t>(record.tenants.size()));
  for (const VmEntry& vm : record.vms) {
    at = store_u32(at, vm.host);
    at = store_u32(at, vm.vm);
    at = store_u32(at, vm.tenant);
    at = store_f64(at, vm.power_w);
    at = store_f64(at, vm.energy_j);
  }
  for (const TenantEntry& tenant : record.tenants) {
    at = store_u32(at, tenant.tenant);
    at = store_f64(at, tenant.power_w);
    at = store_f64(at, tenant.energy_j);
  }
}

}  // namespace

void put_u32(std::string& out, std::uint32_t value) {
  out.resize(out.size() + 4);
  store_u32(out.data() + out.size() - 4, value);
}

void put_u64(std::string& out, std::uint64_t value) {
  out.resize(out.size() + 8);
  store_u64(out.data() + out.size() - 8, value);
}

void put_f64(std::string& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

std::uint32_t crc32(std::string_view data) noexcept {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string encode_record(const TickRecord& record) {
  std::string body(body_bytes(record), '\0');
  encode_body(record, body.data());
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

void append_frame(std::string& out, const TickRecord& record) {
  const std::size_t length = body_bytes(record);
  const std::size_t start = out.size();
  out.resize(start + kHeaderBytes + length);
  char* frame = out.data() + start;
  encode_body(record, frame + kHeaderBytes);
  store_u32(frame, static_cast<std::uint32_t>(length));
  store_u32(frame + 4, crc32(std::string_view(frame + kHeaderBytes, length)));
}

FrameStatus read_frame(std::string_view data, std::size_t& offset,
                       TickRecord& record) {
  if (offset == data.size()) return FrameStatus::kEndOfLog;
  if (offset + kHeaderBytes > data.size()) return FrameStatus::kTorn;
  ByteReader header{data.substr(offset, kHeaderBytes)};
  std::uint32_t length = 0, crc = 0;
  (void)header.get_u32(length);
  (void)header.get_u32(crc);
  if (length > kMaxRecordBytes ||
      offset + kHeaderBytes + length > data.size())
    return FrameStatus::kTorn;
  const std::string_view body =
      data.substr(offset + kHeaderBytes, length);
  if (crc32(body) != crc) return FrameStatus::kTorn;
  auto decoded = decode_record(body);
  if (!decoded) return FrameStatus::kTorn;
  record = std::move(*decoded);
  offset += kHeaderBytes + length;
  return FrameStatus::kOk;
}

}  // namespace vmp::ledger
