#include "fleet/cold_store.h"

#include <filesystem>
#include <utility>

#include "common/check.h"
#include "common/serialize.h"

namespace orco::fleet {

namespace {

// "OFLT" — distinct from save_params's "ORCO", so a bare weight blob is
// never read as a record (or a record as a blob).
constexpr std::uint32_t kColdMagic = 0x4f464c54;
// load() refuses any other format; format 1 records also carry a per-tenant
// QoS policy block that this layout has no field for.
constexpr std::uint32_t kColdFormat = 2;

}  // namespace

ColdStore::ColdStore(std::string dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

std::string ColdStore::path_for(ClusterId id) const {
  return dir_ + "/tenant-" + std::to_string(id) + ".ckpt";
}

void ColdStore::save(ClusterId id, const ColdRecord& record) {
  common::ByteWriter writer;
  writer.write_u32(kColdMagic);
  writer.write_u32(kColdFormat);
  writer.write_u64(id);
  writer.write_u64(record.model_version);
  writer.write_bytes(record.encoder_params);
  writer.write_bytes(record.decoder_params);
  common::write_file_atomic(path_for(id), writer.bytes());
  saves_.fetch_add(1, std::memory_order_relaxed);
}

LoadedRecord ColdStore::load(ClusterId id) const {
  LoadedRecord record;
  record.file = common::read_file(path_for(id));
  common::ByteReader reader(record.file);
  const std::uint32_t magic = reader.read_u32();
  ORCO_CHECK(magic == kColdMagic,
             "cold record magic mismatch: got 0x" << std::hex << magic);
  const std::uint32_t format = reader.read_u32();
  ORCO_CHECK(format == kColdFormat,
             "unsupported cold record format " << format);
  const std::uint64_t stored_id = reader.read_u64();
  ORCO_CHECK(stored_id == id, "cold record for tenant " << stored_id
                                                        << " read as " << id);
  record.model_version = reader.read_u64();
  record.encoder_params = reader.read_view(1);
  record.decoder_params = reader.read_view(1);
  ORCO_CHECK(reader.exhausted(),
             "cold record for tenant " << id << " has trailing bytes");
  loads_.fetch_add(1, std::memory_order_relaxed);
  return record;
}

bool ColdStore::contains(ClusterId id) const {
  return std::filesystem::exists(path_for(id));
}

bool ColdStore::remove(ClusterId id) {
  std::error_code ec;
  return std::filesystem::remove(path_for(id), ec) && !ec;
}

}  // namespace orco::fleet
