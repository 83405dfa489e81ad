#include "nn/model_io.h"

#include <cstring>
#include <string_view>

#include "common/check.h"

namespace orco::nn {

namespace {
constexpr std::uint32_t kMagic = 0x4f52434fu;  // "ORCO"
}

std::vector<std::byte> save_params(Layer& model) {
  common::ByteWriter writer;
  writer.write_u32(kMagic);
  const auto params = model.params();
  writer.write_u64(params.size());
  for (const auto& p : params) {
    writer.write_string(p.name);
    writer.write_u64(p.value->rank());
    for (std::size_t d = 0; d < p.value->rank(); ++d) {
      writer.write_u64(p.value->dim(d));
    }
    writer.write_f32_span(p.value->data());
  }
  return writer.bytes();
}

void load_params(Layer& model, std::span<const std::byte> bytes) {
  auto params = model.params();
  // The first walk checks the whole blob; only the second copies values,
  // each tensor straight out of the blob. So a malformed blob throws before
  // any value changes.
  for (const bool copy : {false, true}) {
    common::ByteReader reader(bytes);
    ORCO_CHECK(reader.read_u32() == kMagic, "bad model file magic");
    const std::uint64_t count = reader.read_u64();
    ORCO_CHECK(count == params.size(), "model has " << params.size()
                                                    << " params, file has "
                                                    << count);
    for (auto& p : params) {
      const std::span<const std::byte> name_bytes = reader.read_view(1);
      const std::string_view name(
          reinterpret_cast<const char*>(name_bytes.data()), name_bytes.size());
      ORCO_CHECK(name == p.name, "param order mismatch: expected "
                                     << p.name << ", got " << name);
      const std::uint64_t rank = reader.read_u64();
      ORCO_CHECK(rank == p.value->rank(), "rank mismatch for "
                                              << name << ": file has " << rank
                                              << ", model has "
                                              << p.value->rank());
      tensor::Shape shape(rank);
      for (auto& d : shape) d = reader.read_u64();
      ORCO_CHECK(shape == p.value->shape(),
                 "shape mismatch for "
                     << name << ": " << tensor::shape_to_string(shape)
                     << " vs " << tensor::shape_to_string(p.value->shape()));
      const std::span<const std::byte> values = reader.read_view(sizeof(float));
      ORCO_CHECK(values.size() == p.value->numel() * sizeof(float),
                 "data size mismatch for "
                     << name << ": file has " << values.size() / sizeof(float)
                     << " values, model has " << p.value->numel());
      if (copy && !values.empty()) {
        std::memcpy(p.value->data().data(), values.data(), values.size());
      }
    }
    ORCO_CHECK(reader.exhausted(), "model blob has " << reader.remaining()
                                                     << " trailing bytes");
  }
}

}  // namespace orco::nn
