#include "nn/model_io.h"

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
  common::ByteReader reader(bytes);
  ORCO_CHECK(reader.read_u32() == kMagic, "bad model file magic");
  auto params = model.params();
  const std::uint64_t count = reader.read_u64();
  ORCO_CHECK(count == params.size(), "model has " << params.size()
                                                  << " params, file has "
                                                  << count);
  for (auto& p : params) {
    const std::string name = reader.read_string();
    ORCO_CHECK(name == p.name,
               "param order mismatch: expected " << p.name << ", got " << name);
    const std::uint64_t rank = reader.read_u64();
    ORCO_CHECK(rank == p.value->rank(), "rank mismatch for "
                                            << name << ": file has " << rank
                                            << ", model has "
                                            << p.value->rank());
    tensor::Shape shape(rank);
    for (auto& d : shape) d = reader.read_u64();
    ORCO_CHECK(shape == p.value->shape(),
               "shape mismatch for " << name << ": "
                                     << tensor::shape_to_string(shape) << " vs "
                                     << tensor::shape_to_string(p.value->shape()));
    const auto data = reader.read_f32_vector();
    ORCO_CHECK(data.size() == p.value->numel(),
               "data size mismatch for " << name << ": file has "
                                         << data.size() << " values, model has "
                                         << p.value->numel());
    std::copy(data.begin(), data.end(), p.value->data().begin());
  }
}

void save_params_file(Layer& model, const std::string& path) {
  const auto bytes = save_params(model);
  common::write_file(path, bytes);
}

void load_params_file(Layer& model, const std::string& path) {
  const auto bytes = common::read_file(path);
  load_params(model, bytes);
}

}  // namespace orco::nn
