#include "core/messages.h"

#include <cstring>

#include "common/check.h"

namespace orco::core {

void write_tensor(common::ByteWriter& writer, const Tensor& t) {
  writer.write_u64(t.rank());
  for (std::size_t d = 0; d < t.rank(); ++d) writer.write_u64(t.dim(d));
  writer.write_f32_span(t.data());
}

Tensor read_tensor(common::ByteReader& reader) {
  const std::uint64_t rank = reader.read_u64();
  ORCO_CHECK(rank <= 4, "tensor rank too large: " << rank);
  tensor::Shape shape(rank);
  for (auto& d : shape) d = reader.read_u64();
  // Checked against the shape before the tensor is sized from it.
  const std::span<const std::byte> values = reader.read_view(sizeof(float));
  const std::size_t numel = tensor::shape_numel(shape);
  ORCO_CHECK(values.size() / sizeof(float) == numel,
             "data size " << values.size() / sizeof(float)
                          << " does not match shape "
                          << tensor::shape_to_string(shape));
  Tensor out(std::move(shape));
  if (numel > 0) std::memcpy(out.data().data(), values.data(), values.size());
  return out;
}

std::vector<std::byte> LatentBatchMsg::serialize() const {
  common::ByteWriter w;
  w.write_u64(round);
  write_tensor(w, latents);
  return w.bytes();
}

LatentBatchMsg LatentBatchMsg::deserialize(std::span<const std::byte> bytes) {
  common::ByteReader r(bytes);
  LatentBatchMsg msg;
  msg.round = r.read_u64();
  msg.latents = read_tensor(r);
  return msg;
}

std::vector<std::byte> ReconstructionMsg::serialize() const {
  common::ByteWriter w;
  w.write_u64(round);
  write_tensor(w, reconstructions);
  return w.bytes();
}

ReconstructionMsg ReconstructionMsg::deserialize(
    std::span<const std::byte> bytes) {
  common::ByteReader r(bytes);
  ReconstructionMsg msg;
  msg.round = r.read_u64();
  msg.reconstructions = read_tensor(r);
  return msg;
}

std::vector<std::byte> ResidualMsg::serialize() const {
  common::ByteWriter w;
  w.write_u64(round);
  write_tensor(w, residuals);
  return w.bytes();
}

ResidualMsg ResidualMsg::deserialize(std::span<const std::byte> bytes) {
  common::ByteReader r(bytes);
  ResidualMsg msg;
  msg.round = r.read_u64();
  msg.residuals = read_tensor(r);
  return msg;
}

std::vector<std::byte> LatentGradMsg::serialize() const {
  common::ByteWriter w;
  w.write_u64(round);
  w.write_f32(loss);
  write_tensor(w, latent_grad);
  return w.bytes();
}

LatentGradMsg LatentGradMsg::deserialize(std::span<const std::byte> bytes) {
  common::ByteReader r(bytes);
  LatentGradMsg msg;
  msg.round = r.read_u64();
  msg.loss = r.read_f32();
  msg.latent_grad = read_tensor(r);
  return msg;
}

std::vector<std::byte> EncoderShareMsg::serialize() const {
  common::ByteWriter w;
  w.write_u64(device);
  write_tensor(w, column);
  write_tensor(w, bias);
  return w.bytes();
}

EncoderShareMsg EncoderShareMsg::deserialize(
    std::span<const std::byte> bytes) {
  common::ByteReader r(bytes);
  EncoderShareMsg msg;
  msg.device = r.read_u64();
  msg.column = read_tensor(r);
  msg.bias = read_tensor(r);
  return msg;
}

}  // namespace orco::core
