#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/backend.h"

namespace orco::tensor {

std::size_t shape_numel(const Shape& shape) {
  if (shape.empty()) return 0;
  std::size_t n = 1;
  for (const auto d : shape) {
    ORCO_CHECK(!__builtin_mul_overflow(n, d, &n),
               "shape " << shape_to_string(shape) << " overflows size_t");
  }
  return n;
}

void fill_uniform(std::span<float> out, common::Pcg32& rng, float lo,
                  float hi) {
  const std::size_t n = out.size();
  const std::size_t chunks = (n + kFillChunk - 1) / kFillChunk;
  // Fills chunks [c0, c1) from one copy of rng jumped to chunk c0's draw.
  const auto fill_chunks = [&](std::size_t c0, std::size_t c1) {
    common::Pcg32 chunk_rng = rng;
    chunk_rng.advance(c0 * kFillChunk);
    const std::size_t end = std::min(n, c1 * kFillChunk);
    for (std::size_t i = c0 * kFillChunk; i < end; ++i) {
      out[i] = chunk_rng.uniform(lo, hi);
    }
  };
  common::ThreadPool* pool = chunks >= 2 && thread_gemm_parallelism()
                                 ? &common::ThreadPool::global()
                                 : nullptr;
  common::parallel_for(pool, 0, chunks, /*grain=*/2, fill_chunks);
  rng.advance(n);
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {}

Tensor::Tensor(Shape shape, const std::vector<float>& data)
    : Tensor(copy_of(std::move(shape), data.data(),
                     data.data() + data.size())) {}

Tensor Tensor::copy_of(Shape shape, const float* first, const float* last) {
  const auto n = static_cast<std::size_t>(last - first);
  ORCO_CHECK(n == shape_numel(shape), "data size " << n
                                                   << " does not match shape "
                                                   << shape_to_string(shape));
  Tensor out;
  out.shape_ = std::move(shape);
  out.data_.assign(first, last);
  return out;
}

Tensor Tensor::randn(Shape shape, common::Pcg32& rng, float mean,
                     float stddev) {
  Tensor out(std::move(shape));
  for (auto& v : out.data_) {
    v = static_cast<float>(rng.normal(mean, stddev));
  }
  return out;
}

Tensor Tensor::uniform(Shape shape, common::Pcg32& rng, float lo, float hi) {
  Tensor out(std::move(shape));
  fill_uniform(out.data(), rng, lo, hi);
  return out;
}

Tensor Tensor::from(std::initializer_list<float> values) {
  return copy_of({values.size()}, values.begin(), values.end());
}

Tensor Tensor::from2d(
    std::initializer_list<std::initializer_list<float>> rows) {
  ORCO_CHECK(rows.size() > 0, "from2d requires at least one row");
  const std::size_t cols = rows.begin()->size();
  Tensor out({rows.size(), cols});
  float* dst = out.data_.data();
  for (const auto& r : rows) {
    ORCO_CHECK(r.size() == cols, "ragged initialiser list");
    dst = std::copy(r.begin(), r.end(), dst);
  }
  return out;
}

std::size_t Tensor::dim(std::size_t d) const {
  ORCO_CHECK(d < shape_.size(),
             "dim " << d << " out of range for " << shape_to_string(shape_));
  return shape_[d];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  Tensor out = *this;
  out.reshape(std::move(new_shape));
  return out;
}

void Tensor::reshape(Shape new_shape) {
  ORCO_CHECK(shape_numel(new_shape) == data_.size(),
             "cannot reshape " << shape_to_string(shape_) << " ("
                               << data_.size() << " elems) to "
                               << shape_to_string(new_shape));
  shape_ = std::move(new_shape);
}

void Tensor::resize(Shape new_shape) {
  data_.resize(shape_numel(new_shape));
  shape_ = std::move(new_shape);
}

void Tensor::resize(std::size_t rows, std::size_t cols) {
  data_.resize(rows * cols);
  shape_.resize(2);  // allocation-free once the vector has ever held rank 2
  shape_[0] = rows;
  shape_[1] = cols;
}

void Tensor::resize_like(const Tensor& other) {
  data_.resize(other.numel());
  const Shape& src = other.shape();
  shape_.resize(src.size());
  std::copy(src.begin(), src.end(), shape_.begin());
}

float& Tensor::at(std::size_t i, std::size_t j) {
  ORCO_CHECK(rank() == 2, "at(i,j) requires rank 2, got "
                              << shape_to_string(shape_));
  ORCO_CHECK(i < shape_[0] && j < shape_[1],
             "index (" << i << "," << j << ") out of " << shape_to_string(shape_));
  return data_[i * shape_[1] + j];
}

float Tensor::at(std::size_t i, std::size_t j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

float& Tensor::at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
  ORCO_CHECK(rank() == 4, "at(n,c,h,w) requires rank 4, got "
                              << shape_to_string(shape_));
  ORCO_CHECK(n < shape_[0] && c < shape_[1] && h < shape_[2] && w < shape_[3],
             "index (" << n << "," << c << "," << h << "," << w << ") out of "
                       << shape_to_string(shape_));
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

float Tensor::at(std::size_t n, std::size_t c, std::size_t h,
                 std::size_t w) const {
  return const_cast<Tensor*>(this)->at(n, c, h, w);
}

std::span<float> Tensor::row(std::size_t i) {
  ORCO_CHECK(rank() == 2, "row() requires rank 2, got "
                              << shape_to_string(shape_));
  ORCO_CHECK(i < shape_[0], "row " << i << " out of " << shape_[0]);
  return std::span<float>(data_).subspan(i * shape_[1], shape_[1]);
}

std::span<const float> Tensor::row(std::size_t i) const {
  return const_cast<Tensor*>(this)->row(i);
}

Tensor Tensor::slice_rows(std::size_t begin, std::size_t end) const {
  ORCO_CHECK(rank() == 2, "slice_rows requires rank 2");
  ORCO_CHECK(begin <= end && end <= shape_[0],
             "bad row range [" << begin << "," << end << ") of " << shape_[0]);
  const std::size_t cols = shape_[1];
  return copy_of({end - begin, cols}, data_.data() + begin * cols,
                 data_.data() + end * cols);
}

Tensor Tensor::row_copy(std::size_t i) const {
  ORCO_CHECK(rank() == 2, "row_copy requires rank 2");
  ORCO_CHECK(i < shape_[0], "row " << i << " out of " << shape_[0]);
  const std::size_t cols = shape_[1];
  return copy_of({cols}, data_.data() + i * cols, data_.data() + (i + 1) * cols);
}

Tensor Tensor::slice_outer(std::size_t n) const {
  ORCO_CHECK(rank() >= 1, "slice_outer requires rank >= 1");
  ORCO_CHECK(n < shape_[0], "outer index " << n << " out of " << shape_[0]);
  // Branch before constructing (instead of `inner = {1}` after): GCC 12's
  // -Wfree-nonheap-object misfires on the initializer-list reassignment.
  Shape inner;
  if (shape_.size() > 1) {
    inner.assign(shape_.begin() + 1, shape_.end());
  } else {
    inner.assign(1, 1);
  }
  const std::size_t stride = shape_numel(inner);
  return copy_of(std::move(inner), data_.data() + n * stride,
                 data_.data() + (n + 1) * stride);
}

void Tensor::set_outer(std::size_t n, const Tensor& src) {
  ORCO_CHECK(rank() >= 1 && n < shape_[0],
             "outer index " << n << " out of range");
  // Branch before constructing (instead of `inner = {1}` after): GCC 12's
  // -Wfree-nonheap-object misfires on the initializer-list reassignment.
  Shape inner;
  if (shape_.size() > 1) {
    inner.assign(shape_.begin() + 1, shape_.end());
  } else {
    inner.assign(1, 1);
  }
  ORCO_CHECK(src.numel() == shape_numel(inner),
             "slice size mismatch: " << src.numel() << " vs "
                                     << shape_numel(inner));
  std::copy(src.data_.begin(), src.data_.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(n * src.numel()));
}

void Tensor::check_same_shape(const Tensor& rhs, const char* op) const {
  ORCO_CHECK(shape_ == rhs.shape_,
             op << ": shape mismatch " << shape_to_string(shape_) << " vs "
                << shape_to_string(rhs.shape_));
}

Tensor Tensor::operator+(const Tensor& rhs) const {
  check_same_shape(rhs, "operator+");
  Tensor out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Tensor Tensor::operator-(const Tensor& rhs) const {
  check_same_shape(rhs, "operator-");
  Tensor out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Tensor Tensor::operator*(const Tensor& rhs) const {
  check_same_shape(rhs, "operator*");
  Tensor out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] *= rhs.data_[i];
  return out;
}

Tensor Tensor::operator*(float s) const {
  Tensor out = *this;
  for (auto& v : out.data_) v *= s;
  return out;
}

Tensor Tensor::operator+(float s) const {
  Tensor out = *this;
  for (auto& v : out.data_) v += s;
  return out;
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
  check_same_shape(rhs, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  check_same_shape(rhs, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

void Tensor::add_scaled(const Tensor& rhs, float alpha) {
  check_same_shape(rhs, "add_scaled");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * rhs.data_[i];
  }
}

float Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0f);
}

float Tensor::mean() const {
  ORCO_CHECK(!data_.empty(), "mean of empty tensor");
  // Accumulate in double: float accumulation loses precision at bench sizes.
  double acc = 0.0;
  for (const auto v : data_) acc += v;
  return static_cast<float>(acc / static_cast<double>(data_.size()));
}

float Tensor::min() const {
  ORCO_CHECK(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  ORCO_CHECK(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

std::size_t Tensor::argmax() const {
  ORCO_CHECK(!data_.empty(), "argmax of empty tensor");
  return static_cast<std::size_t>(
      std::distance(data_.begin(), std::max_element(data_.begin(), data_.end())));
}

float Tensor::l2_norm() const {
  double acc = 0.0;
  for (const auto v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (const auto v : data_) m = std::max(m, std::fabs(v));
  return m;
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Tensor Tensor::transposed() const {
  ORCO_CHECK(rank() == 2, "transposed requires rank 2, got "
                              << shape_to_string(shape_));
  const std::size_t r = shape_[0];
  const std::size_t c = shape_[1];
  Tensor out({c, r});
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      out.data_[j * r + i] = data_[i * c + j];
    }
  }
  return out;
}

bool Tensor::allclose(const Tensor& other, float atol) const {
  if (shape_ != other.shape_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > atol) return false;
  }
  return true;
}

}  // namespace orco::tensor
