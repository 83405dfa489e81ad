// Dense row-major float tensor with value semantics.
//
// This is the numeric substrate for the whole repository: the NN library,
// the synthetic datasets, and the orchestration protocol all move data as
// Tensors. Only float32 and contiguous layout are supported — the models in
// the paper (dense + small conv nets on 28x28/32x32 images) need nothing
// more, and the simplicity keeps every kernel easy to verify. Storage comes
// from tensor/buffer.h: 64-byte aligned, and a tensor of 2 MiB or more sits
// on its own huge-page-advised mapping.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/buffer.h"

namespace orco::tensor {

using Shape = std::vector<std::size_t>;

/// Values per chunk of fill_uniform: the unit one pool task fills.
inline constexpr std::size_t kFillChunk = std::size_t{1} << 16;

/// out[i] = rng.uniform(lo, hi) from the generator's i-th draw, so the
/// values, and `rng`'s state afterwards, equal the serial loop's bit for
/// bit. Chunk c (kFillChunk values) fills from a copy of `rng` advanced by
/// c * kFillChunk draws (Pcg32::advance); with at least 2 chunks and the
/// calling thread's pool switch on (set_thread_gemm_parallelism, backend.h)
/// the chunks run on ThreadPool::global(), otherwise inline. At the end
/// `rng` is advanced by out.size(). Values lie in [lo, hi] (Pcg32::uniform).
void fill_uniform(std::span<float> out, common::Pcg32& rng, float lo,
                  float hi);

/// Number of elements implied by a shape (empty shape -> 0 elements).
std::size_t shape_numel(const Shape& shape);

/// Human-readable "[2, 3, 4]" form for error messages.
std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  /// Empty tensor (numel 0, rank 0).
  Tensor() = default;

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Constant-filled tensor.
  Tensor(Shape shape, float fill);

  /// Copies `data` into the tensor's storage; data.size() must equal
  /// shape's numel.
  Tensor(Shape shape, const std::vector<float>& data);

  // -- factories --------------------------------------------------------

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }

  /// I.i.d. N(mean, stddev^2) entries.
  static Tensor randn(Shape shape, common::Pcg32& rng, float mean = 0.0f,
                      float stddev = 1.0f);

  /// I.i.d. U[lo, hi] entries (fill_uniform: chunked, pooled, and equal
  /// to the serial draw order bit for bit).
  static Tensor uniform(Shape shape, common::Pcg32& rng, float lo = 0.0f,
                        float hi = 1.0f);

  /// 1-D tensor from an initialiser list (convenience for tests).
  static Tensor from(std::initializer_list<float> values);

  /// 2-D tensor from nested initialiser lists (convenience for tests).
  static Tensor from2d(std::initializer_list<std::initializer_list<float>> rows);

  // -- shape ------------------------------------------------------------

  const Shape& shape() const noexcept { return shape_; }
  std::size_t rank() const noexcept { return shape_.size(); }
  std::size_t numel() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  /// Extent along dimension d (bounds-checked).
  std::size_t dim(std::size_t d) const;

  /// Returns a tensor with the same data and a new shape (same numel).
  Tensor reshaped(Shape new_shape) const;

  /// In-place reshape (same numel required).
  void reshape(Shape new_shape);

  /// Re-shapes to `new_shape`, changing numel if needed. Existing storage
  /// capacity is reused — no heap traffic unless numel grows beyond the
  /// high-water mark — which makes this the buffer-recycling primitive of
  /// the zero-allocation inference path (InferContext's ping-pong
  /// activation buffers). Element values are unspecified after a size
  /// change (grown elements are zero, kept elements retain old data);
  /// callers overwrite the whole buffer. NOTE: the Shape parameter itself
  /// is a heap-backed vector — steady-state hot paths use the rank-2 /
  /// resize_like overloads below, whose arguments never allocate.
  void resize(Shape new_shape);

  /// Rank-2 resize without constructing a Shape: the layer-kernel form
  /// (every infer_into output is (batch, features)). Reuses the shape
  /// vector's storage, so a warmed tensor resizes with zero allocations.
  void resize(std::size_t rows, std::size_t cols);

  /// Resizes to `other`'s shape, reusing the shape vector's storage when
  /// the ranks already agree (the elementwise-layer case).
  void resize_like(const Tensor& other);

  // -- element access ---------------------------------------------------

  std::span<float> data() noexcept { return data_; }
  std::span<const float> data() const noexcept { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Bounds-checked 2-D access (rank must be 2).
  float& at(std::size_t i, std::size_t j);
  float at(std::size_t i, std::size_t j) const;

  /// Bounds-checked 4-D access (rank must be 4), layout (N, C, H, W).
  float& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
  float at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;

  /// Span over row i of a rank-2 tensor.
  std::span<float> row(std::size_t i);
  std::span<const float> row(std::size_t i) const;

  /// Copies rows [begin, end) of a rank-2 tensor into a new tensor.
  Tensor slice_rows(std::size_t begin, std::size_t end) const;

  /// Copies row i of a rank-2 tensor into a new rank-1 tensor — one sized
  /// allocation + one memcpy (slice_rows(i, i+1).reshaped(...) costs two of
  /// each). The serve fan-out unpacks batched decodes with this.
  Tensor row_copy(std::size_t i) const;

  /// Copies the n-th outermost slice (e.g. one image of an (N,C,H,W) batch),
  /// dropping the leading dimension.
  Tensor slice_outer(std::size_t n) const;

  /// Writes `src` into the n-th outermost slice; shapes must match.
  void set_outer(std::size_t n, const Tensor& src);

  // -- arithmetic (value-returning; shapes must match exactly) ----------

  Tensor operator+(const Tensor& rhs) const;
  Tensor operator-(const Tensor& rhs) const;
  Tensor operator*(const Tensor& rhs) const;  // elementwise (Hadamard)
  Tensor operator*(float s) const;
  Tensor operator+(float s) const;

  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(float s);

  /// this += alpha * rhs (axpy).
  void add_scaled(const Tensor& rhs, float alpha);

  // -- reductions & maps ------------------------------------------------

  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// Index of the maximum element (first on ties).
  std::size_t argmax() const;
  /// L2 norm of all elements.
  float l2_norm() const;
  /// Max |element|.
  float abs_max() const;

  /// Returns f applied elementwise.
  template <typename F>
  Tensor map(F&& f) const {
    Tensor out(shape_);
    for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = f(data_[i]);
    return out;
  }

  /// Applies f elementwise in place.
  template <typename F>
  void apply(F&& f) {
    for (auto& v : data_) v = f(v);
  }

  void fill(float v);

  /// 2-D transpose (copy).
  Tensor transposed() const;

  /// True iff shapes match and all elements are within atol.
  bool allclose(const Tensor& other, float atol = 1e-5f) const;

 private:
  void check_same_shape(const Tensor& rhs, const char* op) const;

  /// A tensor holding a copy of [first, last), which must hold shape's numel.
  static Tensor copy_of(Shape shape, const float* first, const float* last);

  Shape shape_;
  Buffer<float> data_;
};

}  // namespace orco::tensor
