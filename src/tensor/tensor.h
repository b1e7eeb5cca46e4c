#ifndef VIST5_TENSOR_TENSOR_H_
#define VIST5_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace vist5 {

/// Shared storage + autograd node behind a Tensor handle.
struct TensorImpl {
  std::vector<int> shape;
  std::vector<float> data;
  /// Gradient buffer; allocated lazily on first accumulation.
  std::vector<float> grad;
  /// Bumped on every mutable_data() access. Lets derived-value caches
  /// (e.g. the tied-embedding transpose in Transformer::Logits) detect
  /// in-place weight updates — optimizer steps, checkpoint loads — without
  /// hashing the contents.
  uint64_t data_version = 0;
  bool requires_grad = false;
  /// Propagates this node's grad into its parents' grads. It reaches this
  /// node by raw pointer (it lives inside it), so a graph holds no cycle
  /// and is freed with its last handle.
  std::function<void()> backward_fn;
  /// Autograd graph edges (inputs that produced this tensor).
  std::vector<std::shared_ptr<TensorImpl>> parents;

  int64_t NumElements() const {
    int64_t n = 1;
    for (int d : shape) n *= d;
    return n;
  }

  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

/// Dense float32 tensor with reverse-mode automatic differentiation.
///
/// Value-semantic handle over shared storage: copying a Tensor aliases the
/// same buffer, mirroring the torch.Tensor model. Supports up to 4-D shapes,
/// which is all an encoder-decoder transformer needs ([B, H, Tq, Tk]
/// attention scores being the deepest case).
class Tensor {
 public:
  /// Null handle; `defined()` is false.
  Tensor() = default;

  /// Uninitialized (zero-filled) tensor of `shape`.
  explicit Tensor(std::vector<int> shape, bool requires_grad = false);

  /// Tensor with explicit contents; `data.size()` must match the shape.
  Tensor(std::vector<int> shape, std::vector<float> data,
         bool requires_grad = false);

  static Tensor Zeros(std::vector<int> shape, bool requires_grad = false);
  static Tensor Full(std::vector<int> shape, float value,
                     bool requires_grad = false);
  /// I.i.d. N(0, stddev^2) entries drawn from `rng`.
  static Tensor Randn(std::vector<int> shape, float stddev, Rng* rng,
                      bool requires_grad = false);
  /// Scalar (shape {1}) tensor.
  static Tensor Scalar(float value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  const std::vector<int>& shape() const { return impl_->shape; }
  int dim(int i) const;
  int ndim() const { return static_cast<int>(impl_->shape.size()); }
  int64_t NumElements() const { return impl_->NumElements(); }

  const std::vector<float>& data() const { return impl_->data; }
  std::vector<float>& mutable_data() {
    ++impl_->data_version;
    return impl_->data;
  }
  /// Current mutation counter; see TensorImpl::data_version.
  uint64_t data_version() const { return impl_->data_version; }
  const std::vector<float>& grad() const { return impl_->grad; }
  std::vector<float>& mutable_grad() {
    impl_->EnsureGrad();
    return impl_->grad;
  }

  float item() const {
    VIST5_CHECK_EQ(NumElements(), 1);
    return impl_->data[0];
  }

  bool requires_grad() const { return impl_->requires_grad; }
  void set_requires_grad(bool v) { impl_->requires_grad = v; }

  /// Runs reverse-mode autodiff from this (scalar) tensor through the
  /// recorded graph, accumulating into each reachable node's grad buffer.
  void Backward();

  /// Drops autograd history (parents + backward_fn) for the whole reachable
  /// graph, releasing intermediate activations.
  void DetachGraph();

  std::shared_ptr<TensorImpl>& impl() { return impl_; }
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

  /// Debug string like "Tensor[2, 3]".
  std::string ShapeString() const;

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// RAII guard disabling autograd graph construction (inference mode).
/// Nested guards are supported.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// True when gradient recording is enabled (no NoGradGuard active).
bool GradEnabled();

/// Storage precision the inference weight matrices are read at.
/// kFloat32 is the training/default representation; kInt8 selects the
/// quantize-at-load path (per-output-channel symmetric int8,
/// docs/KERNELS.md) on layers that support it. Requested per decode via
/// GenerationOptions::weight_dtype.
enum class WeightDtype {
  kFloat32 = 0,
  kInt8 = 1,
};

/// "float32" / "int8".
const char* WeightDtypeName(WeightDtype dtype);

/// RAII guard selecting the weight dtype for the current thread's
/// inference ops (mirrors NoGradGuard). Layers consult
/// ActiveWeightDtype() inside Forward; training paths ignore it — the
/// int8 read path additionally requires grads to be disabled.
class WeightDtypeGuard {
 public:
  explicit WeightDtypeGuard(WeightDtype dtype);
  ~WeightDtypeGuard();
  WeightDtypeGuard(const WeightDtypeGuard&) = delete;
  WeightDtypeGuard& operator=(const WeightDtypeGuard&) = delete;

 private:
  WeightDtype previous_;
};

/// The weight dtype in effect on this thread (kFloat32 unless a
/// WeightDtypeGuard says otherwise).
WeightDtype ActiveWeightDtype();

}  // namespace vist5

#endif  // VIST5_TENSOR_TENSOR_H_
