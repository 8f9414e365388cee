// Drop-in replacements for the transformer's non-linear operations, composed
// from scalar approximators exactly as the paper deploys them:
//   GELU      -> one LUT on (-5, 5)
//   Softmax   -> EXP LUT on (x - max) plus a reciprocal ("Divide") LUT on the
//                normalizer (Sec. 3.3.1, Table 1)
//   LayerNorm -> exact mean/variance (MAC-array work) plus a 1/SQRT LUT with
//                power-of-two input scaling for small variances (Sec. 3.3.2)
//
// GELU needs no wrapper: it is elementwise, so callers run the GELU
// ScalarFn's eval_inplace over the whole tensor. Softmax and LayerNorm are
// row ops with one entry point each, rows(), which evaluates a whole
// [rows x cols] block with one backend call per LUT (all shifted logits
// through the EXP LUT at once, all row normalizers through the Divide LUT at
// once, all row variances through the 1/SQRT LUT at once). A single row is
// rows(x, 1, n).
#pragma once

#include <cstddef>
#include <span>

#include "core/scalar_fn.h"
#include "numerics/math.h"

namespace nnlut {

/// Softmax replacement: y_i = explut(x_i - max) * reciplut(sum_j explut(...)).
///
/// Inputs to the EXP LUT are clipped to kExpRange, the Table-1 training
/// range. The paper's hardware assumes inputs pre-scaled to the unit's
/// covered range (Sec. 5.1); exp(-256) underflows FP32 anyway, so the clip
/// changes nothing mathematically but keeps linear extrapolation of the
/// leftmost segment from injecting garbage for extreme logits.
class SoftmaxApprox {
 public:
  SoftmaxApprox(const ScalarFn& exp_fn, const ScalarFn& recip_fn)
      : exp_fn_(&exp_fn), recip_fn_(&recip_fn) {}

  /// `nrows` contiguous rows of length `ncols`, in place. Row blocks are
  /// sharded across the runtime thread pool (rows are independent, so the
  /// result is bit-identical for any pool size); each block runs one EXP LUT
  /// call over all its shifted logits and one Divide LUT call over all its
  /// normalizers.
  void rows(std::span<float> data, std::size_t nrows, std::size_t ncols) const;

 private:
  void rows_block(float* data, std::size_t nrows, std::size_t ncols) const;

  const ScalarFn* exp_fn_;
  const ScalarFn* recip_fn_;
};

/// LayerNorm replacement. Mean/variance stay exact (they are dot products the
/// MAC array computes); only 1/sqrt(var + eps) goes through the LUT.
///
/// Input scaling (Sec. 3.3.2): the LUT is trained on (0.1, 1024). When the
/// variance v < 1, evaluate lut(v * S) * sqrt(S) with S = 2^10 so the LUT
/// only ever sees its well-trained monotonous range; S power-of-two makes
/// the scaling a bit-shift in hardware. eps = 1e-5.
class LayerNormApprox {
 public:
  struct Options {
    bool input_scaling = true;
    // Disable when the rsqrt ScalarFn is stateful (e.g. a CapturingFn whose
    // sink must see rows in order from one thread): rows() then runs the
    // whole block on the calling thread instead of sharding it.
    bool allow_parallel = true;
  };

  explicit LayerNormApprox(const ScalarFn& rsqrt_fn)
      : rsqrt_fn_(&rsqrt_fn), opt_() {}
  LayerNormApprox(const ScalarFn& rsqrt_fn, Options opt)
      : rsqrt_fn_(&rsqrt_fn), opt_(opt) {}

  /// `nrows` contiguous rows of length `ncols`, sharded row-blockwise across
  /// the runtime thread pool (bit-identical for any pool size): each block
  /// computes exact per-row mean/variance, then ONE 1/SQRT LUT call over all
  /// its row variances.
  void rows(std::span<const float> x, std::span<float> y, std::size_t nrows,
            std::size_t ncols, std::span<const float> gamma,
            std::span<const float> beta) const;

  /// The (possibly input-scaled) 1/sqrt evaluation on variance v.
  float inv_std(float v) const;

 private:
  void rows_block(const float* x, float* y, std::size_t nrows,
                  std::size_t ncols, std::span<const float> gamma,
                  std::span<const float> beta) const;

  const ScalarFn* rsqrt_fn_;
  Options opt_;
};

}  // namespace nnlut
