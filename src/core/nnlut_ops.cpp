#include "core/nnlut_ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "runtime/thread_pool.h"

namespace nnlut {

namespace {

constexpr float kScale = 1024.0f;  // LayerNorm input-scaling factor S = 2^10
constexpr float kEps = 1e-5f;      // LayerNorm variance epsilon

/// Exact mean and variance of one row (the MAC-array work), accumulated in
/// double exactly like the reference implementation.
void row_moments(const float* x, std::size_t n, float& mean_out,
                 float& var_out) {
  double mean = 0.0;
  for (std::size_t j = 0; j < n; ++j) mean += x[j];
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double d = x[j] - mean;
    var += d * d;
  }
  var /= static_cast<double>(n);
  mean_out = static_cast<float>(mean);
  var_out = static_cast<float>(var);
}

void affine_row(const float* x, float* y, std::size_t n, float mean, float inv,
                std::span<const float> gamma, std::span<const float> beta) {
  for (std::size_t j = 0; j < n; ++j) {
    float v = (x[j] - mean) * inv;
    if (!gamma.empty()) v *= gamma[j];
    if (!beta.empty()) v += beta[j];
    y[j] = v;
  }
}

// Per-thread block scratch. The rows_block kernels run either on the caller
// or on pool worker threads, both long-lived, so once a thread has seen the
// largest block of a warmed serving slot these never reallocate. Every
// element is (re)written before it is read, so recycled contents cannot
// leak into results.
thread_local std::vector<float> t_softmax_inv;
thread_local std::vector<float> t_ln_mean;
thread_local std::vector<float> t_ln_vs;
thread_local std::vector<unsigned char> t_ln_scaled;

}  // namespace

void SoftmaxApprox::rows(std::span<float> data, std::size_t nrows,
                         std::size_t ncols) const {
  assert(data.size() == nrows * ncols);
  if (nrows == 0 || ncols == 0) return;
  // Rows are independent: shard row blocks across the pool, each block
  // running the batched three-pass kernel over its sub-span.
  runtime::parallel_for(0, nrows, runtime::grain_for(3 * ncols),
                        [&](std::size_t r0, std::size_t r1) {
                          rows_block(data.data() + r0 * ncols, r1 - r0, ncols);
                        });
}

void SoftmaxApprox::rows_block(float* data, std::size_t nrows,
                               std::size_t ncols) const {
  for (std::size_t r = 0; r < nrows; ++r) {
    float* row = data + r * ncols;
    float mx = row[0];
    for (std::size_t j = 1; j < ncols; ++j) mx = std::max(mx, row[j]);
    for (std::size_t j = 0; j < ncols; ++j)
      row[j] = std::clamp(row[j] - mx, kExpRange.lo, kExpRange.hi);
  }
  // One EXP LUT pass over every shifted logit of every row in the block.
  exp_fn_->eval_inplace(std::span<float>(data, nrows * ncols));
  std::vector<float>& inv = t_softmax_inv;
  inv.resize(nrows);
  for (std::size_t r = 0; r < nrows; ++r) {
    const float* row = data + r * ncols;
    float sum = 0.0f;
    for (std::size_t j = 0; j < ncols; ++j) sum += row[j];
    inv[r] = sum;
  }
  // One Divide LUT pass over all the block's row normalizers. Each lies in
  // [1, ncols] because the row max maps to exp(0) = 1; Table 1 trains the
  // Divide LUT on (1, 1024) for exactly this.
  recip_fn_->eval_inplace(inv);
  for (std::size_t r = 0; r < nrows; ++r) {
    float* row = data + r * ncols;
    for (std::size_t j = 0; j < ncols; ++j) row[j] *= inv[r];
  }
}

float LayerNormApprox::inv_std(float v) const {
  if (opt_.input_scaling && v < 1.0f) {
    // v*S stays within the trained range (0.1, 1024) for v > S^-1; smaller
    // variances saturate at the LUT boundary, which is the intended
    // behaviour of the power-of-two pre-scaler.
    return rsqrt_fn_->eval(v * kScale) * std::sqrt(kScale);
  }
  return rsqrt_fn_->eval(v);
}

void LayerNormApprox::rows(std::span<const float> x, std::span<float> y,
                           std::size_t nrows, std::size_t ncols,
                           std::span<const float> gamma,
                           std::span<const float> beta) const {
  assert(x.size() == nrows * ncols && y.size() == nrows * ncols);
  if (nrows == 0 || ncols == 0) return;
  if (!opt_.allow_parallel) {
    rows_block(x.data(), y.data(), nrows, ncols, gamma, beta);
    return;
  }
  runtime::parallel_for(0, nrows, runtime::grain_for(4 * ncols),
                        [&](std::size_t r0, std::size_t r1) {
                          rows_block(x.data() + r0 * ncols,
                                     y.data() + r0 * ncols, r1 - r0, ncols,
                                     gamma, beta);
                        });
}

void LayerNormApprox::rows_block(const float* x, float* y, std::size_t nrows,
                                 std::size_t ncols,
                                 std::span<const float> gamma,
                                 std::span<const float> beta) const {
  std::vector<float>& mean = t_ln_mean;
  std::vector<float>& vs = t_ln_vs;
  std::vector<unsigned char>& scaled = t_ln_scaled;
  mean.resize(nrows);
  vs.resize(nrows);
  scaled.assign(nrows, 0);  // assign, not resize: stale 1s must clear
  for (std::size_t r = 0; r < nrows; ++r) {
    float m = 0.0f, v = 0.0f;
    row_moments(x + r * ncols, ncols, m, v);
    mean[r] = m;
    vs[r] = v + kEps;
    if (opt_.input_scaling && vs[r] < 1.0f) {
      vs[r] = vs[r] * kScale;
      scaled[r] = 1;
    }
  }
  // One 1/SQRT LUT pass over every (pre-scaled) row variance.
  rsqrt_fn_->eval_inplace(vs);
  const float root_s = std::sqrt(kScale);
  for (std::size_t r = 0; r < nrows; ++r) {
    const float inv = scaled[r] ? vs[r] * root_s : vs[r];
    affine_row(x + r * ncols, y + r * ncols, ncols, mean[r], inv, gamma, beta);
  }
}

}  // namespace nnlut
