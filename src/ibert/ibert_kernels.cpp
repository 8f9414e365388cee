#include "ibert/ibert_kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "runtime/thread_pool.h"

namespace nnlut::ibert {

namespace {
/// Saturating float -> int64 for scale-derived grid constants (q_b, q_c,
/// q_ln2, clip bounds): casting a float beyond int64 range is UB, which a
/// pathologically fine or coarse scale would otherwise trigger. Values within
/// the row-level kernels' floored scales never saturate (see row_scale).
std::int64_t sat_q(float x) {
  constexpr float kLim = 4.0e18f;  // < 2^62, exactly representable as float
  if (std::isnan(x)) return 0;
  return static_cast<std::int64_t>(std::clamp(x, -kLim, kLim));
}
}  // namespace

QValue i_poly(QValue in, float a, float b, float c) {
  const std::int64_t qb = sat_q(std::floor(b / in.s));
  const float s_out = a * in.s * in.s;
  const std::int64_t qc = sat_q(std::floor(c / s_out));
  const std::int64_t base = in.q + qb;
  QValue out;
  out.q = base * base + qc;
  out.s = s_out;
  return out;
}

QValue i_erf(QValue in) {
  constexpr float a = -0.2888f;
  constexpr float b = -1.769f;
  constexpr float c = 1.0f;

  const std::int64_t sgn = in.q >= 0 ? 1 : -1;
  const std::int64_t q_abs = std::abs(in.q);
  // Clip |x| at -b = 1.769 where the polynomial reaches erf's plateau.
  const std::int64_t q_clip_max = sat_q(std::floor(-b / in.s));
  QValue clipped;
  clipped.q = std::min(q_abs, q_clip_max);
  clipped.s = in.s;

  QValue l = i_poly(clipped, a, b, c);
  l.q *= sgn;
  return l;
}

QValue i_gelu(QValue in) {
  QValue x_for_erf;
  x_for_erf.q = in.q;
  x_for_erf.s = in.s / static_cast<float>(M_SQRT2);
  const QValue erf = i_erf(x_for_erf);

  const std::int64_t q_one = sat_q(std::floor(1.0f / erf.s));
  QValue out;
  out.q = in.q * (erf.q + q_one);
  out.s = in.s * erf.s / 2.0f;
  return out;
}

QValue i_exp(QValue in) {
  constexpr float a = 0.3585f;
  constexpr float b = 1.353f;
  constexpr float c = 0.344f;
  constexpr float kLn2 = 0.69314718056f;

  if (in.q > 0) in.q = 0;  // softmax always feeds x - max <= 0

  // When the input scale is coarser than ln2 (s > ln2), floor(ln2 / s) is 0
  // and the range-reduction division below would divide by zero. Clamp to 1:
  // each quantization step then counts as (at least) one halving, which is
  // the closest representable behaviour on such a grid. Normal scales
  // (s <= ln2) are unaffected.
  std::int64_t q_ln2 = sat_q(std::floor(kLn2 / in.s));
  if (q_ln2 < 1) q_ln2 = 1;

  const std::int64_t z = (-in.q) / q_ln2;  // floor for non-negative operands
  QValue p;
  p.q = in.q + z * q_ln2;  // p in (-ln2, 0]
  p.s = in.s;

  QValue l = i_poly(p, a, b, c);
  l.q = l.q >> std::min<std::int64_t>(z, 62);
  return l;
}

std::int64_t i_sqrt(std::int64_t n, int max_iter) {
  if (n <= 0) return 0;
  // Initial guess 2^ceil(bits/2) >= sqrt(n) guarantees monotone descent.
  int bits = 0;
  while ((n >> bits) != 0) ++bits;
  std::int64_t x = std::int64_t{1} << ((bits + 1) / 2);
  for (int i = 0; i < max_iter; ++i) {
    const std::int64_t next = (x + n / x) >> 1;
    if (next >= x) break;  // converged (floor-sqrt reached)
    x = next;
  }
  return x;
}

int i_sqrt_iterations(std::int64_t n, int max_iter) {
  if (n <= 0) return 0;
  int bits = 0;
  while ((n >> bits) != 0) ++bits;
  std::int64_t x = std::int64_t{1} << ((bits + 1) / 2);
  for (int i = 0; i < max_iter; ++i) {
    const std::int64_t next = (x + n / x) >> 1;
    if (next >= x) return i;
    x = next;
  }
  return max_iter;
}

namespace {
/// Symmetric scale so that max finite |row| maps to 2^bits - 1. Non-finite
/// entries follow the same spirit as lut_kernel's int_quantize sanitization:
/// NaN and ±inf contribute nothing to the scale (±inf later saturates the
/// quantization budget in quantize(), i.e. behaves as "largest value on the
/// grid"; letting it drive the scale would blow up every downstream s^2).
/// The max magnitude is floored at 2^-6: scale-derived integer constants of
/// the polynomial pipelines grow as 1/s and 1/s^2, and an unbounded-fine
/// scale would push their int64 squares/products into (undefined) overflow.
/// Rows whose magnitudes all sit below the floor just land on the floor's
/// grid — near-zero inputs of these ops map to near-zero outputs anyway.
float row_scale(std::span<const float> row, int bits) {
  constexpr float kMinRowMax = 0.015625f;  // 2^-6
  float mx = 0.0f;
  for (float v : row) {
    if (!std::isfinite(v)) continue;
    mx = std::max(mx, std::abs(v));
  }
  mx = std::max(mx, kMinRowMax);
  return mx / static_cast<float>((1 << bits) - 1);
}

/// llround of a non-finite value is UB; sanitize like lut_kernel's
/// int_quantize: NaN -> 0, everything else saturates the caller's budget
/// (±inf behaves like the largest value the caller's grid represents),
/// which keeps every downstream int64 square/sum/product (i_poly, layernorm
/// variance, i_gelu's x * (erf + 1)) well-defined. gelu/layernorm pass the
/// grid budget 2^bits - 1 (finite values quantized against their own row's
/// scale never clamp); softmax passes 2^24, because its ln2/4 scale cap
/// intentionally lets coarse rows quantize beyond the nominal grid.
std::int64_t quantize(float v, float s, float lim) {
  const float q = std::round(v / s);
  if (std::isnan(q)) return 0;
  return static_cast<std::int64_t>(std::clamp(q, -lim, lim));
}

float grid_budget(int bits) { return static_cast<float>((1 << bits) - 1); }

constexpr float kSoftmaxBudget = 16777216.0f;  // 2^24
}  // namespace

namespace {
/// One softmax row with caller-provided scratch (hoisted out of the per-row
/// loop by the block API).
void softmax_span(std::span<float> row, std::vector<std::int64_t>& qe,
                  int input_bits, int out_bits) {
  if (row.empty()) return;
  // Cap the scale at ln2/4: i_exp's range reduction then always has at least
  // four grid steps per halving, so even rows with huge logit magnitudes
  // (where the nominal per-row scale would be coarser than ln2) produce a
  // valid, near-one-hot softmax instead of a degenerate all-zero table.
  // Normal attention rows (max |logit| <= ~5.7e3 at 15 bits) are unaffected.
  constexpr float kCoarsestScale = 0.25f * 0.69314718056f;
  const float s = std::min(row_scale(row, input_bits), kCoarsestScale);

  std::int64_t qmax = std::numeric_limits<std::int64_t>::min();
  for (float v : row) qmax = std::max(qmax, quantize(v, s, kSoftmaxBudget));

  // i_exp of the shifted entries; all share one output scale.
  qe.resize(row.size());
  std::int64_t qsum = 0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    QValue in{quantize(row[i], s, kSoftmaxBudget) - qmax, s};
    const QValue e = i_exp(in);
    qe[i] = e.q;
    qsum += e.q;
  }
  if (qsum <= 0) qsum = 1;

  // Fixed-point reciprocal of the integer sum. A 64-bit dividend keeps the
  // quotient fine-grained; the final right shift lands on 2^-out_bits scale.
  const int recip_bits = 62;
  const std::int64_t factor = (std::int64_t{1} << recip_bits) / qsum;
  const int shift = recip_bits - out_bits;
  const float s_out = 1.0f / static_cast<float>(std::int64_t{1} << out_bits);
  for (std::size_t i = 0; i < row.size(); ++i) {
    const std::int64_t q = (qe[i] * factor) >> shift;
    row[i] = static_cast<float>(q) * s_out;
  }
}
}  // namespace

namespace {
// Integer scratch rows, one per thread. Pool workers persist across calls,
// so after the first request of a seq bucket the resize inside the span
// kernels never reallocates — the row kernels go allocation-free at steady
// state. Each thread owns its vector outright (no sharing, TSan-clean).
thread_local std::vector<std::int64_t> t_softmax_scratch;
thread_local std::vector<std::int64_t> t_layernorm_scratch;
}  // namespace

void softmax_row(std::span<float> row, int input_bits, int out_bits) {
  softmax_span(row, t_softmax_scratch, input_bits, out_bits);
}

void softmax_rows(std::span<float> data, std::size_t nrows, std::size_t ncols,
                  int input_bits, int out_bits) {
  assert(data.size() == nrows * ncols);
  if (nrows == 0 || ncols == 0) return;
  // Per-row scales make rows fully independent: shard row blocks across the
  // pool, each shard on its own thread's scratch row.
  runtime::parallel_for(0, nrows, runtime::grain_for(8 * ncols),
                        [&](std::size_t r0, std::size_t r1) {
                          for (std::size_t r = r0; r < r1; ++r)
                            softmax_span(data.subspan(r * ncols, ncols),
                                         t_softmax_scratch, input_bits,
                                         out_bits);
                        });
}

void gelu_rows(std::span<float> data, std::size_t nrows, std::size_t ncols,
               int input_bits) {
  if (nrows == 0 || ncols == 0) return;
  assert(data.size() == nrows * ncols);
  const float budget = grid_budget(input_bits);
  runtime::parallel_for(
      0, nrows, runtime::grain_for(4 * ncols),
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          const std::span<float> row = data.subspan(r * ncols, ncols);
          const float s = row_scale(row, input_bits);
          for (std::size_t i = 0; i < ncols; ++i) {
            const QValue out = i_gelu({quantize(row[i], s, budget), s});
            row[i] = out.value();
          }
        }
      });
}

namespace {
void layernorm_span(std::span<const float> x, std::span<float> y,
                    std::span<const float> gamma, std::span<const float> beta,
                    std::vector<std::int64_t>& q, int input_bits) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  if (n == 0) return;

  const float s = row_scale(x, input_bits);
  q.resize(n);
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = quantize(x[i], s, grid_budget(input_bits));
    sum += q[i];
  }
  const std::int64_t mean =
      (sum >= 0 ? sum + static_cast<std::int64_t>(n) / 2
                : sum - static_cast<std::int64_t>(n) / 2) /
      static_cast<std::int64_t>(n);

  std::int64_t var_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    q[i] -= mean;
    var_sum += q[i] * q[i];
  }
  // std_q = sqrt(sum (q - mu)^2) = sqrt(n) * sigma_q, via integer Newton.
  std::int64_t std_q = i_sqrt(var_sum);
  if (std_q == 0) std_q = 1;

  // Fixed-point reciprocal multiply: (q_i / std_q) * sqrt(n) normalizes.
  const std::int64_t factor = (std::int64_t{1} << 31) / std_q;
  const float s_out =
      std::sqrt(static_cast<float>(n)) / static_cast<float>(std::int64_t{1} << 31);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t qo = q[i] * factor;
    float v = static_cast<float>(qo) * s_out;
    if (!gamma.empty()) v *= gamma[i];
    if (!beta.empty()) v += beta[i];
    y[i] = v;
  }
}
}  // namespace

void layernorm_row(std::span<const float> x, std::span<float> y,
                   std::span<const float> gamma, std::span<const float> beta,
                   int input_bits) {
  layernorm_span(x, y, gamma, beta, t_layernorm_scratch, input_bits);
}

void layernorm_rows(std::span<const float> x, std::span<float> y,
                    std::size_t nrows, std::size_t ncols,
                    std::span<const float> gamma, std::span<const float> beta,
                    int input_bits) {
  assert(x.size() == nrows * ncols && y.size() == nrows * ncols);
  if (nrows == 0 || ncols == 0) return;
  runtime::parallel_for(0, nrows, runtime::grain_for(6 * ncols),
                        [&](std::size_t r0, std::size_t r1) {
                          for (std::size_t r = r0; r < r1; ++r)
                            layernorm_span(x.subspan(r * ncols, ncols),
                                           y.subspan(r * ncols, ncols), gamma,
                                           beta, t_layernorm_scratch,
                                           input_bits);
                        });
}

}  // namespace nnlut::ibert
