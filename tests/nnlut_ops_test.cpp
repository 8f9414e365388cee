#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include "approx/linear_lut.h"
#include "core/function_library.h"
#include "core/nnlut_ops.h"
#include "core/scalar_fn.h"
#include "numerics/math.h"
#include "numerics/rng.h"
#include "runtime/thread_pool.h"

namespace nnlut {
namespace {

// With exact scalar functions plugged in, the composite operators must
// reduce to the textbook definitions. This isolates composition bugs from
// approximation error.

TEST(SoftmaxApprox, ExactFnsReproduceSoftmax) {
  const ExactFn e(exp_exact);
  const ExactFn r(reciprocal_exact);
  const SoftmaxApprox sm(e, r);

  std::vector<float> row{0.3f, -1.2f, 2.0f, 0.0f};
  std::vector<float> expect = row;
  sm.rows(row, 1, row.size());
  softmax_exact(expect);
  for (std::size_t i = 0; i < row.size(); ++i)
    EXPECT_NEAR(row[i], expect[i], 1e-6f);
}

TEST(SoftmaxApprox, SumsToApproxOne) {
  const ExactFn e(exp_exact);
  const ExactFn r(reciprocal_exact);
  const SoftmaxApprox sm(e, r);
  Rng rng(3);
  for (int t = 0; t < 50; ++t) {
    std::vector<float> row(32);
    for (float& v : row) v = rng.uniform(-8.0f, 8.0f);
    sm.rows(row, 1, row.size());
    const float sum = std::accumulate(row.begin(), row.end(), 0.0f);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxApprox, ClipsExtremeLogitsInsteadOfExploding) {
  const ExactFn e(exp_exact);
  const ExactFn r(reciprocal_exact);
  const SoftmaxApprox sm(e, r);
  std::vector<float> row{0.0f, -1e9f};  // e.g. an additive attention mask
  sm.rows(row, 1, row.size());
  EXPECT_NEAR(row[0], 1.0f, 1e-5f);
  EXPECT_NEAR(row[1], 0.0f, 1e-5f);
}

TEST(SoftmaxApprox, EmptyRowIsNoop) {
  const ExactFn e(exp_exact);
  const ExactFn r(reciprocal_exact);
  const SoftmaxApprox sm(e, r);
  std::vector<float> row;
  sm.rows(row, 1, row.size());
  EXPECT_TRUE(row.empty());
}

TEST(SoftmaxApprox, TrainedLutsTrackExactSoftmax) {
  const FittedLut exp_fit = fit_lut(TargetFn::kExp, 16, FitPreset::kFast, 5);
  const FittedLut div_fit =
      fit_lut(TargetFn::kReciprocal, 16, FitPreset::kFast, 5);
  const LutFp32 e(exp_fit.lut), r(div_fit.lut);
  const SoftmaxApprox sm(e, r);

  Rng rng(9);
  double worst = 0.0;
  for (int t = 0; t < 20; ++t) {
    std::vector<float> row(64);
    for (float& v : row) v = rng.uniform(-4.0f, 4.0f);
    std::vector<float> expect = row;
    sm.rows(row, 1, row.size());
    softmax_exact(expect);
    for (std::size_t i = 0; i < row.size(); ++i)
      worst = std::max(worst, std::abs(static_cast<double>(row[i]) - expect[i]));
  }
  EXPECT_LT(worst, 0.04);  // Fig. 2(b): NN-LUT softmax hugs the FP32 points
}

TEST(LayerNormApprox, ExactRsqrtReproducesLayerNorm) {
  const ExactFn rs(rsqrt_exact);
  const LayerNormApprox ln(rs);
  Rng rng(4);
  std::vector<float> x(64), y(64), expect(64);
  for (float& v : x) v = rng.uniform(-3.0f, 3.0f);
  ln.rows(x, y, 1, x.size(), {}, {});
  layer_norm_exact(x, expect, {}, {});
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y[i], expect[i], 1e-5f);
}

TEST(LayerNormApprox, InputScalingIdentityWithExactRsqrt) {
  // rsqrt(v*S)*sqrt(S) == rsqrt(v) exactly, so scaling must be transparent.
  const ExactFn rs(rsqrt_exact);
  LayerNormApprox::Options opt;
  opt.input_scaling = true;
  const LayerNormApprox ln(rs, opt);

  // Small-variance input (variance ~1e-4 after eps) exercises the v < 1 path.
  std::vector<float> x{0.01f, -0.01f, 0.011f, -0.009f};
  std::vector<float> y(x.size()), expect(x.size());
  ln.rows(x, y, 1, x.size(), {}, {});
  layer_norm_exact(x, expect, {}, {});
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y[i], expect[i], 2e-4f);
}

TEST(LayerNormApprox, ScaledLutHandlesSmallVariance) {
  const FittedLut rsqrt_fit = fit_lut(TargetFn::kRsqrt, 16, FitPreset::kFast, 5);
  const LutFp32 rs(rsqrt_fit.lut);

  LayerNormApprox::Options with;
  with.input_scaling = true;
  LayerNormApprox::Options without;
  without.input_scaling = false;
  const LayerNormApprox ln_scaled(rs, with);
  const LayerNormApprox ln_raw(rs, without);

  // Variance ~ 1e-2: far below the LUT's (0.1, 1024) training range.
  Rng rng(12);
  std::vector<float> x(128);
  for (float& v : x) v = rng.uniform(-0.15f, 0.15f);
  std::vector<float> ys(x.size()), yr(x.size()), expect(x.size());
  ln_scaled.rows(x, ys, 1, x.size(), {}, {});
  ln_raw.rows(x, yr, 1, x.size(), {}, {});
  layer_norm_exact(x, expect, {}, {});

  double err_scaled = 0, err_raw = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err_scaled += std::abs(ys[i] - expect[i]);
    err_raw += std::abs(yr[i] - expect[i]);
  }
  // Sec. 3.3.2: scaling rescues the wide-dynamic-range regime.
  EXPECT_LT(err_scaled, err_raw);
  EXPECT_LT(err_scaled / static_cast<double>(x.size()), 0.05);
}

TEST(LayerNormApprox, GammaBetaApplied) {
  const ExactFn rs(rsqrt_exact);
  const LayerNormApprox ln(rs);
  std::vector<float> x{-1.0f, 1.0f};
  std::vector<float> y(2);
  std::vector<float> gamma{3.0f, 3.0f}, beta{-1.0f, -1.0f};
  ln.rows(x, y, 1, x.size(), gamma, beta);
  std::vector<float> expect(2);
  layer_norm_exact(x, expect, gamma, beta);
  EXPECT_NEAR(y[0], expect[0], 1e-5f);
  EXPECT_NEAR(y[1], expect[1], 1e-5f);
}

// GELU is one LUT applied elementwise: the deployed op is the ScalarFn's
// eval_inplace over the activation tensor.
TEST(GeluLut, TrainedLutTracksGelu) {
  const FittedLut fit = fit_lut(TargetFn::kGelu, 16, FitPreset::kFast, 5);
  const LutFp32 g(fit.lut);
  std::vector<float> xs;
  for (float x = -5.0f; x <= 5.0f; x += 0.01f) xs.push_back(x);
  std::vector<float> ys = xs;
  g.eval_inplace(ys);
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    worst = std::max(worst,
                     std::abs(static_cast<double>(ys[i]) - gelu_exact(xs[i])));
  EXPECT_LT(worst, 0.08);
}

TEST(GeluLut, TailsExtrapolateSensibly) {
  const FittedLut fit = fit_lut(TargetFn::kGelu, 16, FitPreset::kFast, 5);
  const LutFp32 g(fit.lut);
  // Outside the training range the LUT extrapolates the outermost learned
  // segments linearly. GELU(x) ~ 0 (left) / ~ x (right); the learned edge
  // slopes keep extrapolation bounded though not exact (the paper trains and
  // deploys on (-5, 5) only).
  std::vector<float> ys{-8.0f, 8.0f};
  g.eval_inplace(ys);
  EXPECT_NEAR(ys[0], 0.0f, 1.0f);
  EXPECT_NEAR(ys[1], 8.0f, 1.5f);
}

// A row of a block gets the same bits as the same row run alone, at any pool
// size: the serving batcher packs requests into one block and relies on it.
// The rows are long enough that a 4-lane pool splits the 7-row block into
// several shards, and their variances lie on both sides of the LayerNorm
// input-scaling threshold (v < 1 is pre-scaled, v >= 1 is not).
TEST(RowBlocks, EachRowMatchesTheRowRunAloneBitwise) {
  const LutFp32 e(fit_linear_lut(exp_exact, kExpRange, 16));
  const LutFp32 r(fit_linear_lut(reciprocal_exact, kDivideRange, 16));
  const LutFp32 rs(fit_fixed_breakpoint_lut(rsqrt_exact, kRsqrtRange, 16,
                                            BreakpointMode::kExponential));
  const SoftmaxApprox sm(e, r);
  const LayerNormApprox ln(rs);

  constexpr std::size_t kRows = 7, kCols = 4096;
  const float half_widths[kRows] = {0.05f, 3.0f, 0.5f, 8.0f, 1.5f, 0.2f, 2.5f};
  Rng rng(31);
  std::vector<float> block(kRows * kCols);
  for (std::size_t i = 0; i < kRows; ++i)
    for (std::size_t j = 0; j < kCols; ++j)
      block[i * kCols + j] = rng.uniform(-half_widths[i], half_widths[i]);
  std::vector<float> gamma(kCols), beta(kCols);
  for (std::size_t j = 0; j < kCols; ++j) {
    gamma[j] = rng.uniform(0.5f, 1.5f);
    beta[j] = rng.uniform(-0.5f, 0.5f);
  }

  for (const std::size_t threads : {1u, 4u}) {
    runtime::set_runtime_config({threads});
    std::vector<float> sm_block = block, ln_block(block.size());
    const std::uint64_t jobs_before = runtime::thread_pool_stats().jobs;
    sm.rows(sm_block, kRows, kCols);
    ln.rows(block, ln_block, kRows, kCols, gamma, beta);
    if (threads > 1) {  // both blocks were split across the pool
      EXPECT_EQ(runtime::thread_pool_stats().jobs - jobs_before, 2u);
    }
    for (std::size_t i = 0; i < kRows; ++i) {
      const std::span<const float> row =
          std::span<const float>(block).subspan(i * kCols, kCols);
      std::vector<float> sm_alone(row.begin(), row.end());
      std::vector<float> ln_alone(kCols);
      sm.rows(sm_alone, 1, kCols);
      ln.rows(row, ln_alone, 1, kCols, gamma, beta);
      EXPECT_EQ(std::memcmp(sm_alone.data(), sm_block.data() + i * kCols,
                            kCols * sizeof(float)),
                0)
          << "softmax row " << i << " at " << threads << " threads";
      EXPECT_EQ(std::memcmp(ln_alone.data(), ln_block.data() + i * kCols,
                            kCols * sizeof(float)),
                0)
          << "layernorm row " << i << " at " << threads << " threads";
    }
  }
  runtime::set_runtime_config({});
}

TEST(CapturingFn, RecordsInputs) {
  const ExactFn base(gelu_exact);
  std::vector<float> sink;
  const CapturingFn cap(base, sink);
  EXPECT_EQ(cap.eval(1.5f), gelu_exact(1.5f));
  cap.eval(-0.5f);
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink[0], 1.5f);
  EXPECT_EQ(sink[1], -0.5f);
}

}  // namespace
}  // namespace nnlut
