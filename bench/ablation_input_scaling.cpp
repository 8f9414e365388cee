// Ablation of Sec. 3.3.2 (input scaling for wide-range approximation):
// 1/SQRT approximation error with and without the power-of-two input
// scaling, at the operator level and through the LayerNorm composite.
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/function_library.h"
#include "core/nnlut_ops.h"
#include "numerics/rng.h"
#include "numerics/stats.h"

#include "bench_util.h"

int main() {
  using namespace nnlut;
  benchutil::print_header("Ablation: input scaling for 1/SQRT (Sec. 3.3.2)");

  const auto preset =
      benchutil::fast_mode() ? FitPreset::kFast : FitPreset::kPaper;
  const FittedLut rsqrt_fit = fit_lut(TargetFn::kRsqrt, 16, preset, 9);
  const LutFp32 rs(rsqrt_fit.lut);

  // Operator level: relative error of the scaled vs raw evaluation across
  // variances below the trained range.
  std::printf("\n  variance v | rel.err raw lut(v) | rel.err scaled "
              "lut(v*2^10)*2^5\n");
  LayerNormApprox::Options raw_opt;
  raw_opt.input_scaling = false;
  LayerNormApprox::Options scaled_opt;  // default: scaling on
  const LayerNormApprox raw(rs, raw_opt);
  const LayerNormApprox scaled(rs, scaled_opt);
  for (float v : {0.001f, 0.004f, 0.016f, 0.0625f, 0.25f, 0.9f}) {
    const float exact = rsqrt_exact(v);
    const float r = raw.inv_std(v);
    const float s = scaled.inv_std(v);
    std::printf("  %10.4f | %18.4f | %18.4f\n", v,
                std::abs(r - exact) / exact, std::abs(s - exact) / exact);
  }

  // Composite level: LayerNorm output error across activation scales.
  std::printf("\n  activation scale | LayerNorm mean|err| raw | scaled\n");
  Rng rng(11);
  for (float scale : {0.02f, 0.1f, 0.5f, 2.0f, 10.0f}) {
    std::vector<float> x(256), exact(256), yr(256), ys(256);
    for (float& v : x) v = rng.uniform(-scale, scale);
    layer_norm_exact(x, exact, {}, {});
    raw.rows(x, yr, 1, x.size(), {}, {});
    scaled.rows(x, ys, 1, x.size(), {}, {});
    std::printf("  %16.2f | %22.5f | %8.5f\n", scale,
                mean_abs_error(yr, exact), mean_abs_error(ys, exact));
  }

  std::printf(
      "\nExpected: for small variances (v < 1) the raw LUT is far outside\n"
      "its trained range and fails; scaling maps v into (1, 1024) where the\n"
      "LUT is accurate, at the cost of one bit-shift and one multiply.\n");
  return 0;
}
