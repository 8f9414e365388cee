// Figure 2 of the paper: operation-wise approximation accuracy of NN-LUT vs
// Linear-LUT for (a) GELU, (b) Softmax, (c) LayerNorm. The paper plots
// approximated outputs on selected inputs (top row) and L1 error (bottom
// row); this bench prints the same series plus summary L1 errors.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "approx/linear_lut.h"
#include "core/function_library.h"
#include "core/nnlut_ops.h"
#include "core/scalar_fn.h"
#include "numerics/rng.h"
#include "numerics/stats.h"

#include "bench_util.h"

namespace {

using namespace nnlut;

struct OpSeries {
  double nnlut_l1 = 0.0;
  double linear_l1 = 0.0;
};

// (a) GELU: scalar comparison on the training range.
OpSeries bench_gelu(const FittedLut& nn) {
  const PiecewiseLinear lin = fit_linear_lut(gelu_exact, kGeluRange, 16);
  std::printf("\n(a) GELU on (-5, 5)  [x, exact, NN-LUT, Linear-LUT]\n");
  OpSeries s;
  int count = 0;
  for (float x = -5.0f; x <= 5.0f; x += 0.25f, ++count) {
    const float e = gelu_exact(x);
    if (count % 4 == 0)
      std::printf("  % 6.2f  % 8.4f  % 8.4f  % 8.4f\n", x, e, nn.lut(x), lin(x));
  }
  for (float x = -5.0f; x <= 5.0f; x += 0.01f) {
    s.nnlut_l1 += std::abs(nn.lut(x) - gelu_exact(x));
    s.linear_l1 += std::abs(lin(x) - gelu_exact(x));
  }
  s.nnlut_l1 /= 1001.0;
  s.linear_l1 /= 1001.0;
  return s;
}

// (b) Softmax: full composite (EXP + Divide LUTs) on random logit rows.
OpSeries bench_softmax(const FittedLut& exp_fit, const FittedLut& div_fit) {
  const PiecewiseLinear lin_exp = fit_linear_lut(exp_exact, kExpRange, 16);
  const PiecewiseLinear lin_div =
      fit_linear_lut(reciprocal_exact, kDivideRange, 16);

  const LutFp32 nn_e(exp_fit.lut), nn_r(div_fit.lut);
  const LutFp32 li_e(lin_exp), li_r(lin_div);
  const SoftmaxApprox sm_nn(nn_e, nn_r);
  const SoftmaxApprox sm_li(li_e, li_r);

  Rng rng(42);
  OpSeries s;
  std::size_t n = 0;
  std::printf("\n(b) Softmax rows (len 64), elementwise L1 vs FP32\n");
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<float> row(64);
    for (float& v : row) v = rng.uniform(-6.0f, 6.0f);
    std::vector<float> exact = row, a = row, b = row;
    softmax_exact(exact);
    sm_nn.rows(a, 1, a.size());
    sm_li.rows(b, 1, b.size());
    for (std::size_t i = 0; i < row.size(); ++i, ++n) {
      s.nnlut_l1 += std::abs(a[i] - exact[i]);
      s.linear_l1 += std::abs(b[i] - exact[i]);
    }
    if (trial < 3)
      std::printf("  row %d: max|err| NN-LUT %.5f  Linear-LUT %.5f\n", trial,
                  max_abs_error(a, exact), max_abs_error(b, exact));
  }
  s.nnlut_l1 /= static_cast<double>(n);
  s.linear_l1 /= static_cast<double>(n);
  return s;
}

// (c) LayerNorm: composite with the 1/SQRT LUT and input scaling (both
// methods get input scaling, as in the paper's Table 2 setup).
OpSeries bench_layernorm(const FittedLut& rsqrt_fit) {
  const PiecewiseLinear lin_rsqrt = fit_linear_lut(rsqrt_exact, kRsqrtRange, 16);
  const LutFp32 nn_r(rsqrt_fit.lut);
  const LutFp32 li_r(lin_rsqrt);
  const LayerNormApprox ln_nn(nn_r);
  const LayerNormApprox ln_li(li_r);

  Rng rng(43);
  OpSeries s;
  std::size_t n = 0;
  std::printf("\n(c) LayerNorm rows (len 128) across variance scales\n");
  for (int trial = 0; trial < 48; ++trial) {
    // Sweep the input magnitude so variances cover ~1e-2 .. ~1e3.
    const float scale = std::pow(10.0f, -1.0f + 0.1f * static_cast<float>(trial % 40));
    std::vector<float> x(128), exact(128), a(128), b(128);
    for (float& v : x) v = rng.uniform(-scale, scale);
    layer_norm_exact(x, exact, {}, {});
    ln_nn.rows(x, a, 1, x.size(), {}, {});
    ln_li.rows(x, b, 1, x.size(), {}, {});
    for (std::size_t i = 0; i < x.size(); ++i, ++n) {
      s.nnlut_l1 += std::abs(a[i] - exact[i]);
      s.linear_l1 += std::abs(b[i] - exact[i]);
    }
    if (trial % 16 == 0)
      std::printf("  |x|<=%-8.3f max|err| NN-LUT %.5f  Linear-LUT %.5f\n",
                  scale, max_abs_error(a, exact), max_abs_error(b, exact));
  }
  s.nnlut_l1 /= static_cast<double>(n);
  s.linear_l1 /= static_cast<double>(n);
  return s;
}

}  // namespace

int main() {
  using nnlut::benchutil::print_header;
  print_header("Figure 2: operator-wise approximation accuracy (16-entry LUTs)");

  const auto preset =
      nnlut::benchutil::fast_mode() ? nnlut::FitPreset::kFast : nnlut::FitPreset::kPaper;
  const nnlut::NnlutBundle bundle = nnlut::train_bundle(16, preset, 1);

  const OpSeries g = bench_gelu(bundle.gelu);
  const OpSeries sm = bench_softmax(bundle.exp, bundle.reciprocal);
  const OpSeries ln = bench_layernorm(bundle.rsqrt);

  std::printf("\nSummary (mean L1 error, lower is better):\n");
  std::printf("  %-10s %12s %12s\n", "operator", "NN-LUT", "Linear-LUT");
  std::printf("  %-10s %12.6f %12.6f\n", "GELU", g.nnlut_l1, g.linear_l1);
  std::printf("  %-10s %12.6f %12.6f\n", "Softmax", sm.nnlut_l1, sm.linear_l1);
  std::printf("  %-10s %12.6f %12.6f\n", "LayerNorm", ln.nnlut_l1, ln.linear_l1);
  std::printf(
      "\nPaper's qualitative claim (Fig. 2): both methods fit GELU; NN-LUT's\n"
      "learned breakpoints fit Softmax and LayerNorm far better than the\n"
      "fixed-breakpoint Linear-LUT. Expected: NN-LUT column << Linear-LUT\n"
      "for Softmax/LayerNorm, comparable for GELU.\n");
  return 0;
}
