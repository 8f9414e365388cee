// google-benchmark microbenchmarks of the kernels backing Sec. 5's
// efficiency claims: exact FP32 math vs LUT evaluation (FP32/FP16/INT32) vs
// I-BERT integer sequences, on softmax-sized activation streams; plus the
// scalar-loop vs batched-plan comparison across entry counts {8, 16, 32,
// 128} that motivates the compiled SoA kernel layer, and a per-SIMD-tier
// sweep (BM_LutTierPlan/<tier>/<precision>/<entries>) registered for every
// tier this CPU supports — the dispatch tier is pinned for the benchmark's
// duration and recorded in the JSON (per-run label + "simd_*" context
// keys), so artifacts from different machines are self-describing.
//
// Unless --benchmark_out is given, results are also written as
// machine-readable JSON to BENCH_kernel_throughput.json.
#include <benchmark/benchmark.h>

#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "approx/linear_lut.h"
#include "core/function_library.h"
#include "core/lut_kernel_simd.h"
#include "core/nnlut_ops.h"
#include "core/quantized_lut.h"
#include "core/transform.h"
#include "ibert/ibert_kernels.h"
#include "numerics/rng.h"

namespace {

using namespace nnlut;

const NnlutBundle& bundle() {
  static const NnlutBundle b = train_bundle(16, FitPreset::kFast, 77);
  return b;
}

std::vector<float> activation_stream(std::size_t n, float lo, float hi) {
  Rng rng(5);
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform(lo, hi);
  return v;
}

void BM_GeluExact(benchmark::State& state) {
  auto xs = activation_stream(4096, -5.0f, 5.0f);
  for (auto _ : state) {
    float acc = 0;
    for (float x : xs) acc += gelu_exact(x);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(xs.size()));
}
BENCHMARK(BM_GeluExact);

void BM_GeluNnlutFp32(benchmark::State& state) {
  auto xs = activation_stream(4096, -5.0f, 5.0f);
  const PiecewiseLinear& lut = bundle().gelu.lut;
  for (auto _ : state) {
    float acc = 0;
    for (float x : xs) acc += lut(x);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(xs.size()));
}
BENCHMARK(BM_GeluNnlutFp32);

void BM_GeluNnlutFp16(benchmark::State& state) {
  auto xs = activation_stream(4096, -5.0f, 5.0f);
  const LutFp16 lut(bundle().gelu.lut);
  for (auto _ : state) {
    float acc = 0;
    for (float x : xs) acc += lut.eval(x);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(xs.size()));
}
BENCHMARK(BM_GeluNnlutFp16);

void BM_GeluNnlutInt32(benchmark::State& state) {
  auto xs = activation_stream(4096, -5.0f, 5.0f);
  const LutInt32 lut(bundle().gelu.lut, 5.0f);
  for (auto _ : state) {
    float acc = 0;
    for (float x : xs) acc += lut.eval(x);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(xs.size()));
}
BENCHMARK(BM_GeluNnlutInt32);

void BM_GeluIbert(benchmark::State& state) {
  auto xs = activation_stream(4096, -5.0f, 5.0f);
  std::vector<float> buf = xs;
  for (auto _ : state) {
    buf = xs;
    ibert::gelu_rows(buf, 1, buf.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(xs.size()));
}
BENCHMARK(BM_GeluIbert);

void BM_SoftmaxExact(benchmark::State& state) {
  auto xs = activation_stream(static_cast<std::size_t>(state.range(0)), -6, 6);
  std::vector<float> buf = xs;
  for (auto _ : state) {
    buf = xs;
    softmax_exact(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SoftmaxExact)->Arg(128)->Arg(1024);

void BM_SoftmaxNnlut(benchmark::State& state) {
  auto xs = activation_stream(static_cast<std::size_t>(state.range(0)), -6, 6);
  const LutFp32 e(bundle().exp.lut), r(bundle().reciprocal.lut);
  const SoftmaxApprox sm(e, r);
  std::vector<float> buf = xs;
  for (auto _ : state) {
    buf = xs;
    sm.rows(buf, 1, buf.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SoftmaxNnlut)->Arg(128)->Arg(1024);

void BM_SoftmaxIbert(benchmark::State& state) {
  auto xs = activation_stream(static_cast<std::size_t>(state.range(0)), -6, 6);
  std::vector<float> buf = xs;
  for (auto _ : state) {
    buf = xs;
    ibert::softmax_row(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SoftmaxIbert)->Arg(128)->Arg(1024);

void BM_LayerNormExact(benchmark::State& state) {
  auto xs = activation_stream(768, -2, 2);
  std::vector<float> out(xs.size());
  for (auto _ : state) {
    layer_norm_exact(xs, out, {}, {});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 768);
}
BENCHMARK(BM_LayerNormExact);

void BM_LayerNormNnlut(benchmark::State& state) {
  auto xs = activation_stream(768, -2, 2);
  const LutFp32 rs(bundle().rsqrt.lut);
  const LayerNormApprox ln(rs);
  std::vector<float> out(xs.size());
  for (auto _ : state) {
    ln.rows(xs, out, 1, xs.size(), {}, {});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 768);
}
BENCHMARK(BM_LayerNormNnlut);

void BM_LayerNormIbert(benchmark::State& state) {
  auto xs = activation_stream(768, -2, 2);
  std::vector<float> out(xs.size());
  for (auto _ : state) {
    ibert::layernorm_row(xs, out, {}, {});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 768);
}
BENCHMARK(BM_LayerNormIbert);

// --------------------------------------------------------------------------
// Scalar-loop vs batched-plan, across table sizes. Row size 4096 matches a
// BERT-base FFN activation row (d_ff = 3072..4096). The baseline is the
// retired hot path: one virtual dispatch per element; the second baseline is
// the raw per-element binary search without dispatch; the batched plan is
// one eval_inplace call over the whole row.
// --------------------------------------------------------------------------

const PiecewiseLinear& sized_lut(int entries) {
  // Node-stable container: returned references survive later cache misses.
  static std::deque<std::pair<int, PiecewiseLinear>> cache;
  for (const auto& [n, lut] : cache)
    if (n == entries) return lut;
  cache.emplace_back(entries,
                     fit_linear_lut(gelu_exact, kGeluRange, entries));
  return cache.back().second;
}

constexpr std::size_t kRowLen = 4096;

void BM_LutScalarDispatch(benchmark::State& state) {
  const LutFp32 fn(sized_lut(static_cast<int>(state.range(0))));
  const ScalarFn& vfn = fn;  // per-element virtual dispatch
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    for (float& x : buf) x = vfn.eval(x);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
}
BENCHMARK(BM_LutScalarDispatch)->Arg(8)->Arg(16)->Arg(32)->Arg(128);

void BM_LutScalarBinarySearch(benchmark::State& state) {
  const PiecewiseLinear& lut = sized_lut(static_cast<int>(state.range(0)));
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    for (float& x : buf) x = lut(x);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
}
BENCHMARK(BM_LutScalarBinarySearch)->Arg(8)->Arg(16)->Arg(32)->Arg(128);

void BM_LutBatchedPlan(benchmark::State& state) {
  const PiecewiseLinear& lut = sized_lut(static_cast<int>(state.range(0)));
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    lut.eval_inplace(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
}
BENCHMARK(BM_LutBatchedPlan)->Arg(8)->Arg(16)->Arg(32)->Arg(128);

void BM_LutBatchedPlanFp16(benchmark::State& state) {
  const LutFp16 fn(sized_lut(static_cast<int>(state.range(0))));
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    fn.eval_inplace(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
}
BENCHMARK(BM_LutBatchedPlanFp16)->Arg(8)->Arg(16)->Arg(32)->Arg(128);

void BM_LutBatchedPlanInt32(benchmark::State& state) {
  const LutInt32 fn(sized_lut(static_cast<int>(state.range(0))), 5.0f);
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    fn.eval_inplace(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
}
BENCHMARK(BM_LutBatchedPlanInt32)->Arg(8)->Arg(16)->Arg(32)->Arg(128);

// --------------------------------------------------------------------------
// Per-SIMD-tier plan throughput: the same batched evaluation with the
// dispatch tier pinned to each ISA this CPU supports. The acceptance target
// of the SIMD layer is >= 2x comparator-bank-scan throughput (entries <= 32)
// for the widest tier vs forced scalar; the forced-tier parity suite in
// tests/lut_kernel_test.cpp proves all tiers produce identical bits, so
// this sweep measures pure kernel speed.
// --------------------------------------------------------------------------

using simd::SimdTier;

void BM_LutTierPlanFp32(benchmark::State& state, SimdTier tier) {
  simd::set_simd_tier(tier);
  const PiecewiseLinear& lut = sized_lut(static_cast<int>(state.range(0)));
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    lut.eval_inplace(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
  state.SetLabel(simd::simd_tier_name(tier));
  simd::set_simd_tier(std::nullopt);
}

void BM_LutTierPlanFp16(benchmark::State& state, SimdTier tier) {
  simd::set_simd_tier(tier);
  const LutFp16 fn(sized_lut(static_cast<int>(state.range(0))));
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    fn.eval_inplace(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
  state.SetLabel(simd::simd_tier_name(tier));
  simd::set_simd_tier(std::nullopt);
}

void BM_LutTierPlanInt32(benchmark::State& state, SimdTier tier) {
  simd::set_simd_tier(tier);
  const LutInt32 fn(sized_lut(static_cast<int>(state.range(0))), 5.0f);
  const auto xs = activation_stream(kRowLen, -5.0f, 5.0f);
  std::vector<float> buf(xs.size());
  for (auto _ : state) {
    buf = xs;
    fn.eval_inplace(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRowLen));
  state.SetLabel(simd::simd_tier_name(tier));
  simd::set_simd_tier(std::nullopt);
}

/// Register the tier sweep for every tier this CPU can actually run.
void register_tier_benchmarks() {
  for (SimdTier tier : simd::available_simd_tiers()) {
    const std::string name(simd::simd_tier_name(tier));
    benchmark::RegisterBenchmark(("BM_LutTierPlan/" + name + "/fp32").c_str(),
                                 BM_LutTierPlanFp32, tier)
        ->Arg(8)
        ->Arg(16)
        ->Arg(32)
        ->Arg(128);
    benchmark::RegisterBenchmark(("BM_LutTierPlan/" + name + "/fp16").c_str(),
                                 BM_LutTierPlanFp16, tier)
        ->Arg(8)
        ->Arg(16)
        ->Arg(32)
        ->Arg(128);
    benchmark::RegisterBenchmark(("BM_LutTierPlan/" + name + "/int32").c_str(),
                                 BM_LutTierPlanInt32, tier)
        ->Arg(8)
        ->Arg(16)
        ->Arg(32)
        ->Arg(128);
  }
}

void BM_NnToLutTransform(benchmark::State& state) {
  const ApproxNet& net = bundle().gelu.net;
  for (auto _ : state) {
    PiecewiseLinear lut = nn_to_lut(net);
    benchmark::DoNotOptimize(lut.entries());
  }
}
BENCHMARK(BM_NnToLutTransform);

}  // namespace

// Custom main: default to writing machine-readable JSON next to the working
// directory unless the caller already chose an output file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  static std::string out = "--benchmark_out=BENCH_kernel_throughput.json";
  static std::string fmt = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out.data());
    args.push_back(fmt.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  // The JSON artifact is self-describing about the machine's SIMD support:
  // which tiers were measurable here and what automatic dispatch resolves to.
  namespace simd = nnlut::simd;
  benchmark::AddCustomContext("simd_detected",
                              simd::simd_tier_name(simd::detected_simd_tier()));
  benchmark::AddCustomContext("simd_auto",
                              simd::simd_tier_name(simd::auto_simd_tier()));
  benchmark::AddCustomContext("simd_f16c", simd::has_f16c() ? "1" : "0");
  benchmark::AddCustomContext("simd_vnni",
                              simd::has_avx512vnni() ? "1" : "0");
  register_tier_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
