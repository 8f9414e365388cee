// Dispatch TU: resolves the ISA tier once (CPUID + environment caps) and
// installs the matching kernel table behind an atomic pointer. The wide
// tiers live in their own translation units (lut_kernel_simd_avx2.cpp,
// lut_kernel_simd_f16c.cpp, lut_kernel_simd_avx512.cpp,
// lut_kernel_simd_vnni.cpp) compiled with the matching -m flags; this file
// is compiled with the portable baseline so it can run anywhere. Tier
// tables are assembled here from the per-TU entry points: the avx2 tier's
// FP16 slot picks the F16C kernel only when CPUID reports f16c, and the
// avx512vnni tier shares the avx512 FP32/FP16 kernels, differing only in
// the INT32 slot.
#include "core/lut_kernel_simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/lut_kernel_simd_detail.h"

namespace nnlut::simd {

// Per-tier kernel entry points, each defined in its own -m flagged TU.
#ifdef NNLUT_HAVE_AVX2
void avx2_fp32_eval(const float*, std::size_t, bool, const float*,
                    const float*, float*, std::size_t);
void avx2_int32_eval(const std::int32_t*, std::size_t, bool,
                     const std::int32_t*, const std::int32_t*, float, float,
                     float*, std::size_t);
#endif
#ifdef NNLUT_HAVE_F16C
void f16c_fp16_eval(const float*, std::size_t, bool, const float*,
                    const float*, float*, std::size_t);
#endif
#ifdef NNLUT_HAVE_AVX512
void avx512_fp32_eval(const float*, std::size_t, bool, const float*,
                      const float*, float*, std::size_t);
void avx512_fp16_eval(const float*, std::size_t, bool, const float*,
                      const float*, float*, std::size_t);
void avx512_int32_eval(const std::int32_t*, std::size_t, bool,
                       const std::int32_t*, const std::int32_t*, float, float,
                       float*, std::size_t);
#endif
#ifdef NNLUT_HAVE_AVX512VNNI
void avx512vnni_int32_eval(const std::int32_t*, std::size_t, bool,
                           const std::int32_t*, const std::int32_t*, float,
                           float, float*, std::size_t);
#endif

namespace {

void scalar_fp32(const float* bp, std::size_t nb, bool linear, const float* s,
                 const float* t, float* xs, std::size_t n) {
  detail::scalar_fp32_eval(bp, nb, linear, s, t, xs, n);
}

void scalar_fp16(const float* bp, std::size_t nb, bool linear, const float* s,
                 const float* t, float* xs, std::size_t n) {
  detail::scalar_fp16_eval(bp, nb, linear, s, t, xs, n);
}

void scalar_int32(const std::int32_t* bp, std::size_t nb, bool linear,
                  const std::int32_t* s, const std::int32_t* t, float sx,
                  float so, float* xs, std::size_t n) {
  detail::scalar_int32_eval(bp, nb, linear, s, t, sx, so, xs, n);
}

constexpr SimdKernelOps kScalarOps{SimdTier::kScalar, &scalar_fp32,
                                   &scalar_fp16, &scalar_int32};

const SimdKernelOps& ops_for(SimdTier tier) {
  switch (tier) {
#ifdef NNLUT_HAVE_AVX512VNNI
    case SimdTier::kAvx512Vnni: {
      static constexpr SimdKernelOps ops{SimdTier::kAvx512Vnni,
                                         &avx512_fp32_eval, &avx512_fp16_eval,
                                         &avx512vnni_int32_eval};
      return ops;
    }
#endif
#ifdef NNLUT_HAVE_AVX512
    case SimdTier::kAvx512: {
      static constexpr SimdKernelOps ops{SimdTier::kAvx512, &avx512_fp32_eval,
                                         &avx512_fp16_eval,
                                         &avx512_int32_eval};
      return ops;
    }
#endif
#ifdef NNLUT_HAVE_AVX2
    case SimdTier::kAvx2: {
      // FP16 runs wide on this tier only with the f16c conversion
      // instructions (a separate CPUID bit from avx2); without them the
      // FP16 slot stays scalar while FP32/INT32 run wide.
      static const SimdKernelOps ops{SimdTier::kAvx2, &avx2_fp32_eval,
                                     has_f16c() ? &f16c_fp16_eval
                                                : &scalar_fp16,
                                     &avx2_int32_eval};
      return ops;
    }
#endif
    default:
      return kScalarOps;
  }
}

std::atomic<const SimdKernelOps*> g_active{nullptr};

}  // namespace

const char* simd_tier_name(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAvx512Vnni:
      return "avx512vnni";
    case SimdTier::kAvx512:
      return "avx512";
    case SimdTier::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

std::string simd_tier_names() {
  std::string names;
  for (SimdTier t : available_simd_tiers()) {
    if (!names.empty()) names += ", ";
    names += simd_tier_name(t);
  }
  return names;
}

std::optional<SimdTier> parse_simd_tier(std::string_view name) {
  if (name == "scalar") return SimdTier::kScalar;
  if (name == "avx2") return SimdTier::kAvx2;
  if (name == "avx512") return SimdTier::kAvx512;
  if (name == "avx512vnni") return SimdTier::kAvx512Vnni;
  return std::nullopt;
}

bool has_f16c() {
#ifdef NNLUT_HAVE_F16C
  static const bool have = __builtin_cpu_supports("f16c") != 0;
  return have;
#else
  return false;
#endif
}

bool has_avx512vnni() {
#ifdef NNLUT_HAVE_AVX512VNNI
  static const bool have = __builtin_cpu_supports("avx512f") != 0 &&
                           __builtin_cpu_supports("avx512vnni") != 0;
  return have;
#else
  return false;
#endif
}

SimdTier detected_simd_tier() {
  static const SimdTier tier = [] {
#ifdef NNLUT_HAVE_AVX512VNNI
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vnni"))
      return SimdTier::kAvx512Vnni;
#endif
#ifdef NNLUT_HAVE_AVX512
    if (__builtin_cpu_supports("avx512f")) return SimdTier::kAvx512;
#endif
#ifdef NNLUT_HAVE_AVX2
    if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
#endif
    return SimdTier::kScalar;
  }();
  return tier;
}

SimdTier env_capped_tier(const char* tier_name, SimdTier detected) {
  if (tier_name != nullptr) {
    if (const auto cap = parse_simd_tier(tier_name))
      return std::min(*cap, detected);
  }
  return detected;
}

SimdTier auto_simd_tier() {
  // Function-local static (not a namespace-scope global): plan evaluation
  // during another TU's static initialization must still resolve the real
  // tier, not a zero-initialized placeholder. The environment is read once
  // here — dispatch must not change behind a running server's back because
  // the wall clock crossed a getenv call.
  static const SimdTier tier = [] {
    const char* tier_name = std::getenv("NNLUT_SIMD_TIER");
    const SimdTier detected = detected_simd_tier();
    const SimdTier capped = env_capped_tier(tier_name, detected);
    // The cap itself stays pure and silent (env_capped_tier is unit-tested
    // as a function); the once-per-process resolution is where a surprising
    // request gets a diagnostic naming what this machine can actually run.
    if (tier_name != nullptr) {
      const auto requested = parse_simd_tier(tier_name);
      if (!requested) {
        std::fprintf(stderr,
                     "nnlut: ignoring unknown NNLUT_SIMD_TIER='%s' "
                     "(available tiers: %s)\n",
                     tier_name, simd_tier_names().c_str());
      } else if (*requested > detected) {
        std::fprintf(stderr,
                     "nnlut: NNLUT_SIMD_TIER='%s' exceeds this machine; "
                     "capping at detected tier '%s' (available tiers: %s)\n",
                     tier_name, simd_tier_name(detected),
                     simd_tier_names().c_str());
      }
    }
    return capped;
  }();
  return tier;
}

std::vector<SimdTier> available_simd_tiers() {
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  const SimdTier top = detected_simd_tier();
  if (top >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  if (top >= SimdTier::kAvx512) tiers.push_back(SimdTier::kAvx512);
  if (top >= SimdTier::kAvx512Vnni) tiers.push_back(SimdTier::kAvx512Vnni);
  return tiers;
}

const SimdKernelOps& active_simd_ops() {
  const SimdKernelOps* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    // First use (or a benign race with another first user): install the
    // automatic tier. compare_exchange keeps a concurrent set_simd_tier win.
    const SimdKernelOps* expected = nullptr;
    g_active.compare_exchange_strong(expected, &ops_for(auto_simd_tier()),
                                     std::memory_order_acq_rel);
    ops = g_active.load(std::memory_order_acquire);
  }
  return *ops;
}

SimdTier active_simd_tier() { return active_simd_ops().tier; }

void set_simd_tier(std::optional<SimdTier> tier) {
  if (tier.has_value() && *tier > detected_simd_tier())
    throw std::invalid_argument(
        std::string("set_simd_tier: tier '") + simd_tier_name(*tier) +
        "' exceeds the detected tier '" +
        simd_tier_name(detected_simd_tier()) + "' (available tiers: " +
        simd_tier_names() + ")");
  g_active.store(&ops_for(tier.value_or(auto_simd_tier())),
                 std::memory_order_release);
}

}  // namespace nnlut::simd
