// Runtime-dispatched SIMD tiers for the compiled LUT plans.
//
// The paper's hardware evaluates an N-entry table with a *parallel*
// comparator bank feeding one MAC (Eq. 4); the software analogue is a wide
// vector lane set: one AVX2/AVX-512 register holds 8/16 activations, every
// breakpoint is compared against all of them at once, and the selected
// (slope, intercept) pairs are fetched with a register permute (banks that
// fit one register) or a hardware gather (larger tables / bisection).
//
// Dispatch model:
//   - the ISA tier is resolved ONCE at first use from CPUID
//     (__builtin_cpu_supports) — scalar < AVX2 < AVX-512F < AVX-512F+VNNI —
//     and installed behind an atomic pointer that LutKernel::eval reads per
//     call;
//   - `NNLUT_SIMD_TIER=scalar|avx2|avx512|avx512vnni` caps the automatic
//     choice at a named tier (`scalar` is the kill switch). It only
//     *lowers* the tier — it can never select an ISA the CPU does not have;
//   - `set_simd_tier` is the programmatic override (tests, RuntimeConfig):
//     forcing a tier above the detected one throws (the message names the
//     available set), `std::nullopt` restores the automatic choice.
//
// Determinism contract (ISA-invariance): every tier performs the exact same
// IEEE operation sequence per element as the scalar reference — compare,
// gather, one multiply, one add, with no FMA contraction — so evaluation is
// bit-identical across tiers for all inputs including values exactly on
// breakpoints, ±inf and NaN. This extends the repo's existing guarantee
// (thread-count- and batch-invariant results) to the ISA dimension; the
// forced-tier suite in tests/lut_kernel_test.cpp asserts it.
//
// The FP16 plan runs wide too: its binary16 rounding chain maps to
// vcvtps2ph/vcvtph2ps round-trips (F16C on the AVX2 tier, native 512-bit
// forms on AVX-512F), which numerics/half.h reproduces bit-for-bit
// including NaN payloads and denormals — so the emulated FP16 datapath is
// ISA-invariant like the other precisions. On AVX2 CPUs without F16C the
// FP16 slot falls back to the shared scalar block while FP32/INT32 stay
// wide.
//
// The avx512vnni tier differs from avx512 only in the INT32 MAC: when a
// compiled table provably fits the int16-pair contract, q_s*q_x + q_t runs
// as one vpdpwssd per vector; otherwise (and for any vector whose
// quantized inputs overflow int16) it falls back to the exact int64 chain,
// so results stay bit-identical either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nnlut::simd {

/// ISA tiers in strictly increasing capability; ordering comparisons are
/// meaningful (a CPU supporting a tier supports all lower tiers —
/// avx512vnni implies avx512f).
enum class SimdTier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kAvx512Vnni = 3,
};

/// "scalar" | "avx2" | "avx512" | "avx512vnni".
const char* simd_tier_name(SimdTier tier);

/// Comma-separated names of every tier this process can run (the
/// available_simd_tiers() list) — the string error paths and logs embed so
/// an unsupported request always says what *is* supported.
std::string simd_tier_names();

/// Parse a tier name (as accepted in NNLUT_SIMD_TIER); nullopt if unknown.
std::optional<SimdTier> parse_simd_tier(std::string_view name);

/// Widest tier this CPU supports (and this build carries kernels for).
SimdTier detected_simd_tier();

/// Every tier this process can actually run, narrowest first: scalar, then
/// each wide tier up to detected_simd_tier(). The one list parity tests
/// and benchmark sweeps should iterate.
std::vector<SimdTier> available_simd_tiers();

/// The tier automatic dispatch resolves to: detected, capped by the
/// NNLUT_SIMD_TIER environment variable (read once).
SimdTier auto_simd_tier();

/// Tier of the currently installed kernel table.
SimdTier active_simd_tier();

/// Force a tier (tests, benches, RuntimeConfig::simd). Throws
/// std::invalid_argument naming the available tier set if `tier` exceeds
/// detected_simd_tier(). std::nullopt restores automatic selection.
/// Thread-safe; kernels already executing finish on the table they loaded.
void set_simd_tier(std::optional<SimdTier> tier);

/// True when this build carries the F16C FP16 kernels and the CPU has the
/// f16c conversion instructions: the AVX2 tier's FP16 slot is wide. The
/// AVX-512 tiers always run FP16 wide (512-bit vcvtps2ph is AVX-512F).
bool has_f16c();

/// True when this build carries the VNNI INT32 MAC and the CPU reports
/// avx512vnni — i.e. the avx512vnni tier is detectable here.
bool has_avx512vnni();

/// Pure form of the environment policy, exposed for tests: the tier cap
/// implied by an NNLUT_SIMD_TIER value, clamped to `detected`. nullptr
/// means the variable is unset; an unknown name leaves `detected`.
SimdTier env_capped_tier(const char* tier_name, SimdTier detected);

/// One per-tier kernel table. Every entry point evaluates a whole span in
/// place through a compiled plan; `nb` is the padded breakpoint count
/// (padded_entries - 1), `linear_scan` selects comparator-bank scan vs
/// uniform bisection exactly as the plan compiled it. The FP16 entry takes
/// the FP32 images of the plan's half-rounded constants (half -> float is
/// exact) and rounds every intermediate through binary16.
struct SimdKernelOps {
  SimdTier tier;
  void (*fp32_eval)(const float* bp, std::size_t nb, bool linear_scan,
                    const float* slopes, const float* intercepts, float* xs,
                    std::size_t n);
  void (*fp16_eval)(const float* bp, std::size_t nb, bool linear_scan,
                    const float* slopes, const float* intercepts, float* xs,
                    std::size_t n);
  void (*int32_eval)(const std::int32_t* bp, std::size_t nb, bool linear_scan,
                     const std::int32_t* slopes,
                     const std::int32_t* intercepts, float input_scale,
                     float output_scale, float* xs, std::size_t n);
};

/// The installed kernel table (the LutKernel::eval dispatch pointer).
/// Resolves the automatic tier on first use.
const SimdKernelOps& active_simd_ops();

}  // namespace nnlut::simd
