// Untimed fixture of the repository benchmark: the workload table, the
// served model, the NN-LUT table files, and each slot's request stream with
// the bytes every response must carry.
//
// The model is the parallel_scaling shape (hidden 64, 4 heads, ffn 256,
// 2 layers, vocab 128, max_seq 384) with weights from a fixed seed, so the
// op-share figures measured on that shape apply here. Only the token
// sequences depend on --seed.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/quantized_lut.h"
#include "transformer/backends.h"
#include "transformer/model.h"

namespace perfbench {

/// One served model slot: its id on the wire and its LUT precision.
struct SlotSpec {
  std::string id;
  nnlut::LutPrecision precision = nnlut::LutPrecision::kFp32;
};

/// Execution lanes (EngineConfig::threads) of every workload: with one
/// lane the pool never forks; see perfbench/README.md for the dropped
/// two-lane workload.
inline constexpr std::size_t kLanes = 1;
/// SlotConfig::max_batch of every slot.
inline constexpr std::size_t kMaxBatch = 4;

/// One closed-loop workload. Every connection serves one slot and keeps
/// `inflight` requests outstanding; every request is one sequence of `seq`
/// tokens.
struct Workload {
  std::string name;
  std::vector<SlotSpec> slots;
  std::size_t seq = 0;
  std::size_t inflight = 1;  // per connection (one connection per slot)
  std::chrono::microseconds max_wait{0};
  /// Latency limit behind slo_attained.
  double slo_ms = 0.0;
};

const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* find_workload(std::string_view name);

nnlut::transformer::ModelConfig model_config();
/// The served model; weights come from a fixed seed.
nnlut::transformer::TaskModel make_model();

/// Paths of the four NN-LUT table files under one directory.
struct TableFiles {
  std::string gelu, exp, reciprocal, rsqrt;
};
/// Train the NN-LUT bundle (16 entries, fast preset) and write it with
/// save_lut under `dir`, which must exist.
TableFiles write_tables(const std::string& dir);
/// load_lut of all four files.
nnlut::transformer::LutSet load_tables(const TableFiles& files);
std::unique_ptr<nnlut::transformer::LutNonlinearities> make_backend(
    const nnlut::transformer::LutSet& luts, nnlut::LutPrecision precision);

/// Distinct sequences each slot's stream cycles through.
inline constexpr std::size_t kSequences = 16;

/// The request stream of one slot. Request n of a connection carries
/// sequence n % kSequences under request id n, so one seed gives one
/// byte-identical stream.
struct SlotStream {
  std::string model_id;
  std::size_t seq = 0;
  std::vector<nnlut::transformer::BatchInput> inputs;   // kSequences
  std::vector<std::vector<std::uint8_t>> submit;        // encode_submit
  std::vector<std::vector<std::uint8_t>> expected;      // encode_result
};

/// Draw slot `slot`'s sequences of workload `w` from `seed`. `expected`
/// stays empty until fill_expected.
SlotStream make_stream(const Workload& w, std::size_t slot, std::uint64_t seed);

/// Complete kSubmit frame (header + payload) of request n.
std::vector<std::uint8_t> request_frame(const SlotStream& s, std::uint64_t n);

/// encode_result of a direct InferenceModel::logits call per sequence,
/// with `nl` a backend instance of its own (not one the engine serves).
void fill_expected(SlotStream& s, const nnlut::transformer::TaskModel& model,
                   nnlut::transformer::NonlinearitySet& nl);

}  // namespace perfbench
