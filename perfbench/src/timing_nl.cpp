#include "timing_nl.h"

#include <limits>

#include "clock.h"

namespace perfbench {

namespace tf = nnlut::transformer;

const char* nl_op_name(NlOp op) {
  switch (op) {
    case NlOp::kActivation:
      return "activation";
    case NlOp::kSoftmax:
      return "softmax";
    case NlOp::kLayerNorm:
      return "layernorm";
  }
  return "?";
}

void replay(tf::NonlinearitySet& nl, const CapturedCall& c,
            std::vector<float>& scratch_in, std::vector<float>& scratch_out) {
  switch (c.op) {
    case NlOp::kActivation:
      scratch_in = c.x;
      nl.activation_rows(scratch_in, c.nrows, c.ncols, c.site);
      return;
    case NlOp::kSoftmax:
      scratch_in = c.x;
      nl.softmax_rows(scratch_in, c.nrows, c.ncols, c.site);
      return;
    case NlOp::kLayerNorm:
      scratch_out.resize(c.x.size());
      nl.layer_norm_rows(c.x, scratch_out, c.nrows, c.ncols, c.gamma, c.beta,
                         c.site);
      return;
  }
}

TimingNonlinearities::TimingNonlinearities(tf::NonlinearitySet& inner,
                                           int first_site, int last_site)
    : inner_(inner), first_site_(first_site), last_site_(last_site) {}

void TimingNonlinearities::capture_next_batch() {
  nnlut::MutexLock lock(mu_);
  captured_.clear();
  capture_ = Capture::kArmed;
  capture_active_.store(true, std::memory_order_relaxed);
}

std::vector<TimingNonlinearities::Call> TimingNonlinearities::calls() const {
  nnlut::MutexLock lock(mu_);
  return calls_;
}

std::vector<TimingNonlinearities::Batch> TimingNonlinearities::batches() const {
  nnlut::MutexLock lock(mu_);
  return batches_;
}

std::vector<CapturedCall> TimingNonlinearities::captured() const {
  nnlut::MutexLock lock(mu_);
  return capture_ == Capture::kDone ? captured_ : std::vector<CapturedCall>{};
}

void TimingNonlinearities::before(NlOp op, int site, std::size_t nrows,
                                  std::size_t ncols, std::span<const float> x,
                                  std::span<const float> gamma,
                                  std::span<const float> beta) {
  if (!capture_active_.load(std::memory_order_relaxed)) return;
  nnlut::MutexLock lock(mu_);
  const bool opens = op == NlOp::kLayerNorm && site == first_site_;
  if (capture_ == Capture::kArmed && opens) capture_ = Capture::kOn;
  if (capture_ != Capture::kOn) return;
  captured_.push_back({op, site, nrows, ncols, {x.begin(), x.end()},
                       {gamma.begin(), gamma.end()},
                       {beta.begin(), beta.end()}});
  if (op == NlOp::kLayerNorm && site == last_site_) {
    capture_ = Capture::kDone;
    capture_active_.store(false, std::memory_order_relaxed);
  }
}

void TimingNonlinearities::after(NlOp op, int site, std::size_t nrows,
                                 std::size_t ncols, std::int64_t t0,
                                 std::int64_t t1) {
  nnlut::MutexLock lock(mu_);
  if (op == NlOp::kLayerNorm && site == first_site_) {
    batches_.push_back({t0, 0, 0, 0});
    in_batch_ = true;
  }
  const std::uint32_t batch =
      in_batch_ ? static_cast<std::uint32_t>(batches_.size() - 1)
                : std::numeric_limits<std::uint32_t>::max();
  calls_.push_back({op, site, batch, t0, t1,
                    static_cast<std::uint64_t>(nrows * ncols)});
  if (!in_batch_) return;
  Batch& b = batches_.back();
  b.nl_ns += t1 - t0;
  if (op == NlOp::kLayerNorm && site == last_site_) {
    b.t1_ns = t1;
    b.tokens = nrows;
    in_batch_ = false;
  }
}

template <typename F>
void TimingNonlinearities::forward(NlOp op, int site, std::size_t nrows,
                                   std::size_t ncols, std::span<const float> x,
                                   std::span<const float> gamma,
                                   std::span<const float> beta, F&& call) {
  before(op, site, nrows, ncols, x, gamma, beta);
  const bool timing = timing_.load(std::memory_order_relaxed);
  const std::int64_t t0 = timing ? now_ns() : 0;
  call();
  if (timing) after(op, site, nrows, ncols, t0, now_ns());
}

void TimingNonlinearities::activation(std::span<float> xs, int site) {
  forward(NlOp::kActivation, site, 1, xs.size(), xs, {}, {},
          [&] { inner_.activation(xs, site); });
}

void TimingNonlinearities::softmax(std::span<float> row, int site) {
  forward(NlOp::kSoftmax, site, 1, row.size(), row, {}, {},
          [&] { inner_.softmax(row, site); });
}

void TimingNonlinearities::layer_norm(std::span<const float> x,
                                      std::span<float> y,
                                      std::span<const float> gamma,
                                      std::span<const float> beta, int site) {
  forward(NlOp::kLayerNorm, site, 1, x.size(), x, gamma, beta,
          [&] { inner_.layer_norm(x, y, gamma, beta, site); });
}

void TimingNonlinearities::softmax_rows(std::span<float> data,
                                        std::size_t nrows, std::size_t ncols,
                                        int site) {
  forward(NlOp::kSoftmax, site, nrows, ncols, data, {}, {},
          [&] { inner_.softmax_rows(data, nrows, ncols, site); });
}

void TimingNonlinearities::layer_norm_rows(std::span<const float> x,
                                           std::span<float> y,
                                           std::size_t nrows, std::size_t ncols,
                                           std::span<const float> gamma,
                                           std::span<const float> beta,
                                           int site) {
  forward(NlOp::kLayerNorm, site, nrows, ncols, x, gamma, beta, [&] {
    inner_.layer_norm_rows(x, y, nrows, ncols, gamma, beta, site);
  });
}

void TimingNonlinearities::activation_rows(std::span<float> data,
                                           std::size_t nrows,
                                           std::size_t ncols, int site) {
  forward(NlOp::kActivation, site, nrows, ncols, data, {}, {},
          [&] { inner_.activation_rows(data, nrows, ncols, site); });
}

}  // namespace perfbench
