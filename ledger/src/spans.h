// Spans recorded from outside the program, around calls into its layers.
//
// A SpanRecorder keeps every span in memory (name, start, end, parent,
// query id) and, as each span ends, charges its duration to its parent's
// child time, so a layer's self time is its spans' durations minus the
// part their child spans cover. TimingAccessor and TimingEstimator wrap
// the program's NetworkAccessor and TravelTimeEstimator and open one span
// per call, which nests (a Location read inside an Estimate call is a
// child of that call). One recorder per thread.
#ifndef CAPEFP_LEDGER_SPANS_H_
#define CAPEFP_LEDGER_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

#include "src/core/estimator.h"
#include "src/network/accessor.h"

namespace ledger {

enum class SpanName : uint8_t {
  kQuery,
  kEstimatorSetup,
  kSearch,
  kEstimate,
  kSuccessors,
  kLocation,
  kCount,
};
const char* SpanNameString(SpanName name);

class SpanRecorder {
 public:
  struct Span {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint32_t query = 0;
    SpanName name = SpanName::kQuery;
  };
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  // While disabled, Begin/End record nothing (an untraced warm pass).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_query(uint32_t query) { query_ = query; }

  int Begin(SpanName name);
  void End(int index);

  const Totals& totals(SpanName name) const {
    return totals_[static_cast<size_t>(name)];
  }

  // One line per span that `keep` accepts: query, name, parent index,
  // start_ns, end_ns.
  void WriteTsv(std::FILE* out,
                const std::function<bool(const Span&)>& keep) const;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_ = true;
  uint32_t query_ = 0;
  std::vector<Span> spans_;
  std::vector<int64_t> child_ns_;  // Parallel to spans_.
  std::vector<int> open_;
  Totals totals_[static_cast<size_t>(SpanName::kCount)];
};

// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanName name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

// Counts and times GetSuccessors and Location; everything else forwards.
// The base class's EdgeTtf* methods run unchanged against whatever cache is
// attached to this wrapper.
class TimingAccessor : public capefp::network::NetworkAccessor {
 public:
  TimingAccessor(capefp::network::NetworkAccessor* inner,
                 SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  size_t num_nodes() const override { return inner_->num_nodes(); }
  capefp::geo::Point Location(capefp::network::NodeId node) override {
    ++location_calls;
    ScopedSpan span(recorder_, SpanName::kLocation);
    return inner_->Location(node);
  }
  void GetSuccessors(
      capefp::network::NodeId node,
      std::vector<capefp::network::NeighborEdge>* out) override {
    ++successor_calls;
    ScopedSpan span(recorder_, SpanName::kSuccessors);
    inner_->GetSuccessors(node, out);
  }
  const capefp::tdf::CapeCodPattern& Pattern(
      capefp::network::PatternId id) const override {
    return inner_->Pattern(id);
  }
  const capefp::tdf::Calendar& calendar() const override {
    return inner_->calendar();
  }
  double max_speed() const override { return inner_->max_speed(); }

  uint64_t successor_calls = 0;
  uint64_t location_calls = 0;

 private:
  capefp::network::NetworkAccessor* inner_;
  SpanRecorder* recorder_;
};

class TimingEstimator : public capefp::core::TravelTimeEstimator {
 public:
  TimingEstimator(capefp::core::TravelTimeEstimator* inner,
                  SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  double Estimate(capefp::network::NodeId node) override {
    ++calls;
    ScopedSpan span(recorder_, SpanName::kEstimate);
    return inner_->Estimate(node);
  }

  uint64_t calls = 0;

 private:
  capefp::core::TravelTimeEstimator* inner_;
  SpanRecorder* recorder_;
};

}  // namespace ledger

#endif  // CAPEFP_LEDGER_SPANS_H_
