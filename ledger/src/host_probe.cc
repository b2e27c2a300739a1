#include "ledger/src/host_probe.h"

#include <algorithm>
#include <functional>

#include "ledger/src/spans.h"

namespace ledger {

namespace {

constexpr uint32_t kSide = 256;  // 65,536 nodes, 261,120 arcs: ~4 MB.
constexpr uint32_t kNodes = kSide * kSide;
constexpr uint32_t kSources = 8;
constexpr uint32_t kSettlePerSlice = 12000;

}  // namespace

HostProbe::HostProbe() {
  uint64_t state = 0x243f6a8885a308d3ull;  // xorshift64, fixed seed.
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  constexpr int64_t kSteps[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  first_.reserve(kNodes + 1);
  for (uint32_t v = 0; v < kNodes; ++v) {
    first_.push_back(static_cast<uint32_t>(head_.size()));
    for (const auto& step : kSteps) {
      const int64_t x = static_cast<int64_t>(v % kSide) + step[0];
      const int64_t y = static_cast<int64_t>(v / kSide) + step[1];
      if (x < 0 || y < 0 || x >= kSide || y >= kSide) continue;
      head_.push_back(static_cast<uint32_t>(y * kSide + x));
      weight_.push_back(1.0 + static_cast<double>(next() % 1000) / 100.0);
    }
  }
  first_.push_back(static_cast<uint32_t>(head_.size()));
  dist_.assign(kNodes, 0.0);
  stamp_.assign(kNodes, 0);
}

double HostProbe::Slice() {
  const int64_t start = SpanRecorder::NowNs();
  ++epoch_;
  // The sources take turns, so every slice does the same kind of work.
  const uint32_t source =
      (next_source_++ % kSources) * (kNodes / kSources) + kSide / 2;
  heap_.clear();
  dist_[source] = 0.0;
  stamp_[source] = epoch_;
  heap_.push_back({0.0, source});
  const auto later = std::greater<std::pair<double, uint32_t>>();
  uint32_t settled = 0;
  while (!heap_.empty() && settled < kSettlePerSlice) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [d, v] = heap_.back();
    heap_.pop_back();
    if (d > dist_[v]) continue;
    ++settled;
    for (uint32_t a = first_[v]; a < first_[v + 1]; ++a) {
      const uint32_t w = head_[a];
      const double nd = d + weight_[a];
      if (stamp_[w] != epoch_ || nd < dist_[w]) {
        stamp_[w] = epoch_;
        dist_[w] = nd;
        heap_.push_back({nd, w});
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  return static_cast<double>(SpanRecorder::NowNs() - start) * 1e-6;
}

}  // namespace ledger
