#include "ledger/src/spans.h"

#include <cinttypes>

namespace ledger {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kQuery: return "query";
    case SpanName::kEstimatorSetup: return "estimator.setup";
    case SpanName::kSearch: return "search";
    case SpanName::kEstimate: return "estimate";
    case SpanName::kSuccessors: return "successors";
    case SpanName::kLocation: return "location";
    case SpanName::kCount: break;
  }
  return "?";
}

int SpanRecorder::Begin(SpanName name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.query = query_;
  span.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  child_ns_.push_back(0);
  open_.push_back(index);
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  const int64_t end = NowNs();
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = end;
  open_.pop_back();
  const int64_t duration = end - span.start_ns;
  Totals& t = totals_[static_cast<size_t>(span.name)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - child_ns_[static_cast<size_t>(index)];
  if (span.parent >= 0) child_ns_[static_cast<size_t>(span.parent)] += duration;
}

void SpanRecorder::WriteTsv(
    std::FILE* out, const std::function<bool(const Span&)>& keep) const {
  for (const Span& s : spans_) {
    if (!keep(s)) continue;
    std::fprintf(out, "%u\t%s\t%d\t%" PRId64 "\t%" PRId64 "\n", s.query,
                 SpanNameString(s.name), s.parent, s.start_ns, s.end_ns);
  }
}

}  // namespace ledger
