// The traced pass: a workload's round replayed through the pieces the
// engine composes, built here from the public headers (BoundaryNodeIndex,
// CcamStore with CcamAccessor, EdgeTtfCache, ProfileSearch,
// ReverseProfileSearch, TdAStar), wrapped in timing accessors and
// estimators. It yields per-layer work and time, and checks three exact
// identities between totals that two different code paths count.
#ifndef CAPEFP_LEDGER_TRACED_PASS_H_
#define CAPEFP_LEDGER_TRACED_PASS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ledger/src/checker.h"
#include "ledger/src/spans.h"
#include "ledger/src/workload.h"
#include "src/core/boundary_estimator.h"
#include "src/network/accessor.h"
#include "src/network/ttf_cache.h"
#include "src/storage/ccam_accessor.h"
#include "src/storage/ccam_store.h"

namespace ledger {

struct PassStats {
  size_t ops = 0;
  double wall_s = 0.0;
  // Identity operands; each pair must match exactly.
  uint64_t forward_successor_calls = 0;  // Seen by the accessor wrapper.
  uint64_t forward_expansions = 0;       // SearchStats::expansions.
  uint64_t forward_estimate_calls = 0;   // Seen by the estimator wrapper.
  uint64_t forward_pushes_plus_pruned_bound = 0;
  uint64_t ttf_calls_plus_refine_edges = 0;  // Search trace + SearchStats.
  uint64_t ttf_cache_events = 0;             // Cache hits+misses+bypasses.
  // Profile-search counters over every profile search (forward + reverse).
  uint64_t expansions = 0;
  uint64_t td_expanded = 0;  // TD-A* expanded nodes (fixed departures).
  uint64_t pushes = 0;
  uint64_t pruned_dominated = 0;
  uint64_t pruned_bound = 0;
  uint64_t refine_edges = 0;
  uint64_t refine_ns = 0;
  uint64_t simplify_in = 0;
  uint64_t simplify_out = 0;
  // The search's own "edge_ttf" trace leaf.
  uint64_t edge_ttf_calls = 0;
  double edge_ttf_ms = 0.0;
  // Span totals summed over workers.
  SpanRecorder::Totals span[static_cast<size_t>(SpanName::kCount)];
  uint64_t successor_calls = 0;
  uint64_t location_calls = 0;
  uint64_t label_count = 0;
  uint64_t label_breakpoints = 0;
  uint64_t borders = 0;
  uint64_t border_breakpoints = 0;
  uint64_t arena_spills = 0;
  uint64_t arena_high_water_bytes = 0;
  capefp::network::EdgeTtfCacheStats cache;
  std::optional<capefp::storage::CcamStats> storage;
  std::vector<Answer> answers;

  // Empty when all three identities hold, else the first mismatch. Only
  // meaningful for a traced pass (an untraced one records no edge_ttf).
  std::string IdentityError() const;
};

// Kernel timings, in ns per call, from replaying the returned forward
// allFP paths edge by edge: full-day edge-function derivation, path
// composition, and merging the piece functions with LowerEnvelopeInto and
// testing them with DominatesOrEqual.
struct KernelReplay {
  uint64_t derive_calls = 0;
  double derive_ns = 0.0;
  uint64_t compose_calls = 0;
  double compose_ns = 0.0;
  uint64_t envelope_calls = 0;
  double envelope_ns = 0.0;
  uint64_t dominance_calls = 0;
  double dominance_ns = 0.0;
};

class Composition {
 public:
  // Builds the boundary index (and, for a disk-backed spec, the CCAM file
  // at `ccam_path` and its store), timing each build.
  Composition(const WorkloadSpec& spec, const RoadNetwork* net,
              const std::string& ccam_path);
  ~Composition();
  Composition(const Composition&) = delete;
  Composition& operator=(const Composition&) = delete;

  // Runs `ops` on `workers` threads. With `traced` false nothing is timed
  // (a warm pass). `recorders` receives each worker's spans when non-null.
  PassStats Run(const std::vector<Op>& ops, int workers, bool traced,
                std::vector<SpanRecorder>* recorders = nullptr);

  double index_build_s() const { return index_build_s_; }
  double storage_build_s() const { return storage_build_s_; }

 private:
  const WorkloadSpec& spec_;
  const RoadNetwork* net_;
  std::string ccam_path_;
  double index_build_s_ = 0.0;
  double storage_build_s_ = 0.0;
  std::unique_ptr<capefp::core::BoundaryNodeIndex> index_;
  std::unique_ptr<capefp::storage::CcamStore> store_;
  std::unique_ptr<capefp::network::NetworkAccessor> base_;
  capefp::network::EdgeTtfCache cache_;
};

KernelReplay ReplayKernels(const RoadNetwork& net, const std::vector<Op>& ops,
                           const std::vector<Answer>& answers);

}  // namespace ledger

#endif  // CAPEFP_LEDGER_TRACED_PASS_H_
