#include "ledger/src/traced_pass.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "src/core/profile_search.h"
#include "src/core/reverse_profile_search.h"
#include "src/core/td_astar.h"
#include "src/obs/trace.h"
#include "src/storage/ccam_builder.h"
#include "src/tdf/travel_time.h"
#include "src/util/check.h"

namespace ledger {

namespace core = capefp::core;
namespace net = capefp::network;
namespace tdf = capefp::tdf;

std::string PassStats::IdentityError() const {
  std::ostringstream out;
  if (forward_successor_calls != forward_expansions) {
    out << "GetSuccessors calls " << forward_successor_calls
        << " != expansions " << forward_expansions;
  } else if (forward_estimate_calls != forward_pushes_plus_pruned_bound) {
    out << "Estimate calls " << forward_estimate_calls
        << " != pushes + pruned_bound " << forward_pushes_plus_pruned_bound;
  } else if (ttf_calls_plus_refine_edges != ttf_cache_events) {
    out << "edge_ttf calls + refine_edges " << ttf_calls_plus_refine_edges
        << " != TTF-cache hits + misses + bypasses " << ttf_cache_events;
  }
  return out.str();
}

namespace {

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

void AddSearchStats(const core::SearchStats& s, PassStats* p) {
  p->expansions += static_cast<uint64_t>(s.expansions);
  p->pushes += static_cast<uint64_t>(s.pushes);
  p->pruned_dominated += static_cast<uint64_t>(s.pruned_dominated);
  p->pruned_bound += static_cast<uint64_t>(s.pruned_bound);
  p->refine_edges += static_cast<uint64_t>(s.refine_edges);
  p->refine_ns += s.refine_nanos;
  p->simplify_in += static_cast<uint64_t>(s.simplify_breakpoints_in);
  p->simplify_out += static_cast<uint64_t>(s.simplify_breakpoints_out);
}

void AddLabels(const core::ProfileSearch::Scratch& scratch, PassStats* p) {
  p->label_count += scratch.labels.size();
  for (const auto& label : scratch.labels) {
    p->label_breakpoints += label.travel_time.breakpoints().size();
  }
}

void AddBorder(const std::optional<tdf::PwlFunction>& border, PassStats* p) {
  if (!border.has_value()) return;
  ++p->borders;
  p->border_breakpoints += border->breakpoints().size();
}

void Merge(const PassStats& from, PassStats* into) {
  into->forward_successor_calls += from.forward_successor_calls;
  into->forward_expansions += from.forward_expansions;
  into->forward_estimate_calls += from.forward_estimate_calls;
  into->forward_pushes_plus_pruned_bound +=
      from.forward_pushes_plus_pruned_bound;
  into->ttf_calls_plus_refine_edges += from.ttf_calls_plus_refine_edges;
  into->expansions += from.expansions;
  into->td_expanded += from.td_expanded;
  into->pushes += from.pushes;
  into->pruned_dominated += from.pruned_dominated;
  into->pruned_bound += from.pruned_bound;
  into->refine_edges += from.refine_edges;
  into->refine_ns += from.refine_ns;
  into->simplify_in += from.simplify_in;
  into->simplify_out += from.simplify_out;
  into->edge_ttf_calls += from.edge_ttf_calls;
  into->edge_ttf_ms += from.edge_ttf_ms;
  into->successor_calls += from.successor_calls;
  into->location_calls += from.location_calls;
  into->label_count += from.label_count;
  into->label_breakpoints += from.label_breakpoints;
  into->borders += from.borders;
  into->border_breakpoints += from.border_breakpoints;
  into->arena_spills += from.arena_spills;
  into->arena_high_water_bytes =
      std::max(into->arena_high_water_bytes, from.arena_high_water_bytes);
}

}  // namespace

Composition::Composition(const WorkloadSpec& spec, const RoadNetwork* net,
                         const std::string& ccam_path)
    : spec_(spec), net_(net), ccam_path_(ccam_path), cache_(1 << 16) {
  int64_t start = SpanRecorder::NowNs();
  core::BoundaryIndexOptions index_options;
  index_options.grid_dim = spec.grid;
  index_options.mode = core::BoundaryIndexOptions::Mode::kTravelTime;
  index_ = std::make_unique<core::BoundaryNodeIndex>(*net, index_options);
  index_build_s_ = Seconds(SpanRecorder::NowNs() - start);
  if (spec.disk_backed) {
    start = SpanRecorder::NowNs();
    capefp::storage::CcamBuildOptions build;
    build.page_size = 2048;
    auto report = capefp::storage::BuildCcamFile(*net, ccam_path, build);
    CAPEFP_CHECK(report.ok()) << report.status().ToString();
    capefp::storage::CcamOpenOptions open;
    open.buffer_pool_pages = spec.pool_pages;
    auto store = capefp::storage::CcamStore::Open(ccam_path, open);
    CAPEFP_CHECK(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    storage_build_s_ = Seconds(SpanRecorder::NowNs() - start);
    base_ = std::make_unique<capefp::storage::CcamAccessor>(store_.get());
  } else {
    base_ = std::make_unique<net::InMemoryAccessor>(net);
  }
}

Composition::~Composition() {
  base_.reset();
  if (store_ != nullptr) {
    store_.reset();
    std::remove(ccam_path_.c_str());
  }
}

PassStats Composition::Run(const std::vector<Op>& ops, int workers,
                           bool traced,
                           std::vector<SpanRecorder>* recorders) {
  PassStats total;
  total.ops = ops.size();
  total.answers.resize(ops.size());
  std::vector<SpanRecorder> local_recorders;
  if (recorders == nullptr) recorders = &local_recorders;
  recorders->assign(static_cast<size_t>(workers), SpanRecorder());
  std::vector<PassStats> per_worker(static_cast<size_t>(workers));
  cache_.ResetStats();
  if (store_ != nullptr) store_->ResetStats();

  core::ProfileSearchOptions search_options;
  search_options.simplify_eps = spec_.eps_seconds / 60.0;
  std::atomic<size_t> next{0};
  auto worker = [&](int w) {
    SpanRecorder& recorder = (*recorders)[static_cast<size_t>(w)];
    recorder.set_enabled(traced);
    SpanRecorder* rec = traced ? &recorder : nullptr;
    PassStats& p = per_worker[static_cast<size_t>(w)];
    TimingAccessor accessor(base_.get(), rec);
    accessor.set_ttf_cache(&cache_);
    // Like the engine: its one-shot calls start each query on a fresh
    // scratch, its batch workers keep one scratch for all their queries.
    auto scratch_ptr = std::make_unique<core::ProfileSearch::Scratch>();
    core::TdAStarScratch td_scratch;
    for (size_t i = next.fetch_add(1); i < ops.size(); i = next.fetch_add(1)) {
      if (spec_.workers == 1 && i > 0) {
        scratch_ptr = std::make_unique<core::ProfileSearch::Scratch>();
      }
      core::ProfileSearch::Scratch& scratch = *scratch_ptr;
      const uint64_t spills_before = scratch.arena.stats().spills;
      const Op& op = ops[i];
      Answer& answer = total.answers[i];
      recorder.set_query(static_cast<uint32_t>(i));
      ScopedSpan query_span(rec, SpanName::kQuery);
      const bool forward = op.kind == Kind::kAllFp || op.kind == Kind::kSingleFp;
      const bool arrival = op.kind == Kind::kArrivalAllFp ||
                           op.kind == Kind::kArrivalSingleFp;
      std::unique_ptr<core::BoundaryNodeEstimator> estimator;
      {
        ScopedSpan setup(rec, SpanName::kEstimatorSetup);
        estimator = std::make_unique<core::BoundaryNodeEstimator>(
            index_.get(), &accessor, arrival ? op.source : op.target,
            arrival ? core::BoundaryNodeEstimator::Direction::kFromAnchor
                    : core::BoundaryNodeEstimator::Direction::kToAnchor,
            &scratch.estimator);
      }
      TimingEstimator estimate(estimator.get(), rec);
      const uint64_t successors_before = accessor.successor_calls;
      capefp::obs::Trace trace;
      core::SearchStats stats;
      {
        ScopedSpan search_span(rec, SpanName::kSearch);
        if (forward) {
          core::ProfileSearch search(&accessor, &estimate, search_options,
                                     &scratch, traced ? &trace : nullptr);
          const core::ProfileQuery q{op.source, op.target, op.lo, op.hi};
          if (op.kind == Kind::kAllFp) {
            answer.all = search.RunAllFp(q);
            stats = answer.all.stats;
          } else {
            answer.single = search.RunSingleFp(q);
            stats = answer.single.stats;
          }
        } else if (arrival) {
          core::ReverseProfileSearch search(net_, &estimate, search_options,
                                            &scratch);
          const core::ReverseProfileQuery q{op.source, op.target, op.lo,
                                            op.hi};
          if (op.kind == Kind::kArrivalAllFp) {
            answer.arrival_all = search.RunAllFp(q);
            stats = answer.arrival_all.stats;
          } else {
            answer.arrival_single = search.RunSingleFp(q);
            stats = answer.arrival_single.stats;
          }
        } else {
          answer.fixed = core::TdAStar(&accessor, op.source, op.target, op.lo,
                                       &estimate, nullptr, &td_scratch);
          p.td_expanded += static_cast<uint64_t>(answer.fixed.expanded_nodes);
        }
      }
      if (op.kind != Kind::kFixed) {
        AddSearchStats(stats, &p);
        AddLabels(scratch, &p);
      }
      AddBorder(op.kind == Kind::kAllFp ? answer.all.border
                                        : answer.arrival_all.border,
                &p);
      p.arena_spills += scratch.arena.stats().spills - spills_before;
      p.arena_high_water_bytes = std::max(
          p.arena_high_water_bytes, scratch.arena.stats().high_water_bytes);
      if (forward) {
        p.forward_successor_calls +=
            accessor.successor_calls - successors_before;
        p.forward_expansions += static_cast<uint64_t>(stats.expansions);
        p.forward_estimate_calls += estimate.calls;
        p.forward_pushes_plus_pruned_bound +=
            static_cast<uint64_t>(stats.pushes + stats.pruned_bound);
        uint64_t ttf_calls = 0;
        for (const auto& s : trace.spans()) {
          if (s.aggregated && s.name == "edge_ttf") {
            ttf_calls += s.count;
            p.edge_ttf_ms += s.duration_ms;
          }
        }
        p.edge_ttf_calls += ttf_calls;
        p.ttf_calls_plus_refine_edges +=
            ttf_calls + static_cast<uint64_t>(stats.refine_edges);
      }
    }
    p.successor_calls = accessor.successor_calls;
    p.location_calls = accessor.location_calls;
  };

  const int64_t start = SpanRecorder::NowNs();
  if (workers == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) threads.emplace_back(worker, w);
    for (std::thread& t : threads) t.join();
  }
  total.wall_s = Seconds(SpanRecorder::NowNs() - start);
  for (const PassStats& p : per_worker) Merge(p, &total);
  for (const SpanRecorder& r : *recorders) {
    for (size_t n = 0; n < static_cast<size_t>(SpanName::kCount); ++n) {
      const auto& t = r.totals(static_cast<SpanName>(n));
      total.span[n].count += t.count;
      total.span[n].total_ns += t.total_ns;
      total.span[n].self_ns += t.self_ns;
    }
  }
  total.cache = cache_.stats();
  total.ttf_cache_events =
      total.cache.hits + total.cache.misses + total.cache.bypasses;
  if (store_ != nullptr) total.storage = store_->stats();
  return total;
}

KernelReplay ReplayKernels(const RoadNetwork& network,
                           const std::vector<Op>& ops,
                           const std::vector<Answer>& answers) {
  KernelReplay k;
  tdf::PwlFunction full, edge_fn, tmp, env, env_tmp;
  std::vector<tdf::PwlFunction> piece_fns;
  auto timed = [](auto&& fn, uint64_t* calls, double* ns) {
    const int64_t start = SpanRecorder::NowNs();
    fn();
    *ns += static_cast<double>(SpanRecorder::NowNs() - start);
    ++*calls;
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != Kind::kAllFp || !answers[i].all.found) continue;
    piece_fns.clear();
    for (const auto& piece : answers[i].all.pieces) {
      tdf::PwlFunction path =
          tdf::PwlFunction::Constant(ops[i].lo, ops[i].hi, 0.0);
      for (size_t h = 0; h + 1 < piece.path.size(); ++h) {
        net::EdgeId edge = -1;
        for (const net::EdgeId e : network.OutEdges(piece.path[h])) {
          if (network.edge(e).to == piece.path[h + 1]) {
            edge = e;
            break;
          }
        }
        CAPEFP_CHECK_GE(edge, 0);
        const double lo = path.domain_lo() + path.Value(path.domain_lo());
        const double hi = path.domain_hi() + path.Value(path.domain_hi());
        const double day_lo =
            std::floor(lo / tdf::kMinutesPerDay) * tdf::kMinutesPerDay;
        const double dist = network.edge(edge).distance_miles;
        if (hi <= day_lo + tdf::kMinutesPerDay) {
          timed([&] {
                  tdf::EdgeTravelTimeFunctionInto(
                      network.SpeedView(edge), dist, day_lo,
                      day_lo + tdf::kMinutesPerDay, &full);
                },
                &k.derive_calls, &k.derive_ns);
          full.RestrictedInto(lo, hi, &edge_fn);
        } else {
          tdf::EdgeTravelTimeFunctionInto(network.SpeedView(edge), dist, lo,
                                          hi, &edge_fn);
        }
        timed([&] { tdf::ComposePathWithEdgeInto(path, edge_fn, &tmp); },
              &k.compose_calls, &k.compose_ns);
        std::swap(path, tmp);
      }
      piece_fns.push_back(std::move(path));
    }
    env = piece_fns.front();
    for (size_t p = 1; p < piece_fns.size(); ++p) {
      bool dominated = false;
      timed([&] {
              dominated =
                  tdf::PwlFunction::DominatesOrEqual(piece_fns[p], env);
            },
            &k.dominance_calls, &k.dominance_ns);
      (void)dominated;
      timed([&] {
              tdf::PwlFunction::LowerEnvelopeInto(env, piece_fns[p],
                                                  &env_tmp);
            },
            &k.envelope_calls, &k.envelope_ns);
      std::swap(env, env_tmp);
    }
  }
  auto per_call = [](double ns, uint64_t calls) {
    return calls == 0 ? 0.0 : ns / static_cast<double>(calls);
  };
  k.derive_ns = per_call(k.derive_ns, k.derive_calls);
  k.compose_ns = per_call(k.compose_ns, k.compose_calls);
  k.envelope_ns = per_call(k.envelope_ns, k.envelope_calls);
  k.dominance_ns = per_call(k.dominance_ns, k.dominance_calls);
  return k;
}

}  // namespace ledger
