// The end-to-end benchmark program.
//
//   ledger_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's network and its round of queries (the seed sets
// the order), creates the engine (timed: setup_s), answers the round once
// untimed, then answers it in whole rounds, one client or one RunBatch at
// a time (closed loop), until the time is up, with slices of a fixed
// reference computation (HostProbe) between queries that tell each
// round's host speed. Every answer is then checked: each round's answers
// must be bit-identical to the warm-up's, and the warm-up's pass the
// independent checker. With --trace 1 a separate traced pass follows and
// the per-layer metrics are printed instead of the end-to-end ones. The
// last line of stdout is one JSON object: correct, attempted, failed,
// metrics.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "ledger/src/checker.h"
#include "ledger/src/host_probe.h"
#include "ledger/src/spans.h"
#include "ledger/src/traced_pass.h"
#include "ledger/src/workload.h"
#include "src/core/engine.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/stats.h"

namespace ledger {
namespace {

namespace core = capefp::core;

// Seeded instants at which the checker tests each answer, besides the
// breakpoints of its function.
constexpr int kSeededInstants = 4;
constexpr int kCheckerThreads = 4;
// Latency percentiles are taken over a round's queries, so a round holds
// enough of them that at least ten lie beyond the reported p90.
constexpr size_t kMinRoundOps = 100;
// A query's latency is the fastest or the median of its measured rounds,
// so there must be a few to choose from.
constexpr size_t kMinRounds = 3;
// One host-probe slice follows the first query that ends this long after
// the previous slice (one-client workloads: about 2 % of the time), and
// this many follow each batch.
constexpr int64_t kProbeEveryNs = 100'000'000;
constexpr int kProbeSlicesPerBatch = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

double Percentile(const std::vector<double>& v, double p) {
  capefp::util::Summary s;
  for (double x : v) s.Add(x);
  return s.percentile(p);
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

// Peak resident set size of the process so far (Linux reports KiB).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void LogPhase(const char* phase, int64_t start_ns) {
  std::fprintf(stderr, "[ledger] %s: %.2f s\n", phase,
               static_cast<double>(SpanRecorder::NowNs() - start_ns) * 1e-9);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[64];
      const auto end =
          std::to_chars(buf, buf + sizeof(buf), entries_[i].value).ptr;
      out += (i == 0 ? "\"" : ", \"") + entries_[i].name +
             "\": {\"value\": " + std::string(buf, end) + ", \"unit\": \"" +
             entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Answers `ops` through the engine's public API; records each answer and
// its latency. One op at a time, or one RunBatch over the whole round.
// With a probe, runs its slices between queries (or after the batch) and
// appends their times to `slice_ms`.
void RunRound(core::FastestPathEngine* engine, const std::vector<Op>& ops,
              int workers, std::vector<Answer>* answers,
              std::vector<double>* latency_ms, HostProbe* probe = nullptr,
              std::vector<double>* slice_ms = nullptr) {
  if (workers > 1) {
    std::vector<core::ProfileQuery> queries;
    for (const Op& op : ops) queries.push_back({op.source, op.target, op.lo, op.hi});
    std::vector<double> ms;
    std::vector<core::AllFpResult> results =
        engine->RunBatch(queries, workers, &ms);
    for (size_t i = 0; i < ops.size(); ++i) {
      (*answers)[i].all = std::move(results[i]);
      (*latency_ms)[i] = ms[i];
    }
    for (int k = 0; probe != nullptr && k < kProbeSlicesPerBatch; ++k) {
      slice_ms->push_back(probe->Slice());
    }
    return;
  }
  int64_t last_slice = SpanRecorder::NowNs();
  for (size_t i = 0; i < ops.size(); ++i) {
    const int64_t start = SpanRecorder::NowNs();
    Answer answer = Ask(engine, ops[i]);
    const int64_t end = SpanRecorder::NowNs();
    (*latency_ms)[i] = static_cast<double>(end - start) * 1e-6;
    (*answers)[i] = std::move(answer);
    if (probe != nullptr && end - last_slice >= kProbeEveryNs) {
      slice_ms->push_back(probe->Slice());
      last_slice = SpanRecorder::NowNs();
    }
  }
}

// The independent checker over every op of the round, on several threads.
std::vector<std::string> CheckRound(const RoadNetwork& net,
                                    const WorkloadSpec& spec,
                                    const std::vector<Op>& ops,
                                    const std::vector<Answer>& answers) {
  std::vector<std::string> errors(ops.size());
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    Oracle oracle(&net);
    for (size_t i = next.fetch_add(1); i < ops.size(); i = next.fetch_add(1)) {
      errors[i] = CheckAnswer(ops[i], answers[i], spec.eps_seconds / 60.0,
                              kSeededInstants, InstantSeed(ops[i]), &oracle);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kCheckerThreads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return errors;
}

// The ε-band fault named in CHANGES.md: a border more than ε above the
// optimum. Queries it hits fail in every run (the ε workloads' queries do
// not depend on the seed), so they stay in the round as failed operations.
bool IsEpsBandFault(const WorkloadSpec& spec, const std::string& error) {
  return spec.eps_seconds > 0.0 &&
         error.rfind(kEpsFaultMessage, 0) == 0;
}

// Root duration minus its direct children, for one engine query trace.
double EngineSelfMs(const capefp::obs::Trace& trace) {
  const auto& spans = trace.spans();
  if (spans.empty()) return 0.0;
  double self = spans[0].duration_ms;
  for (const auto& s : spans) {
    if (s.parent == 0) self -= s.duration_ms;
  }
  return self;
}

// Timings of the measured rounds. Other tenants of a shared host slow
// whole stretches of a run down, so each round's timings are divided by
// that round's slowdown: the median time of the probe slices run during
// the round over kReferenceSliceMs. For one client, what that leaves of
// their interference only ever adds time, so op_ms[i] is op i's fastest
// normalized latency over its few rounds. A batch's slowdown rests on
// three slices, which the fastest of its many rounds would select on, so
// there op_ms[i] is the median.
struct Measured {
  double setup_s = 0.0;
  double wall_s = 0.0;           // The whole measured phase, raw.
  std::vector<double> round_s;   // Per round, raw, probe slices excluded.
  std::vector<double> slowdown;  // Per round.
  std::vector<std::vector<double>> norm_ms;  // [op][round], normalized.
  std::vector<double> op_ms;
  double busy_ms = 0.0;  // Sum of every measured latency, raw.
  double peak_rss_mb = 0.0;

  // The normalized time of a round: for one client, whose round is its
  // queries back to back, the sum of their latencies; for a batch, the
  // median normalized batch.
  double NormalizedRoundS(int workers) const {
    if (workers == 1) {
      return std::accumulate(op_ms.begin(), op_ms.end(), 0.0) * 1e-3;
    }
    std::vector<double> norm;
    for (size_t r = 0; r < round_s.size(); ++r) {
      norm.push_back(round_s[r] / slowdown[r]);
    }
    return Median(norm);
  }
};

void AddLayerMetrics(const WorkloadSpec& spec, const RoadNetwork& net,
                     const std::vector<Op>& ops, const Measured& measured,
                     core::FastestPathEngine* engine,
                     const std::string& ccam_path,
                     const std::string& spans_path, Metrics* m,
                     std::string* identity_error) {
  Composition comp(spec, &net, ccam_path);
  comp.Run(ops, spec.workers, /*traced=*/false);  // Warm cache and pool.
  std::vector<SpanRecorder> recorders;
  const PassStats p = comp.Run(ops, spec.workers, /*traced=*/true, &recorders);
  *identity_error = p.IdentityError();
  double contention = 0.0;
  if (spec.workers > 1) {
    const PassStats p1 = comp.Run(ops, 1, /*traced=*/true);
    if (identity_error->empty()) *identity_error = p1.IdentityError();
    contention = Ratio(Ratio(p.edge_ttf_ms, static_cast<double>(p.edge_ttf_calls)),
                       Ratio(p1.edge_ttf_ms, static_cast<double>(p1.edge_ttf_calls)));
  }
  // Every query's query/estimator.setup/search spans, and the per-call
  // spans of the first query of each kind (all of them would run to
  // hundreds of MB; their totals are in the metrics).
  std::vector<bool> full(ops.size(), false);
  for (int kind = 0; kind < kNumKinds; ++kind) {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (static_cast<int>(ops[i].kind) == kind) {
        full[i] = true;
        break;
      }
    }
  }
  if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
    for (const SpanRecorder& r : recorders) {
      r.WriteTsv(f, [&](const SpanRecorder::Span& s) {
        return full[s.query] || s.name == SpanName::kQuery ||
               s.name == SpanName::kEstimatorSetup ||
               s.name == SpanName::kSearch;
      });
    }
    std::fclose(f);
  }
  const KernelReplay k = ReplayKernels(net, ops, p.answers);

  // The engine's own self time (root minus children of its query trace),
  // and for the batch workload the 1- vs 4-worker speedup, untraced.
  capefp::util::Summary engine_self;
  double speedup = 0.0;
  if (spec.workers > 1) {
    std::vector<core::ProfileQuery> queries;
    for (const Op& op : ops) queries.push_back({op.source, op.target, op.lo, op.hi});
    std::vector<capefp::obs::Trace> traces;
    engine->RunBatchWithMetrics(queries, spec.workers, &traces);
    for (const auto& t : traces) engine_self.Add(EngineSelfMs(t));
    int64_t start = SpanRecorder::NowNs();
    engine->RunBatch(queries, 1);
    const double wall1 = static_cast<double>(SpanRecorder::NowNs() - start);
    start = SpanRecorder::NowNs();
    engine->RunBatch(queries, spec.workers);
    speedup = Ratio(wall1, static_cast<double>(SpanRecorder::NowNs() - start));
  } else {
    for (const Op& op : ops) {
      capefp::obs::Trace t;
      const core::ProfileQuery q{op.source, op.target, op.lo, op.hi};
      if (op.kind == Kind::kAllFp) {
        engine->AllFastestPaths(q, &t);
      } else if (op.kind == Kind::kSingleFp) {
        engine->SingleFastestPath(q, &t);
      } else if (op.kind == Kind::kFixed) {
        engine->FastestPathAt(op.source, op.target, op.lo, &t);
      } else {
        continue;  // Arrival queries have no engine trace.
      }
      engine_self.Add(EngineSelfMs(t));
    }
  }

  const double n = static_cast<double>(p.ops);
  auto span = [&](SpanName s) { return p.span[static_cast<size_t>(s)]; };
  const auto succ = span(SpanName::kSuccessors);
  const auto loc = span(SpanName::kLocation);
  const auto search = span(SpanName::kSearch);
  const auto est = span(SpanName::kEstimate);
  const auto setup = span(SpanName::kEstimatorSetup);
  const double search_ms = static_cast<double>(search.total_ns) * 1e-6;

  m->Add("storage.faults_per_query",
         p.storage ? static_cast<double>(p.storage->pool.faults) / n : 0.0,
         "count");
  m->Add("storage.pool_hit_rate", p.storage ? p.storage->hit_rate() : 0.0,
         "ratio");
  m->Add("storage.io_ms_per_query",
         p.storage ? p.storage->pager.io_millis() / n : 0.0, "ms");
  m->Add("storage.successor_calls_per_query",
         static_cast<double>(p.successor_calls) / n, "count");
  m->Add("storage.location_calls_per_query",
         static_cast<double>(p.location_calls) / n, "count");
  m->Add("storage.us_per_call",
         Ratio(static_cast<double>(succ.self_ns + loc.self_ns) * 1e-3,
               static_cast<double>(succ.count + loc.count)),
         "us");
  m->Add("storage.build_s", comp.storage_build_s(), "s");

  m->Add("network.ttf_calls_per_query",
         static_cast<double>(p.edge_ttf_calls) / n, "count");
  m->Add("network.ttf_ns_per_call",
         Ratio(p.edge_ttf_ms * 1e6, static_cast<double>(p.edge_ttf_calls)),
         "ns");
  m->Add("network.ttf_share", Ratio(p.edge_ttf_ms, search_ms), "ratio");
  m->Add("network.ttf_cache_hit_rate", p.cache.hit_rate(), "ratio");
  m->Add("network.ttf_cache_misses_per_query",
         static_cast<double>(p.cache.misses) / n, "count");
  m->Add("network.ttf_contention_ratio", contention, "ratio");

  m->Add("tdf.compose_ns", k.compose_ns, "ns");
  m->Add("tdf.envelope_ns", k.envelope_ns, "ns");
  m->Add("tdf.dominance_ns", k.dominance_ns, "ns");
  m->Add("tdf.derive_ns", k.derive_ns, "ns");
  m->Add("tdf.breakpoints_per_label",
         Ratio(static_cast<double>(p.label_breakpoints),
               static_cast<double>(p.label_count)),
         "count");
  m->Add("tdf.compression_ratio",
         p.simplify_out == 0 ? 1.0
                             : static_cast<double>(p.simplify_in) /
                                   static_cast<double>(p.simplify_out),
         "ratio");
  m->Add("tdf.refine_ms_per_query", static_cast<double>(p.refine_ns) * 1e-6 / n,
         "ms");
  m->Add("tdf.arena_spills_per_query", static_cast<double>(p.arena_spills) / n,
         "count");
  m->Add("tdf.arena_high_water_mb",
         static_cast<double>(p.arena_high_water_bytes) / (1024.0 * 1024.0),
         "MB");
  m->Add("tdf.border_breakpoints_per_query",
         Ratio(static_cast<double>(p.border_breakpoints),
               static_cast<double>(p.borders)),
         "count");

  const double expansions = static_cast<double>(p.expansions);
  m->Add("core.search.expansions_per_query", expansions / n, "count");
  m->Add("core.search.pushes_per_query", static_cast<double>(p.pushes) / n,
         "count");
  m->Add("core.search.pruned_dominated_per_query",
         static_cast<double>(p.pruned_dominated) / n, "count");
  m->Add("core.search.pruned_bound_per_query",
         static_cast<double>(p.pruned_bound) / n, "count");
  m->Add("core.search.yield", Ratio(expansions, static_cast<double>(p.pushes)),
         "ratio");
  m->Add("core.search.self_ms_per_query",
         (static_cast<double>(search.self_ns) * 1e-6 - p.edge_ttf_ms) / n,
         "ms");
  m->Add("core.search.us_per_expansion",
         Ratio(search_ms * 1e3,
               expansions + static_cast<double>(p.td_expanded)),
         "us");

  m->Add("core.estimator.index_build_s", comp.index_build_s(), "s");
  m->Add("core.estimator.setup_us_per_query",
         Ratio(static_cast<double>(setup.total_ns) * 1e-3,
               static_cast<double>(setup.count)),
         "us");
  m->Add("core.estimator.calls_per_query", static_cast<double>(est.count) / n,
         "count");
  m->Add("core.estimator.ns_per_call",
         Ratio(static_cast<double>(est.self_ns), static_cast<double>(est.count)),
         "ns");

  m->Add("core.engine.self_ms_per_query", engine_self.mean(), "ms");
  m->Add("core.engine.worker_busy_share",
         Ratio(measured.busy_ms * 1e-3, measured.wall_s * spec.workers),
         "ratio");
  m->Add("core.engine.speedup_4w", speedup, "ratio");
  std::vector<double> kind_ms[kNumKinds];
  for (size_t i = 0; i < ops.size(); ++i) {
    kind_ms[static_cast<int>(ops[i].kind)].push_back(measured.op_ms[i]);
  }
  for (int kind = 0; kind < kNumKinds; ++kind) {
    m->Add(std::string("core.engine.") + KindName(static_cast<Kind>(kind)) +
               "_p50_ms",
           Median(kind_ms[kind]), "ms");
  }
  double raw_round_s = 0.0;
  for (double r : measured.round_s) raw_round_s += r;
  m->Add("obs.trace_overhead",
         Ratio(p.wall_s, raw_round_s /
                             static_cast<double>(measured.round_s.size())),
         "ratio");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ledger_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // setup_s runs from here, the start of the process, to the end of
  // FastestPathEngine::Create: one cold set-up per run. Making the inputs
  // takes about 0.02 s of it.
  const int64_t process_start = SpanRecorder::NowNs();
  const std::string out_dir = ".ledger_out";
  std::filesystem::create_directories(out_dir);
  const std::string stem = out_dir + "/" + spec->name + "-" +
                           std::to_string(static_cast<long>(getpid()));

  const RoadNetwork suffolk = MakeSuffolkNetwork();
  std::unique_ptr<RoadNetwork> dense;
  if (spec->dense_network) {
    dense = std::make_unique<RoadNetwork>(MakeDenseNetwork(suffolk));
  }
  const RoadNetwork& net = dense != nullptr ? *dense : suffolk;
  const std::vector<Op> ops = MakeRound(*spec, net, args.seed);
  CAPEFP_CHECK_GE(ops.size(), kMinRoundOps);

  LogPhase("inputs", process_start);
  Measured measured;
  int64_t start = SpanRecorder::NowNs();
  auto created = core::FastestPathEngine::Create(
      &net, MakeEngineOptions(*spec, stem + "-engine.ccam"));
  if (!created.ok()) {
    std::fprintf(stderr, "engine: %s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<core::FastestPathEngine> engine = std::move(*created);
  measured.setup_s =
      static_cast<double>(SpanRecorder::NowNs() - process_start) * 1e-9;
  LogPhase("engine set-up", start);

  // Warm-up (untimed): the reference answers, on one worker, so every
  // measured 4-worker round is compared with a sequential run. The batch
  // workload then runs one untimed round on its workers: the first
  // multi-threaded round pays for growing the threads' heaps.
  std::vector<Answer> reference(ops.size());
  std::vector<double> latency(ops.size());
  start = SpanRecorder::NowNs();
  RunRound(engine.get(), ops, 1, &reference, &latency);
  std::vector<Answer> answers(ops.size());
  if (spec->workers > 1) {
    RunRound(engine.get(), ops, spec->workers, &answers, &latency);
  }
  LogPhase("warm-up round", start);

  // The probe's first slices touch its arrays for the first time.
  HostProbe probe;
  std::vector<double> slice_ms;
  for (int k = 0; k < 8; ++k) slice_ms.push_back(probe.Slice());
  std::fprintf(stderr, "[ledger] host slowdown before measuring: %.3f\n",
               Median(slice_ms) / kReferenceSliceMs);

  std::vector<int64_t> mismatches(ops.size(), 0);
  measured.norm_ms.resize(ops.size());
  start = SpanRecorder::NowNs();
  const auto budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  while (SpanRecorder::NowNs() - start < budget_ns ||
         measured.round_s.size() < kMinRounds) {
    slice_ms.clear();
    const int64_t round_start = SpanRecorder::NowNs();
    RunRound(engine.get(), ops, spec->workers, &answers, &latency, &probe,
             &slice_ms);
    double slices_s = 0.0;
    for (double ms : slice_ms) slices_s += ms * 1e-3;
    measured.round_s.push_back(
        static_cast<double>(SpanRecorder::NowNs() - round_start) * 1e-9 -
        slices_s);
    // A round too short to hold a slice (never on these workloads) keeps
    // the previous round's speed.
    const double slowdown =
        !slice_ms.empty() ? Median(slice_ms) / kReferenceSliceMs
        : measured.slowdown.empty() ? 1.0 : measured.slowdown.back();
    measured.slowdown.push_back(slowdown);
    for (size_t i = 0; i < ops.size(); ++i) {
      measured.norm_ms[i].push_back(latency[i] / slowdown);
      measured.busy_ms += latency[i];
      if (!SameAnswer(ops[i].kind, answers[i], reference[i])) ++mismatches[i];
    }
  }
  measured.wall_s = static_cast<double>(SpanRecorder::NowNs() - start) * 1e-9;
  measured.peak_rss_mb = PeakRssMb();
  answers.clear();
  for (const std::vector<double>& ms : measured.norm_ms) {
    measured.op_ms.push_back(spec->workers == 1
                                 ? *std::min_element(ms.begin(), ms.end())
                                 : Median(ms));
  }
  const auto rounds = static_cast<int64_t>(measured.round_s.size());
  std::fprintf(stderr,
               "[ledger] measured: %lld rounds of %zu ops in %.2f s; "
               "raw round time (s) / host slowdown:",
               static_cast<long long>(rounds), ops.size(), measured.wall_s);
  for (size_t r = 0; r < measured.round_s.size(); ++r) {
    std::fprintf(stderr, " %.3f/%.3f", measured.round_s[r],
                 measured.slowdown[r]);
  }
  std::fprintf(stderr,
               "\n[ledger] raw qps %.2f (median round), %.2f normalized\n",
               static_cast<double>(ops.size()) / Median(measured.round_s),
               static_cast<double>(ops.size()) /
                   measured.NormalizedRoundS(spec->workers));
  start = SpanRecorder::NowNs();

  const std::vector<std::string> errors =
      CheckRound(net, *spec, ops, reference);
  int64_t failed = 0;
  bool correct = true;
  for (size_t i = 0; i < ops.size(); ++i) {
    const int64_t op_failed = errors[i].empty() ? mismatches[i] : rounds;
    if (op_failed == 0) continue;
    failed += op_failed;
    if (!IsEpsBandFault(*spec, errors[i])) correct = false;
    std::fprintf(stderr, "FAILED op %zu (%s %d -> %d, %.4f-%.4f): %s\n", i,
                 KindName(ops[i].kind), ops[i].source, ops[i].target,
                 ops[i].lo, ops[i].hi,
                 errors[i].empty() ? "answer differs from the warm-up run"
                                   : errors[i].c_str());
  }
  LogPhase("check", start);
  const int64_t attempted = rounds * static_cast<int64_t>(ops.size());

  Metrics metrics;
  if (args.trace) {
    start = SpanRecorder::NowNs();
    std::string identity_error;
    AddLayerMetrics(*spec, net, ops, measured, engine.get(),
                    stem + "-traced.ccam",
                    out_dir + "/" + spec->name + ".spans.tsv", &metrics,
                    &identity_error);
    if (!identity_error.empty()) {
      std::fprintf(stderr, "IDENTITY FAILED: %s\n", identity_error.c_str());
      correct = false;
    }
    LogPhase("traced pass", start);
  } else {
    metrics.Add("setup_s", measured.setup_s, "s");
    metrics.Add("qps",
                static_cast<double>(ops.size()) /
                    measured.NormalizedRoundS(spec->workers),
                "queries/s");
    metrics.Add("latency_p50_ms", Percentile(measured.op_ms, 50), "ms");
    metrics.Add("latency_p90_ms", Percentile(measured.op_ms, 90), "ms");
    metrics.Add("peak_rss_mb", measured.peak_rss_mb, "MB");
  }
  engine.reset();
  std::remove((stem + "-engine.ccam").c_str());

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) { return ledger::Main(argc, argv); }
