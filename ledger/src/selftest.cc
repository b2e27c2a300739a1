// The benchmark's own tests (python3 ledger/run.py --selftest).
//
// The checker must pass the engine's answers of every query kind and
// reject planted faults: a border raised by 2ε, a border below the
// optimum, a piece path with a missing edge, and the known ε-band fault
// query on the dense network. The traced pass's three identities must hold
// exactly on a small network, disk-backed and in memory, at ε = 0 and
// ε > 0, on one worker and on two.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ledger/src/checker.h"
#include "ledger/src/traced_pass.h"
#include "ledger/src/workload.h"
#include "src/core/engine.h"
#include "src/tdf/speed_pattern.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace ledger {
namespace {

namespace core = capefp::core;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

constexpr double kEpsMinutes = 5.0 / 60.0;
constexpr int kInstants = 4;

// Pairs far enough apart that paths have several hops.
std::vector<Op> SmallRound(const RoadNetwork& net) {
  capefp::util::Rng rng(5);
  const double lo = capefp::tdf::HhMm(7, 0);
  const double hi = capefp::tdf::HhMm(10, 0);
  std::vector<Op> ops;
  while (ops.size() < 40) {
    const auto s = static_cast<NodeId>(rng.NextBounded(net.num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextBounded(net.num_nodes()));
    if (s == t) continue;
    ops.push_back({Kind::kAllFp, s, t, lo, hi});
    ops.push_back({Kind::kSingleFp, s, t, lo, hi});
    ops.push_back({Kind::kArrivalAllFp, s, t, lo, hi});
    ops.push_back({Kind::kArrivalSingleFp, s, t, lo, hi});
    const double at = rng.NextDouble(lo, hi);
    ops.push_back({Kind::kFixed, s, t, at, at});
  }
  return ops;
}

std::string Check(const Op& op, const Answer& a, double eps,
                  Oracle* oracle) {
  return CheckAnswer(op, a, eps, kInstants, InstantSeed(op), oracle);
}

void TestCheckerOnSmallNetwork() {
  const RoadNetwork net = MakeSuffolkNetwork(/*small=*/true);
  core::EngineOptions options;
  options.boundary_grid_dim = 8;
  auto created = core::FastestPathEngine::Create(&net, options);
  CAPEFP_CHECK(created.ok()) << created.status().ToString();
  const std::unique_ptr<core::FastestPathEngine> engine = std::move(*created);
  Oracle oracle(&net);
  const std::vector<Op> ops = SmallRound(net);
  int accepted = 0;
  for (const Op& op : ops) {
    const std::string e = Check(op, Ask(engine.get(), op), 0.0, &oracle);
    if (e.empty()) {
      ++accepted;
    } else {
      std::fprintf(stderr, "  %s %d->%d: %s\n", KindName(op.kind), op.source,
                   op.target, e.c_str());
    }
  }
  Expect(accepted == static_cast<int>(ops.size()),
         "checker accepts the engine's exact answers of every kind (" +
             std::to_string(accepted) + "/" + std::to_string(ops.size()) +
             ")");

  // Planted faults, each on every allFP answer of the round.
  int raised = 0, lowered = 0, broken = 0, allfp = 0, multi_hop = 0;
  for (const Op& op : ops) {
    if (op.kind != Kind::kAllFp) continue;
    ++allfp;
    const Answer good = Ask(engine.get(), op);
    Answer up = good;
    up.all.border->ShiftInPlace(2.0 * kEpsMinutes);
    raised += !Check(op, up, kEpsMinutes, &oracle).empty();
    Answer down = good;
    down.all.border->ShiftInPlace(-0.01);
    lowered += !Check(op, down, 0.0, &oracle).empty();
    Answer gap = good;
    auto& path = gap.all.pieces.front().path;
    if (path.size() > 2) {
      ++multi_hop;
      path.erase(path.begin() + 1);
      broken += !Check(op, gap, 0.0, &oracle).empty();
    }
  }
  Expect(raised == allfp, "rejects a border raised by 2 eps (" +
                              std::to_string(raised) + "/" +
                              std::to_string(allfp) + ")");
  Expect(lowered == allfp, "rejects a border below the optimum (" +
                               std::to_string(lowered) + "/" +
                               std::to_string(allfp) + ")");
  Expect(multi_hop > 0 && broken == multi_hop,
         "rejects a piece path with a missing edge (" +
             std::to_string(broken) + "/" + std::to_string(multi_hop) + ")");
}

void TestKnownEpsFault() {
  const RoadNetwork suffolk = MakeSuffolkNetwork();
  const RoadNetwork dense = MakeDenseNetwork(suffolk);
  const WorkloadSpec& spec = *FindWorkload("dense_allfp_eps");
  auto created =
      core::FastestPathEngine::Create(&dense, MakeEngineOptions(spec, ""));
  CAPEFP_CHECK(created.ok()) << created.status().ToString();
  const std::unique_ptr<core::FastestPathEngine> engine = std::move(*created);
  Oracle oracle(&dense);
  const Op op = KnownEpsFaultOp();
  const std::string e =
      Check(op, Ask(engine.get(), op), spec.eps_seconds / 60.0, &oracle);
  Expect(e.rfind(kEpsFaultMessage, 0) == 0,
         "flags the known eps-band fault query (" + e + ")");
}

void TestIdentities() {
  const RoadNetwork net = MakeSuffolkNetwork(/*small=*/true);
  const std::vector<Op> ops = SmallRound(net);
  std::filesystem::create_directories(".ledger_out");
  for (const bool disk : {true, false}) {
    for (const double eps : {0.0, 5.0}) {
      const WorkloadSpec spec{"selftest", disk, false, 8, eps, 16,
                              disk ? 1 : 2};
      Composition comp(spec, &net, ".ledger_out/selftest.ccam");
      comp.Run(ops, spec.workers, /*traced=*/false);
      for (int workers = 1; workers <= spec.workers; ++workers) {
        const PassStats p = comp.Run(ops, workers, /*traced=*/true);
        const std::string e = p.IdentityError();
        Expect(e.empty() && p.forward_expansions > 0 &&
                   p.ttf_cache_events > 0,
               std::string("identities hold (") + (disk ? "ccam" : "memory") +
                   ", eps " + std::to_string(static_cast<int>(eps)) + " s, " +
                   std::to_string(workers) + " worker(s))" +
                   (e.empty() ? "" : ": " + e));
      }
    }
  }
}

}  // namespace
}  // namespace ledger

int main() {
  ledger::TestCheckerOnSmallNetwork();
  ledger::TestKnownEpsFault();
  ledger::TestIdentities();
  std::fprintf(stderr, "%s\n",
               ledger::g_failures == 0 ? "all ledger self-tests passed"
                                       : "ledger self-tests FAILED");
  return ledger::g_failures == 0 ? 0 : 1;
}
