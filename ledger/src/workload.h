// Inputs of the three benchmark workloads: the networks they run on and
// their rounds of queries, a fixed sample issued in an order drawn from the
// run's seed.
#ifndef CAPEFP_LEDGER_WORKLOAD_H_
#define CAPEFP_LEDGER_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/profile_search.h"
#include "src/core/reverse_profile_search.h"
#include "src/core/td_astar.h"
#include "src/network/road_network.h"

namespace ledger {

using capefp::network::NodeId;
using capefp::network::RoadNetwork;

enum class Kind { kAllFp, kSingleFp, kArrivalAllFp, kArrivalSingleFp, kFixed };
inline constexpr int kNumKinds = 5;
const char* KindName(Kind kind);

// One operation of a round. For the forward kinds [lo, hi] is the leaving
// window; for the arrival kinds it is the arrival window; for kFixed the
// departure instant is lo (== hi).
struct Op {
  Kind kind = Kind::kAllFp;
  NodeId source = capefp::network::kInvalidNode;
  NodeId target = capefp::network::kInvalidNode;
  double lo = 0.0;
  double hi = 0.0;
};

// The engine's answer to one Op; only the member of its kind is set.
struct Answer {
  capefp::core::AllFpResult all;
  capefp::core::SingleFpResult single;
  capefp::core::ReverseAllFpResult arrival_all;
  capefp::core::ReverseSingleFpResult arrival_single;
  capefp::core::TdAStarResult fixed;
};

// Asks `engine` the question `op` stands for, through its public API.
Answer Ask(capefp::core::FastestPathEngine* engine, const Op& op);

struct WorkloadSpec {
  std::string name;
  // Engine set-up: ccam_path is filled in by the caller when disk_backed.
  bool disk_backed = false;
  bool dense_network = false;
  int grid = 32;
  double eps_seconds = 0.0;
  size_t pool_pages = 256;
  // Client shape: 1 for the one-query-at-a-time loop, > 1 for RunBatch.
  int workers = 1;
};

// Null when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

// The Table-1 Suffolk network (generator seed 42, the paper benches' graph).
RoadNetwork MakeSuffolkNetwork(bool small = false);

// The dense copy of `base`: every workday pattern becomes 96 fifteen-minute
// pieces of Table-1 speed x (0.8 + 0.2 u), u = NextBounded(1000)/1000 from
// util::Rng(7), 16 patterns per road class drawn class by class, and each
// edge (in id order, from the same stream) takes pattern NextBounded(16) of
// its class. Non-workday patterns stay Table 1. Fixed, not seeded: the
// known ε-band fault query (KnownEpsFaultOp) is defined on this network.
RoadNetwork MakeDenseNetwork(const RoadNetwork& base);

// allFP 6211 -> 4672 over 07:30-08:30 on the dense network at grid 16 and
// ε = 5 s: its border exceeds the optimum by more than ε (see CHANGES.md).
Op KnownEpsFaultOp();

// The round of operations `spec` runs: a fixed sample of queries issued in
// an order that `seed` sets.
std::vector<Op> MakeRound(const WorkloadSpec& spec, const RoadNetwork& net,
                          uint64_t seed);

// Seed of the checker's extra instants for `op`: a function of the op
// alone, so an answer is checked at the same instants in every run.
uint64_t InstantSeed(const Op& op);

capefp::core::EngineOptions MakeEngineOptions(const WorkloadSpec& spec,
                                              const std::string& ccam_path);

}  // namespace ledger

#endif  // CAPEFP_LEDGER_WORKLOAD_H_
