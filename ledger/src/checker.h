// Independent answer checker.
//
// Oracle answers fastest-path questions with nothing but scalar arithmetic
// on the network's raw records: it integrates an edge's distance over its
// pattern's constant-speed pieces and the calendar, and runs a plain
// label-setting earliest-arrival (or latest-departure) search. It uses no
// PwlFunction, no profile search, no TD-A*, no estimator and no cache, so a
// fault in any of those cannot hide in both the answer and its check.
#ifndef CAPEFP_LEDGER_CHECKER_H_
#define CAPEFP_LEDGER_CHECKER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ledger/src/workload.h"

namespace ledger {

// Absolute tolerance of every equality the checker tests, in minutes
// (60 µs): far above floating-point noise on Suffolk-scale paths, far
// below any fault worth reporting (ε = 5 s is 0.083 min).
inline constexpr double kCheckTolMinutes = 1e-6;

// How CheckAnswer's message starts when a border exceeds the optimum by
// more than ε and the answer passes every other check.
inline constexpr const char* kEpsFaultMessage = "border above optimum + eps";

// Bit-for-bit equality of two answers to the same Op (paths, piece bounds,
// border breakpoints, scalar values).
bool SameAnswer(Kind kind, const Answer& a, const Answer& b);

class Oracle {
 public:
  // `net` must outlive the oracle. One oracle per thread.
  explicit Oracle(const RoadNetwork* net);

  // Arrival time at the head of `edge` when leaving its tail at `leave`.
  double EdgeArrival(capefp::network::EdgeId edge, double leave) const;
  // Departure time from the tail of `edge` that arrives at `arrive`.
  double EdgeDeparture(capefp::network::EdgeId edge, double arrive) const;

  // Earliest arrival at `target` leaving `source` at `leave`.
  double EarliestArrival(NodeId source, NodeId target, double leave);
  // Latest departure from `source` that reaches `target` by `arrive`.
  double LatestDeparture(NodeId source, NodeId target, double arrive);

  // Arrival time driving `path` from `leave` (fastest parallel edge per
  // hop); NaN when the path does not start at `source`, end at `target`,
  // or some hop has no edge.
  double Drive(const std::vector<NodeId>& path, NodeId source, NodeId target,
               double leave) const;

 private:
  const RoadNetwork* net_;
  std::vector<uint64_t> stamp_;
  std::vector<double> best_;
  uint64_t epoch_ = 0;
  std::vector<std::pair<double, NodeId>> heap_;
};

// Checks `answer` to `op` against the oracle at the border's (or the
// answer function's) breakpoints and at `seeded_instants` instants drawn
// from `instant_seed`. `eps_minutes` is the engine's error bound. Returns
// an empty string when every check passes, else the first failure (an
// ε-band fault only when nothing else fails).
std::string CheckAnswer(const Op& op, const Answer& answer,
                        double eps_minutes, int seeded_instants,
                        uint64_t instant_seed, Oracle* oracle);

}  // namespace ledger

#endif  // CAPEFP_LEDGER_CHECKER_H_
