#include "ledger/src/checker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "src/tdf/speed_pattern.h"
#include "src/util/random.h"

namespace ledger {

namespace net = capefp::network;
namespace tdf = capefp::tdf;
using capefp::tdf::PwlFunction;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool SameFunction(const std::optional<PwlFunction>& a,
                  const std::optional<PwlFunction>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  const auto& pa = a->breakpoints();
  const auto& pb = b->breakpoints();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].x != pb[i].x || pa[i].y != pb[i].y) return false;
  }
  return true;
}

const std::vector<tdf::SpeedPiece>& DayPieces(const RoadNetwork& net,
                                              net::PatternId pattern,
                                              int64_t day) {
  return net.pattern(pattern)
      .pattern_for(net.calendar().CategoryForDay(day))
      .pieces();
}

std::string Fail(const std::string& what, double at, double got,
                 double want) {
  std::ostringstream out;
  out.precision(10);
  out << what << " at " << at << ": got " << got << ", want " << want;
  return out.str();
}

// Checks that consecutive [lo, hi] pieces tile [want_lo, want_hi].
template <typename Piece, typename Lo, typename Hi>
std::string CheckTiling(const std::vector<Piece>& pieces, double want_lo,
                        double want_hi, Lo lo_of, Hi hi_of) {
  if (pieces.empty()) return "no pieces";
  if (std::abs(lo_of(pieces.front()) - want_lo) > kCheckTolMinutes) {
    return Fail("first piece start", want_lo, lo_of(pieces.front()), want_lo);
  }
  if (std::abs(hi_of(pieces.back()) - want_hi) > kCheckTolMinutes) {
    return Fail("last piece end", want_hi, hi_of(pieces.back()), want_hi);
  }
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (lo_of(pieces[i]) > hi_of(pieces[i]) + kCheckTolMinutes) {
      return Fail("inverted piece", lo_of(pieces[i]), hi_of(pieces[i]),
                  lo_of(pieces[i]));
    }
    if (i > 0 && std::abs(lo_of(pieces[i]) - hi_of(pieces[i - 1])) >
                     kCheckTolMinutes) {
      return Fail("gap between pieces", hi_of(pieces[i - 1]),
                  lo_of(pieces[i]), hi_of(pieces[i - 1]));
    }
  }
  return "";
}

std::vector<double> SeededInstants(double lo, double hi, int seeded,
                                   uint64_t seed) {
  std::vector<double> at;
  capefp::util::Rng rng(seed);
  for (int i = 0; i < seeded; ++i) at.push_back(rng.NextDouble(lo, hi));
  return at;
}

// Sorted check instants: the function's breakpoints plus seeded ones.
std::vector<double> Instants(const PwlFunction& f, double lo, double hi,
                             int seeded, uint64_t seed) {
  std::vector<double> at = SeededInstants(lo, hi, seeded, seed);
  for (const auto& bp : f.breakpoints()) at.push_back(bp.x);
  std::sort(at.begin(), at.end());
  return at;
}

template <typename Piece, typename Lo, typename Hi>
const Piece& PieceAt(const std::vector<Piece>& pieces, double x, Lo lo_of,
                     Hi hi_of) {
  for (const Piece& p : pieces) {
    if (x >= lo_of(p) - kCheckTolMinutes && x <= hi_of(p) + kCheckTolMinutes) {
      return p;
    }
  }
  return pieces.back();
}

std::string CheckAllFp(const Op& op, const capefp::core::AllFpResult& r,
                       double eps, int seeded, uint64_t seed, Oracle* oracle) {
  if (!r.found || !r.border.has_value()) return "no answer";
  const PwlFunction& border = *r.border;
  auto lo_of = [](const capefp::core::AllFpPiece& p) { return p.leave_lo; };
  auto hi_of = [](const capefp::core::AllFpPiece& p) { return p.leave_hi; };
  if (std::string e = CheckTiling(r.pieces, op.lo, op.hi, lo_of, hi_of);
      !e.empty()) {
    return e;
  }
  for (const auto& piece : r.pieces) {
    if (std::isnan(oracle->Drive(piece.path, op.source, op.target, op.lo))) {
      return "piece path is not a chain of edges from source to target";
    }
  }
  // An ε-band fault is reported only when no other check fails, so that it
  // cannot hide another fault of the same answer.
  std::string eps_fault;
  double last_arrival = -kInf;
  for (const double l : Instants(border, op.lo, op.hi, seeded, seed)) {
    const double b = border.Value(l);
    const auto& piece = PieceAt(r.pieces, l, lo_of, hi_of);
    const double driven =
        oracle->Drive(piece.path, op.source, op.target, l) - l;
    if (std::abs(driven - b) > kCheckTolMinutes) {
      return Fail("driven piece path != border", l, driven, b);
    }
    const double opt = oracle->EarliestArrival(op.source, op.target, l) - l;
    if (b < opt - kCheckTolMinutes) {
      return Fail("border below the optimum", l, b, opt);
    }
    if (b > opt + eps + kCheckTolMinutes && eps_fault.empty()) {
      eps_fault = Fail(kEpsFaultMessage, l, b, opt + eps);
    }
    if (l + b < last_arrival - kCheckTolMinutes) {
      return Fail("arrival decreases (FIFO)", l, l + b, last_arrival);
    }
    last_arrival = l + b;
  }
  return eps_fault;
}

std::string CheckSingleFp(const Op& op, const capefp::core::SingleFpResult& r,
                          double eps, int seeded, uint64_t seed,
                          Oracle* oracle) {
  if (!r.found || !r.travel_time.has_value()) return "no answer";
  const double l = r.best_leave_time;
  const double v = r.best_travel_minutes;
  if (l < op.lo - kCheckTolMinutes || l > op.hi + kCheckTolMinutes) {
    return Fail("best leave time outside the window", l, l, op.lo);
  }
  const double driven = oracle->Drive(r.path, op.source, op.target, l) - l;
  if (std::isnan(driven)) return "path is not a chain of edges";
  if (std::abs(driven - v) > kCheckTolMinutes) {
    return Fail("driven path != best value", l, driven, v);
  }
  const double opt_at = oracle->EarliestArrival(op.source, op.target, l) - l;
  if (v < opt_at - kCheckTolMinutes || v > opt_at + eps + kCheckTolMinutes) {
    return Fail("best value != optimum at its instant", l, v, opt_at);
  }
  for (const double x :
       Instants(*r.travel_time, op.lo, op.hi, seeded, seed)) {
    const double opt = oracle->EarliestArrival(op.source, op.target, x) - x;
    if (v > opt + eps + kCheckTolMinutes) {
      return Fail("a better departure exists", x, v, opt + eps);
    }
  }
  return "";
}

// A departure this much later than a reported one must miss the arrival
// time (beyond ε, which may make the reported departure early).
constexpr double kLaterMinutes = 0.01;

std::string CheckArrivalAllFp(const Op& op,
                              const capefp::core::ReverseAllFpResult& r,
                              double eps, int seeded, uint64_t seed,
                              Oracle* oracle) {
  if (!r.found || !r.border.has_value()) return "no answer";
  const PwlFunction& border = *r.border;
  auto lo_of = [](const capefp::core::ReverseAllFpPiece& p) {
    return p.arrive_lo;
  };
  auto hi_of = [](const capefp::core::ReverseAllFpPiece& p) {
    return p.arrive_hi;
  };
  if (std::string e = CheckTiling(r.pieces, op.lo, op.hi, lo_of, hi_of);
      !e.empty()) {
    return e;
  }
  for (const auto& piece : r.pieces) {
    if (std::isnan(oracle->Drive(piece.path, op.source, op.target, op.lo))) {
      return "piece path is not a chain of edges from source to target";
    }
  }
  std::string eps_fault;  // As in CheckAllFp: reported last.
  double last_leave = -kInf;
  for (const double a : Instants(border, op.lo, op.hi, seeded, seed)) {
    const double b = border.Value(a);
    const double leave = a - b;
    const auto& piece = PieceAt(r.pieces, a, lo_of, hi_of);
    const double arrive = oracle->Drive(piece.path, op.source, op.target,
                                        leave);
    if (std::abs(arrive - a) > kCheckTolMinutes) {
      return Fail("driven piece path arrives off time", a, arrive, a);
    }
    const double opt =
        a - oracle->LatestDeparture(op.source, op.target, a);
    if (b < opt - kCheckTolMinutes) {
      return Fail("border below the optimum", a, b, opt);
    }
    if (b > opt + eps + kCheckTolMinutes && eps_fault.empty()) {
      eps_fault = Fail(kEpsFaultMessage, a, b, opt + eps);
    }
    if (leave < last_leave - kCheckTolMinutes) {
      return Fail("departure decreases (FIFO)", a, leave, last_leave);
    }
    last_leave = leave;
  }
  for (const double a : SeededInstants(op.lo, op.hi, seeded, seed)) {
    const double leave = a - border.Value(a);
    const double later = oracle->EarliestArrival(
        op.source, op.target, leave + eps + kLaterMinutes);
    if (later <= a + kCheckTolMinutes) {
      return Fail("a later departure still arrives on time", a, later, a);
    }
  }
  return eps_fault;
}

std::string CheckArrivalSingleFp(const Op& op,
                                 const capefp::core::ReverseSingleFpResult& r,
                                 double eps, int seeded, uint64_t seed,
                                 Oracle* oracle) {
  if (!r.found || !r.travel_time.has_value()) return "no answer";
  const double a = r.best_arrive_time;
  const double v = r.best_travel_minutes;
  const double leave = r.best_leave_time;
  if (a < op.lo - kCheckTolMinutes || a > op.hi + kCheckTolMinutes) {
    return Fail("best arrival outside the window", a, a, op.lo);
  }
  if (std::abs(leave - (a - v)) > kCheckTolMinutes) {
    return Fail("leave time != arrival - travel", a, leave, a - v);
  }
  const double arrive = oracle->Drive(r.path, op.source, op.target, leave);
  if (std::isnan(arrive)) return "path is not a chain of edges";
  if (std::abs(arrive - a) > kCheckTolMinutes) {
    return Fail("driven path arrives off time", leave, arrive, a);
  }
  const double opt_at =
      a - oracle->LatestDeparture(op.source, op.target, a);
  if (v < opt_at - kCheckTolMinutes || v > opt_at + eps + kCheckTolMinutes) {
    return Fail("best value != optimum at its instant", a, v, opt_at);
  }
  const double later = oracle->EarliestArrival(op.source, op.target,
                                               leave + eps + kLaterMinutes);
  if (later <= a + kCheckTolMinutes) {
    return Fail("a later departure still arrives on time", a, later, a);
  }
  for (const double x :
       Instants(*r.travel_time, op.lo, op.hi, seeded, seed)) {
    const double opt =
        x - oracle->LatestDeparture(op.source, op.target, x);
    if (v > opt + eps + kCheckTolMinutes) {
      return Fail("a better arrival exists", x, v, opt + eps);
    }
  }
  return "";
}

std::string CheckFixed(const Op& op, const capefp::core::TdAStarResult& r,
                       Oracle* oracle) {
  if (!r.found) return "no answer";
  const double opt =
      oracle->EarliestArrival(op.source, op.target, op.lo) - op.lo;
  if (std::abs(r.travel_time_minutes - opt) > kCheckTolMinutes) {
    return Fail("fixed-departure travel time != optimum", op.lo,
                r.travel_time_minutes, opt);
  }
  const double driven =
      oracle->Drive(r.path, op.source, op.target, op.lo) - op.lo;
  if (std::isnan(driven)) return "path is not a chain of edges";
  if (std::abs(driven - r.travel_time_minutes) > kCheckTolMinutes) {
    return Fail("driven path != travel time", op.lo, driven,
                r.travel_time_minutes);
  }
  return "";
}

}  // namespace

bool SameAnswer(Kind kind, const Answer& a, const Answer& b) {
  switch (kind) {
    case Kind::kAllFp: {
      if (a.all.found != b.all.found ||
          a.all.pieces.size() != b.all.pieces.size() ||
          !SameFunction(a.all.border, b.all.border)) {
        return false;
      }
      for (size_t i = 0; i < a.all.pieces.size(); ++i) {
        const auto& pa = a.all.pieces[i];
        const auto& pb = b.all.pieces[i];
        if (pa.leave_lo != pb.leave_lo || pa.leave_hi != pb.leave_hi ||
            pa.path != pb.path) {
          return false;
        }
      }
      return true;
    }
    case Kind::kSingleFp:
      return a.single.found == b.single.found &&
             a.single.path == b.single.path &&
             a.single.best_leave_time == b.single.best_leave_time &&
             a.single.best_travel_minutes == b.single.best_travel_minutes &&
             SameFunction(a.single.travel_time, b.single.travel_time);
    case Kind::kArrivalAllFp: {
      if (a.arrival_all.found != b.arrival_all.found ||
          a.arrival_all.pieces.size() != b.arrival_all.pieces.size() ||
          !SameFunction(a.arrival_all.border, b.arrival_all.border)) {
        return false;
      }
      for (size_t i = 0; i < a.arrival_all.pieces.size(); ++i) {
        const auto& pa = a.arrival_all.pieces[i];
        const auto& pb = b.arrival_all.pieces[i];
        if (pa.arrive_lo != pb.arrive_lo || pa.arrive_hi != pb.arrive_hi ||
            pa.path != pb.path) {
          return false;
        }
      }
      return true;
    }
    case Kind::kArrivalSingleFp:
      return a.arrival_single.found == b.arrival_single.found &&
             a.arrival_single.path == b.arrival_single.path &&
             a.arrival_single.best_arrive_time ==
                 b.arrival_single.best_arrive_time &&
             a.arrival_single.best_travel_minutes ==
                 b.arrival_single.best_travel_minutes &&
             SameFunction(a.arrival_single.travel_time,
                          b.arrival_single.travel_time);
    case Kind::kFixed:
      return a.fixed.found == b.fixed.found && a.fixed.path == b.fixed.path &&
             a.fixed.travel_time_minutes == b.fixed.travel_time_minutes;
  }
  return false;
}

Oracle::Oracle(const RoadNetwork* net)
    : net_(net), stamp_(net->num_nodes(), 0), best_(net->num_nodes(), 0.0) {}

double Oracle::EdgeArrival(net::EdgeId edge_id, double leave) const {
  const net::Edge& edge = net_->edge(edge_id);
  double remaining = edge.distance_miles;
  double t = leave;
  for (;;) {
    const double day = std::floor(t / tdf::kMinutesPerDay);
    const auto& pieces =
        DayPieces(*net_, edge.pattern, static_cast<int64_t>(day));
    const double minute = t - day * tdf::kMinutesPerDay;
    const auto next = std::upper_bound(
        pieces.begin() + 1, pieces.end(), minute,
        [](double m, const tdf::SpeedPiece& p) { return m < p.start_minute; });
    const auto i = static_cast<size_t>(next - pieces.begin()) - 1;
    const double end =
        i + 1 < pieces.size() ? pieces[i + 1].start_minute : tdf::kMinutesPerDay;
    const double speed = pieces[i].speed_mpm;
    if (speed * (end - minute) >= remaining) return t + remaining / speed;
    remaining -= speed * (end - minute);
    t = day * tdf::kMinutesPerDay + end;
  }
}

double Oracle::EdgeDeparture(net::EdgeId edge_id, double arrive) const {
  const net::Edge& edge = net_->edge(edge_id);
  double remaining = edge.distance_miles;
  double t = arrive;
  for (;;) {
    double day = std::floor(t / tdf::kMinutesPerDay);
    double minute = t - day * tdf::kMinutesPerDay;
    if (minute <= 0.0) {  // At midnight the speed in effect is yesterday's.
      day -= 1.0;
      minute += tdf::kMinutesPerDay;
    }
    const auto& pieces =
        DayPieces(*net_, edge.pattern, static_cast<int64_t>(day));
    const auto next = std::lower_bound(
        pieces.begin() + 1, pieces.end(), minute,
        [](const tdf::SpeedPiece& p, double m) { return p.start_minute < m; });
    const auto i = static_cast<size_t>(next - pieces.begin()) - 1;
    const double start = pieces[i].start_minute;
    const double speed = pieces[i].speed_mpm;
    if (speed * (minute - start) >= remaining) return t - remaining / speed;
    remaining -= speed * (minute - start);
    t = day * tdf::kMinutesPerDay + start;
  }
}

double Oracle::EarliestArrival(NodeId source, NodeId target, double leave) {
  ++epoch_;
  heap_.clear();
  auto later = [](const auto& a, const auto& b) { return a.first > b.first; };
  stamp_[static_cast<size_t>(source)] = epoch_;
  best_[static_cast<size_t>(source)] = leave;
  heap_.push_back({leave, source});
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [t, node] = heap_.back();
    heap_.pop_back();
    if (t > best_[static_cast<size_t>(node)]) continue;
    if (node == target) return t;
    for (const net::EdgeId e : net_->OutEdges(node)) {
      const NodeId to = net_->edge(e).to;
      const double arrive = EdgeArrival(e, t);
      const auto i = static_cast<size_t>(to);
      if (stamp_[i] != epoch_ || arrive < best_[i]) {
        stamp_[i] = epoch_;
        best_[i] = arrive;
        heap_.push_back({arrive, to});
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  return kInf;
}

double Oracle::LatestDeparture(NodeId source, NodeId target, double arrive) {
  ++epoch_;
  heap_.clear();
  auto earlier = [](const auto& a, const auto& b) { return a.first < b.first; };
  stamp_[static_cast<size_t>(target)] = epoch_;
  best_[static_cast<size_t>(target)] = arrive;
  heap_.push_back({arrive, target});
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), earlier);
    const auto [t, node] = heap_.back();
    heap_.pop_back();
    if (t < best_[static_cast<size_t>(node)]) continue;
    if (node == source) return t;
    for (const net::EdgeId e : net_->InEdges(node)) {
      const NodeId from = net_->edge(e).from;
      const double leave = EdgeDeparture(e, t);
      const auto i = static_cast<size_t>(from);
      if (stamp_[i] != epoch_ || leave > best_[i]) {
        stamp_[i] = epoch_;
        best_[i] = leave;
        heap_.push_back({leave, from});
        std::push_heap(heap_.begin(), heap_.end(), earlier);
      }
    }
  }
  return -kInf;
}

double Oracle::Drive(const std::vector<NodeId>& path, NodeId source,
                     NodeId target, double leave) const {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  if (path.empty() || path.front() != source || path.back() != target) {
    return nan;
  }
  double t = leave;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    if (path[i] < 0 || static_cast<size_t>(path[i]) >= net_->num_nodes()) {
      return nan;
    }
    double next = kInf;
    for (const net::EdgeId e : net_->OutEdges(path[i])) {
      if (net_->edge(e).to == path[i + 1]) {
        next = std::min(next, EdgeArrival(e, t));
      }
    }
    if (next == kInf) return nan;
    t = next;
  }
  return t;
}

std::string CheckAnswer(const Op& op, const Answer& answer,
                        double eps_minutes, int seeded_instants,
                        uint64_t instant_seed, Oracle* oracle) {
  switch (op.kind) {
    case Kind::kAllFp:
      return CheckAllFp(op, answer.all, eps_minutes, seeded_instants,
                        instant_seed, oracle);
    case Kind::kSingleFp:
      return CheckSingleFp(op, answer.single, eps_minutes, seeded_instants,
                           instant_seed, oracle);
    case Kind::kArrivalAllFp:
      return CheckArrivalAllFp(op, answer.arrival_all, eps_minutes,
                               seeded_instants, instant_seed, oracle);
    case Kind::kArrivalSingleFp:
      return CheckArrivalSingleFp(op, answer.arrival_single, eps_minutes,
                                  seeded_instants, instant_seed, oracle);
    case Kind::kFixed:
      return CheckFixed(op, answer.fixed, oracle);
  }
  return "unknown kind";
}

}  // namespace ledger
