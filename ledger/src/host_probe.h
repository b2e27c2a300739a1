// A fixed reference computation that tells how fast the host runs at the
// moment, independent of the program under test.
//
// On a shared host, other tenants slow every computation down, by up to
// 70 % and for seconds to minutes at a time; the guest sees no steal time
// for it (the vCPU keeps running, only slower), so no clock the process can
// read tells it apart from a slower program. HostProbe::Slice runs the same
// work every time: a label-setting shortest-path search (binary heap,
// adjacency arrays, doubles) over a fixed synthetic grid held in the
// probe's own arrays. The search is the same kind of work as the program's
// queries and slows down with them: over paired rounds of the benchmark's
// one-client workloads, log(round time) rose 1.1 to 1.15 times as fast as
// log(slice time). The benchmark divides each round's timings by the
// round's slowdown, its median slice time over kReferenceSliceMs.
#ifndef CAPEFP_LEDGER_HOST_PROBE_H_
#define CAPEFP_LEDGER_HOST_PROBE_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace ledger {

// Median Slice() time on the reference host (a 4-vCPU Intel Xeon KVM guest,
// GCC 12 -O2) when its neighbours were quiet. Normalized timings are the
// ones that host would give at that speed.
inline constexpr double kReferenceSliceMs = 1.75;

class HostProbe {
 public:
  HostProbe();
  // Runs one slice of the fixed work; returns its wall time in ms.
  double Slice();

 private:
  std::vector<uint32_t> first_;  // CSR offsets, one per node, plus one.
  std::vector<uint32_t> head_;   // Arc heads.
  std::vector<double> weight_;   // Arc weights.
  std::vector<double> dist_;
  std::vector<uint32_t> stamp_;
  std::vector<std::pair<double, uint32_t>> heap_;
  uint32_t epoch_ = 0;
  uint32_t next_source_ = 0;
};

}  // namespace ledger

#endif  // CAPEFP_LEDGER_HOST_PROBE_H_
