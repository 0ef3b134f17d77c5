/**
 * @file
 * A fixed slice of reference work, timed between the cells of a
 * matrix, that tells how fast the host runs at that moment.
 *
 * The benchmark shares its cores, caches and memory with other
 * tenants of the host, whose load comes and goes over minutes and
 * slows every program, not just the one measured. The probe's code is
 * the benchmark's own and does not change with the library, so run.py
 * can divide the host's speed out of the one-job times.
 */

#ifndef BITSPEC_PERFBENCH_HOST_PROBE_H_
#define BITSPEC_PERFBENCH_HOST_PROBE_H_

#include <cstdint>
#include <vector>

namespace bitspec::perfbench
{

class HostProbe
{
  public:
    HostProbe();

    /** Run one slice of the reference work; return its seconds. */
    double slice();

    /** Folded results, so the work cannot be optimized away. */
    uint64_t sink() const { return sink_; }

  private:
    std::vector<uint8_t> code_;
    uint64_t sink_ = 0;
};

} // namespace bitspec::perfbench

#endif // BITSPEC_PERFBENCH_HOST_PROBE_H_
