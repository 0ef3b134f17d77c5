#include "host_probe.h"

#include <chrono>

namespace bitspec::perfbench
{

namespace
{

constexpr size_t kCodeLen = 2048;
constexpr int kPasses = 10;

uint64_t
xorshift(uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

} // namespace

HostProbe::HostProbe() : code_(kCodeLen)
{
    uint64_t s = 0x9e3779b97f4a7c15ull;
    for (uint8_t &op : code_)
        op = static_cast<uint8_t>(xorshift(s) % 6);
}

double
HostProbe::slice()
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    // A switch-dispatched loop over random opcodes: branchy integer
    // work, like the interpreters and simulators being measured.
    uint64_t r[4] = {sink_, 2, 3, 4};
    for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t pc = 0; pc < code_.size(); ++pc) {
            switch (code_[pc]) {
              case 0: r[0] += r[1]; break;
              case 1: r[1] ^= r[2] << 1; break;
              case 2: r[2] = r[3] * 3 + 1; break;
              case 3: r[3] -= r[0] >> 3; break;
              case 4:
                if (r[0] & 1)
                    ++r[1];
                else
                    --r[2];
                break;
              default: r[pc & 3] = r[(pc + 1) & 3]; break;
            }
        }
    }
    sink_ += r[0] + r[1] + r[2] + r[3];
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace bitspec::perfbench
