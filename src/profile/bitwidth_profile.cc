#include "profile/bitwidth_profile.h"

#include "obs/trace.h"
#include "support/error.h"

namespace bitspec
{

const char *
heuristicName(Heuristic h)
{
    switch (h) {
      case Heuristic::Max: return "MAX";
      case Heuristic::Avg: return "AVG";
      case Heuristic::Min: return "MIN";
    }
    panic("heuristicName: bad heuristic");
}

void
BitwidthProfile::profileRun(Module &m, const std::string &fn,
                            const std::vector<uint64_t> &args)
{
    Interpreter interp(m);
    profileRun(interp, fn, args);
}

void
BitwidthProfile::profileRun(Interpreter &interp, const std::string &fn,
                            const std::vector<uint64_t> &args)
{
    trace::Span span("profile.train_run", "compile");
    interp.reset();
    interp.enableValueProfile();
    interp.run(fn, args);
    for (const auto &e : interp.takeValueProfile()) {
        VarBitStats &s = stats_[e.inst];
        s.minBits = std::min(s.minBits, e.minBits);
        s.maxBits = std::max(s.maxBits, e.maxBits);
        s.sumBits += e.sumBits;
        s.count += e.count;
    }
}

unsigned
BitwidthProfile::target(const Instruction *inst, Heuristic h) const
{
    auto it = stats_.find(inst);
    if (it == stats_.end() || it->second.count == 0)
        return inst->type().bits; // Never executed: no speculation.
    const VarBitStats &s = it->second;
    switch (h) {
      case Heuristic::Max: return s.maxBits;
      case Heuristic::Avg: return s.avgBits();
      case Heuristic::Min: return s.minBits;
    }
    panic("target: bad heuristic");
}

std::array<uint64_t, 4>
BitwidthProfile::classHistogram(Heuristic h) const
{
    std::array<uint64_t, 4> hist{};
    for (const auto &[inst, s] : stats_) {
        unsigned cls = bitwidthClass(target(inst, h));
        unsigned idx = cls == 8 ? 0 : cls == 16 ? 1 : cls == 32 ? 2 : 3;
        hist[idx] += s.count;
    }
    return hist;
}

uint64_t
BitwidthProfile::totalAssignments() const
{
    uint64_t n = 0;
    for (const auto &[inst, s] : stats_)
        n += s.count;
    return n;
}

BitwidthProfile
BitwidthProfile::rekeyed(const ValueMap &map) const
{
    BitwidthProfile out;
    out.stats_.reserve(stats_.size());
    for (const auto &[inst, s] : stats_) {
        auto it = map.find(inst);
        bsAssert(it != map.end(),
                 "rekeyed: profiled instruction outside the clone map");
        out.stats_.emplace(static_cast<const Instruction *>(it->second),
                           s);
    }
    return out;
}

} // namespace bitspec
