#include "analysis/loops.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "analysis/cfg.h"

namespace bitspec
{

std::vector<BasicBlock *>
Loop::exitTargets() const
{
    std::vector<BasicBlock *> out;
    for (const BasicBlock *bb : blocks) {
        for (BasicBlock *succ : bb->successors()) {
            if (!contains(succ) &&
                std::find(out.begin(), out.end(), succ) == out.end()) {
                out.push_back(succ);
            }
        }
    }
    return out;
}

std::vector<Loop>
findLoops(Function &f, const DomTree &dt)
{
    std::map<BasicBlock *, Loop> by_header;
    const PredecessorMap preds = predecessorMap(f, false);

    for (BasicBlock *bb : reachableBlocks(f)) {
        for (BasicBlock *succ : bb->successors()) {
            if (!dt.dominates(succ, bb))
                continue; // Not a back edge.
            // Natural loop of back edge bb -> succ.
            Loop &loop = by_header[succ];
            loop.header = succ;
            loop.latches.push_back(bb);
            if (loop.blocks.empty())
                loop.blocks.push_back(succ);
            // Walk predecessors from the latch up to the header.
            std::vector<BasicBlock *> work{bb};
            while (!work.empty()) {
                BasicBlock *cur = work.back();
                work.pop_back();
                if (loop.contains(cur))
                    continue;
                loop.blocks.push_back(cur);
                auto it = preds.find(cur);
                if (it == preds.end())
                    continue;
                for (BasicBlock *p : it->second)
                    if (dt.isReachable(p))
                        work.push_back(p);
            }
        }
    }

    std::vector<Loop> loops;
    for (auto &[header, loop] : by_header)
        loops.push_back(std::move(loop));
    // Order must not depend on heap addresses (by_header iterates in
    // pointer order): under the expander's function-size budget the
    // unroll order decides *which* loops fit, so address-ordered
    // results make codegen vary run to run. Sort by the header's
    // position in the function, then stable-sort inner loops (fewer
    // blocks) first so unrolling processes them first.
    std::unordered_map<const BasicBlock *, unsigned> pos;
    unsigned next = 0;
    for (const auto &bb : f.blocks())
        pos[bb.get()] = next++;
    std::sort(loops.begin(), loops.end(),
              [&](const Loop &a, const Loop &b) {
                  return pos.at(a.header) < pos.at(b.header);
              });
    std::stable_sort(loops.begin(), loops.end(),
                     [](const Loop &a, const Loop &b) {
                         return a.blocks.size() < b.blocks.size();
                     });
    return loops;
}

} // namespace bitspec
