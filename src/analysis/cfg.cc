#include "analysis/cfg.h"

#include <algorithm>
#include <unordered_set>

#include "ir/builder.h"

namespace bitspec
{

std::vector<BasicBlock *>
reversePostOrder(Function &f)
{
    std::vector<BasicBlock *> post;
    std::unordered_set<BasicBlock *> visited;
    // Iterative DFS with an explicit stack of (block, next-successor).
    std::vector<std::pair<BasicBlock *, size_t>> stack;
    BasicBlock *entry = f.entry();
    stack.emplace_back(entry, 0);
    visited.insert(entry);
    while (!stack.empty()) {
        auto &[bb, idx] = stack.back();
        auto succs = bb->successors();
        if (idx < succs.size()) {
            BasicBlock *next = succs[idx++];
            if (visited.insert(next).second)
                stack.emplace_back(next, 0);
        } else {
            post.push_back(bb);
            stack.pop_back();
        }
    }
    std::reverse(post.begin(), post.end());
    return post;
}

std::vector<BasicBlock *>
reachableBlocks(Function &f)
{
    return reversePostOrder(f);
}

PredecessorMap
predecessorMap(Function &f, bool handler_edges)
{
    auto preds = f.predecessors();
    if (handler_edges) {
        for (const auto &sr : f.specRegions())
            for (BasicBlock *member : sr->blocks)
                preds[sr->handler].push_back(member);
    }
    return preds;
}

bool
isIdempotent(const BasicBlock &bb)
{
    bool has_load = false, has_store = false;
    for (const auto &inst : bb.insts()) {
        if (inst->isVolatileOp() || inst->isCall())
            return false;
        has_load |= inst->op() == Opcode::Load;
        has_store |= inst->op() == Opcode::Store;
    }
    // Loads-only and stores-only blocks re-execute safely (no WAR
    // dependency can exist, paper Eq. 4); mixed blocks cannot.
    return !(has_load && has_store);
}

void
removeUnreachableBlocks(Function &f)
{
    auto reachable = reachableBlocks(f);
    std::unordered_set<BasicBlock *> live(reachable.begin(),
                                          reachable.end());
    // Handlers are reachable only via misspeculation; keep them and
    // anything reachable from them.
    std::vector<BasicBlock *> work;
    for (const auto &sr : f.specRegions()) {
        bool member_live = std::any_of(
            sr->blocks.begin(), sr->blocks.end(),
            [&](BasicBlock *bb) { return live.count(bb) > 0; });
        if (member_live && live.insert(sr->handler).second)
            work.push_back(sr->handler);
    }
    while (!work.empty()) {
        BasicBlock *bb = work.back();
        work.pop_back();
        for (BasicBlock *succ : bb->successors())
            if (live.insert(succ).second)
                work.push_back(succ);
    }

    // Drop phi inputs that come from dying blocks.
    for (const auto &bb : f.blocks()) {
        if (!live.count(bb.get()))
            continue;
        for (Instruction *phi : bb->phis()) {
            for (size_t i = phi->numOperands(); i-- > 0;) {
                if (!live.count(phi->blockOperand(i)))
                    phi->removePhiIncoming(i);
            }
        }
    }

    // References from live code into dying blocks can remain on
    // control-flow paths that can never execute (e.g. SSA-repair phis
    // materialise a reaching definition for every structural
    // predecessor). Replace them with zero before the defs are freed.
    if (Module *m = f.parent()) {
        for (const auto &bb : f.blocks()) {
            if (!live.count(bb.get()))
                continue;
            for (auto &inst : bb->insts()) {
                for (size_t i = 0; i < inst->numOperands(); ++i) {
                    Value *op = inst->operand(i);
                    if (!op->isInstruction())
                        continue;
                    auto *def = static_cast<Instruction *>(op);
                    if (!live.count(def->parent())) {
                        inst->setOperand(
                            i, m->getConst(def->type(), 0));
                    }
                }
            }
        }
    }

    // Drop dead regions and dead blocks.
    auto &regions = f.specRegionsMut();
    for (auto &sr : regions) {
        std::erase_if(sr->blocks, [&](BasicBlock *bb) {
            return live.count(bb) == 0;
        });
    }
    std::erase_if(regions, [&](const std::unique_ptr<SpecRegion> &sr) {
        return sr->blocks.empty();
    });

    f.removeBlocksIf([&](BasicBlock *bb) { return live.count(bb) == 0; });
}

BasicBlock *
splitEdge(Function &f, BasicBlock *from, BasicBlock *to)
{
    BasicBlock *mid = f.addBlock(from->name() + ".to." + to->name());
    IRBuilder b(nullptr);
    b.setInsertPoint(mid);
    b.br(to);

    Instruction *term = from->terminator();
    for (size_t i = 0; i < term->blockOperands().size(); ++i)
        if (term->blockOperand(i) == to)
            term->setBlockOperand(i, mid);

    for (Instruction *phi : to->phis())
        for (size_t i = 0; i < phi->blockOperands().size(); ++i)
            if (phi->blockOperand(i) == from)
                phi->setBlockOperand(i, mid);

    return mid;
}

} // namespace bitspec
