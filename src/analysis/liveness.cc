#include "analysis/liveness.h"

namespace bitspec
{

Liveness::Liveness(Function &f, bool handler_edges)
{
    const size_t num_values = f.renumber();
    values_.reserve(num_values);
    for (size_t i = 0; i < f.numArgs(); ++i)
        values_.push_back(f.arg(i));
    for (const auto &bb : f.blocks()) {
        blockIndex_.emplace(bb.get(), blockIndex_.size());
        for (const auto &inst : bb->insts())
            values_.push_back(inst.get());
    }
    const size_t num_blocks = f.blocks().size();

    // Successors by block index, including handler edges when
    // requested.
    std::vector<std::vector<size_t>> succs(num_blocks);
    auto add_edge = [&](const BasicBlock *from, const BasicBlock *to) {
        auto f_it = blockIndex_.find(from), t_it = blockIndex_.find(to);
        if (f_it != blockIndex_.end() && t_it != blockIndex_.end())
            succs[f_it->second].push_back(t_it->second);
    };
    for (const auto &bb : f.blocks())
        for (BasicBlock *s : bb->successors())
            add_edge(bb.get(), s);
    if (handler_edges) {
        for (const auto &sr : f.specRegions())
            for (BasicBlock *member : sr->blocks)
                add_edge(member, sr->handler);
    }

    // use[b]: used before any def in b. def[b]: values defined in b.
    // Phi uses are attributed to the incoming edge: they seed the
    // predecessor's live-out.
    std::vector<BitSet> use(num_blocks, BitSet(num_values));
    std::vector<BitSet> def(num_blocks, BitSet(num_values));
    liveIn_.assign(num_blocks, BitSet(num_values));
    liveOut_.assign(num_blocks, BitSet(num_values));

    for (size_t b = 0; b < num_blocks; ++b) {
        for (const auto &inst : f.blocks()[b]->insts()) {
            if (inst->isPhi()) {
                for (size_t i = 0; i < inst->numOperands(); ++i) {
                    size_t id = idOf(inst->operand(i));
                    auto pred = blockIndex_.find(inst->blockOperand(i));
                    if (id < num_values && pred != blockIndex_.end())
                        liveOut_[pred->second].set(id);
                }
            } else {
                for (Value *v : inst->operands()) {
                    size_t id = idOf(v);
                    if (id < num_values && !def[b].test(id))
                        use[b].set(id);
                }
            }
            if (!inst->type().isVoid())
                def[b].set(inst->id());
        }
    }
    // Only now is every phi use in place: a later block's phi can feed
    // an earlier block's live-out.
    for (size_t b = 0; b < num_blocks; ++b) {
        liveIn_[b] = use[b];
        liveIn_[b].unionWithDifference(liveOut_[b], def[b]);
    }

    // Backward dataflow to a fixed point. Sets only grow, so the
    // in-place unions converge to the least solution of
    //   out[b] = phiUse[b] | (union of in[s] over successors s),
    //   in[b]  = use[b] | (out[b] & ~def[b]).
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t b = num_blocks; b-- > 0;) {
            bool grew = false;
            for (size_t s : succs[b])
                grew |= liveOut_[b].unionWith(liveIn_[s]);
            if (grew) {
                liveIn_[b].unionWithDifference(liveOut_[b], def[b]);
                changed = true;
            }
        }
    }
}

size_t
Liveness::idOf(const Value *v) const
{
    size_t id = values_.size();
    if (v->isInstruction())
        id = static_cast<const Instruction *>(v)->id();
    else if (v->kind() == ValueKind::Argument)
        id = static_cast<const Argument *>(v)->index();
    return id < values_.size() && values_[id] == v ? id : values_.size();
}

bool
Liveness::contains(const std::vector<BitSet> &sets, const Value *v,
                   const BasicBlock *bb) const
{
    auto it = blockIndex_.find(bb);
    size_t id = idOf(v);
    return it != blockIndex_.end() && id < values_.size() &&
           sets[it->second].test(id);
}

std::vector<Value *>
Liveness::members(const std::vector<BitSet> &sets,
                  const BasicBlock *bb) const
{
    std::vector<Value *> out;
    auto it = blockIndex_.find(bb);
    if (it != blockIndex_.end())
        sets[it->second].forEach(
            [&](size_t id) { out.push_back(values_[id]); });
    return out;
}

std::vector<Value *>
Liveness::liveIn(const BasicBlock *bb) const
{
    return members(liveIn_, bb);
}

std::vector<Value *>
Liveness::liveOut(const BasicBlock *bb) const
{
    return members(liveOut_, bb);
}

} // namespace bitspec
