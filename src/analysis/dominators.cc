#include "analysis/dominators.h"

#include "analysis/cfg.h"
#include "support/error.h"

namespace bitspec
{

DomTree::DomTree(Function &f)
{
    rpo_ = reversePostOrder(f);
    const auto n = static_cast<unsigned>(rpo_.size());
    for (unsigned i = 0; i < n; ++i)
        index_.emplace(rpo_[i], i);

    // Predecessor indices; every successor of a reachable block is
    // reachable.
    std::vector<std::vector<unsigned>> preds(n);
    for (unsigned i = 0; i < n; ++i)
        for (BasicBlock *succ : rpo_[i]->successors())
            preds[index_.at(succ)].push_back(i);

    constexpr unsigned kNone = ~0u;
    idom_.assign(n, kNone);
    idom_[0] = 0;
    auto intersect = [&](unsigned a, unsigned b) {
        while (a != b) {
            while (a > b)
                a = idom_[a];
            while (b > a)
                b = idom_[b];
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (unsigned i = 1; i < n; ++i) {
            unsigned new_idom = kNone;
            for (unsigned p : preds[i]) {
                if (idom_[p] == kNone)
                    continue; // Not yet processed.
                new_idom = new_idom == kNone ? p : intersect(new_idom, p);
            }
            if (new_idom != kNone && idom_[i] != new_idom) {
                idom_[i] = new_idom;
                changed = true;
            }
        }
    }

    // Number the tree depth-first: a dominates b iff b's entry and
    // exit numbers nest inside a's.
    std::vector<std::vector<unsigned>> children(n);
    for (unsigned i = 1; i < n; ++i)
        children[idom_[i]].push_back(i);
    enter_.assign(n, 0);
    exit_.assign(n, 0);
    unsigned clock = 0;
    std::vector<std::pair<unsigned, size_t>> stack;
    if (n > 0) {
        enter_[0] = clock++;
        stack.emplace_back(0, 0);
    }
    while (!stack.empty()) {
        auto &[node, next] = stack.back();
        if (next < children[node].size()) {
            unsigned child = children[node][next++];
            enter_[child] = clock++;
            stack.emplace_back(child, 0);
        } else {
            exit_[node] = clock++;
            stack.pop_back();
        }
    }
}

BasicBlock *
DomTree::idom(BasicBlock *bb) const
{
    auto it = index_.find(bb);
    if (it == index_.end())
        panic("idom: unreachable block " + bb->name());
    return rpo_[idom_[it->second]];
}

bool
DomTree::dominates(BasicBlock *a, BasicBlock *b) const
{
    auto ia = index_.find(a);
    auto ib = index_.find(b);
    if (ia == index_.end() || ib == index_.end())
        return false;
    return enter_[ia->second] <= enter_[ib->second] &&
           exit_[ib->second] <= exit_[ia->second];
}

bool
DomTree::dominatesUse(const Instruction *def, const Instruction *user,
                      size_t operand_index) const
{
    BasicBlock *def_bb = def->parent();
    if (user->isPhi()) {
        // Use happens at the end of the incoming block.
        BasicBlock *incoming = user->blockOperand(operand_index);
        return dominates(def_bb, incoming);
    }
    BasicBlock *use_bb = user->parent();
    if (def_bb != use_bb)
        return dominates(def_bb, use_bb);
    // Same block: def must come first.
    for (const auto &inst : def_bb->insts()) {
        if (inst.get() == def)
            return true;
        if (inst.get() == user)
            return false;
    }
    return false;
}

} // namespace bitspec
