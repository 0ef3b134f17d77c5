#include "analysis/verifier.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "analysis/cfg.h"
#include "analysis/dominators.h"
#include "ir/printer.h"
#include "support/error.h"

namespace bitspec
{

namespace
{

void
checkTypes(const Instruction &inst, std::vector<std::string> &problems)
{
    auto bad = [&](const std::string &msg) {
        problems.push_back(inst.parent()->name() + ": " + msg);
    };

    switch (inst.op()) {
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::UDiv: case Opcode::SDiv: case Opcode::URem:
      case Opcode::SRem: case Opcode::And: case Opcode::Or:
      case Opcode::Xor: case Opcode::Shl: case Opcode::LShr:
      case Opcode::AShr:
        if (inst.numOperands() != 2 ||
            inst.operand(0)->type() != inst.type() ||
            inst.operand(1)->type() != inst.type()) {
            bad("binary op operand/result type mismatch");
        }
        break;
      case Opcode::ICmp:
        if (inst.numOperands() != 2 ||
            inst.operand(0)->type() != inst.operand(1)->type() ||
            !inst.type().isBool()) {
            bad("icmp typing violation");
        }
        break;
      case Opcode::ZExt: case Opcode::SExt:
        if (inst.numOperands() != 1 ||
            inst.operand(0)->type().bits >= inst.type().bits) {
            bad("extension must widen");
        }
        break;
      case Opcode::Trunc:
        if (inst.numOperands() != 1 ||
            inst.operand(0)->type().bits <= inst.type().bits) {
            bad("trunc must narrow");
        }
        break;
      case Opcode::Load:
        if (inst.numOperands() != 1 ||
            inst.operand(0)->type() != Type::i32()) {
            bad("load address must be i32");
        }
        break;
      case Opcode::Store:
        if (inst.numOperands() != 2 ||
            inst.operand(0)->type() != Type::i32()) {
            bad("store address must be i32");
        }
        break;
      case Opcode::CondBr:
        if (inst.numOperands() != 1 || !inst.operand(0)->type().isBool())
            bad("condbr condition must be i1");
        break;
      case Opcode::Select:
        if (inst.numOperands() != 3 ||
            !inst.operand(0)->type().isBool() ||
            inst.operand(1)->type() != inst.type() ||
            inst.operand(2)->type() != inst.type()) {
            bad("select typing violation");
        }
        break;
      case Opcode::Phi:
        for (Value *v : inst.operands())
            if (v->type() != inst.type())
                bad("phi input type mismatch");
        break;
      case Opcode::Call:
        if (!inst.callee())
            bad("call without callee");
        break;
      default:
        break;
    }
}

} // namespace

std::vector<std::string>
verifyFunction(Function &f)
{
    std::vector<std::string> problems;
    auto bad = [&](const std::string &msg) {
        problems.push_back(f.name() + ": " + msg);
    };

    if (f.blocks().empty()) {
        bad("function has no blocks");
        return problems;
    }

    // Terminators and phi placement.
    for (const auto &bb : f.blocks()) {
        if (!bb->hasTerminator()) {
            bad("block " + bb->name() + " lacks a terminator");
            return problems;
        }
        bool seen_nonphi = false;
        size_t idx = 0;
        for (const auto &inst : bb->insts()) {
            bool last = (++idx == bb->insts().size());
            if (inst->isTerm() && !last)
                bad("terminator mid-block in " + bb->name());
            if (inst->isPhi() && seen_nonphi)
                bad("phi after non-phi in " + bb->name());
            if (!inst->isPhi())
                seen_nonphi = true;
            checkTypes(*inst, problems);
        }
    }

    // Phi incoming edges must match predecessors exactly.
    auto preds = f.predecessors();
    auto sortedUnique = [](std::vector<BasicBlock *> v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        return v;
    };
    for (const auto &bb : f.blocks()) {
        std::vector<BasicBlock *> pred_set = sortedUnique(preds[bb.get()]);
        for (Instruction *phi : bb->phis()) {
            if (!pred_set.empty() &&
                sortedUnique(phi->blockOperands()) != pred_set) {
                bad("phi incoming set mismatch in " + bb->name());
            }
        }
    }

    // SSA dominance for reachable code. A non-phi use in the def's
    // own block needs the def at or before the user: positions come
    // from the block's (instruction, index) pairs sorted by address.
    DomTree dt(f);
    std::vector<std::pair<const Instruction *, size_t>> pos;
    for (const auto &bb : f.blocks()) {
        if (!dt.isReachable(bb.get()))
            continue;
        pos.clear();
        for (const auto &inst : bb->insts())
            pos.emplace_back(inst.get(), pos.size());
        std::sort(pos.begin(), pos.end());
        auto indexOf = [&](const Instruction *inst) {
            auto it = std::lower_bound(
                pos.begin(), pos.end(),
                std::make_pair(inst, size_t{0}));
            return it != pos.end() && it->first == inst ? it->second
                                                        : pos.size();
        };
        size_t at = 0;
        for (const auto &inst : bb->insts()) {
            for (size_t i = 0; i < inst->numOperands(); ++i) {
                Value *op = inst->operand(i);
                if (!op->isInstruction())
                    continue;
                auto *def = static_cast<Instruction *>(op);
                if (!dt.isReachable(def->parent()))
                    continue;
                bool ok = !inst->isPhi() && def->parent() == bb.get()
                              ? indexOf(def) <= at
                              : dt.dominatesUse(def, inst.get(), i);
                if (!ok) {
                    bad("use before def of %" + def->name() + " in " +
                        bb->name());
                }
            }
            ++at;
        }
    }

    // Speculative-region rules (paper §3.1.1).
    std::unordered_set<BasicBlock *> in_region;
    std::set<BasicBlock *> handlers;
    for (const auto &sr : f.specRegions()) {
        if (!sr->handler) {
            bad("region without handler");
            continue;
        }
        if (!handlers.insert(sr->handler).second)
            bad("block is handler of two regions: " + sr->handler->name());
        for (BasicBlock *member : sr->blocks) {
            if (!in_region.insert(member).second)
                bad("block in two regions: " + member->name());
            if (member == sr->handler)
                bad("handler inside its region: " + member->name());
        }
    }
    // Handlers are entered by misspeculation only: never a branch
    // target (one message per edge), never the function entry (which
    // the caller enters).
    std::unordered_map<const BasicBlock *, unsigned> target_edges;
    if (!handlers.empty())
        for (const auto &bb : f.blocks())
            for (BasicBlock *succ : bb->successors())
                ++target_edges[succ];
    const BasicBlock *entry = f.entry();
    for (BasicBlock *h : handlers) {
        if (in_region.count(h))
            bad("handler is member of a region: " + h->name());
        if (h == entry)
            bad("handler is the function entry: " + h->name());
        auto it = target_edges.find(h);
        for (unsigned k = it == target_edges.end() ? 0 : it->second; k > 0;
             --k)
            bad("handler is a branch target: " + h->name());
    }

    // Every speculative instruction needs a region (and with it a
    // handler) to redirect to; a stray flag outside any region would
    // misspeculate into nowhere.
    for (const auto &bb : f.blocks()) {
        if (in_region.count(bb.get()))
            continue;
        for (const auto &inst : bb->insts())
            if (inst->isSpeculative())
                bad("speculative instruction outside any region in " +
                    bb->name());
    }

    // Theorem 3.1: values defined in a region are dead at its handler.
    for (const auto &sr : f.specRegions()) {
        std::unordered_set<const Value *> defined;
        for (BasicBlock *member : sr->blocks)
            for (const auto &inst : member->insts())
                if (!inst->type().isVoid())
                    defined.insert(inst.get());
        for (const auto &inst : sr->handler->insts()) {
            for (Value *op : inst->operands()) {
                if (defined.count(op)) {
                    bad("handler " + sr->handler->name() +
                        " uses region-defined value (Theorem 3.1)");
                }
            }
        }
    }

    return problems;
}

std::vector<std::string>
verifyModule(Module &m)
{
    std::vector<std::string> problems;
    for (const auto &f : m.functions()) {
        auto p = verifyFunction(*f);
        problems.insert(problems.end(), p.begin(), p.end());
    }
    return problems;
}

void
verifyOrDie(Module &m, const std::string &when)
{
    auto problems = verifyModule(m);
    if (problems.empty())
        return;
    std::string msg = "IR verification failed " + when + ":\n";
    for (const auto &p : problems)
        msg += "  " + p + "\n";
    panic(msg);
}

} // namespace bitspec
