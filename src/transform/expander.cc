#include "transform/expander.h"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/cfg.h"
#include "analysis/dominators.h"
#include "analysis/loops.h"
#include "analysis/verifier.h"
#include "ir/builder.h"
#include "ir/clone.h"
#include "obs/trace.h"
#include "support/error.h"
#include "transform/simplify.h"

namespace bitspec
{

namespace
{

// ====================== Inlining ======================

/** Does @p from (transitively) call @p to? */
bool
reaches(Function *from, Function *to, std::set<Function *> &visited)
{
    if (from == to)
        return true;
    if (!visited.insert(from).second)
        return false;
    for (const auto &bb : from->blocks())
        for (const auto &inst : bb->insts())
            if (inst->isCall() &&
                reaches(inst->callee(), to, visited))
                return true;
    return false;
}

bool
isRecursiveWith(Function *caller, Function *callee)
{
    std::set<Function *> visited;
    return reaches(callee, caller, visited);
}

/** Inline one call site. Returns false if it cannot be inlined. */
bool
inlineCall(Function &caller, Instruction *call)
{
    Function *callee = call->callee();
    BasicBlock *site = call->parent();
    Module *m = caller.parent();

    // Split the call block: head [.., call), tail [call+1, ..).
    BasicBlock *tail = caller.addBlock(site->name() + ".ret");
    auto &src = site->insts();
    auto pos = std::find_if(src.begin(), src.end(), [&](const auto &p) {
        return p.get() == call;
    });
    bsAssert(pos != src.end(), "call not in its block");
    auto after = std::next(pos);
    tail->insts().splice(tail->insts().begin(), src, after, src.end());
    for (auto &inst : tail->insts())
        inst->setParent(tail);

    // Successor phis now hail from the tail.
    for (BasicBlock *succ : tail->successors())
        for (Instruction *phi : succ->phis())
            for (size_t i = 0; i < phi->blockOperands().size(); ++i)
                if (phi->blockOperand(i) == site)
                    phi->setBlockOperand(i, tail);

    // Clone the callee body into the caller.
    std::vector<BasicBlock *> body;
    for (auto &bb : callee->blocks())
        body.push_back(bb.get());
    CloneMap cm = cloneBlocks(body, &caller, ".in." + callee->name());

    // Bind arguments.
    for (BasicBlock *ob : body) {
        BasicBlock *nb = cm.get(ob);
        for (auto &inst : nb->insts()) {
            for (size_t i = 0; i < inst->numOperands(); ++i) {
                Value *op = inst->operand(i);
                if (op->kind() == ValueKind::Argument) {
                    // Only callee arguments appear here: caller args
                    // cannot occur inside cloned callee code.
                    auto *arg = static_cast<Argument *>(op);
                    if (arg->index() < callee->numArgs() &&
                        callee->arg(arg->index()) == arg) {
                        inst->setOperand(i,
                                         call->operand(arg->index()));
                    }
                }
            }
        }
    }

    // Rewire returns to the tail, collecting return values.
    std::vector<std::pair<Value *, BasicBlock *>> rets;
    for (BasicBlock *ob : body) {
        BasicBlock *nb = cm.get(ob);
        Instruction *term = nb->terminator();
        if (term->op() != Opcode::Ret)
            continue;
        Value *rv = term->numOperands() ? term->operand(0) : nullptr;
        term->setOp(Opcode::Br);
        term->clearOperands();
        term->addBlockOperand(tail);
        rets.emplace_back(rv, nb);
    }
    bsAssert(!rets.empty(), "callee has no return");

    // Replace the call: head branches into the cloned entry; the call
    // itself becomes the return-value merge.
    BasicBlock *centry = cm.get(callee->entry());
    {
        // Remove the call from the head; re-purpose it as a phi (or
        // drop it for void) placed in the tail.
        std::unique_ptr<Instruction> owned = std::move(*pos);
        src.erase(pos);
        IRBuilder b(m);
        b.setInsertPoint(site);
        b.br(centry);

        if (!call->type().isVoid()) {
            call->setOp(Opcode::Phi);
            call->clearOperands();
            call->setCallee(nullptr);
            for (auto &[rv, bb] : rets) {
                call->addOperand(rv);
                call->addBlockOperand(bb);
            }
            call->setParent(tail);
            tail->insertBefore(tail->insts().begin(), std::move(owned));
        }
        // For void calls `owned` simply dies here.
    }
    return true;
}

unsigned
inlineFunction(Function &f, const ExpanderOptions &opts)
{
    unsigned inlined = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        if (f.instructionCount() > opts.maxFunctionSize)
            break;
        for (auto &bb : f.blocks()) {
            for (auto &inst : bb->insts()) {
                if (!inst->isCall())
                    continue;
                Function *callee = inst->callee();
                if (isRecursiveWith(&f, callee))
                    continue;
                if (f.instructionCount() + callee->instructionCount() >
                    opts.maxFunctionSize) {
                    continue;
                }
                inlineCall(f, inst.get());
                ++inlined;
                changed = true;
                break; // Iterator invalidated: restart.
            }
            if (changed)
                break;
        }
    }
    return inlined;
}

// ====================== Unrolling ======================

/** Loop-closed SSA for a single-exit-target loop: values defined in
 *  the loop and used outside flow through phis at the exit target. */
void
makeLCSSA(Function &f, const Loop &loop, BasicBlock *exit_target)
{
    std::set<BasicBlock *> in_loop(loop.blocks.begin(),
                                   loop.blocks.end());
    // Exit edges into the target.
    std::vector<BasicBlock *> exit_preds;
    for (BasicBlock *bb : loop.blocks)
        for (BasicBlock *succ : bb->successors())
            if (succ == exit_target)
                exit_preds.push_back(bb);

    for (BasicBlock *bb : loop.blocks) {
        for (auto &inst : bb->insts()) {
            if (inst->type().isVoid())
                continue;
            // Gather outside uses.
            std::vector<std::pair<Instruction *, size_t>> outside;
            for (auto &ubb : f.blocks()) {
                bool ubb_inside = in_loop.count(ubb.get()) > 0;
                for (auto &user : ubb->insts()) {
                    for (size_t i = 0; i < user->numOperands(); ++i) {
                        if (user->operand(i) != inst.get())
                            continue;
                        bool use_inside = ubb_inside;
                        if (user->isPhi()) {
                            use_inside =
                                in_loop.count(user->blockOperand(i)) > 0;
                            // Existing exit-target phis are already
                            // loop-closed.
                            if (ubb.get() == exit_target && !use_inside)
                                use_inside = true;
                            if (ubb.get() == exit_target)
                                continue;
                        }
                        if (!use_inside)
                            outside.emplace_back(user.get(), i);
                    }
                }
            }
            if (outside.empty())
                continue;
            auto phi = std::make_unique<Instruction>(Opcode::Phi,
                                                     inst->type());
            phi->setName(inst->name() + ".lcssa");
            Instruction *raw = phi.get();
            raw->setParent(exit_target);
            for (BasicBlock *p : exit_preds) {
                raw->addOperand(inst.get());
                raw->addBlockOperand(p);
            }
            exit_target->insertBefore(exit_target->insts().begin(),
                                      std::move(phi));
            for (auto &[user, idx] : outside)
                user->setOperand(idx, raw);
        }
    }
}

/** Partially unroll @p loop by @p factor (clones body factor-1 times,
 *  keeping every exit check). Requirements checked by the caller. */
void
unrollLoop(Function &f, const Loop &loop, unsigned factor,
           BasicBlock *exit_target)
{
    makeLCSSA(f, loop, exit_target);

    BasicBlock *header = loop.header;
    BasicBlock *latch = loop.latches[0];
    std::set<BasicBlock *> in_loop(loop.blocks.begin(),
                                   loop.blocks.end());

    // Clone the body factor-1 times.
    std::vector<CloneMap> copies;
    for (unsigned k = 1; k < factor; ++k)
        copies.push_back(
            cloneBlocks(loop.blocks, &f, ".u" + std::to_string(k)));

    // Exit-target phis gain one incoming per cloned exit edge.
    for (Instruction *phi : exit_target->phis()) {
        size_t n = phi->numOperands();
        for (size_t i = 0; i < n; ++i) {
            BasicBlock *in = phi->blockOperand(i);
            if (!in_loop.count(in))
                continue;
            for (auto &cm : copies) {
                phi->addOperand(cm.get(phi->operand(i)));
                phi->addBlockOperand(cm.get(in));
            }
        }
    }

    // Rewire back edges: latch -> H1, latch_k -> H(k+1), last -> H.
    auto redirect = [&](BasicBlock *from, BasicBlock *to_header) {
        Instruction *term = from->terminator();
        for (size_t i = 0; i < term->blockOperands().size(); ++i)
            if (term->blockOperand(i) == header ||
                std::any_of(copies.begin(), copies.end(),
                            [&](CloneMap &cm) {
                                return term->blockOperand(i) ==
                                       cm.get(header);
                            })) {
                term->setBlockOperand(i, to_header);
            }
    };

    BasicBlock *h1 = copies[0].get(header);
    redirect(latch, h1);
    for (unsigned k = 0; k + 1 < copies.size(); ++k)
        redirect(copies[k].get(latch), copies[k + 1].get(header));
    redirect(copies.back().get(latch), header);

    // Original header phis: the back-edge value now comes from the
    // last copy's latch.
    CloneMap &last = copies.back();
    for (Instruction *phi : header->phis()) {
        for (size_t i = 0; i < phi->numOperands(); ++i) {
            if (phi->blockOperand(i) == latch) {
                phi->setOperand(i, last.get(phi->operand(i)));
                phi->setBlockOperand(i, last.get(latch));
            }
        }
    }

    // Cloned header phis: single predecessor (previous copy's latch);
    // keep only that incoming, with the previous copy's value.
    for (unsigned k = 0; k < copies.size(); ++k) {
        CloneMap &cm = copies[k];
        BasicBlock *hk = cm.get(header);
        BasicBlock *prev_latch =
            k == 0 ? latch : copies[k - 1].get(latch);
        for (Instruction *phi : hk->phis()) {
            // Find the original phi this was cloned from.
            // The clone's back-edge entry references cm.get(latch)'s
            // value; the previous copy's value is what actually flows.
            Value *incoming = nullptr;
            for (size_t i = 0; i < phi->numOperands(); ++i) {
                if (phi->blockOperand(i) == cm.get(latch)) {
                    // Value as computed by copy k; remap to previous
                    // copy: copy k's value v_k corresponds to v in the
                    // original; previous copy's v is (k==0 ? v :
                    // copies[k-1].get(v)). Find original by reverse
                    // lookup.
                    Value *vk = phi->operand(i);
                    Value *orig = vk;
                    for (auto &[o, n] : cm.values)
                        if (n == vk) {
                            orig = o;
                            break;
                        }
                    incoming = k == 0 ? orig : copies[k - 1].get(orig);
                }
            }
            bsAssert(incoming != nullptr,
                     "unroll: cloned header phi lost its back edge");
            while (phi->numOperands() > 0)
                phi->removePhiIncoming(0);
            phi->addOperand(incoming);
            phi->addBlockOperand(prev_latch);
        }
    }

    simplifyTrivialPhis(f);
    removeUnreachableBlocks(f);
}

unsigned
unrollFunction(Function &f, const ExpanderOptions &opts)
{
    if (opts.unrollFactor < 2)
        return 0;
    unsigned unrolled = 0;
    // One round: unroll each currently-detected loop once. (Unrolling
    // creates no new unrollable loops; nested loops are handled inner
    // first by findLoops ordering, but maps invalidate after each
    // transform, so recompute.)
    bool changed = true;
    std::set<BasicBlock *> done_headers;
    while (changed) {
        changed = false;
        DomTree dt(f);
        auto loops = findLoops(f, dt);
        // The CFG changes only when a loop is unrolled, and the round
        // ends right after, so one predecessor map serves the round.
        const PredecessorMap preds = predecessorMap(f, false);
        for (const Loop &loop : loops) {
            if (done_headers.count(loop.header))
                continue;
            if (loop.latches.size() != 1)
                continue;
            if (loop.blocks.size() > 24)
                continue;
            size_t body_size = 0;
            for (BasicBlock *bb : loop.blocks)
                body_size += bb->insts().size();
            if (body_size > opts.maxLoopSize)
                continue;
            if (f.instructionCount() +
                    body_size * (opts.unrollFactor - 1) >
                opts.maxFunctionSize) {
                continue;
            }
            auto exits = loop.exitTargets();
            if (exits.size() != 1)
                continue;
            BasicBlock *t = exits[0];
            // All preds of the exit target must come from the loop.
            bool clean = true;
            if (auto it = preds.find(t); it != preds.end())
                for (BasicBlock *p : it->second)
                    clean &= loop.contains(p);
            if (!clean)
                continue;

            unrollLoop(f, loop, opts.unrollFactor, t);
            done_headers.insert(loop.header);
            ++unrolled;
            changed = true;
            break; // Loop structures invalidated: recompute.
        }
    }
    return unrolled;
}

} // namespace

ExpandStats
expandModule(Module &m, const ExpanderOptions &opts)
{
    ExpandStats stats;
    if (!opts.enabled)
        return stats;
    trace::Span span("transform.expand", "compile");
    for (const auto &f : m.functions()) {
        stats.inlinedCalls += inlineFunction(*f, opts);
        simplifyTrivialPhis(*f);
        stats.unrolledLoops += unrollFunction(*f, opts);
        simplifyTrivialPhis(*f);
        deadCodeElim(*f);
    }
    verifyOrDie(m, "after expansion");
    return stats;
}

} // namespace bitspec
