#include "transform/squeezer.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "analysis/cfg.h"
#include "analysis/demanded_bits.h"
#include "analysis/known_bits.h"
#include "analysis/lint.h"
#include "analysis/liveness.h"
#include "analysis/pipeline.h"
#include "analysis/verifier.h"
#include "ir/builder.h"
#include "ir/clone.h"
#include "obs/trace.h"
#include "support/bits.h"
#include "support/error.h"
#include "transform/cfg_prep.h"
#include "transform/simplify.h"
#include "transform/ssa_repair.h"

namespace bitspec
{

namespace
{

constexpr unsigned kSlice = 8; ///< Hardware slice width (Table 1).

/** Ops that can trigger misspeculation once narrowed. */
bool
canMisspeculate(Opcode op)
{
    return op == Opcode::Add || op == Opcode::Sub ||
           op == Opcode::Load || op == Opcode::Trunc;
}

/** Narrowable op set: Table 1 plus copies (phi/select/casts). */
bool
isNarrowableOp(Opcode op)
{
    switch (op) {
      case Opcode::Add: case Opcode::Sub:
      case Opcode::And: case Opcode::Or: case Opcode::Xor:
      case Opcode::Load: case Opcode::Trunc: case Opcode::ZExt:
      case Opcode::Phi: case Opcode::Select:
        return true;
      default:
        return false;
    }
}

CmpPred
toUnsignedPred(CmpPred p)
{
    switch (p) {
      case CmpPred::SLT: return CmpPred::ULT;
      case CmpPred::SLE: return CmpPred::ULE;
      case CmpPred::SGT: return CmpPred::UGT;
      case CmpPred::SGE: return CmpPred::UGE;
      default: return p;
    }
}

class SqueezerImpl
{
  public:
    SqueezerImpl(Function &f, const BitwidthProfile &profile,
                 const SqueezeOptions &opts)
        : f_(f), m_(*f.parent()), profile_(profile), opts_(opts)
    {}

    SqueezeStats
    run()
    {
        if (opts_.speculate)
            runSpeculative();
        else
            runExact();
        return stats_;
    }

  private:
    // ================= Common helpers =================

    Constant *
    constI8(uint64_t v)
    {
        return m_.getConst(Type(kSlice), v);
    }

    bool
    isNarrowConst(Value *v) const
    {
        return v->isConstant() &&
               static_cast<Constant *>(v)->value() <= lowMask(kSlice);
    }

    /** True when known-bits proves @p u always fits the slice. The
     *  analysis is computed before any rewriting; values the squeezer
     *  has already mutated are resolved through narrowOf_ by every
     *  caller before this is consulted, so stale facts are never
     *  load-bearing. */
    bool
    staticFits(Value *u) const
    {
        if (!opts_.staticAnalysis || kb_ == nullptr)
            return false;
        if (!u->type().isInt())
            return false;
        return kb_->known(u).fits(kSlice);
    }

    /** Static candidate: the result and every data operand provably
     *  fit the slice, so the 8-bit form computes the identical value
     *  (mod-2^w arithmetic restricted to [0,255] on both ends) and
     *  needs no check, no profile data and no idempotent block. */
    bool
    isStaticCandidate(Instruction *w) const
    {
        if (!opts_.staticAnalysis || kb_ == nullptr)
            return false;
        if (w->op() == Opcode::Load)
            return false; // Memory contents are unbounded.
        if (!staticFits(w))
            return false;
        for (size_t i = 0; i < w->numOperands(); ++i) {
            if (w->op() == Opcode::Select && i == 0)
                continue; // i1 condition.
            Value *u = w->operand(i);
            if (!isNarrowConst(u) && !staticFits(u))
                return false;
        }
        return true;
    }

    /** The narrow (i8) version of @p u for use at @p before in @p bb,
     *  inserting a truncate when needed. @p allow_spec permits
     *  speculative truncates of values whose producer stays wide. */
    Value *
    narrowOperand(Value *u, BasicBlock *bb,
                  BasicBlock::InstList::iterator before, bool allow_spec)
    {
        if (isNarrowConst(u))
            return constI8(static_cast<Constant *>(u)->value());
        if (u->type().bits == kSlice)
            return u;
        auto it = narrowOf_.find(u);
        if (it != narrowOf_.end())
            return it->second;

        // Sub-slice values (booleans) widen to the slice: exact, never
        // misspeculates.
        if (u->type().bits < kSlice) {
            auto zx = std::make_unique<Instruction>(Opcode::ZExt,
                                                    Type(kSlice));
            zx->addOperand(u);
            zx->setName("sq.zx");
            return bb->insertBefore(before, std::move(zx));
        }

        auto tr = std::make_unique<Instruction>(Opcode::Trunc,
                                                Type(kSlice));
        tr->addOperand(u);
        tr->setName("sq.tr");
        if (candidates_.count(u) || !opts_.speculate || staticFits(u)) {
            // Producer will be narrowed (the trunc collapses to the
            // narrow def during cleanup), exact mode (dropping the
            // high bits cannot affect the demanded result bits), or
            // known-bits proved the value fits: all exact truncates.
        } else {
            bsAssert(allow_spec, "spec trunc where not allowed");
            tr->setSpeculative(true);
            tr->setSpecOrigBits(u->type().bits);
            ++stats_.specTruncs;
        }
        return bb->insertBefore(before, std::move(tr));
    }

    /** Mutate @p w in place into `zext w8` and register the mapping.
     *  Narrowed phis are relocated after the remaining phis. */
    void
    mutateToZext(Instruction *w, Value *w8)
    {
        bool was_phi = w->isPhi();
        w->setOp(Opcode::ZExt);
        w->clearOperands();
        while (!w->blockOperands().empty())
            w->removeBlockOperand(0);
        w->addOperand(w8);
        w->setSpeculative(false);
        w->setSpecOrigBits(0);
        narrowOf_[w] = w8;
        ++stats_.narrowed;

        if (was_phi) {
            // Keep the "phis first" invariant.
            BasicBlock *bb = w->parent();
            auto &insts = bb->insts();
            for (auto it = insts.begin(); it != insts.end(); ++it) {
                if (it->get() == w) {
                    auto node = std::move(*it);
                    insts.erase(it);
                    bb->insertBefore(bb->firstNonPhi(), std::move(node));
                    break;
                }
            }
        }
    }

    // ================= Exact mode (RQ2) =================

    void
    runExact()
    {
        DemandedBits db(f_);
        if (opts_.staticAnalysis)
            kb_ = std::make_unique<KnownBitsAnalysis>(f_);

        // Candidates: provably narrow results — backward (demanded
        // bits: the wide bits are never observed) or forward
        // (known bits: the wide bits are always zero).
        for (auto &bb : f_.blocks()) {
            for (auto &inst : bb->insts()) {
                if (inst->type().bits <= kSlice || !inst->type().isInt())
                    continue;
                if (!isNarrowableOp(inst->op()))
                    continue;
                if (db.demandedWidth(inst.get()) <= kSlice) {
                    candidates_.insert(inst.get());
                } else if (isStaticCandidate(inst.get())) {
                    candidates_.insert(inst.get());
                    staticSafe_.insert(inst.get());
                }
            }
        }

        // Rewrite. All truncs are exact: only the low byte of every
        // operand can influence the demanded result bits.
        for (auto &bb : f_.blocks()) {
            std::vector<Instruction *> snapshot;
            for (auto &inst : bb->insts())
                snapshot.push_back(inst.get());
            for (Instruction *w : snapshot) {
                if (!candidates_.count(w))
                    continue;
                rewriteCandidate(w, /*allow_spec=*/false);
            }
        }

        cleanupTruncs();
        simplifyTrivialPhis(f_);
        deadCodeElim(f_);
    }

    // ================= Speculative mode =================

    /** Resolve cloned instructions to the originals the profile saw. */
    const Instruction *
    profileKey(const Instruction *inst) const
    {
        auto it = cloneTarget_.find(inst);
        return it == cloneTarget_.end() ? inst : it->second;
    }

    bool
    hasProfileData(const Instruction *inst) const
    {
        return profile_.hasData(profileKey(inst));
    }

    unsigned
    targetOf(Value *u) const
    {
        if (u->isConstant())
            return requiredBits(static_cast<Constant *>(u)->value());
        if (u->kind() == ValueKind::GlobalRef)
            return 32;
        if (u->type().bits == 1)
            return 1;
        if (!u->isInstruction())
            return u->type().bits; // Arguments: no profile data.
        auto *inst = static_cast<const Instruction *>(u);
        return profile_.target(profileKey(inst), opts_.heuristic);
    }

    /** The paper's BW(v) = max(T(v), max over operands T(u)). */
    unsigned
    selectionOf(Instruction *w) const
    {
        unsigned bw = targetOf(w);
        for (Value *u : w->operands()) {
            if (w->op() == Opcode::Select && u == w->operand(0))
                continue; // Select condition is i1.
            bw = std::max(bw, targetOf(u));
        }
        return bw;
    }

    bool
    isElidableBitmask(Instruction *w) const
    {
        if (!opts_.bitmaskElision || w->op() != Opcode::And)
            return false;
        for (Value *u : w->operands()) {
            if (u->isConstant() &&
                static_cast<Constant *>(u)->value() == lowMask(kSlice)) {
                return true;
            }
        }
        return false;
    }

    void
    computeCandidates(const std::vector<BasicBlock *> &spec_blocks)
    {
        std::set<BasicBlock *> spec_set(spec_blocks.begin(),
                                        spec_blocks.end());
        for (BasicBlock *bb : spec_blocks) {
            bool idem = isIdempotent(*bb);
            for (auto &inst : bb->insts()) {
                Instruction *w = inst.get();
                if (w->type().bits <= kSlice || !w->type().isInt())
                    continue;
                if (!isNarrowableOp(w->op()))
                    continue;
                if (isElidableBitmask(w)) {
                    candidates_.insert(w);
                    elided_.insert(w);
                    continue;
                }
                // Known-bits proof: exact narrowing, exempt from the
                // profile/idempotence requirements below (the 8-bit
                // form never misspeculates, so nothing re-executes).
                if (isStaticCandidate(w)) {
                    candidates_.insert(w);
                    staticSafe_.insert(w);
                    continue;
                }
                // Misspeculating ops need an idempotent block to
                // re-execute; pure copies/logic do not.
                if (canMisspeculate(w->op()) && !idem)
                    continue;
                if (!hasProfileData(w))
                    continue;
                if (selectionOf(w) > kSlice)
                    continue;
                candidates_.insert(w);
            }
        }

        // Fixed point: phis/selects and ops in non-idempotent blocks
        // must find every operand already narrow (no speculative
        // truncates possible at their position).
        bool changed = true;
        while (changed) {
            changed = false;
            for (BasicBlock *bb : spec_blocks) {
                bool idem = isIdempotent(*bb);
                for (auto &inst : bb->insts()) {
                    Instruction *w = inst.get();
                    if (!candidates_.count(w) || elided_.count(w))
                        continue;
                    bool needs_avail =
                        w->isPhi() || w->op() == Opcode::Select || !idem;
                    if (!needs_avail)
                        continue;
                    for (size_t i = 0; i < w->numOperands(); ++i) {
                        Value *u = w->operand(i);
                        if (w->op() == Opcode::Select && i == 0)
                            continue;
                        bool avail = isNarrowConst(u) ||
                                     u->type().bits == kSlice ||
                                     candidates_.count(u) ||
                                     staticFits(u);
                        if (!avail) {
                            candidates_.erase(w);
                            changed = true;
                            break;
                        }
                    }
                }
            }
        }
    }

    /** Rewrite one candidate to the slice width. */
    void
    rewriteCandidate(Instruction *w, bool allow_spec)
    {
        BasicBlock *bb = w->parent();
        auto at = std::find_if(bb->insts().begin(), bb->insts().end(),
                               [&](const auto &p) {
                                   return p.get() == w;
                               });
        bsAssert(at != bb->insts().end(), "candidate not in its block");

        if (staticSafe_.count(w)) {
            allow_spec = false; // Known-bits proof: exact rewrite.
            ++stats_.staticNarrowed;
        }

        if (elided_.count(w)) {
            // `and x, 0xff` -> exact truncate of x (a slice move in
            // the backend); never misspeculates. x is the non-mask
            // operand: selecting on constant-ness alone picks the
            // mask itself when x is a constant too (`and 1, 0xff`
            // must truncate 1, not 0xff — found by fuzz_spec).
            Value *x = w->operand(0);
            if (x->isConstant() &&
                static_cast<Constant *>(x)->value() == lowMask(kSlice))
                x = w->operand(1);
            Value *w8;
            if (x->type().bits == kSlice) {
                w8 = x;
            } else {
                auto tr = std::make_unique<Instruction>(Opcode::Trunc,
                                                        Type(kSlice));
                tr->addOperand(x);
                tr->setName("mask8");
                w8 = bb->insertBefore(at, std::move(tr));
            }
            ++stats_.bitmasksElided;
            mutateToZext(w, w8);
            return;
        }

        switch (w->op()) {
          case Opcode::ZExt:
          case Opcode::Trunc: {
            // Pure width change: the narrow def is the (possibly
            // speculatively truncated) operand.
            Value *w8 = narrowOperand(w->operand(0), bb, at, allow_spec);
            mutateToZext(w, w8);
            return;
          }
          case Opcode::Load: {
            auto ld = std::make_unique<Instruction>(Opcode::Load,
                                                    Type(kSlice));
            ld->addOperand(w->operand(0));
            ld->setName(w->name().empty() ? "sq.ld" : w->name() + ".8");
            if (allow_spec) {
                ld->setSpeculative(true);
                ld->setSpecOrigBits(w->type().bits);
            }
            Value *w8 = bb->insertBefore(at, std::move(ld));
            mutateToZext(w, w8);
            return;
          }
          case Opcode::Phi: {
            auto phi = std::make_unique<Instruction>(Opcode::Phi,
                                                     Type(kSlice));
            phi->setName(w->name().empty() ? "sq.phi"
                                           : w->name() + ".8");
            Instruction *raw = phi.get();
            raw->setParent(bb);
            bb->insertBefore(bb->insts().begin(), std::move(phi));
            for (size_t i = 0; i < w->numOperands(); ++i) {
                BasicBlock *pred = w->blockOperand(i);
                Value *nu = narrowOperand(
                    w->operand(i), pred,
                    std::prev(pred->insts().end()),
                    /*allow_spec=*/false);
                raw->addOperand(nu);
                raw->addBlockOperand(pred);
            }
            mutateToZext(w, raw);
            return;
          }
          default: {
            auto op8 = std::make_unique<Instruction>(w->op(),
                                                     Type(kSlice));
            op8->setName(w->name().empty() ? "sq.op" : w->name() + ".8");
            for (size_t i = 0; i < w->numOperands(); ++i) {
                Value *u = w->operand(i);
                if (w->op() == Opcode::Select && i == 0) {
                    op8->addOperand(u); // i1 condition unchanged.
                    continue;
                }
                op8->addOperand(narrowOperand(u, bb, at, allow_spec));
            }
            if (allow_spec && canMisspeculate(w->op())) {
                op8->setSpeculative(true);
                op8->setSpecOrigBits(w->type().bits);
            }
            Value *w8 = bb->insertBefore(at, std::move(op8));
            mutateToZext(w, w8);
            return;
          }
        }
    }

    /** Fold an 8-bit compare whose constant side sits on the slice
     *  boundary: `ule x, 255` / `uge x, 0` are tautologies, `ugt x,
     *  255` / `ult x, 0` contradictions. */
    void
    foldBoundaryCompare(Instruction *c)
    {
        for (int side = 0; side < 2; ++side) {
            Value *k = c->operand(side);
            Value *v = c->operand(1 - side);
            if (!k->isConstant() || v->isConstant())
                continue;
            uint64_t kv = static_cast<Constant *>(k)->value();
            CmpPred p = c->pred();
            // Normalise to "v PRED k".
            if (side == 0) {
                switch (p) {
                  case CmpPred::ULT: p = CmpPred::UGT; break;
                  case CmpPred::ULE: p = CmpPred::UGE; break;
                  case CmpPred::UGT: p = CmpPred::ULT; break;
                  case CmpPred::UGE: p = CmpPred::ULE; break;
                  default: break;
                }
            }
            int result = -1; // -1: not decided.
            if (kv == lowMask(kSlice)) {
                if (p == CmpPred::ULE)
                    result = 1;
                else if (p == CmpPred::UGT)
                    result = 0;
            } else if (kv == 0) {
                if (p == CmpPred::UGE)
                    result = 1;
                else if (p == CmpPred::ULT)
                    result = 0;
            }
            if (result < 0)
                continue;
            if (v->isInstruction())
                static_cast<Instruction *>(v)->setGuard(true);
            f_.replaceAllUses(c, m_.getConst(Type::i1(), result));
            ++stats_.comparesEliminated;
            return;
        }
    }

    /** Narrow compares whose operands fit; fold compares against
     *  out-of-range constants (§3.2.4 compare elimination). */
    void
    rewriteCompares(const std::vector<BasicBlock *> &spec_blocks)
    {
        for (BasicBlock *bb : spec_blocks) {
            std::vector<Instruction *> snapshot;
            for (auto &inst : bb->insts())
                snapshot.push_back(inst.get());
            for (Instruction *c : snapshot) {
                if (c->op() != Opcode::ICmp)
                    continue;
                Value *a = c->operand(0);
                Value *b = c->operand(1);
                auto narrow_ready = [&](Value *v) {
                    return isNarrowConst(v) ||
                           v->type().bits == kSlice ||
                           narrowOf_.count(v);
                };

                if (narrow_ready(a) && narrow_ready(b)) {
                    auto at = std::find_if(
                        bb->insts().begin(), bb->insts().end(),
                        [&](const auto &p) { return p.get() == c; });
                    c->setOperand(0, narrowOperand(a, bb, at, false));
                    c->setOperand(1, narrowOperand(b, bb, at, false));
                    c->setPred(toUnsignedPred(c->pred()));
                    // A compare against the slice boundary is decided
                    // by the type alone (paper walkthrough: `ule x,
                    // 255` holds for every byte; the loop then exits
                    // via misspeculation).
                    if (opts_.compareElimination)
                        foldBoundaryCompare(c);
                    continue;
                }

                if (!opts_.compareElimination)
                    continue;

                // One side narrow, other a positive constant above the
                // slice range: the result is decided by speculation.
                Value *nv = nullptr;
                Constant *cv = nullptr;
                bool narrow_is_lhs = true;
                if (narrow_ready(a) && b->isConstant()) {
                    nv = a;
                    cv = static_cast<Constant *>(b);
                } else if (narrow_ready(b) && a->isConstant()) {
                    nv = b;
                    cv = static_cast<Constant *>(a);
                    narrow_is_lhs = false;
                }
                if (!nv || !cv)
                    continue;
                uint64_t k = cv->value();
                unsigned obits = cv->type().bits;
                // Positive, above the slice range, below the sign bit.
                bool positive = obits < 64
                                    ? k < (1ULL << (obits - 1))
                                    : k < (1ULL << 63);
                if (k <= lowMask(kSlice) || !positive)
                    continue;

                // v in [0, 255] (else we'd have misspeculated):
                // v < k, v <= k, v != k all hold; flip if the narrow
                // value is the RHS.
                bool result;
                switch (c->pred()) {
                  case CmpPred::ULT: case CmpPred::ULE:
                  case CmpPred::SLT: case CmpPred::SLE:
                    result = narrow_is_lhs;
                    break;
                  case CmpPred::UGT: case CmpPred::UGE:
                  case CmpPred::SGT: case CmpPred::SGE:
                    result = !narrow_is_lhs;
                    break;
                  case CmpPred::EQ:
                    result = false;
                    break;
                  case CmpPred::NE:
                    result = true;
                    break;
                  default:
                    continue;
                }
                // Keep the speculation that justifies the fold alive.
                if (Value *n8 = narrowOf_.count(nv) ? narrowOf_[nv]
                                                    : nullptr) {
                    if (n8->isInstruction())
                        static_cast<Instruction *>(n8)->setGuard(true);
                } else if (nv->isInstruction()) {
                    static_cast<Instruction *>(nv)->setGuard(true);
                }
                f_.replaceAllUses(c, m_.getConst(Type::i1(),
                                                 result ? 1 : 0));
                ++stats_.comparesEliminated;
            }
        }
    }

    /** Collapse `trunc(zext(x8))` placeholders to x8. One map holds
     *  every collapse (x8 may itself be a collapsed trunc, so lookups
     *  follow the chain); one sweep then redirects the operands,
     *  narrowOf_ and the clone map, whose stale entries could
     *  otherwise alias later allocations at an erased trunc's
     *  address, and only then are the truncs erased. */
    void
    cleanupTruncs()
    {
        std::unordered_map<const Value *, Value *> repl;
        for (auto &bb : f_.blocks()) {
            for (auto &inst : bb->insts()) {
                Instruction *t = inst.get();
                if (t->op() != Opcode::Trunc || t->isSpeculative() ||
                    t->type().bits != kSlice ||
                    !t->operand(0)->isInstruction())
                    continue;
                auto *z = static_cast<Instruction *>(t->operand(0));
                if (z->op() == Opcode::ZExt &&
                    z->operand(0)->type().bits == kSlice)
                    repl.emplace(t, z->operand(0));
            }
        }
        if (repl.empty())
            return;
        auto resolve = [&](Value *v) {
            for (auto it = repl.find(v); it != repl.end(); it = repl.find(v))
                v = it->second;
            return v;
        };

        for (auto &bb : f_.blocks())
            for (auto &inst : bb->insts())
                for (size_t i = 0; i < inst->numOperands(); ++i)
                    if (repl.count(inst->operand(i)))
                        inst->setOperand(i, resolve(inst->operand(i)));
        for (auto &[k, v] : narrowOf_)
            v = resolve(v);
        if (cloneMap_) {
            for (auto &[k, v] : cloneMap_->values)
                v = resolve(v);
        }
        for (auto &bb : f_.blocks())
            std::erase_if(bb->insts(), [&](const auto &inst) {
                return repl.count(inst.get()) > 0;
            });
    }

    void
    runSpeculative()
    {
        prepareCFG(f_);
        pipelineCheckpoint(f_, "squeezer:cfg_prep");

        // Snapshot + clone: the clones become CFG_spec and take over
        // as the executable entry.
        std::vector<BasicBlock *> orig_blocks;
        for (auto &bb : f_.blocks())
            orig_blocks.push_back(bb.get());
        CloneMap cm = cloneBlocks(orig_blocks, &f_, ".spec");

        // Make the cloned entry the function entry.
        BasicBlock *spec_entry = cm.get(f_.entry());
        auto &blocks = f_.blocks();
        for (auto it = blocks.begin(); it != blocks.end(); ++it) {
            if (it->get() == spec_entry) {
                auto node = std::move(*it);
                blocks.erase(it);
                blocks.insert(blocks.begin(), std::move(node));
                break;
            }
        }

        std::vector<BasicBlock *> spec_blocks;
        std::map<BasicBlock *, BasicBlock *> orig_of;
        for (BasicBlock *ob : orig_blocks) {
            spec_blocks.push_back(cm.get(ob));
            orig_of[cm.get(ob)] = ob;
        }

        // The profile was gathered on the original instructions; remap
        // it onto the clones by resolving through the clone map when
        // targets are queried. Simplest: extend the profile keys.
        remapProfileThroughClones(cm);
        cloneMap_ = &cm;

        // Known-bits facts are computed once, on the pre-narrowing
        // function (clones included). Rewriting mutates candidates
        // into zexts, but every query for a mutated value resolves
        // through narrowOf_ first, so the stale facts are never read.
        if (opts_.staticAnalysis)
            kb_ = std::make_unique<KnownBitsAnalysis>(f_);

        computeCandidates(spec_blocks);

        for (BasicBlock *bb : spec_blocks) {
            std::vector<Instruction *> snapshot;
            for (auto &inst : bb->insts())
                snapshot.push_back(inst.get());
            for (Instruction *w : snapshot) {
                if (candidates_.count(w))
                    rewriteCandidate(w, /*allow_spec=*/true);
            }
        }

        rewriteCompares(spec_blocks);
        cleanupTruncs();

        // ---- Pass ③: regions and handlers. ----
        Liveness lv(f_, /*handler_edges=*/false);
        IRBuilder b(&m_);

        struct PendingRegion
        {
            BasicBlock *spec;
            BasicBlock *orig;
            BasicBlock *handler;
        };
        std::vector<PendingRegion> pending;

        for (BasicBlock *bb : spec_blocks) {
            bool has_spec = false;
            for (auto &inst : bb->insts())
                has_spec |= inst->isSpeculative();
            if (!has_spec)
                continue;

            BasicBlock *ob = orig_of.at(bb);
            BasicBlock *h = f_.addBlock(bb->name() + ".handler");
            SpecRegion *sr = f_.addSpecRegion();
            sr->blocks.push_back(bb);
            sr->handler = h;
            // Attribution identity: dense id at creation (stable even
            // when lint later elides siblings) plus the source line of
            // the first speculative instruction in the block.
            sr->id = static_cast<int>(f_.specRegions().size()) - 1;
            // Taint-relevant metadata: the region's checks, in block
            // order (analysis/taint.h roots; attribution counts).
            for (const auto &inst : bb->insts())
                if (inst->isSpeculative())
                    sr->checks.push_back(inst.get());
            for (const auto &inst : bb->insts()) {
                if (inst->isSpeculative() && inst->srcLine() > 0) {
                    sr->srcLine = inst->srcLine();
                    break;
                }
            }
            if (sr->srcLine == 0) {
                for (const auto &inst : bb->insts()) {
                    if (inst->srcLine() > 0) {
                        sr->srcLine = inst->srcLine();
                        break;
                    }
                }
            }
            ++stats_.regions;
            pending.push_back({bb, ob, h});
        }

        // Handlers: extend live values and branch to Orig(B). Group
        // the re-entry phis by original value for one SSA repair each.
        //
        // Live values come in id order (argument index, then
        // block/instruction order): emission order — and with it the
        // final code — must not depend on heap addresses, or parallel
        // experiment cells would compile differently from serial ones.
        std::vector<SSARepair> repairs;
        std::unordered_map<Value *, size_t> repairIndex;
        for (const PendingRegion &pr : pending) {
            b.setInsertPoint(pr.handler);
            std::vector<std::pair<Value *, Value *>> extensions;
            for (Value *v_orig : lv.liveIn(pr.orig)) {
                if (!v_orig->type().isInt())
                    continue;
                Value *v_spec = cm.get(v_orig);
                Value *v_ext;
                auto nit = narrowOf_.find(v_spec);
                if (nit != narrowOf_.end()) {
                    v_ext = b.zext(nit->second, v_orig->type());
                } else if (v_spec->type().bits == kSlice &&
                           v_orig->type().bits > kSlice) {
                    v_ext = b.zext(v_spec, v_orig->type());
                } else {
                    v_ext = v_spec; // Already wide in CFG_spec.
                }
                extensions.emplace_back(v_orig, v_ext);
            }
            b.br(pr.orig);
            for (auto &[v_orig, v_ext] : extensions) {
                auto [it, inserted] = repairIndex.try_emplace(
                    v_orig, repairs.size());
                if (inserted)
                    repairs.push_back({v_orig, {}});
                repairs[it->second].alts.push_back(
                    {pr.orig, pr.handler, v_ext});
            }
        }

        // Insertion order (region order x liveness id order), not
        // pointer order: repairs insert phis as they go. Repair adds
        // phis only, never edges, so one predecessor map serves them
        // all.
        repairSSA(f_, predecessorMap(f_, false), repairs);

        // Cleanup: dead original prologues, trivial repair phis,
        // unused zexts.
        simplifyTrivialPhis(f_);
        removeUnreachableBlocks(f_);
        simplifyTrivialPhis(f_);
        deadCodeElim(f_);
        pipelineCheckpoint(f_, "squeezer:ssa_repair");

        // ---- Lint: classify every speculative site, then drop the
        // checks the analysis proved can never fire. ----
        if (opts_.staticAnalysis) {
            LintReport report = lintFunction(f_);
            stats_.lintProvenSafe += report.provenSafe;
            stats_.lintProvenUnsafe += report.provenUnsafe;
            stats_.lintSpeculative += report.speculative;
            stats_.lintSpecLeaks += report.specLeaks;
            stats_.lintLeaksDischarged += report.leaksDischarged;
            LintElisionStats elided = applyLintVerdicts(f_, report);
            stats_.checksDropped += elided.checksDropped;
            stats_.regionsElided += elided.regionsRemoved;
            if (elided.checksDropped > 0) {
                simplifyTrivialPhis(f_);
                deadCodeElim(f_);
            }
            pipelineCheckpoint(f_, "squeezer:lint_elision");
        }
    }

    /** Make profile lookups work for cloned instructions. The profile
     *  object is shared/const, so record targets locally instead. */
    void
    remapProfileThroughClones(const CloneMap &cm)
    {
        for (auto &[ov, nv] : cm.values) {
            if (!ov->isInstruction() || !nv->isInstruction())
                continue;
            auto *oi = static_cast<Instruction *>(ov);
            auto *ni = static_cast<Instruction *>(nv);
            cloneTarget_[ni] = oi;
        }
    }

    Function &f_;
    Module &m_;
    const BitwidthProfile &profile_;
    SqueezeOptions opts_;
    SqueezeStats stats_;

    std::set<Value *> candidates_;
    std::set<Instruction *> elided_;
    std::set<const Value *> staticSafe_;
    std::unique_ptr<KnownBitsAnalysis> kb_;
    std::map<Value *, Value *> narrowOf_;
    std::map<const Instruction *, const Instruction *> cloneTarget_;
    CloneMap *cloneMap_ = nullptr;
};

} // namespace

SqueezeStats
squeezeFunction(Function &f, const BitwidthProfile &profile,
                const SqueezeOptions &opts)
{
    return SqueezerImpl(f, profile, opts).run();
}

SqueezeStats
squeezeModule(Module &m, const BitwidthProfile &profile,
              const SqueezeOptions &opts)
{
    trace::Span span("transform.squeeze", "compile");
    SqueezeStats total;
    for (const auto &f : m.functions())
        total += squeezeFunction(*f, profile, opts);
    {
        trace::Span s("transform.squeeze_verify", "compile");
        verifyOrDie(m, "after squeezing");
    }
    span.arg("narrowed", std::to_string(total.narrowed));
    span.arg("regions", std::to_string(total.regions));
    return total;
}

} // namespace bitspec
