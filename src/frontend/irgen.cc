#include "frontend/irgen.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "analysis/cfg.h"
#include "ir/builder.h"
#include "analysis/verifier.h"
#include "frontend/parser.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/str.h"
#include "transform/simplify.h"

namespace bitspec
{

namespace
{

using ast::BinOp;
using ast::Expr;
using ast::ExprKind;
using ast::SrcType;
using ast::Stmt;
using ast::StmtKind;
using ast::UnOp;

/** An IR value together with its source-level type. */
struct TV
{
    Value *v = nullptr;
    SrcType t;
};

/** A named local variable slot (unique per declaration). */
struct VarSlot
{
    SrcType type;
    unsigned id;
    std::string name;
};

class FuncGen;

/** Module-wide generation state. */
class ModGen
{
  public:
    explicit ModGen(const ast::Program &p) : prog_(p) {}

    std::unique_ptr<Module> run();

    Module *module() const { return module_.get(); }

    Global *
    findGlobal(const std::string &name) const
    {
        auto it = globals_.find(name);
        return it == globals_.end() ? nullptr : it->second;
    }

    SrcType
    globalType(const std::string &name) const
    {
        return globalTypes_.at(name);
    }

    bool
    globalIsArray(const std::string &name) const
    {
        return arrayFlags_.at(name);
    }

    Function *
    findFunction(const std::string &name) const
    {
        auto it = funcs_.find(name);
        return it == funcs_.end() ? nullptr : it->second;
    }

    SrcType
    funcRetType(const std::string &name) const
    {
        return funcRets_.at(name);
    }

    const std::vector<SrcType> &
    funcParams(const std::string &name) const
    {
        return funcParamTypes_.at(name);
    }

  private:
    const ast::Program &prog_;
    std::unique_ptr<Module> module_;
    std::map<std::string, Global *> globals_;
    std::map<std::string, SrcType> globalTypes_;
    std::map<std::string, bool> arrayFlags_;
    std::map<std::string, Function *> funcs_;
    std::map<std::string, SrcType> funcRets_;
    std::map<std::string, std::vector<SrcType>> funcParamTypes_;
};

/** Per-function generation: statements, expressions and SSA state. */
class FuncGen
{
  public:
    FuncGen(ModGen &mg, Function *f, const ast::FuncDecl &decl)
        : mg_(mg), b_(mg.module()), f_(f), decl_(decl)
    {}

    void
    run()
    {
        BasicBlock *entry = f_->addBlock("entry");
        sealed_.insert(entry);
        b_.setInsertPoint(entry);

        pushScope();
        for (size_t i = 0; i < decl_.params.size(); ++i) {
            VarSlot *slot =
                declareVar(decl_.params[i].second, decl_.params[i].first,
                           decl_.line);
            writeVar(slot, entry, f_->arg(i));
        }

        genStmt(*decl_.body);

        // Fall off the end: implicit return (0 for non-void mains).
        if (!b_.insertBlock()->hasTerminator()) {
            if (decl_.retType.isVoid())
                b_.ret();
            else
                b_.ret(mg_.module()->getConst(irType(decl_.retType), 0));
        }
        popScope();
    }

  private:
    [[noreturn]] void
    err(int line, const std::string &msg)
    {
        fatal(strFormat("line %d: %s", line, msg.c_str()));
    }

    static Type irType(SrcType t) { return Type(t.bits); }

    // ----- Scopes and SSA (Braun et al.) -----

    void pushScope() { scopes_.emplace_back(); }
    void popScope() { scopes_.pop_back(); }

    VarSlot *
    declareVar(const std::string &name, SrcType type, int line)
    {
        if (scopes_.back().count(name))
            err(line, "redeclaration of " + name);
        slots_.push_back(std::make_unique<VarSlot>(
            VarSlot{type, static_cast<unsigned>(slots_.size()), name}));
        scopes_.back()[name] = slots_.back().get();
        return slots_.back().get();
    }

    VarSlot *
    lookupVar(const std::string &name)
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto found = it->find(name);
            if (found != it->end())
                return found->second;
        }
        return nullptr;
    }

    void
    writeVar(VarSlot *slot, BasicBlock *bb, Value *v)
    {
        def_[slot->id][bb] = v;
    }

    Value *
    readVar(VarSlot *slot, BasicBlock *bb)
    {
        auto &per_block = def_[slot->id];
        auto it = per_block.find(bb);
        if (it != per_block.end())
            return it->second;
        return readVarRecursive(slot, bb);
    }

    Value *
    readVarRecursive(VarSlot *slot, BasicBlock *bb)
    {
        Value *val = nullptr;
        if (!sealed_.count(bb)) {
            // Incomplete CFG: placeholder phi, completed at seal time.
            Instruction *phi = newPhi(bb, slot);
            incomplete_[bb].emplace_back(slot, phi);
            val = phi;
        } else if (preds_[bb].size() == 1) {
            val = readVar(slot, preds_[bb][0]);
        } else {
            Instruction *phi = newPhi(bb, slot);
            writeVar(slot, bb, phi);
            addPhiOperands(slot, phi, bb);
            val = phi;
        }
        writeVar(slot, bb, val);
        return val;
    }

    Instruction *
    newPhi(BasicBlock *bb, VarSlot *slot)
    {
        BasicBlock *saved = b_.insertBlock();
        b_.setInsertPoint(bb);
        Instruction *phi = b_.phi(irType(slot->type), slot->name);
        b_.setInsertPoint(saved);
        return phi;
    }

    void
    addPhiOperands(VarSlot *slot, Instruction *phi, BasicBlock *bb)
    {
        for (BasicBlock *pred : preds_[bb])
            IRBuilder::addIncoming(phi, readVar(slot, pred), pred);
    }

    void
    sealBlock(BasicBlock *bb)
    {
        if (sealed_.count(bb))
            panic("double seal of " + bb->name());
        auto it = incomplete_.find(bb);
        if (it != incomplete_.end()) {
            for (auto &[slot, phi] : it->second)
                addPhiOperands(slot, phi, bb);
            incomplete_.erase(it);
        }
        sealed_.insert(bb);
    }

    /** Emit a branch, recording the CFG edge for SSA construction. */
    void
    branchTo(BasicBlock *dest)
    {
        preds_[dest].push_back(b_.insertBlock());
        b_.br(dest);
    }

    void
    condBranchTo(Value *cond, BasicBlock *t, BasicBlock *f)
    {
        preds_[t].push_back(b_.insertBlock());
        preds_[f].push_back(b_.insertBlock());
        b_.condBr(cond, t, f);
    }

    /** Start a fresh unreachable block after return/break/continue. */
    void
    startDeadBlock()
    {
        BasicBlock *dead = f_->addBlock("dead");
        sealed_.insert(dead);
        b_.setInsertPoint(dead);
    }

    // ----- Type rules -----

    /** C-like usual arithmetic conversions with 32-bit promotion. */
    static SrcType
    commonType(SrcType a, SrcType b)
    {
        unsigned bits = std::max({32u, a.bits, b.bits});
        bool sign;
        if (a.bits == b.bits) {
            sign = a.isSigned && b.isSigned;
        } else {
            // The wider operand's signedness wins (it can represent the
            // promoted narrower operand either way).
            sign = (a.bits > b.bits ? a : b).isSigned;
        }
        if (bits > a.bits && bits > b.bits && a.bits != b.bits) {
            // Both strictly promoted: default to signed int unless
            // either side was unsigned at max width (cannot happen
            // here); keep the rule above.
        }
        return {bits, sign};
    }

    /** Convert a typed value to @p to (extend by source sign, or
     *  truncate). Equal widths are free: signedness lives in ops. */
    TV
    convert(TV x, SrcType to)
    {
        if (x.t.bits == to.bits)
            return {x.v, to};
        Value *v;
        if (x.t.bits < to.bits) {
            if (x.t.isSigned)
                v = b_.sext(x.v, irType(to));
            else
                v = b_.zext(x.v, irType(to));
        } else {
            v = b_.trunc(x.v, irType(to));
        }
        return {v, to};
    }

    /** Comparisons yield i1; widen to a value type on demand. */
    TV
    materializeBool(TV x)
    {
        if (x.t.bits != 1)
            return x;
        return {b_.zext(x.v, Type::i32()), SrcType{32, false}};
    }

    TV
    promote(TV x)
    {
        x = materializeBool(x);
        if (x.t.bits >= 32)
            return x;
        return convert(x, SrcType{32, x.t.isSigned});
    }

    // ----- Expressions -----

    TV
    genExpr(const Expr &e)
    {
        if (e.line > 0)
            b_.setCurLine(e.line);
        switch (e.kind) {
          case ExprKind::IntLit: {
            SrcType t{e.intValue > 0xffffffffULL ? 64u : 32u, false};
            // Small decimal literals behave like signed ints so that
            // `x - 1` on signed x stays signed.
            if (e.intValue <= 0x7fffffffULL)
                t.isSigned = true;
            return {mg_.module()->getConst(irType(t), e.intValue), t};
          }
          case ExprKind::VarRef: {
            if (VarSlot *slot = lookupVar(e.name))
                return {readVar(slot, b_.insertBlock()), slot->type};
            if (Global *g = mg_.findGlobal(e.name)) {
                if (mg_.globalIsArray(e.name))
                    err(e.line, "array used without index: " + e.name);
                SrcType t = mg_.globalType(e.name);
                Value *v = b_.load(irType(t), b_.globalAddr(g));
                return {v, t};
            }
            err(e.line, "unknown variable: " + e.name);
          }
          case ExprKind::Index: {
            auto [addr, t] = genElemAddr(e);
            return {b_.load(irType(t), addr), t};
          }
          case ExprKind::Unary:
            return genUnary(e);
          case ExprKind::Binary:
            return genBinary(e);
          case ExprKind::Logical:
          case ExprKind::Ternary:
            return genControlExpr(e);
          case ExprKind::Cast: {
            TV x = materializeBool(genExpr(*e.children[0]));
            return convert(x, e.castType);
          }
          case ExprKind::Call:
            return genCall(e);
        }
        panic("genExpr: bad kind");
    }

    /** Address and element type of g[idx]. */
    std::pair<Value *, SrcType>
    genElemAddr(const Expr &e)
    {
        Global *g = mg_.findGlobal(e.name);
        if (!g)
            err(e.line, "unknown array: " + e.name);
        if (!mg_.globalIsArray(e.name))
            err(e.line, "indexing a scalar: " + e.name);
        SrcType t = mg_.globalType(e.name);
        TV idx = materializeBool(genExpr(*e.children[0]));
        // Addresses are 32-bit.
        TV idx32 = convert(idx, SrcType{32, false});
        unsigned size = t.bits / 8;
        Value *off = idx32.v;
        if (size > 1) {
            off = b_.mul(idx32.v,
                         mg_.module()->getConst(Type::i32(), size));
        }
        Value *addr = b_.add(b_.globalAddr(g), off);
        return {addr, t};
    }

    TV
    genUnary(const Expr &e)
    {
        if (e.unOp == UnOp::LogicalNot) {
            TV x = materializeBool(genExpr(*e.children[0]));
            Value *z = b_.icmp(CmpPred::EQ, x.v,
                               mg_.module()->getConst(irType(x.t), 0));
            return {z, SrcType{1, false}};
        }
        TV x = promote(genExpr(*e.children[0]));
        if (e.unOp == UnOp::Neg) {
            Value *v = b_.sub(mg_.module()->getConst(irType(x.t), 0), x.v);
            return {v, SrcType{x.t.bits, true}};
        }
        // Bitwise not.
        Value *v = b_.bxor(x.v,
                           mg_.module()->getConst(irType(x.t), ~0ULL));
        return {v, x.t};
    }

    TV
    applyBin(BinOp op, TV a, TV b, int line)
    {
        // Shifts: result has the promoted LHS type.
        if (op == BinOp::Shl || op == BinOp::Shr) {
            TV lhs = promote(a);
            TV amt = convert(materializeBool(b), lhs.t);
            Value *v = op == BinOp::Shl
                           ? b_.shl(lhs.v, amt.v)
                           : (lhs.t.isSigned ? b_.ashr(lhs.v, amt.v)
                                             : b_.lshr(lhs.v, amt.v));
            return {v, lhs.t};
        }

        TV pa = materializeBool(a), pb = materializeBool(b);
        SrcType ct = commonType(pa.t, pb.t);
        TV xa = convert(pa, ct), xb = convert(pb, ct);

        switch (op) {
          case BinOp::Add: return {b_.add(xa.v, xb.v), ct};
          case BinOp::Sub: return {b_.sub(xa.v, xb.v), ct};
          case BinOp::Mul: return {b_.mul(xa.v, xb.v), ct};
          case BinOp::Div:
            return {ct.isSigned ? b_.sdiv(xa.v, xb.v)
                                : b_.udiv(xa.v, xb.v), ct};
          case BinOp::Rem:
            return {ct.isSigned ? b_.srem(xa.v, xb.v)
                                : b_.urem(xa.v, xb.v), ct};
          case BinOp::And: return {b_.band(xa.v, xb.v), ct};
          case BinOp::Or: return {b_.bor(xa.v, xb.v), ct};
          case BinOp::Xor: return {b_.bxor(xa.v, xb.v), ct};
          case BinOp::Lt:
            return {b_.icmp(ct.isSigned ? CmpPred::SLT : CmpPred::ULT,
                            xa.v, xb.v), SrcType{1, false}};
          case BinOp::Gt:
            return {b_.icmp(ct.isSigned ? CmpPred::SGT : CmpPred::UGT,
                            xa.v, xb.v), SrcType{1, false}};
          case BinOp::Le:
            return {b_.icmp(ct.isSigned ? CmpPred::SLE : CmpPred::ULE,
                            xa.v, xb.v), SrcType{1, false}};
          case BinOp::Ge:
            return {b_.icmp(ct.isSigned ? CmpPred::SGE : CmpPred::UGE,
                            xa.v, xb.v), SrcType{1, false}};
          case BinOp::Eq:
            return {b_.icmp(CmpPred::EQ, xa.v, xb.v), SrcType{1, false}};
          case BinOp::Ne:
            return {b_.icmp(CmpPred::NE, xa.v, xb.v), SrcType{1, false}};
          default:
            err(line, "bad binary operator");
        }
    }

    TV
    genBinary(const Expr &e)
    {
        TV a = genExpr(*e.children[0]);
        TV b = genExpr(*e.children[1]);
        return applyBin(e.binOp, a, b, e.line);
    }

    /** Short-circuit logic and ternaries via control flow + phi. */
    TV
    genControlExpr(const Expr &e)
    {
        if (e.kind == ExprKind::Logical) {
            BasicBlock *rhs_bb = f_->addBlock("logic.rhs");
            BasicBlock *merge = f_->addBlock("logic.end");

            Value *lhs = genCond(*e.children[0]);
            BasicBlock *lhs_end = b_.insertBlock();
            if (e.logicalAnd)
                condBranchTo(lhs, rhs_bb, merge);
            else
                condBranchTo(lhs, merge, rhs_bb);
            sealBlock(rhs_bb);

            b_.setInsertPoint(rhs_bb);
            Value *rhs = genCond(*e.children[1]);
            BasicBlock *rhs_end = b_.insertBlock();
            branchTo(merge);
            sealBlock(merge);

            b_.setInsertPoint(merge);
            Instruction *phi = b_.phi(Type::i1(), "logic");
            IRBuilder::addIncoming(
                phi, mg_.module()->getConst(Type::i1(),
                                            e.logicalAnd ? 0 : 1),
                lhs_end);
            IRBuilder::addIncoming(phi, rhs, rhs_end);
            return {phi, SrcType{1, false}};
        }

        // Ternary.
        BasicBlock *then_bb = f_->addBlock("sel.then");
        BasicBlock *else_bb = f_->addBlock("sel.else");
        BasicBlock *merge = f_->addBlock("sel.end");

        Value *cond = genCond(*e.children[0]);
        condBranchTo(cond, then_bb, else_bb);
        sealBlock(then_bb);
        sealBlock(else_bb);

        b_.setInsertPoint(then_bb);
        TV tv = promote(genExpr(*e.children[1]));
        BasicBlock *then_end = b_.insertBlock();

        b_.setInsertPoint(else_bb);
        TV fv = promote(genExpr(*e.children[2]));
        BasicBlock *else_end = b_.insertBlock();

        SrcType ct = commonType(tv.t, fv.t);
        b_.setInsertPoint(then_end);
        TV tvc = convert(tv, ct);
        branchTo(merge);
        b_.setInsertPoint(else_end);
        TV fvc = convert(fv, ct);
        branchTo(merge);
        sealBlock(merge);

        b_.setInsertPoint(merge);
        Instruction *phi = b_.phi(irType(ct), "sel");
        IRBuilder::addIncoming(phi, tvc.v, then_end);
        IRBuilder::addIncoming(phi, fvc.v, else_end);
        return {phi, ct};
    }

    TV
    genCall(const Expr &e)
    {
        if (e.name == "out") {
            if (e.children.size() != 1)
                err(e.line, "out() takes one argument");
            TV x = materializeBool(genExpr(*e.children[0]));
            b_.output(x.v);
            return {nullptr, SrcType{0, false}};
        }
        Function *callee = mg_.findFunction(e.name);
        if (!callee)
            err(e.line, "unknown function: " + e.name);
        const auto &params = mg_.funcParams(e.name);
        if (params.size() != e.children.size())
            err(e.line, "wrong argument count calling " + e.name);
        std::vector<Value *> args;
        for (size_t i = 0; i < params.size(); ++i) {
            TV a = materializeBool(genExpr(*e.children[i]));
            args.push_back(convert(a, params[i]).v);
        }
        Instruction *call = b_.call(callee, args, e.name + ".ret");
        return {call, mg_.funcRetType(e.name)};
    }

    /** Evaluate an expression as an i1 condition. */
    Value *
    genCond(const Expr &e)
    {
        TV x = genExpr(e);
        if (x.t.bits == 1)
            return x.v;
        return b_.icmp(CmpPred::NE, x.v,
                       mg_.module()->getConst(irType(x.t), 0));
    }

    // ----- Statements -----

    void
    genAssign(const Stmt &s)
    {
        const Expr &target = *s.target;
        auto rhs = [&]() -> TV {
            TV val = genExpr(*s.expr);
            if (!s.isCompound)
                return val;
            // Compound: read current value, apply op.
            TV cur = genExpr(target);
            return applyBin(s.compoundOp, cur, val, s.line);
        };

        if (target.kind == ExprKind::VarRef) {
            if (VarSlot *slot = lookupVar(target.name)) {
                TV val = convert(materializeBool(rhs()), slot->type);
                writeVar(slot, b_.insertBlock(), val.v);
                return;
            }
            Global *g = mg_.findGlobal(target.name);
            if (!g || mg_.globalIsArray(target.name))
                err(s.line, "cannot assign: " + target.name);
            SrcType t = mg_.globalType(target.name);
            TV val = convert(materializeBool(rhs()), t);
            b_.store(b_.globalAddr(g), val.v);
            return;
        }
        if (target.kind == ExprKind::Index) {
            // Note: the index expression is evaluated again for
            // compound assignment; side effects in indices are
            // unsupported (documented limitation).
            TV val = materializeBool(rhs());
            auto [addr, t] = genElemAddr(target);
            b_.store(addr, convert(val, t).v);
            return;
        }
        err(s.line, "bad assignment target");
    }

    void
    genStmt(const Stmt &s)
    {
        if (s.line > 0)
            b_.setCurLine(s.line);
        switch (s.kind) {
          case StmtKind::Block: {
            pushScope();
            for (const auto &child : s.body)
                genStmt(*child);
            popScope();
            return;
          }
          case StmtKind::Decl: {
            VarSlot *slot = declareVar(s.name, s.declType, s.line);
            Value *init;
            if (s.expr) {
                TV val = convert(materializeBool(genExpr(*s.expr)),
                                 s.declType);
                init = val.v;
            } else {
                init = mg_.module()->getConst(irType(s.declType), 0);
            }
            writeVar(slot, b_.insertBlock(), init);
            return;
          }
          case StmtKind::Assign:
            genAssign(s);
            return;
          case StmtKind::If: {
            BasicBlock *then_bb = f_->addBlock("if.then");
            BasicBlock *else_bb =
                s.elseS ? f_->addBlock("if.else") : nullptr;
            BasicBlock *merge = f_->addBlock("if.end");

            Value *cond = genCond(*s.expr);
            condBranchTo(cond, then_bb, else_bb ? else_bb : merge);
            sealBlock(then_bb);
            if (else_bb)
                sealBlock(else_bb);

            b_.setInsertPoint(then_bb);
            genStmt(*s.thenS);
            if (!b_.insertBlock()->hasTerminator())
                branchTo(merge);

            if (else_bb) {
                b_.setInsertPoint(else_bb);
                genStmt(*s.elseS);
                if (!b_.insertBlock()->hasTerminator())
                    branchTo(merge);
            }
            sealBlock(merge);
            b_.setInsertPoint(merge);
            return;
          }
          case StmtKind::While: {
            BasicBlock *header = f_->addBlock("while.cond");
            BasicBlock *body = f_->addBlock("while.body");
            BasicBlock *exit = f_->addBlock("while.end");

            branchTo(header); // Unsealed: latches still unknown.
            b_.setInsertPoint(header);
            Value *cond = genCond(*s.expr);
            condBranchTo(cond, body, exit);
            sealBlock(body);

            loopStack_.push_back({header, exit});
            b_.setInsertPoint(body);
            genStmt(*s.thenS);
            if (!b_.insertBlock()->hasTerminator())
                branchTo(header);
            loopStack_.pop_back();

            sealBlock(header);
            sealBlock(exit);
            b_.setInsertPoint(exit);
            return;
          }
          case StmtKind::DoWhile: {
            BasicBlock *body = f_->addBlock("do.body");
            BasicBlock *cond_bb = f_->addBlock("do.cond");
            BasicBlock *exit = f_->addBlock("do.end");

            branchTo(body); // Unsealed: back edge still unknown.
            loopStack_.push_back({cond_bb, exit});
            b_.setInsertPoint(body);
            genStmt(*s.thenS);
            if (!b_.insertBlock()->hasTerminator())
                branchTo(cond_bb);
            loopStack_.pop_back();
            sealBlock(cond_bb);

            b_.setInsertPoint(cond_bb);
            Value *cond = genCond(*s.expr);
            condBranchTo(cond, body, exit);
            sealBlock(body);
            sealBlock(exit);
            b_.setInsertPoint(exit);
            return;
          }
          case StmtKind::For: {
            pushScope(); // The init declaration scopes to the loop.
            if (s.forInit)
                genStmt(*s.forInit);

            BasicBlock *header = f_->addBlock("for.cond");
            BasicBlock *body = f_->addBlock("for.body");
            BasicBlock *step_bb = f_->addBlock("for.step");
            BasicBlock *exit = f_->addBlock("for.end");

            branchTo(header);
            b_.setInsertPoint(header);
            if (s.expr) {
                Value *cond = genCond(*s.expr);
                condBranchTo(cond, body, exit);
            } else {
                branchTo(body);
            }
            sealBlock(body);

            loopStack_.push_back({step_bb, exit});
            b_.setInsertPoint(body);
            genStmt(*s.thenS);
            if (!b_.insertBlock()->hasTerminator())
                branchTo(step_bb);
            loopStack_.pop_back();
            sealBlock(step_bb);

            b_.setInsertPoint(step_bb);
            if (s.forStep)
                genStmt(*s.forStep);
            branchTo(header);
            sealBlock(header);
            sealBlock(exit);
            b_.setInsertPoint(exit);
            popScope();
            return;
          }
          case StmtKind::Return: {
            if (s.expr) {
                if (decl_.retType.isVoid())
                    err(s.line, "returning a value from void function");
                TV val = convert(materializeBool(genExpr(*s.expr)),
                                 decl_.retType);
                b_.ret(val.v);
            } else {
                if (!decl_.retType.isVoid())
                    err(s.line, "missing return value");
                b_.ret();
            }
            startDeadBlock();
            return;
          }
          case StmtKind::Break: {
            if (loopStack_.empty())
                err(s.line, "break outside loop");
            branchTo(loopStack_.back().second);
            startDeadBlock();
            return;
          }
          case StmtKind::Continue: {
            if (loopStack_.empty())
                err(s.line, "continue outside loop");
            branchTo(loopStack_.back().first);
            startDeadBlock();
            return;
          }
          case StmtKind::ExprStmt:
            genExpr(*s.expr);
            return;
          }
        panic("genStmt: bad kind");
    }

    ModGen &mg_;
    IRBuilder b_;
    Function *f_;
    const ast::FuncDecl &decl_;

    std::vector<std::map<std::string, VarSlot *>> scopes_;
    std::vector<std::unique_ptr<VarSlot>> slots_;
    std::map<unsigned, std::map<BasicBlock *, Value *>> def_;
    std::set<BasicBlock *> sealed_;
    std::map<BasicBlock *, std::vector<BasicBlock *>> preds_;
    std::map<BasicBlock *,
             std::vector<std::pair<VarSlot *, Instruction *>>> incomplete_;
    /** (continue target, break target). */
    std::vector<std::pair<BasicBlock *, BasicBlock *>> loopStack_;
};

std::unique_ptr<Module>
ModGen::run()
{
    module_ = std::make_unique<Module>();

    for (const auto &g : prog_.globals) {
        if (globals_.count(g.name))
            fatal("duplicate global: " + g.name);
        size_t count = g.isArray ? g.arraySize : 1;
        Global *irg = module_->addGlobal(g.name, g.elemType.bits, count);
        globals_[g.name] = irg;
        globalTypes_[g.name] = g.elemType;
        arrayFlags_[g.name] = g.isArray;
        if (!g.strInit.empty()) {
            if (g.strInit.size() + 1 > count)
                fatal("string initialiser too long for " + g.name);
            for (size_t i = 0; i < g.strInit.size(); ++i)
                irg->setElem(i, static_cast<uint8_t>(g.strInit[i]));
        } else {
            if (g.init.size() > count)
                fatal("too many initialisers for " + g.name);
            for (size_t i = 0; i < g.init.size(); ++i)
                irg->setElem(i, g.init[i]);
        }
    }

    // Declare all functions first so calls can be forward/recursive.
    for (const auto &fd : prog_.functions) {
        if (funcs_.count(fd.name))
            fatal("duplicate function: " + fd.name);
        std::vector<Type> params;
        std::vector<SrcType> ptypes;
        for (const auto &[pt, pn] : fd.params) {
            params.push_back(Type(pt.bits));
            ptypes.push_back(pt);
        }
        Function *f = module_->addFunction(fd.name, Type(fd.retType.bits),
                                           params);
        for (size_t i = 0; i < fd.params.size(); ++i)
            f->arg(i)->setName(fd.params[i].second);
        funcs_[fd.name] = f;
        funcRets_[fd.name] = fd.retType;
        funcParamTypes_[fd.name] = std::move(ptypes);
    }

    for (const auto &fd : prog_.functions)
        FuncGen(*this, funcs_[fd.name], fd).run();

    return std::move(module_);
}

} // namespace

std::unique_ptr<Module>
generateIR(const ast::Program &program)
{
    return ModGen(program).run();
}

std::unique_ptr<Module>
compileSource(const std::string &source)
{
    trace::Span span("frontend.compile", "compile");
    ast::Program prog = [&] {
        trace::Span s("frontend.parse", "compile");
        return parseProgram(source);
    }();
    auto module = [&] {
        trace::Span s("frontend.irgen", "compile");
        return generateIR(prog);
    }();
    {
        trace::Span s("frontend.cleanup", "compile");
        for (const auto &f : module->functions()) {
            simplifyTrivialPhis(*f);
            removeUnreachableBlocks(*f);
            simplifyTrivialPhis(*f);
            deadCodeElim(*f);
        }
    }
    {
        trace::Span s("frontend.verify", "compile");
        verifyOrDie(*module, "after front-end lowering");
    }
    span.arg("functions",
             std::to_string(module->functions().size()));
    return module;
}

} // namespace bitspec
