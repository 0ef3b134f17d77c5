#include "analysis/lint.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "analysis/cfg.h"
#include "analysis/known_bits.h"
#include "analysis/taint.h"
#include "obs/trace.h"
#include "support/bits.h"

namespace bitspec
{

namespace
{

constexpr unsigned kSlice = 8; ///< Hardware slice width (Table 1).

std::string
boundsStr(const KnownBits &k)
{
    return "[" + std::to_string(k.lo) + "," + std::to_string(k.hi) +
           "]";
}

LintFinding
classify(const Instruction *inst, const KnownBitsAnalysis &kb,
         const std::string &where)
{
    LintFinding f;
    f.inst = inst;
    f.srcLine = inst->srcLine();
    const uint64_t cap = lowMask(kSlice);

    LintVerdict v = LintVerdict::Speculative;
    std::string why;
    switch (inst->op()) {
      case Opcode::Trunc: {
        KnownBits x = kb.known(inst->operand(0));
        if (x.hi <= cap) {
            v = LintVerdict::ProvenSafe;
            why = "operand bound " + boundsStr(x) + " fits the slice";
        } else if (x.lo > cap) {
            v = LintVerdict::ProvenUnsafe;
            why = "operand bound " + boundsStr(x) +
                  " always exceeds the slice";
        } else {
            why = "operand bound " + boundsStr(x) + " straddles " +
                  std::to_string(cap);
        }
        break;
      }
      case Opcode::Add: {
        KnownBits a = kb.known(inst->operand(0));
        KnownBits b = kb.known(inst->operand(1));
        if (a.hi + b.hi <= cap) {
            v = LintVerdict::ProvenSafe;
            why = "sum bound " + boundsStr(a) + "+" + boundsStr(b) +
                  " cannot carry out";
        } else if (a.lo + b.lo > cap) {
            v = LintVerdict::ProvenUnsafe;
            why = "sum bound " + boundsStr(a) + "+" + boundsStr(b) +
                  " always carries out";
        } else {
            why = "carry out depends on runtime values";
        }
        break;
      }
      case Opcode::Sub: {
        KnownBits a = kb.known(inst->operand(0));
        KnownBits b = kb.known(inst->operand(1));
        if (b.hi <= a.lo) {
            v = LintVerdict::ProvenSafe;
            why = "difference " + boundsStr(a) + "-" + boundsStr(b) +
                  " cannot borrow";
        } else if (a.hi < b.lo) {
            v = LintVerdict::ProvenUnsafe;
            why = "difference " + boundsStr(a) + "-" + boundsStr(b) +
                  " always borrows";
        } else {
            why = "borrow depends on runtime values";
        }
        break;
      }
      case Opcode::Load:
        why = "memory contents are statically unbounded";
        break;
      default:
        // Logic/moves have no misspeculating machine form; a stray
        // speculative flag there is still a check that never fires.
        v = LintVerdict::ProvenSafe;
        why = "operation has no misspeculating form";
        break;
    }

    f.verdict = v;
    f.message = where + ": speculative " +
                std::string(opcodeName(inst->op())) +
                (inst->name().empty() ? "" : " %" + inst->name()) +
                (f.srcLine > 0
                     ? " (line " + std::to_string(f.srcLine) + ")"
                     : "") +
                ": " + lintVerdictName(v) + " — " + why;
    return f;
}

/** Block -> the region it belongs to, for every region member. */
std::unordered_map<const BasicBlock *, SpecRegion *>
regionMap(const Function &f)
{
    std::unordered_map<const BasicBlock *, SpecRegion *> region;
    for (const auto &sr : f.specRegions())
        for (const BasicBlock *bb : sr->blocks)
            region.emplace(bb, sr.get()); // First region wins, as regionOf.
    return region;
}

} // namespace

const char *
lintVerdictName(LintVerdict v)
{
    switch (v) {
      case LintVerdict::ProvenSafe: return "proven-safe";
      case LintVerdict::ProvenUnsafe: return "proven-unsafe";
      case LintVerdict::Speculative: return "speculative";
      case LintVerdict::SpecLeak: return "spec-leak";
    }
    return "?";
}

LintReport
lintFunction(Function &f)
{
    LintReport report;
    KnownBitsAnalysis kb(f);
    std::set<const Instruction *> proven_safe;
    // Per-region running site index (checks in block order).
    std::map<int, int> siteOf;
    const auto regionOf = regionMap(f);
    for (const auto &bb : f.blocks()) {
        auto rit = regionOf.find(bb.get());
        const SpecRegion *sr = rit == regionOf.end() ? nullptr : rit->second;
        for (const auto &inst : bb->insts()) {
            if (inst->isSpeculative()) {
                LintFinding fd = classify(
                    inst.get(), kb, f.name() + ":" + bb->name());
                fd.regionId = sr != nullptr ? sr->id : -1;
                fd.siteIndex = siteOf[fd.regionId]++;
                switch (fd.verdict) {
                  case LintVerdict::ProvenSafe:
                    ++report.provenSafe;
                    proven_safe.insert(inst.get());
                    break;
                  case LintVerdict::ProvenUnsafe:
                    ++report.provenUnsafe;
                    break;
                  case LintVerdict::Speculative:
                    ++report.speculative;
                    break;
                  case LintVerdict::SpecLeak:
                    break; // classify never returns SpecLeak.
                }
                report.findings.push_back(std::move(fd));
            } else if (inst->type().bits == kSlice) {
                ++report.exactSlices;
            }
        }
    }

    // Refresh the squeezer-emitted region check lists so downstream
    // consumers (applyLintVerdicts, attribution) see the live set —
    // hand-built fixtures get theirs populated here.
    for (auto &sr : f.specRegionsMut()) {
        sr->checks.clear();
        for (const BasicBlock *bb : sr->blocks)
            for (const auto &inst : bb->insts())
                if (inst->isSpeculative())
                    sr->checks.push_back(inst.get());
    }

    // Non-interference sweep: transient values must not reach
    // handler-visible state inside the region window (taint.h).
    TaintReport taint = taintFunction(f, kb, proven_safe);
    report.leaksDischarged += taint.dischargedSites;
    for (const RegionTaintResult &rr : taint.regions) {
        for (const TaintSink &s : rr.sinks) {
            if (s.discharged)
                continue;
            LintFinding fd;
            fd.inst = s.inst;
            fd.verdict = LintVerdict::SpecLeak;
            fd.srcLine = s.srcLine;
            fd.regionId = s.regionId;
            fd.siteIndex = s.siteIndex;
            fd.message =
                f.name() + ": region " + std::to_string(s.regionId) +
                ": " + taintSinkKindName(s.kind) + " sink " +
                std::string(opcodeName(s.inst->op())) +
                (s.srcLine > 0
                     ? " (line " + std::to_string(s.srcLine) + ")"
                     : "") +
                ": spec-leak — " + s.why;
            ++report.specLeaks;
            report.findings.push_back(std::move(fd));
        }
    }

    // Deterministic report order: (region, check-vs-leak, site).
    std::stable_sort(report.findings.begin(), report.findings.end(),
                     [](const LintFinding &a, const LintFinding &b) {
                         if (a.regionId != b.regionId)
                             return a.regionId < b.regionId;
                         bool la = a.verdict == LintVerdict::SpecLeak;
                         bool lb = b.verdict == LintVerdict::SpecLeak;
                         if (la != lb)
                             return lb;
                         return a.siteIndex < b.siteIndex;
                     });
    return report;
}

LintReport
lintModule(Module &m)
{
    trace::Span span("analysis.lint", "compile");
    LintReport report;
    for (const auto &f : m.functions())
        report += lintFunction(*f);
    span.arg("proven_safe", std::to_string(report.provenSafe));
    span.arg("proven_unsafe", std::to_string(report.provenUnsafe));
    span.arg("speculative", std::to_string(report.speculative));
    span.arg("spec_leaks", std::to_string(report.specLeaks));
    span.arg("leaks_discharged",
             std::to_string(report.leaksDischarged));
    return report;
}

LintElisionStats
applyLintVerdicts(Function &f, const LintReport &report)
{
    LintElisionStats st;
    const auto regionOf = regionMap(f);
    for (const LintFinding &fd : report.findings) {
        if (fd.verdict != LintVerdict::ProvenSafe)
            continue;
        auto *inst = const_cast<Instruction *>(fd.inst);
        if (!inst->isSpeculative() || inst->parent()->parent() != &f)
            continue;
        // Loads never classify safe; everything else has an exact
        // 8-bit form with identical non-misspeculating semantics.
        inst->setSpeculative(false);
        inst->setSpecOrigBits(0);
        ++st.checksDropped;
        // Keep the region's check-list metadata in sync: the site no
        // longer carries a check (and may be DCE'd outright).
        if (auto rit = regionOf.find(inst->parent()); rit != regionOf.end())
            std::erase(rit->second->checks, inst);
    }
    if (st.checksDropped == 0)
        return st;

    // A region whose last check disappeared protects nothing: delete
    // it so its handler (and the CFG_orig tail behind it) dies with
    // the next unreachable-block sweep.
    auto &regions = f.specRegionsMut();
    std::erase_if(regions, [&](const std::unique_ptr<SpecRegion> &sr) {
        for (BasicBlock *bb : sr->blocks)
            for (const auto &inst : bb->insts())
                if (inst->isSpeculative())
                    return false;
        ++st.regionsRemoved;
        return true;
    });
    if (st.regionsRemoved > 0)
        removeUnreachableBlocks(f);
    return st;
}

} // namespace bitspec
