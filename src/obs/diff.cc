#include "obs/diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "support/str.h"

namespace bitspec
{

namespace
{

bool
hasPrefix(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

std::string
fmtNum(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Pipeline stage a field family is produced by. */
const char *
stageOfField(const std::string &name)
{
    if (hasPrefix(name, "squeeze.") || hasPrefix(name, "expand.") ||
        hasPrefix(name, "backend."))
        return "compile";
    if (hasPrefix(name, "counters."))
        return "execute";
    if (hasPrefix(name, "cache.") || hasPrefix(name, "dram."))
        return "memory";
    if (hasPrefix(name, "energy."))
        return "energy";
    if (hasPrefix(name, "output.") || name == "run.return")
        return "output";
    return "";
}

std::string
truncKey(const std::string &key)
{
    if (key.size() <= 48)
        return key;
    return key.substr(0, 45) + "...";
}

/** Region/block localization from the detail rows of both records. */
void
localizeDetail(const LedgerRecord &a, const LedgerRecord &b,
               CellDiff &cell)
{
    // Regions: worst misspeculation growth, handler cycles as the
    // tie-break. Keys are (function, regionId) — stable across builds
    // as long as the region structure is.
    {
        std::map<std::pair<std::string, int>, const LedgerRegionRow *>
            in_a;
        for (const LedgerRegionRow &r : a.regions)
            in_a.emplace(std::make_pair(r.function, r.regionId), &r);
        long long best_misspecs = 0, best_cycles = 0;
        const LedgerRegionRow *best = nullptr;
        for (const LedgerRegionRow &r : b.regions) {
            auto it = in_a.find({r.function, r.regionId});
            long long dm = static_cast<long long>(r.misspecs);
            long long dc = static_cast<long long>(r.handlerCycles);
            if (it != in_a.end()) {
                dm -= static_cast<long long>(it->second->misspecs);
                dc -= static_cast<long long>(
                    it->second->handlerCycles);
            }
            if (dm > best_misspecs ||
                (dm == best_misspecs && dc > best_cycles)) {
                best_misspecs = dm;
                best_cycles = dc;
                best = &r;
            }
        }
        if (best && (best_misspecs > 0 || best_cycles > 0))
            cell.region = strFormat(
                "%s region#%d line %d (misspecs %+lld, "
                "handler_cycles %+lld)",
                best->function.c_str(), best->regionId, best->srcLine,
                best_misspecs, best_cycles);
    }

    // Blocks: worst cycle growth.
    {
        std::map<std::pair<std::string, std::string>,
                 const LedgerHeatRow *>
            in_a;
        for (const LedgerHeatRow &h : a.heat)
            in_a.emplace(std::make_pair(h.function, h.block), &h);
        long long best_cycles = 0;
        const LedgerHeatRow *best = nullptr;
        for (const LedgerHeatRow &h : b.heat) {
            auto it = in_a.find({h.function, h.block});
            long long dc = static_cast<long long>(h.cycles);
            if (it != in_a.end())
                dc -= static_cast<long long>(it->second->cycles);
            if (dc > best_cycles) {
                best_cycles = dc;
                best = &h;
            }
        }
        if (best && best_cycles > 0)
            cell.block = strFormat(
                "%s/%s line %d (cycles %+lld)", best->function.c_str(),
                best->block.c_str(), best->srcLine, best_cycles);
    }
}

CellDiff
diffCell(const LedgerRecord &a, const LedgerRecord &b,
         const DiffOptions &opts)
{
    CellDiff cell;
    cell.cellKey = a.cellKey;
    cell.workload = a.workload;
    cell.engine = a.engine;
    cell.policy = a.policy;

    if (!a.outputChecksum.empty() && !b.outputChecksum.empty() &&
        a.outputChecksum != b.outputChecksum) {
        FieldDrift d;
        d.name = "output.checksum";
        d.cls = DriftClass::Diverged;
        cell.drifts.push_back(std::move(d));
        cell.diverged = true;
    }

    // Union of field names, A's order first.
    std::vector<std::string> names;
    for (const LedgerField &f : a.fields)
        names.push_back(f.name);
    for (const LedgerField &f : b.fields)
        if (!a.field(f.name))
            names.push_back(f.name);

    for (const std::string &name : names) {
        auto va = a.field(name);
        auto vb = b.field(name);
        FieldDrift d;
        d.name = name;
        d.a = va.value_or(0);
        d.b = vb.value_or(0);
        if (!va || !vb) {
            // A field family appearing or vanishing is provenance
            // drift worth seeing, but has no magnitude to gate on.
            d.name += va ? " (only-A)" : " (only-B)";
            d.cls = DriftClass::Info;
            cell.drifts.push_back(std::move(d));
            continue;
        }
        const double delta = d.b - d.a;
        if (d.a != 0)
            d.deltaPct = 100.0 * delta / std::fabs(d.a);
        if (name == "run.return" && delta != 0) {
            // A changed exit value is a correctness alarm, not a perf
            // delta.
            d.cls = DriftClass::Diverged;
            cell.diverged = true;
            cell.drifts.push_back(std::move(d));
            continue;
        }

        bool info = false;
        for (const std::string &prefix : opts.infoPrefixes)
            if (hasPrefix(name, prefix)) {
                info = true;
                break;
            }

        double rel_tol = opts.relTolPct;
        auto it = opts.perFieldRelTolPct.find(name);
        if (it != opts.perFieldRelTolPct.end())
            rel_tol = it->second;
        const double mag = std::max(std::fabs(d.a), std::fabs(d.b));
        const bool same = std::fabs(delta) <= opts.absTol ||
                          (rel_tol > 0 &&
                           std::fabs(delta) <= rel_tol / 100.0 * mag);
        if (same)
            continue; // Same drifts are never listed.
        if (info) {
            d.cls = DriftClass::Info;
        } else if (delta > 0) {
            // Every ledger field is a cost; up is worse.
            d.cls = DriftClass::Regressed;
            cell.regressed = true;
        } else {
            d.cls = DriftClass::Improved;
        }
        cell.drifts.push_back(std::move(d));
    }

    std::stable_sort(cell.drifts.begin(), cell.drifts.end(),
                     [](const FieldDrift &x, const FieldDrift &y) {
                         auto rank = [](const FieldDrift &f) {
                             return f.cls == DriftClass::Diverged ? 0
                                    : f.cls == DriftClass::Regressed
                                        ? 1
                                    : f.cls == DriftClass::Improved
                                        ? 2
                                        : 3;
                         };
                         if (rank(x) != rank(y))
                             return rank(x) < rank(y);
                         return std::fabs(x.deltaPct) >
                                std::fabs(y.deltaPct);
                     });

    if (cell.diverged) {
        cell.stage = "output";
    } else if (cell.regressed) {
        // Stage = family of the worst regressed field (the sort above
        // put it first among Regressed entries).
        for (const FieldDrift &d : cell.drifts)
            if (d.cls == DriftClass::Regressed) {
                cell.stage = stageOfField(d.name);
                break;
            }
    }
    if (cell.regressed || cell.diverged)
        localizeDetail(a, b, cell);
    return cell;
}

} // namespace

const char *
driftClassName(DriftClass cls)
{
    switch (cls) {
      case DriftClass::Same: return "same";
      case DriftClass::Improved: return "improved";
      case DriftClass::Regressed: return "REGRESSED";
      case DriftClass::Info: return "info";
      case DriftClass::Diverged: return "DIVERGED";
    }
    return "?";
}

LedgerDiff
diffLedgers(const std::vector<LedgerRecord> &a,
            const std::vector<LedgerRecord> &b,
            const DiffOptions &opts)
{
    std::map<std::string, const LedgerRecord *> b_cells;
    for (const LedgerRecord &rec : b)
        if (rec.kind == "cell" && !rec.cellKey.empty())
            b_cells.emplace(rec.cellKey, &rec); // First wins.

    LedgerDiff diff;
    std::map<std::string, bool> a_seen;
    for (const LedgerRecord &rec : a) {
        if (rec.kind != "cell" || rec.cellKey.empty())
            continue;
        if (!a_seen.emplace(rec.cellKey, true).second)
            continue;
        auto it = b_cells.find(rec.cellKey);
        if (it == b_cells.end()) {
            diff.onlyA.push_back(rec.workload + " " +
                                 truncKey(rec.cellKey));
            continue;
        }
        diff.cells.push_back(diffCell(rec, *it->second, opts));
        b_cells.erase(it);
    }
    for (const auto &[key, rec] : b_cells)
        diff.onlyB.push_back(rec->workload + " " + truncKey(key));

    for (const CellDiff &cell : diff.cells) {
        if (cell.diverged)
            ++diff.divergedCells;
        if (cell.regressed)
            ++diff.regressedCells;
        if (!cell.diverged && !cell.regressed && !cell.drifts.empty())
            ++diff.improvedCells;
    }

    // Worst first: diverged, then regressed by worst field drift.
    std::stable_sort(
        diff.cells.begin(), diff.cells.end(),
        [](const CellDiff &x, const CellDiff &y) {
            auto rank = [](const CellDiff &c) {
                return c.diverged ? 0 : c.regressed ? 1
                       : !c.drifts.empty()         ? 2
                                                   : 3;
            };
            if (rank(x) != rank(y))
                return rank(x) < rank(y);
            auto worst = [](const CellDiff &c) {
                double w = 0;
                for (const FieldDrift &d : c.drifts)
                    if (d.cls == DriftClass::Regressed)
                        w = std::max(w, std::fabs(d.deltaPct));
                return w;
            };
            return worst(x) > worst(y);
        });
    return diff;
}

std::string
formatLedgerDiff(const LedgerDiff &diff, bool verbose)
{
    std::string out = strFormat(
        "ledger diff: %zu cells joined, %zu only-A, %zu only-B\n",
        diff.cells.size(), diff.onlyA.size(), diff.onlyB.size());
    for (const std::string &key : diff.onlyA)
        out += strFormat("  only-A: %s\n", key.c_str());
    for (const std::string &key : diff.onlyB)
        out += strFormat("  only-B: %s\n", key.c_str());

    for (const CellDiff &cell : diff.cells) {
        bool interesting = cell.regressed || cell.diverged;
        for (const FieldDrift &d : cell.drifts)
            interesting |= d.cls != DriftClass::Info || verbose;
        if (!interesting && !verbose)
            continue;
        if (cell.drifts.empty() && !verbose)
            continue;
        out += strFormat("\n%s [%s %s] %s\n", cell.workload.c_str(),
                         cell.engine.c_str(), cell.policy.c_str(),
                         truncKey(cell.cellKey).c_str());
        if (cell.drifts.empty()) {
            out += "  no drift\n";
            continue;
        }
        out += strFormat("  %-34s %14s %14s %9s  %s\n", "field", "A",
                         "B", "delta%", "class");
        for (const FieldDrift &d : cell.drifts) {
            if (d.cls == DriftClass::Info && !verbose)
                continue;
            out += strFormat("  %-34s %14.6g %14.6g %+8.2f%%  %s\n",
                             d.name.c_str(), d.a, d.b, d.deltaPct,
                             driftClassName(d.cls));
        }
        if (!cell.stage.empty())
            out += strFormat("  localized: stage=%s\n",
                             cell.stage.c_str());
        if (!cell.region.empty())
            out += strFormat("  localized: region %s\n",
                             cell.region.c_str());
        if (!cell.block.empty())
            out += strFormat("  localized: block %s\n",
                             cell.block.c_str());
    }

    out += strFormat(
        "\nsummary: %zu regressed, %zu diverged, %zu improved; "
        "verdict %s\n",
        diff.regressedCells, diff.divergedCells, diff.improvedCells,
        diff.clean() ? "CLEAN" : "REGRESSED");
    return out;
}

std::string
ledgerDiffToJson(const LedgerDiff &diff)
{
    std::string out = strFormat(
        "{\"joined\":%zu,\"only_a\":%zu,\"only_b\":%zu,"
        "\"regressed_cells\":%zu,\"diverged_cells\":%zu,"
        "\"improved_cells\":%zu,\"clean\":%s,\"cells\":[",
        diff.cells.size(), diff.onlyA.size(), diff.onlyB.size(),
        diff.regressedCells, diff.divergedCells, diff.improvedCells,
        diff.clean() ? "true" : "false");
    bool first = true;
    for (const CellDiff &cell : diff.cells) {
        if (cell.drifts.empty())
            continue; // Clean cells stay out of the verdict payload.
        if (!first)
            out += ",";
        first = false;
        out += "{\"cell_key\":\"";
        out += jsonEscape(cell.cellKey);
        out += "\",\"workload\":\"";
        out += jsonEscape(cell.workload);
        out += "\",\"engine\":\"";
        out += jsonEscape(cell.engine);
        out += "\",\"policy\":\"";
        out += jsonEscape(cell.policy);
        out += strFormat("\",\"regressed\":%s,\"diverged\":%s",
                         cell.regressed ? "true" : "false",
                         cell.diverged ? "true" : "false");
        out += ",\"stage\":\"";
        out += jsonEscape(cell.stage);
        out += "\",\"region\":\"";
        out += jsonEscape(cell.region);
        out += "\",\"block\":\"";
        out += jsonEscape(cell.block);
        out += "\",\"drifts\":[";
        for (size_t i = 0; i < cell.drifts.size(); ++i) {
            const FieldDrift &d = cell.drifts[i];
            if (i)
                out += ",";
            out += "{\"name\":\"";
            out += jsonEscape(d.name);
            out += "\",\"a\":" + fmtNum(d.a) +
                   ",\"b\":" + fmtNum(d.b) +
                   ",\"delta_pct\":" + fmtNum(d.deltaPct) +
                   ",\"class\":\"";
            out += driftClassName(d.cls);
            out += "\"}";
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

} // namespace bitspec
