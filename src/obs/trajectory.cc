#include "obs/trajectory.h"

#include <algorithm>

#include "support/json.h"
#include "support/str.h"

namespace bitspec
{

namespace
{

/** Number member @p key of @p obj; nullopt when absent. */
std::optional<double>
numberMember(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    return v ? std::optional<double>(v->asNumber()) : std::nullopt;
}

/** Counter @p counter of the first `benchmarks` entry named @p bench
 *  in the google-benchmark document @p doc. */
std::optional<double>
counterOf(const JsonValue &doc, const std::string &bench,
          const std::string &counter)
{
    if (const JsonValue *entries = doc.find("benchmarks"))
        for (const JsonValue &entry : entries->asArray())
            if (entry.getString("name") == bench)
                return numberMember(entry, counter);
    return std::nullopt;
}

} // namespace

bool
isGatedSeries(const std::string &name)
{
    // Per-workload core, squeeze and backend rates are recorded but
    // not gated until the history holds comparable baselines for them.
    if (name.rfind("rate.core_workload_", 0) == 0 ||
        name.rfind("rate.squeeze_workload_", 0) == 0 ||
        name.rfind("rate.backend_workload_", 0) == 0)
        return false;
    return name.rfind("rate.", 0) == 0 ||
           name.rfind("speedup.", 0) == 0;
}

const BuildInfo &
thisBuild()
{
#ifdef NDEBUG
    constexpr bool kNdebug = true;
#else
    constexpr bool kNdebug = false;
#endif
    static const BuildInfo build{BITSPEC_CMAKE_BUILD_TYPE, kNdebug};
    return build;
}

const std::string &
buildFlavour()
{
    static const std::string flavour =
        std::string(BITSPEC_GIT_DESCRIBE) + "-" + thisBuild().buildType;
    return flavour;
}

std::optional<double>
benchCounter(const std::string &json_text, const std::string &bench,
             const std::string &counter)
{
    return counterOf(parseJson(json_text), bench, counter);
}

LedgerRecord
recordFromBenchJson(const std::string &json_text, const BuildInfo &build)
{
    const JsonValue doc = parseJson(json_text);
    LedgerRecord rec;
    rec.kind = "trajectory";
    rec.setField("record.debug_build", build.debug() ? 1 : 0);
    if (const JsonValue *ctx = doc.find("context"))
        if (const JsonValue *cpus = ctx->find("num_cpus")) {
            // Out of range reads as unknown: no field.
            const double n = cpus->asNumber();
            if (n >= 1 && n < 1e6)
                rec.setField("record.host_cpus",
                             static_cast<unsigned>(n));
        }

    auto add = [&rec](const std::string &name,
                      std::optional<double> v) {
        if (v && *v > 0)
            rec.setField(name, *v);
    };

    add("rate.interp_decoded_ir_per_s",
        counterOf(doc, "BM_InterpreterThroughput/decoded",
                  "ir_instrs_per_s"));
    add("rate.interp_profiled_ir_per_s",
        counterOf(doc, "BM_InterpreterProfiledThroughput/decoded",
                  "ir_instrs_per_s"));
    add("rate.core_fast_machine_per_s",
        counterOf(doc, "BM_CoreThroughput/fast", "machine_instrs_per_s"));

    // Per-workload rates: every BM_CoreWorkload/<workload>,
    // BM_SqueezeWorkload/<workload> and BM_BackendWorkload/<workload>
    // entry, '-' in the workload name spelled '_' in the series.
    const JsonValue *entries = doc.find("benchmarks");
    auto perWorkload = [&](const std::string &bench,
                           const std::string &series) {
        if (!entries)
            return;
        const std::string prefix = bench + "/";
        for (const JsonValue &entry : entries->asArray()) {
            std::string wl = entry.getString("name");
            if (wl.rfind(prefix, 0) != 0)
                continue;
            wl.erase(0, prefix.size());
            std::replace(wl.begin(), wl.end(), '-', '_');
            add(series + wl + "_per_s",
                numberMember(entry, "items_per_second"));
        }
    };
    perWorkload("BM_CoreWorkload", "rate.core_workload_");
    perWorkload("BM_SqueezeWorkload", "rate.squeeze_workload_");
    perWorkload("BM_BackendWorkload", "rate.backend_workload_");

    // `bitspec-paper smoke`'s record: the four series it feeds the
    // history, under the names they have there.
    if (const JsonValue *member = doc.find("smoke")) {
        LedgerRecord smoke;
        if (readLedgerRecord(*member, smoke) != JsonLine::Record)
            throw JsonError(member->offset,
                            "member smoke is not a ledger record this "
                            "build reads");
        add("rate.obs_disabled_ir_per_s",
            smoke.field("rate.obs_disabled_ir_per_s"));
        if (auto overhead = smoke.field("obs.trace_overhead_pct"))
            rec.setField("obs.trace_overhead_pct", *overhead);
        add("speedup.fig08_matrix", smoke.field("speedup.fig08_matrix"));
        add("speedup.fig16_grid_8x8",
            smoke.field("speedup.fig16_grid_8x8"));
    }
    return rec;
}

GateResult
checkAgainstHistory(const LedgerRecord &current,
                    const std::vector<LedgerRecord> &history,
                    const GateOptions &opts)
{
    // Rolling baseline: the last `window` history records with the
    // same debug flag and CPU count. Mismatched builds and hosts never
    // form each other's baseline; an absent count matches only absent.
    auto comparableTo = [&current](const LedgerRecord &rec) {
        return rec.kind == "trajectory" &&
               rec.field("record.debug_build") ==
                   current.field("record.debug_build") &&
               rec.field("record.host_cpus") ==
                   current.field("record.host_cpus");
    };
    std::vector<const LedgerRecord *> comparable;
    for (auto it = history.rbegin();
         it != history.rend() && comparable.size() < opts.window; ++it)
        if (comparableTo(*it))
            comparable.push_back(&*it);

    GateResult result;
    result.baselineRuns = comparable.size();
    for (const LedgerField &s : current.fields) {
        if (s.name.rfind("record.", 0) == 0)
            continue;
        SeriesVerdict v;
        v.name = s.name;
        v.current = s.value;
        v.gated = isGatedSeries(s.name);
        for (const LedgerRecord *rec : comparable)
            if (auto past = rec->field(s.name))
                v.baseline = std::max(v.baseline, *past);
        if (v.baseline > 0)
            v.deltaPct =
                100.0 * (v.current - v.baseline) / v.baseline;
        if (v.gated && v.baseline > 0) {
            auto it = opts.perSeriesDropPct.find(s.name);
            const double threshold = it != opts.perSeriesDropPct.end()
                                         ? it->second
                                         : opts.defaultDropPct;
            v.pass = v.deltaPct >= -threshold;
        }
        result.pass = result.pass && v.pass;
        result.verdicts.push_back(std::move(v));
    }
    return result;
}

std::string
formatGateResult(const GateResult &result)
{
    std::string out = strFormat("%-34s %14s %14s %9s  %s\n", "series",
                                "current", "baseline", "delta%",
                                "verdict");
    for (const SeriesVerdict &v : result.verdicts) {
        const char *verdict =
            !v.gated            ? "info"
            : v.baseline <= 0   ? "no-baseline"
            : v.pass            ? "pass"
                                : "FAIL";
        out += strFormat("%-34s %14.6g %14.6g %+8.2f%%  %s\n",
                         v.name.c_str(), v.current, v.baseline,
                         v.deltaPct, verdict);
    }
    if (result.baselineRuns == 0)
        out += strFormat(
            "no baseline, recording only; gate %s\n",
            result.pass ? "PASS" : "FAIL");
    else
        out += strFormat("baseline runs considered: %zu; gate %s\n",
                         result.baselineRuns,
                         result.pass ? "PASS" : "FAIL");
    return out;
}

} // namespace bitspec
