#include "obs/trajectory.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "support/json.h"
#include "support/str.h"

namespace bitspec
{

namespace
{

/** A CPU count read from JSON; 0 (unknown) when absent (older
 *  history lines) or out of range. */
unsigned
cpuCount(const JsonValue *v)
{
    const double n = v ? v->asNumber() : 0;
    return n >= 1 && n < 1e6 ? static_cast<unsigned>(n) : 0;
}

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

std::optional<double>
TrajectoryRecord::value(const std::string &name) const
{
    for (const TrajectorySeries &s : series)
        if (s.name == name)
            return s.value;
    return std::nullopt;
}

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

std::string
toJsonLine(const TrajectoryRecord &rec)
{
    std::vector<TrajectorySeries> sorted = rec.series;
    std::sort(sorted.begin(), sorted.end(),
              [](const TrajectorySeries &a, const TrajectorySeries &b) {
                  return a.name < b.name;
              });
    std::string out = "{\"schema_version\":" +
                      std::to_string(rec.schemaVersion) +
                      ",\"git_sha\":\"";
    out += jsonEscape(rec.gitSha);
    out += "\",\"build_type\":\"";
    out += jsonEscape(rec.buildType);
    out += "\",\"timestamp\":\"";
    out += jsonEscape(rec.timestamp);
    out += "\",\"debug_build\":";
    out += rec.debugBuild ? "true" : "false";
    if (rec.hostCpus)
        out += ",\"host_cpus\":" + std::to_string(rec.hostCpus);
    out += ",\"series\":{";
    for (size_t i = 0; i < sorted.size(); ++i) {
        if (i)
            out += ",";
        out += "\"";
        out += jsonEscape(sorted[i].name);
        out += "\":" + jsonNumber(sorted[i].value);
    }
    out += "}}";
    return out;
}

std::optional<TrajectoryRecord>
parseJsonLine(const std::string &line)
{
    try {
        const JsonValue doc = parseJson(line);
        const JsonValue *schema = doc.find("schema_version");
        const uint64_t version = schema ? schema->asU64() : 0;
        const JsonValue *series = doc.find("series");
        if (version < 1 || version > kTrajectorySchemaVersion || !series)
            return std::nullopt;

        TrajectoryRecord rec;
        rec.schemaVersion = static_cast<int>(version);
        rec.gitSha = doc.getString("git_sha", "unknown");
        rec.buildType = doc.getString("build_type");
        rec.timestamp = doc.getString("timestamp");
        if (const JsonValue *debug = doc.find("debug_build"))
            rec.debugBuild = debug->asBool();
        rec.hostCpus = cpuCount(doc.find("host_cpus"));
        for (const auto &[name, value] : series->asObject())
            rec.series.push_back({name, value.asNumber()});
        return rec;
    } catch (const JsonError &) {
        return std::nullopt; // Blank, torn or corrupt: skipped whole.
    }
}

std::vector<TrajectoryRecord>
loadHistory(const std::string &path)
{
    std::vector<TrajectoryRecord> out;
    std::ifstream in(path);
    if (!in)
        return out;
    std::string line;
    while (std::getline(in, line))
        if (auto rec = parseJsonLine(line))
            out.push_back(std::move(*rec));
    return out;
}

bool
appendHistory(const std::string &path, const TrajectoryRecord &rec)
{
    std::error_code ec;
    std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream of(path, std::ios::app);
    if (!of)
        return false;
    of << toJsonLine(rec) << "\n";
    return static_cast<bool>(of);
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

TrajectoryRecord
recordFromBenchJson(const std::string &json_text, const BuildInfo &build)
{
    const JsonValue doc = parseJson(json_text);
    TrajectoryRecord rec;
    rec.buildType = build.buildType;
    rec.debugBuild = build.debug();
    if (const JsonValue *ctx = doc.find("context"))
        rec.hostCpus = cpuCount(ctx->find("num_cpus"));

    auto add = [&rec](const std::string &name,
                      std::optional<double> v) {
        if (v && *v > 0)
            rec.series.push_back({name, *v});
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

    // experiment_smoke's observability section.
    if (const JsonValue *obs = doc.find("observability")) {
        add("rate.obs_disabled_ir_per_s",
            numberMember(*obs, "disabled_rate"));
        add("rate.obs_prof_off_ir_per_s",
            numberMember(*obs, "prof_off_rate"));
        if (auto overhead = numberMember(*obs, "enabled_overhead_pct"))
            rec.series.push_back({"obs.trace_overhead_pct", *overhead});
    }

    // experiment_engine grid speedups.
    if (const JsonValue *eng = doc.find("experiment_engine"))
        if (const JsonValue *grids = eng->find("grids"))
            for (const JsonValue &grid : grids->asArray())
                add("speedup." + grid.getString("name"),
                    numberMember(grid, "speedup"));
    return rec;
}

GateResult
checkAgainstHistory(const TrajectoryRecord &current,
                    const std::vector<TrajectoryRecord> &history,
                    const GateOptions &opts)
{
    // Rolling baseline: the last `window` records with the same debug
    // flag and CPU count. Mismatched builds and hosts never form each
    // other's baseline.
    std::vector<const TrajectoryRecord *> comparable;
    for (auto it = history.rbegin();
         it != history.rend() && comparable.size() < opts.window; ++it)
        if (it->debugBuild == current.debugBuild &&
            it->hostCpus == current.hostCpus)
            comparable.push_back(&*it);

    GateResult result;
    result.baselineRuns = comparable.size();
    for (const TrajectorySeries &s : current.series) {
        SeriesVerdict v;
        v.name = s.name;
        v.current = s.value;
        v.gated = isGatedSeries(s.name);
        for (const TrajectoryRecord *rec : comparable)
            if (auto past = rec->value(s.name))
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
