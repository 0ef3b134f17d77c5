#include "obs/trajectory.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/str.h"

namespace bitspec
{

namespace
{

std::string
fmtNum(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Value of `"key":<number>` at/after @p from and before @p to;
 *  nullopt when absent. Tolerates whitespace after the colon
 *  (google-benchmark style). */
std::optional<double>
numberAfter(const std::string &text, const std::string &key,
            size_t from = 0, size_t to = std::string::npos)
{
    size_t at = text.find("\"" + key + "\":", from);
    if (at == std::string::npos || at >= to)
        return std::nullopt;
    const char *p = text.c_str() + at + key.size() + 3;
    char *end = nullptr;
    double v = std::strtod(p, &end);
    if (end == p)
        return std::nullopt;
    return v;
}

/** End of the JSON object that encloses offset @p at: the index of
 *  its closing brace, or the end of @p text when unbalanced. Skips
 *  string contents, so braces inside strings do not count. */
size_t
objectEnd(const std::string &text, size_t at)
{
    int depth = 0;
    bool in_string = false;
    for (size_t i = at; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (depth == 0)
                return i;
            --depth;
        }
    }
    return text.size();
}

/** Value of `"key":"<string>"` at/after @p from. */
std::optional<std::string>
stringAfter(const std::string &text, const std::string &key,
            size_t from = 0)
{
    size_t at = text.find("\"" + key + "\":", from);
    if (at == std::string::npos)
        return std::nullopt;
    size_t open = text.find('"', at + key.size() + 3);
    if (open == std::string::npos)
        return std::nullopt;
    std::string out;
    if (readJsonString(text, open, out) == std::string::npos)
        return std::nullopt;
    return out;
}

/** A CPU count read from JSON; 0 (unknown) when absent (older
 *  history lines) or out of range. */
unsigned
cpuCount(std::optional<double> v)
{
    return v && *v >= 1 && *v < 1e6 ? static_cast<unsigned>(*v) : 0;
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
        out += "\":" + fmtNum(sorted[i].value);
    }
    out += "}}";
    return out;
}

std::optional<TrajectoryRecord>
parseJsonLine(const std::string &line)
{
    if (line.find_first_not_of(" \t\r\n") == std::string::npos)
        return std::nullopt;
    auto schema = numberAfter(line, "schema_version");
    if (!schema || static_cast<int>(*schema) < 1 ||
        static_cast<int>(*schema) > kTrajectorySchemaVersion)
        return std::nullopt;

    TrajectoryRecord rec;
    rec.schemaVersion = static_cast<int>(*schema);
    rec.gitSha = stringAfter(line, "git_sha").value_or("unknown");
    rec.buildType = stringAfter(line, "build_type").value_or("");
    rec.timestamp = stringAfter(line, "timestamp").value_or("");
    size_t dbg = line.find("\"debug_build\":");
    rec.debugBuild =
        dbg != std::string::npos &&
        line.compare(dbg + std::strlen("\"debug_build\":"), 4,
                     "true") == 0;
    rec.hostCpus = cpuCount(numberAfter(line, "host_cpus"));

    size_t at = line.find("\"series\":{");
    if (at == std::string::npos)
        return std::nullopt;
    size_t i = at + std::strlen("\"series\":{");
    while (i < line.size() && line[i] != '}') {
        size_t open = line.find('"', i);
        if (open == std::string::npos)
            break;
        size_t close = line.find('"', open + 1);
        if (close == std::string::npos)
            break;
        size_t colon = line.find(':', close);
        if (colon == std::string::npos)
            break;
        const char *p = line.c_str() + colon + 1;
        char *end = nullptr;
        double v = std::strtod(p, &end);
        if (end == p)
            return std::nullopt; // Corrupt value: drop the record.
        rec.series.push_back(
            {line.substr(open + 1, close - open - 1), v});
        i = static_cast<size_t>(end - line.c_str());
        while (i < line.size() && (line[i] == ',' || line[i] == ' '))
            ++i;
    }
    return rec;
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
    size_t at = json_text.find("\"name\": \"" + bench + "\"");
    if (at == std::string::npos)
        at = json_text.find("\"name\":\"" + bench + "\"");
    if (at == std::string::npos)
        return std::nullopt;
    return numberAfter(json_text, counter, at, objectEnd(json_text, at));
}

TrajectoryRecord
recordFromBenchJson(const std::string &json_text, const BuildInfo &build)
{
    TrajectoryRecord rec;
    rec.buildType = build.buildType;
    rec.debugBuild = build.debug();
    size_t ctx = json_text.find("\"context\":");
    if (ctx != std::string::npos)
        rec.hostCpus = cpuCount(numberAfter(json_text, "num_cpus", ctx));

    auto add = [&rec](const std::string &name,
                      std::optional<double> v) {
        if (v && *v > 0)
            rec.series.push_back({name, *v});
    };

    add("rate.interp_decoded_ir_per_s",
        benchCounter(json_text, "BM_InterpreterThroughput/decoded",
                     "ir_instrs_per_s"));
    add("rate.interp_profiled_ir_per_s",
        benchCounter(json_text,
                     "BM_InterpreterProfiledThroughput/decoded",
                     "ir_instrs_per_s"));
    add("rate.core_fast_machine_per_s",
        benchCounter(json_text, "BM_CoreThroughput/fast",
                     "machine_instrs_per_s"));

    // Per-workload rates: every BM_CoreWorkload/<workload>,
    // BM_SqueezeWorkload/<workload> and BM_BackendWorkload/<workload>
    // entry, '-' in the workload name spelled '_' in the series.
    auto perWorkload = [&](const std::string &bench,
                           const std::string &series) {
        const std::string key = "\"name\": \"" + bench + "/";
        for (size_t at = 0;
             (at = json_text.find(key, at)) != std::string::npos;) {
            size_t open = at + key.size();
            size_t close = json_text.find('"', open);
            if (close == std::string::npos)
                break;
            std::string wl = json_text.substr(open, close - open);
            std::replace(wl.begin(), wl.end(), '-', '_');
            add(series + wl + "_per_s",
                numberAfter(json_text, "items_per_second", close,
                            objectEnd(json_text, close + 1)));
            at = close;
        }
    };
    perWorkload("BM_CoreWorkload", "rate.core_workload_");
    perWorkload("BM_SqueezeWorkload", "rate.squeeze_workload_");
    perWorkload("BM_BackendWorkload", "rate.backend_workload_");

    // experiment_smoke's observability section.
    size_t obs = json_text.find("\"observability\":");
    if (obs != std::string::npos) {
        add("rate.obs_disabled_ir_per_s",
            numberAfter(json_text, "disabled_rate", obs));
        add("rate.obs_prof_off_ir_per_s",
            numberAfter(json_text, "prof_off_rate", obs));
        auto overhead =
            numberAfter(json_text, "enabled_overhead_pct", obs);
        if (overhead)
            rec.series.push_back(
                {"obs.trace_overhead_pct", *overhead});
    }

    // experiment_engine grid speedups.
    size_t eng = json_text.find("\"experiment_engine\":");
    if (eng != std::string::npos) {
        size_t at = eng;
        while ((at = json_text.find("\"name\": \"", at)) !=
               std::string::npos) {
            size_t open = at + std::strlen("\"name\": \"");
            size_t close = json_text.find('"', open);
            if (close == std::string::npos)
                break;
            std::string grid = json_text.substr(open, close - open);
            add("speedup." + grid,
                numberAfter(json_text, "speedup", close,
                            objectEnd(json_text, close + 1)));
            at = close;
        }
    }
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
