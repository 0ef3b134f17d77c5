#include "obs/ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "support/env.h"
#include "support/log.h"
#include "support/str.h"

extern char **environ;

namespace bitspec
{

namespace
{

/** %.17g: enough digits that parse(fmtNum(v)) == v bit-for-bit, which
 *  the validator's exact-reconciliation checks rely on. */
std::string
fmtNum(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::optional<double>
numberAfter(const std::string &text, const std::string &key,
            size_t from = 0)
{
    size_t at = text.find("\"" + key + "\":", from);
    if (at == std::string::npos)
        return std::nullopt;
    const char *p = text.c_str() + at + key.size() + 3;
    char *end = nullptr;
    double v = std::strtod(p, &end);
    if (end == p)
        return std::nullopt;
    return v;
}

/** Like numberAfter but full 64-bit exact (seeds, event counts). */
std::optional<uint64_t>
u64After(const std::string &text, const std::string &key,
         size_t from = 0)
{
    size_t at = text.find("\"" + key + "\":", from);
    if (at == std::string::npos)
        return std::nullopt;
    const char *p = text.c_str() + at + key.size() + 3;
    char *end = nullptr;
    uint64_t v = std::strtoull(p, &end, 10);
    if (end == p)
        return std::nullopt;
    return v;
}

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

/** Index of the `}` matching the `{` at @p open, skipping over string
 *  contents; npos when unbalanced (torn line). */
size_t
matchBrace(const std::string &s, size_t open)
{
    int depth = 0;
    bool in_string = false;
    for (size_t i = open; i < s.size(); ++i) {
        char c = s[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{')
            ++depth;
        else if (c == '}' && --depth == 0)
            return i;
    }
    return std::string::npos;
}

void
appendStr(std::string &out, const char *key, const std::string &v)
{
    out += ",\"";
    out += key;
    out += "\":\"";
    out += jsonEscape(v);
    out += "\"";
}

void
appendU64(std::string &out, const char *key, uint64_t v)
{
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(v);
}

} // namespace

std::optional<double>
LedgerRecord::field(const std::string &name) const
{
    for (const LedgerField &f : fields)
        if (f.name == name)
            return f.value;
    return std::nullopt;
}

void
LedgerRecord::setField(const std::string &name, double value)
{
    for (LedgerField &f : fields)
        if (f.name == name) {
            f.value = value;
            return;
        }
    fields.push_back({name, value});
}

void
fillRunTelemetry(LedgerRecord &rec, const ActivityCounters &c,
                 const CacheStats &l1i, const CacheStats &l1d,
                 const CacheStats &l2, const DramStats &dram,
                 const EnergyBreakdown &energy, double total_pj,
                 double epi_pj, double mean_v, uint32_t return_value,
                 uint64_t output_checksum, double wall_sec)
{
    auto u = [&rec](const char *name, uint64_t v) {
        rec.setField(name, static_cast<double>(v));
    };
    u("counters.instructions", c.instructions);
    u("counters.cycles", c.cycles);
    u("counters.alu32", c.alu32);
    u("counters.alu8", c.alu8);
    u("counters.mul_div", c.mulDiv);
    u("counters.rf_read32", c.rfRead32);
    u("counters.rf_write32", c.rfWrite32);
    u("counters.rf_read8", c.rfRead8);
    u("counters.rf_write8", c.rfWrite8);
    u("counters.loads", c.loads);
    u("counters.stores", c.stores);
    u("counters.branches", c.branches);
    u("counters.taken_branches", c.takenBranches);
    u("counters.calls", c.calls);
    u("counters.misspeculations", c.misspeculations);
    u("counters.dyn_spill_loads", c.dynSpillLoads);
    u("counters.dyn_spill_stores", c.dynSpillStores);
    u("counters.dyn_copies", c.dynCopies);
    u("counters.outputs", c.outputs);

    u("cache.l1i.accesses", l1i.accesses);
    u("cache.l1i.misses", l1i.misses);
    u("cache.l1i.writebacks", l1i.writebacks);
    u("cache.l1d.accesses", l1d.accesses);
    u("cache.l1d.misses", l1d.misses);
    u("cache.l1d.writebacks", l1d.writebacks);
    u("cache.l2.accesses", l2.accesses);
    u("cache.l2.misses", l2.misses);
    u("cache.l2.writebacks", l2.writebacks);
    u("dram.reads", dram.reads);
    u("dram.writes", dram.writes);

    rec.setField("energy.alu_pj", energy.alu);
    rec.setField("energy.regfile_pj", energy.regfile);
    rec.setField("energy.dcache_pj", energy.dcache);
    rec.setField("energy.icache_pj", energy.icache);
    rec.setField("energy.pipeline_pj", energy.pipeline);
    rec.setField("energy.model_pj", energy.total());
    rec.setField("energy.total_pj", total_pj);
    rec.setField("energy.epi_pj", epi_pj);
    rec.setField("energy.mean_v", mean_v);

    rec.setField("run.return", return_value);
    rec.setField("run.wall_sec", wall_sec);

    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(output_checksum));
    rec.outputChecksum = hex;
}

std::vector<std::pair<std::string, std::string>>
captureBitspecEnv()
{
    std::vector<std::pair<std::string, std::string>> out;
    for (char **e = environ; e && *e; ++e) {
        const char *entry = *e;
        if (std::strncmp(entry, "BITSPEC_", 8) != 0)
            continue;
        const char *eq = std::strchr(entry, '=');
        if (!eq)
            continue;
        out.emplace_back(std::string(entry, eq - entry),
                         std::string(eq + 1));
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string
toJsonLine(const LedgerRecord &rec)
{
    std::string out = "{\"schema_version\":" +
                      std::to_string(rec.schemaVersion) +
                      ",\"kind\":\"";
    out += jsonEscape(rec.kind);
    out += "\"";
    appendStr(out, "flavour", rec.flavour);
    appendStr(out, "bench", rec.bench);
    appendStr(out, "workload", rec.workload);
    appendStr(out, "cell_key", rec.cellKey);
    appendStr(out, "system_key", rec.systemKey);
    appendStr(out, "artifact_key", rec.artifactKey);
    appendStr(out, "cache_source", rec.cacheSource);
    appendStr(out, "engine", rec.engine);
    appendStr(out, "policy", rec.policy);
    appendU64(out, "profile_seed", rec.profileSeed);
    appendU64(out, "run_seed", rec.runSeed);
    appendU64(out, "policy_seed", rec.policySeed);
    appendStr(out, "output_checksum", rec.outputChecksum);

    std::vector<std::pair<std::string, std::string>> env = rec.env;
    std::sort(env.begin(), env.end());
    out += ",\"env\":{";
    for (size_t i = 0; i < env.size(); ++i) {
        if (i)
            out += ",";
        out += "\"";
        out += jsonEscape(env[i].first);
        out += "\":\"";
        out += jsonEscape(env[i].second);
        out += "\"";
    }
    out += "}";

    std::vector<LedgerField> fields = rec.fields;
    std::sort(fields.begin(), fields.end(),
              [](const LedgerField &a, const LedgerField &b) {
                  return a.name < b.name;
              });
    out += ",\"fields\":{";
    for (size_t i = 0; i < fields.size(); ++i) {
        if (i)
            out += ",";
        out += "\"";
        out += jsonEscape(fields[i].name);
        out += "\":" + fmtNum(fields[i].value);
    }
    out += "}";

    out += ",\"regions\":[";
    for (size_t i = 0; i < rec.regions.size(); ++i) {
        const LedgerRegionRow &r = rec.regions[i];
        if (i)
            out += ",";
        out += "{\"function\":\"";
        out += jsonEscape(r.function);
        out += "\"";
        appendU64(out, "region", static_cast<uint64_t>(
                                     r.regionId < 0 ? 0 : r.regionId));
        appendU64(out, "line",
                  static_cast<uint64_t>(r.srcLine < 0 ? 0 : r.srcLine));
        appendU64(out, "entries", r.entries);
        appendU64(out, "misspecs", r.misspecs);
        appendU64(out, "spec_insts", r.specInsts);
        appendU64(out, "handler_insts", r.handlerInsts);
        appendU64(out, "handler_cycles", r.handlerCycles);
        out += "}";
    }
    out += "]";

    out += ",\"heat\":[";
    for (size_t i = 0; i < rec.heat.size(); ++i) {
        const LedgerHeatRow &h = rec.heat[i];
        if (i)
            out += ",";
        out += "{\"function\":\"";
        out += jsonEscape(h.function);
        out += "\",\"block\":\"";
        out += jsonEscape(h.block);
        out += "\"";
        appendU64(out, "region", static_cast<uint64_t>(
                                     h.regionId < 0 ? 0 : h.regionId));
        appendU64(out, "line",
                  static_cast<uint64_t>(h.srcLine < 0 ? 0 : h.srcLine));
        appendU64(out, "entries", h.entries);
        appendU64(out, "insts", h.insts);
        appendU64(out, "cycles", h.cycles);
        appendU64(out, "misspecs", h.misspecs);
        out += "}";
    }
    out += "]}";
    return out;
}

namespace
{

/** Parse the `"name":{...}` object of string values at/after @p key
 *  into @p out. */
void
parseStringObject(
    const std::string &line, const char *key,
    std::vector<std::pair<std::string, std::string>> &out)
{
    const std::string marker = std::string("\"") + key + "\":{";
    size_t at = line.find(marker);
    if (at == std::string::npos)
        return;
    size_t i = at + marker.size();
    while (i < line.size() && line[i] != '}') {
        if (line[i] == ',' || line[i] == ' ') {
            ++i;
            continue;
        }
        if (line[i] != '"')
            break;
        std::string name;
        size_t name_end = readJsonString(line, i, name);
        if (name_end == std::string::npos)
            break;
        size_t colon = line.find(':', name_end);
        if (colon == std::string::npos)
            break;
        size_t open = line.find('"', colon);
        if (open == std::string::npos)
            break;
        std::string value;
        size_t j = readJsonString(line, open, value);
        if (j == std::string::npos)
            break; // Torn inside the value.
        out.emplace_back(std::move(name), std::move(value));
        i = j + 1;
    }
}

/** Iterate the `{...}` chunks of the `"name":[...]` array at/after
 *  @p key, invoking @p fn with each chunk substring. */
template <typename Fn>
void
forEachArrayChunk(const std::string &line, const char *key, Fn fn)
{
    const std::string marker = std::string("\"") + key + "\":[";
    size_t at = line.find(marker);
    if (at == std::string::npos)
        return;
    size_t i = at + marker.size();
    while (i < line.size()) {
        size_t open = line.find('{', i);
        size_t end = line.find(']', i);
        if (open == std::string::npos ||
            (end != std::string::npos && end < open))
            break;
        size_t close = matchBrace(line, open);
        if (close == std::string::npos)
            break;
        fn(line.substr(open, close - open + 1));
        i = close + 1;
    }
}

} // namespace

std::optional<LedgerRecord>
parseLedgerLine(const std::string &line)
{
    if (line.find_first_not_of(" \t\r\n") == std::string::npos)
        return std::nullopt;
    auto schema = numberAfter(line, "schema_version");
    if (!schema || static_cast<int>(*schema) < 1 ||
        static_cast<int>(*schema) > kLedgerSchemaVersion)
        return std::nullopt;
    // A whole record is one line; a torn tail cannot close the final
    // bracket, so this cheaply rejects partial crash-time writes.
    if (line.find('}') == std::string::npos)
        return std::nullopt;

    LedgerRecord rec;
    rec.schemaVersion = static_cast<int>(*schema);
    rec.kind = stringAfter(line, "kind").value_or("cell");
    rec.flavour = stringAfter(line, "flavour").value_or("");
    rec.bench = stringAfter(line, "bench").value_or("");
    rec.workload = stringAfter(line, "workload").value_or("");
    rec.cellKey = stringAfter(line, "cell_key").value_or("");
    rec.systemKey = stringAfter(line, "system_key").value_or("");
    rec.artifactKey = stringAfter(line, "artifact_key").value_or("");
    rec.cacheSource = stringAfter(line, "cache_source").value_or("");
    rec.engine = stringAfter(line, "engine").value_or("");
    rec.policy = stringAfter(line, "policy").value_or("");
    rec.profileSeed = u64After(line, "profile_seed").value_or(0);
    rec.runSeed = u64After(line, "run_seed").value_or(0);
    rec.policySeed = u64After(line, "policy_seed").value_or(0);
    rec.outputChecksum =
        stringAfter(line, "output_checksum").value_or("");

    parseStringObject(line, "env", rec.env);

    // Flat fields object: same scan as obs/trajectory's series map.
    size_t at = line.find("\"fields\":{");
    if (at == std::string::npos)
        return std::nullopt;
    size_t i = at + std::strlen("\"fields\":{");
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
        rec.fields.push_back(
            {line.substr(open + 1, close - open - 1), v});
        i = static_cast<size_t>(end - line.c_str());
        while (i < line.size() && (line[i] == ',' || line[i] == ' '))
            ++i;
    }

    forEachArrayChunk(line, "regions", [&rec](const std::string &c) {
        LedgerRegionRow r;
        r.function = stringAfter(c, "function").value_or("");
        r.regionId =
            static_cast<int>(u64After(c, "region").value_or(0));
        r.srcLine = static_cast<int>(u64After(c, "line").value_or(0));
        r.entries = u64After(c, "entries").value_or(0);
        r.misspecs = u64After(c, "misspecs").value_or(0);
        r.specInsts = u64After(c, "spec_insts").value_or(0);
        r.handlerInsts = u64After(c, "handler_insts").value_or(0);
        r.handlerCycles = u64After(c, "handler_cycles").value_or(0);
        rec.regions.push_back(std::move(r));
    });

    forEachArrayChunk(line, "heat", [&rec](const std::string &c) {
        LedgerHeatRow h;
        h.function = stringAfter(c, "function").value_or("");
        h.block = stringAfter(c, "block").value_or("");
        h.regionId =
            static_cast<int>(u64After(c, "region").value_or(0));
        h.srcLine = static_cast<int>(u64After(c, "line").value_or(0));
        h.entries = u64After(c, "entries").value_or(0);
        h.insts = u64After(c, "insts").value_or(0);
        h.cycles = u64After(c, "cycles").value_or(0);
        h.misspecs = u64After(c, "misspecs").value_or(0);
        rec.heat.push_back(std::move(h));
    });

    return rec;
}

std::vector<LedgerRecord>
loadLedger(const std::string &path)
{
    std::vector<LedgerRecord> out;
    std::ifstream in(path);
    if (!in)
        return out;
    std::string line;
    while (std::getline(in, line))
        if (auto rec = parseLedgerLine(line))
            out.push_back(std::move(*rec));
    return out;
}

std::string
validateLedgerRecord(const LedgerRecord &rec)
{
    if (rec.schemaVersion < 1 ||
        rec.schemaVersion > kLedgerSchemaVersion)
        return "unsupported schema_version " +
               std::to_string(rec.schemaVersion);
    if (rec.kind != "cell" && rec.kind != "matrix")
        return "unknown kind \"" + rec.kind + "\"";
    if (rec.flavour.empty())
        return "missing flavour";
    if (rec.bench.empty())
        return "missing bench";

    if (rec.kind == "matrix") {
        for (const char *name :
             {"matrix.cells", "wall.p50_sec", "wall.p95_sec",
              "wall.p99_sec"})
            if (!rec.field(name))
                return std::string("matrix record missing ") + name;
        return "";
    }

    // Cell records: full provenance...
    if (rec.workload.empty())
        return "missing workload";
    if (rec.cellKey.empty())
        return "missing cell_key";
    if (rec.systemKey.empty())
        return "missing system_key";
    if (rec.artifactKey.empty())
        return "missing artifact_key";
    // "disk": records written while the runner had an on-disk tier.
    if (rec.cacheSource != "compile" && rec.cacheSource != "memory" &&
        rec.cacheSource != "disk")
        return "cache_source must be compile|memory|disk, got \"" +
               rec.cacheSource + "\"";
    if (rec.engine.empty())
        return "missing engine";
    if (rec.policy.empty())
        return "missing policy";
    if (rec.outputChecksum.size() != 16)
        return "output_checksum must be 16 hex digits";

    // ...and the full telemetry surface.
    for (const char *name :
         {"counters.instructions", "counters.cycles",
          "counters.misspeculations", "cache.l1i.accesses",
          "cache.l1d.accesses", "cache.l2.accesses", "dram.reads",
          "dram.writes", "energy.alu_pj", "energy.regfile_pj",
          "energy.dcache_pj", "energy.icache_pj",
          "energy.pipeline_pj", "energy.model_pj", "energy.total_pj",
          "energy.epi_pj", "run.return", "run.wall_sec"})
        if (!rec.field(name))
            return std::string("cell record missing ") + name;

    // The breakdown must sum to the model total bit-exactly: the
    // serializer round-trips doubles via %.17g and this addition order
    // matches EnergyBreakdown::total().
    const double parts =
        *rec.field("energy.alu_pj") + *rec.field("energy.regfile_pj") +
        *rec.field("energy.dcache_pj") +
        *rec.field("energy.icache_pj") +
        *rec.field("energy.pipeline_pj");
    if (parts != *rec.field("energy.model_pj"))
        return "energy breakdown does not sum to energy.model_pj";

    // Detail rows must reconcile exactly with the aggregate counters:
    // BlockMap is a total partition, so the recorded whole-run heat
    // totals equal the ActivityCounters sums even though only the
    // top-K rows are kept.
    if (!rec.heat.empty()) {
        for (const char *name :
             {"heat.total_insts", "heat.total_cycles",
              "heat.total_misspecs"})
            if (!rec.field(name))
                return std::string("heat rows present but missing ") +
                       name;
        if (*rec.field("heat.total_insts") !=
            *rec.field("counters.instructions"))
            return "heat.total_insts != counters.instructions";
        if (*rec.field("heat.total_cycles") !=
            *rec.field("counters.cycles"))
            return "heat.total_cycles != counters.cycles";
        if (*rec.field("heat.total_misspecs") !=
            *rec.field("counters.misspeculations"))
            return "heat.total_misspecs != counters.misspeculations";
        uint64_t row_insts = 0;
        for (const LedgerHeatRow &h : rec.heat)
            row_insts += h.insts;
        if (static_cast<double>(row_insts) >
            *rec.field("heat.total_insts"))
            return "heat rows exceed heat.total_insts";
    }
    if (!rec.regions.empty()) {
        auto unattributed = rec.field("regions.unattributed_misspecs");
        if (!unattributed)
            return "region rows present but missing "
                   "regions.unattributed_misspecs";
        uint64_t attributed = 0;
        for (const LedgerRegionRow &r : rec.regions)
            attributed += r.misspecs;
        if (static_cast<double>(attributed) + *unattributed !=
            *rec.field("counters.misspeculations"))
            return "region misspecs do not reconcile with "
                   "counters.misspeculations";
    }
    return "";
}

LedgerWriter::LedgerWriter(const std::string &path) : path_(path)
{
    std::error_code ec;
    std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        log::warn("ledger: cannot open %s for append: %s",
                  path.c_str(), std::strerror(errno));
}

LedgerWriter::~LedgerWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

uint64_t
LedgerWriter::recordsWritten() const
{
    return written_.load(std::memory_order_relaxed);
}

bool
LedgerWriter::append(const LedgerRecord &rec)
{
    if (fd_ < 0)
        return false;
    // One write(2) per record: with O_APPEND the kernel positions and
    // writes atomically, so concurrent appenders (threads or whole
    // processes sharing the path) never interleave inside a line.
    std::string line = toJsonLine(rec);
    line += '\n';
    ssize_t n;
    do {
        n = ::write(fd_, line.data(), line.size());
    } while (n < 0 && errno == EINTR);
    if (n != static_cast<ssize_t>(line.size())) {
        log::warn("ledger: short write to %s: %s", path_.c_str(),
                  n < 0 ? std::strerror(errno) : "partial");
        return false;
    }
    written_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

namespace
{

std::mutex g_writer_mu;
std::unique_ptr<LedgerWriter> g_writer;
bool g_writer_init = false;
std::atomic<int> g_detail{-1}; ///< -1 = not yet read from env.

} // namespace

LedgerWriter *
LedgerWriter::global()
{
    std::lock_guard<std::mutex> lock(g_writer_mu);
    if (!g_writer_init) {
        g_writer_init = true;
        const std::string path = env::getString("BITSPEC_LEDGER");
        if (!path.empty()) {
            auto writer = std::make_unique<LedgerWriter>(path);
            if (writer->ok())
                g_writer = std::move(writer);
        }
    }
    return g_writer.get();
}

void
LedgerWriter::setGlobal(std::unique_ptr<LedgerWriter> writer)
{
    std::lock_guard<std::mutex> lock(g_writer_mu);
    g_writer_init = true;
    g_writer = std::move(writer);
}

bool
LedgerWriter::detailEnabled()
{
    int d = g_detail.load(std::memory_order_relaxed);
    if (d < 0) {
        d = env::getBool("BITSPEC_LEDGER_DETAIL", false) ? 1 : 0;
        g_detail.store(d, std::memory_order_relaxed);
    }
    return d == 1;
}

void
LedgerWriter::setDetail(bool on)
{
    g_detail.store(on ? 1 : 0, std::memory_order_relaxed);
}

} // namespace bitspec
