#include "obs/ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "support/env.h"
#include "support/json.h"
#include "support/log.h"

extern char **environ;

namespace bitspec
{

namespace
{

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
        out += "\":" + jsonNumber(fields[i].value);
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

/** The record of one parsed line; nullopt for a newer or invalid
 *  schema. Throws JsonError where a member has the wrong kind. */
std::optional<LedgerRecord>
recordFromJson(const JsonValue &doc)
{
    const JsonValue *schema = doc.find("schema_version");
    const uint64_t version = schema ? schema->asU64() : 0;
    if (version < 1 || version > kLedgerSchemaVersion)
        return std::nullopt;
    const JsonValue *fields = doc.find("fields");
    if (!fields)
        return std::nullopt;

    LedgerRecord rec;
    rec.schemaVersion = static_cast<int>(version);
    rec.kind = doc.getString("kind", "cell");
    rec.flavour = doc.getString("flavour");
    rec.bench = doc.getString("bench");
    rec.workload = doc.getString("workload");
    rec.cellKey = doc.getString("cell_key");
    rec.systemKey = doc.getString("system_key");
    rec.artifactKey = doc.getString("artifact_key");
    rec.cacheSource = doc.getString("cache_source");
    rec.engine = doc.getString("engine");
    rec.policy = doc.getString("policy");
    rec.profileSeed = doc.getU64("profile_seed");
    rec.runSeed = doc.getU64("run_seed");
    rec.policySeed = doc.getU64("policy_seed");
    rec.outputChecksum = doc.getString("output_checksum");

    if (const JsonValue *env = doc.find("env"))
        for (const auto &[name, value] : env->asObject())
            rec.env.emplace_back(name, value.asString());
    for (const auto &[name, value] : fields->asObject())
        rec.fields.push_back({name, value.asNumber()});

    if (const JsonValue *regions = doc.find("regions"))
        for (const JsonValue &c : regions->asArray()) {
            LedgerRegionRow r;
            r.function = c.getString("function");
            r.regionId = static_cast<int>(c.getU64("region"));
            r.srcLine = static_cast<int>(c.getU64("line"));
            r.entries = c.getU64("entries");
            r.misspecs = c.getU64("misspecs");
            r.specInsts = c.getU64("spec_insts");
            r.handlerInsts = c.getU64("handler_insts");
            r.handlerCycles = c.getU64("handler_cycles");
            rec.regions.push_back(std::move(r));
        }

    if (const JsonValue *heat = doc.find("heat"))
        for (const JsonValue &c : heat->asArray()) {
            LedgerHeatRow h;
            h.function = c.getString("function");
            h.block = c.getString("block");
            h.regionId = static_cast<int>(c.getU64("region"));
            h.srcLine = static_cast<int>(c.getU64("line"));
            h.entries = c.getU64("entries");
            h.insts = c.getU64("insts");
            h.cycles = c.getU64("cycles");
            h.misspecs = c.getU64("misspecs");
            rec.heat.push_back(std::move(h));
        }
    return rec;
}

} // namespace

std::optional<LedgerRecord>
parseLedgerLine(const std::string &line)
{
    // A crash can tear the final line anywhere: any line that is not
    // one whole record, a blank one too, is skipped, never read in
    // part.
    try {
        return recordFromJson(parseJson(line));
    } catch (const JsonError &) {
        return std::nullopt;
    }
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
    // serializer round-trips doubles via jsonNumber and this addition
    // order matches EnergyBreakdown::total().
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
