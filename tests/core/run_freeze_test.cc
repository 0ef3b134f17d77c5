/**
 * @file
 * Run-observation freeze: what every workload observes when it runs,
 * pinned per execution tier. Each tier has one engine; this table is
 * its contract.
 *
 *  - Machine tier: each workload under baseline, BitSpec (MAX) and
 *    squeeze-without-speculation, crossed with the Hardware,
 *    ForceFirst and Random (seed 0xfeed) misspeculation policies, on
 *    input seed 0. A cell pins one 64-bit hash of the return value,
 *    the output checksum, every ActivityCounters field, the L1I, L1D
 *    and L2 accesses/misses/writebacks, the DRAM reads/writes, every
 *    per-region and per-block profiler tally with their unattributed
 *    counts; plus instructions, cycles and misspeculations in the
 *    clear. Every cell runs three times — the System's next run,
 *    again, and with the block profiler attached — and the three
 *    RunResults must be equal, so memo replay, the inline
 *    branch/chaining path and the per-instruction sink feed are all
 *    held to the same row.
 *
 *  - Interpreter tier: per workload, the plain module under Hardware
 *    (return value, checksum and every InterpStats field), a hash of
 *    the bitwidth profile (count, min, max and sum of each profiled
 *    instruction in module order) with its total assignments, and
 *    the squeezed module under the three policies (Random seed 42).
 *
 * The table was recorded while each tier still carried a second,
 * independently written engine (the tree-walking interpreter and the
 * original cycle-accurate Core) and passed against both engines of
 * each tier. The suites keep the names of the engine-diff tests it
 * replaced (EngineDiff, CoreEngineDiff, CorePolicyDiff): each test
 * now diffs the remaining engine against the rows both engines
 * observed. One test per workload and check, so `ctest -j` spreads
 * the runs across cores. An intended semantic change updates the
 * table: a failing test prints the rows it observed, ready to paste.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "obs/profiler.h"
#include "profile/bitwidth_profile.h"
#include "support/str.h"
#include "transform/squeezer.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

// Adding a field to any observed struct must extend the hashes or
// descriptions below (and re-pin).
static_assert(sizeof(ActivityCounters) == 19 * sizeof(uint64_t),
              "ActivityCounters changed: extend machineHash()");
static_assert(sizeof(CacheStats) == 3 * sizeof(uint64_t),
              "CacheStats changed: extend machineHash()");
static_assert(sizeof(DramStats) == 2 * sizeof(uint64_t),
              "DramStats changed: extend machineHash()");
static_assert(sizeof(RegionActivity) == 7 * sizeof(uint64_t),
              "RegionActivity changed: extend machineHash()");
static_assert(sizeof(BlockActivity) == 4 * sizeof(uint64_t),
              "BlockActivity changed: extend machineHash()");
static_assert(sizeof(InterpStats) == 5 * sizeof(uint64_t),
              "InterpStats changed: extend describe()");
static_assert(sizeof(VarBitStats) ==
                  2 * sizeof(unsigned) + 2 * sizeof(uint64_t),
              "VarBitStats changed: extend profileHash()");

/** FNV-1a over the little-endian bytes of @p v. */
uint64_t
mix(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

const std::vector<std::string> kWorkloads = {
    "CRC32",       "FFT",          "basicmath",     "bitcount",
    "blowfish",    "dijkstra",     "patricia",      "qsort",
    "rijndael",    "sha",          "stringsearch",  "susan-edges",
    "susan-corners", "susan-smoothing",
};

constexpr MisspecPolicy kPolicies[] = {
    MisspecPolicy::Hardware,
    MisspecPolicy::ForceFirst,
    MisspecPolicy::Random,
};

// ---- Machine tier --------------------------------------------------

/** Hash of everything one machine run observes (see file comment). */
uint64_t
machineHash(const RunResult &r, const BlockProfilerSink &blocks)
{
    uint64_t h = kFnvOffset;
    h = mix(h, r.returnValue);
    h = mix(h, r.outputChecksum);
    const ActivityCounters &c = r.counters;
    for (uint64_t v :
         {c.instructions, c.cycles, c.alu32, c.alu8, c.mulDiv,
          c.rfRead32, c.rfWrite32, c.rfRead8, c.rfWrite8, c.loads,
          c.stores, c.branches, c.takenBranches, c.calls,
          c.misspeculations, c.dynSpillLoads, c.dynSpillStores,
          c.dynCopies, c.outputs})
        h = mix(h, v);
    for (const CacheStats *s : {&r.l1i, &r.l1d, &r.l2}) {
        h = mix(h, s->accesses);
        h = mix(h, s->misses);
        h = mix(h, s->writebacks);
    }
    h = mix(h, r.dram.reads);
    h = mix(h, r.dram.writes);
    const std::vector<RegionActivity> regions = blocks.regionActivity();
    h = mix(h, regions.size());
    for (const RegionActivity &a : regions)
        for (uint64_t v : {a.entries, a.misspecs, a.specInsts,
                           a.specCycles, a.skeletonInsts,
                           a.handlerInsts, a.handlerCycles})
            h = mix(h, v);
    h = mix(h, blocks.unattributedMisspecs());
    h = mix(h, blocks.activity().size());
    for (const BlockActivity &b : blocks.activity())
        for (uint64_t v : {b.entries, b.insts, b.cycles, b.misspecs})
            h = mix(h, v);
    return mix(h, blocks.unattributed());
}

struct MachinePin
{
    const char *workload;
    const char *config;
    const char *policy;
    uint64_t hash;
    uint64_t instructions;
    uint64_t cycles;
    uint64_t misspecs;
};

const MachinePin kMachinePins[] = {
    {"CRC32", "baseline", "hardware",
     0x170c5a81d13b9cc0ULL, 256181, 359592, 0},
    {"CRC32", "baseline", "force-first",
     0x170c5a81d13b9cc0ULL, 256181, 359592, 0},
    {"CRC32", "baseline", "random",
     0x170c5a81d13b9cc0ULL, 256181, 359592, 0},
    {"CRC32", "bitspec-max", "hardware",
     0x89b4d4b54dcefcaaULL, 257564, 362389, 0},
    {"CRC32", "bitspec-max", "force-first",
     0xf51814e5f51b925aULL, 258233, 362846, 1},
    {"CRC32", "bitspec-max", "random",
     0xbc0e4ec54c72aeeULL, 258214, 364013, 1},
    {"CRC32", "no-spec", "hardware",
     0x36a5a11157c804a3ULL, 274011, 375911, 0},
    {"CRC32", "no-spec", "force-first",
     0x36a5a11157c804a3ULL, 274011, 375911, 0},
    {"CRC32", "no-spec", "random",
     0x36a5a11157c804a3ULL, 274011, 375911, 0},
    {"FFT", "baseline", "hardware",
     0xdce415c49a322176ULL, 95048, 136281, 0},
    {"FFT", "baseline", "force-first",
     0xdce415c49a322176ULL, 95048, 136281, 0},
    {"FFT", "baseline", "random",
     0xdce415c49a322176ULL, 95048, 136281, 0},
    {"FFT", "bitspec-max", "hardware",
     0x3bffd9dd0dcb0752ULL, 85968, 120232, 0},
    {"FFT", "bitspec-max", "force-first",
     0xf4d2aebfcb8482e6ULL, 105883, 150956, 1},
    {"FFT", "bitspec-max", "random",
     0xe233623011f7c6a7ULL, 105893, 151638, 1},
    {"FFT", "no-spec", "hardware",
     0x6d65403bcf9bee80ULL, 96840, 138065, 0},
    {"FFT", "no-spec", "force-first",
     0x6d65403bcf9bee80ULL, 96840, 138065, 0},
    {"FFT", "no-spec", "random",
     0x6d65403bcf9bee80ULL, 96840, 138065, 0},
    {"basicmath", "baseline", "hardware",
     0x7837de782c0cc87eULL, 130460, 251170, 0},
    {"basicmath", "baseline", "force-first",
     0x7837de782c0cc87eULL, 130460, 251170, 0},
    {"basicmath", "baseline", "random",
     0x7837de782c0cc87eULL, 130460, 251170, 0},
    {"basicmath", "bitspec-max", "hardware",
     0x108a43abd307fcfaULL, 152295, 284959, 0},
    {"basicmath", "bitspec-max", "force-first",
     0x1668eeec242b12efULL, 191930, 331567, 1},
    {"basicmath", "bitspec-max", "random",
     0x19634c012d41b14dULL, 191802, 332718, 1},
    {"basicmath", "no-spec", "hardware",
     0x7837de782c0cc87eULL, 130460, 251170, 0},
    {"basicmath", "no-spec", "force-first",
     0x7837de782c0cc87eULL, 130460, 251170, 0},
    {"basicmath", "no-spec", "random",
     0x7837de782c0cc87eULL, 130460, 251170, 0},
    {"bitcount", "baseline", "hardware",
     0xf5c18cfb4033e00cULL, 506063, 794899, 0},
    {"bitcount", "baseline", "force-first",
     0xf5c18cfb4033e00cULL, 506063, 794899, 0},
    {"bitcount", "baseline", "random",
     0xf5c18cfb4033e00cULL, 506063, 794899, 0},
    {"bitcount", "bitspec-max", "hardware",
     0x8956a598be2eada4ULL, 559555, 850694, 0},
    {"bitcount", "bitspec-max", "force-first",
     0x6c0452da38130b23ULL, 1010290, 1469546, 1},
    {"bitcount", "bitspec-max", "random",
     0x3b4f5617f2e4f348ULL, 1010103, 1472351, 1},
    {"bitcount", "no-spec", "hardware",
     0x3693c2e27ce5c902ULL, 611765, 908249, 0},
    {"bitcount", "no-spec", "force-first",
     0x3693c2e27ce5c902ULL, 611765, 908249, 0},
    {"bitcount", "no-spec", "random",
     0x3693c2e27ce5c902ULL, 611765, 908249, 0},
    {"blowfish", "baseline", "hardware",
     0x356891a325209963ULL, 64221, 99404, 0},
    {"blowfish", "baseline", "force-first",
     0x356891a325209963ULL, 64221, 99404, 0},
    {"blowfish", "baseline", "random",
     0x356891a325209963ULL, 64221, 99404, 0},
    {"blowfish", "bitspec-max", "hardware",
     0x3d5c35dbfc4fccfbULL, 69024, 103740, 0},
    {"blowfish", "bitspec-max", "force-first",
     0x5b73be5acae646bdULL, 66666, 102567, 1},
    {"blowfish", "bitspec-max", "random",
     0xad7e2988493e822dULL, 66767, 105360, 1},
    {"blowfish", "no-spec", "hardware",
     0x3ba5249329ddc47ULL, 73949, 105221, 0},
    {"blowfish", "no-spec", "force-first",
     0x3ba5249329ddc47ULL, 73949, 105221, 0},
    {"blowfish", "no-spec", "random",
     0x3ba5249329ddc47ULL, 73949, 105221, 0},
    {"dijkstra", "baseline", "hardware",
     0x1012380ca4e5feb9ULL, 479854, 714349, 0},
    {"dijkstra", "baseline", "force-first",
     0x1012380ca4e5feb9ULL, 479854, 714349, 0},
    {"dijkstra", "baseline", "random",
     0x1012380ca4e5feb9ULL, 479854, 714349, 0},
    {"dijkstra", "bitspec-max", "hardware",
     0xccd4f9aeafc46fdfULL, 473366, 677506, 0},
    {"dijkstra", "bitspec-max", "force-first",
     0x2de12ccb465676b8ULL, 684259, 950307, 1},
    {"dijkstra", "bitspec-max", "random",
     0x69a977a7ee82ba98ULL, 684099, 952794, 1},
    {"dijkstra", "no-spec", "hardware",
     0x3b7639a8c26d6e52ULL, 479854, 714349, 0},
    {"dijkstra", "no-spec", "force-first",
     0x3b7639a8c26d6e52ULL, 479854, 714349, 0},
    {"dijkstra", "no-spec", "random",
     0x3b7639a8c26d6e52ULL, 479854, 714349, 0},
    {"patricia", "baseline", "hardware",
     0xc2932172379ac57eULL, 179035, 252166, 0},
    {"patricia", "baseline", "force-first",
     0xc2932172379ac57eULL, 179035, 252166, 0},
    {"patricia", "baseline", "random",
     0xc2932172379ac57eULL, 179035, 252166, 0},
    {"patricia", "bitspec-max", "hardware",
     0xdf0a06aab2740dd7ULL, 203052, 300951, 0},
    {"patricia", "bitspec-max", "force-first",
     0x5c6814fbd723d0ecULL, 248231, 327093, 1},
    {"patricia", "bitspec-max", "random",
     0xd6ed0504c345e20bULL, 248193, 327646, 1},
    {"patricia", "no-spec", "hardware",
     0xb9fd75cbf569c397ULL, 190139, 263404, 0},
    {"patricia", "no-spec", "force-first",
     0xb9fd75cbf569c397ULL, 190139, 263404, 0},
    {"patricia", "no-spec", "random",
     0xb9fd75cbf569c397ULL, 190139, 263404, 0},
    {"qsort", "baseline", "hardware",
     0x1ce745e3ab55a4a1ULL, 222513, 355006, 0},
    {"qsort", "baseline", "force-first",
     0x1ce745e3ab55a4a1ULL, 222513, 355006, 0},
    {"qsort", "baseline", "random",
     0x1ce745e3ab55a4a1ULL, 222513, 355006, 0},
    {"qsort", "bitspec-max", "hardware",
     0xf9d425815b65fb8fULL, 209731, 330457, 0},
    {"qsort", "bitspec-max", "force-first",
     0x22dc6226cda6f259ULL, 235054, 381381, 1},
    {"qsort", "bitspec-max", "random",
     0xc30a9f6846096476ULL, 234799, 381785, 1},
    {"qsort", "no-spec", "hardware",
     0xd27297e62530198aULL, 227639, 360916, 0},
    {"qsort", "no-spec", "force-first",
     0xd27297e62530198aULL, 227639, 360916, 0},
    {"qsort", "no-spec", "random",
     0xd27297e62530198aULL, 227639, 360916, 0},
    {"rijndael", "baseline", "hardware",
     0x541caa193c38bc0cULL, 1137907, 1467880, 0},
    {"rijndael", "baseline", "force-first",
     0x541caa193c38bc0cULL, 1137907, 1467880, 0},
    {"rijndael", "baseline", "random",
     0x541caa193c38bc0cULL, 1137907, 1467880, 0},
    {"rijndael", "bitspec-max", "hardware",
     0x7c8ad60fab3dd07ULL, 936873, 1235058, 0},
    {"rijndael", "bitspec-max", "force-first",
     0x78c6c87cc858ff33ULL, 1262496, 1588218, 1},
    {"rijndael", "bitspec-max", "random",
     0x3aecde6a3ab66352ULL, 1262569, 1588989, 1},
    {"rijndael", "no-spec", "hardware",
     0x60952349ce8c12e0ULL, 874238, 1154182, 0},
    {"rijndael", "no-spec", "force-first",
     0x60952349ce8c12e0ULL, 874238, 1154182, 0},
    {"rijndael", "no-spec", "random",
     0x60952349ce8c12e0ULL, 874238, 1154182, 0},
    {"sha", "baseline", "hardware",
     0x6b10efe7baea3e0bULL, 625971, 816531, 0},
    {"sha", "baseline", "force-first",
     0x6b10efe7baea3e0bULL, 625971, 816531, 0},
    {"sha", "baseline", "random",
     0x6b10efe7baea3e0bULL, 625971, 816531, 0},
    {"sha", "bitspec-max", "hardware",
     0xb5e25c41fb2504cdULL, 665718, 852789, 0},
    {"sha", "bitspec-max", "force-first",
     0x8bbede4df44b33f0ULL, 714625, 926266, 1},
    {"sha", "bitspec-max", "random",
     0xc9a421a5c400a476ULL, 714664, 927866, 1},
    {"sha", "no-spec", "hardware",
     0x1b6f62f8d1980f03ULL, 645427, 836058, 0},
    {"sha", "no-spec", "force-first",
     0x1b6f62f8d1980f03ULL, 645427, 836058, 0},
    {"sha", "no-spec", "random",
     0x1b6f62f8d1980f03ULL, 645427, 836058, 0},
    {"stringsearch", "baseline", "hardware",
     0xb8c8156c00a9b5c0ULL, 1661252, 2348336, 0},
    {"stringsearch", "baseline", "force-first",
     0xb8c8156c00a9b5c0ULL, 1661252, 2348336, 0},
    {"stringsearch", "baseline", "random",
     0xb8c8156c00a9b5c0ULL, 1661252, 2348336, 0},
    {"stringsearch", "bitspec-max", "hardware",
     0x3c34435cd558ac45ULL, 1018572, 1484139, 0},
    {"stringsearch", "bitspec-max", "force-first",
     0xba98f27a87998a0aULL, 1256798, 1815527, 1},
    {"stringsearch", "bitspec-max", "random",
     0xe7909725f6611178ULL, 1256655, 1816693, 1},
    {"stringsearch", "no-spec", "hardware",
     0x7c02641cf0148af7ULL, 1492196, 2209902, 0},
    {"stringsearch", "no-spec", "force-first",
     0x7c02641cf0148af7ULL, 1492196, 2209902, 0},
    {"stringsearch", "no-spec", "random",
     0x7c02641cf0148af7ULL, 1492196, 2209902, 0},
    {"susan-edges", "baseline", "hardware",
     0x69906e1389eb7243ULL, 3656747, 5280419, 0},
    {"susan-edges", "baseline", "force-first",
     0x69906e1389eb7243ULL, 3656747, 5280419, 0},
    {"susan-edges", "baseline", "random",
     0x69906e1389eb7243ULL, 3656747, 5280419, 0},
    {"susan-edges", "bitspec-max", "hardware",
     0x5f7533a5480d433bULL, 3253226, 4743826, 0},
    {"susan-edges", "bitspec-max", "force-first",
     0xc000f112acf1c079ULL, 6352593, 8488489, 1},
    {"susan-edges", "bitspec-max", "random",
     0x6084b2c0a169cc7bULL, 6352590, 8489367, 1},
    {"susan-edges", "no-spec", "hardware",
     0x13c07477905d77aULL, 3656747, 5280439, 0},
    {"susan-edges", "no-spec", "force-first",
     0x13c07477905d77aULL, 3656747, 5280439, 0},
    {"susan-edges", "no-spec", "random",
     0x13c07477905d77aULL, 3656747, 5280439, 0},
    {"susan-corners", "baseline", "hardware",
     0xd23a8cdf9f85870aULL, 3582624, 5178053, 0},
    {"susan-corners", "baseline", "force-first",
     0xd23a8cdf9f85870aULL, 3582624, 5178053, 0},
    {"susan-corners", "baseline", "random",
     0xd23a8cdf9f85870aULL, 3582624, 5178053, 0},
    {"susan-corners", "bitspec-max", "hardware",
     0x2b7dd024059d7e46ULL, 3314386, 4844693, 0},
    {"susan-corners", "bitspec-max", "force-first",
     0x9b3a76586114b8cdULL, 6486748, 8643463, 1},
    {"susan-corners", "bitspec-max", "random",
     0x8e259e47defecbfeULL, 6486745, 8644339, 1},
    {"susan-corners", "no-spec", "hardware",
     0x36d9f37e8ba53442ULL, 3582624, 5178073, 0},
    {"susan-corners", "no-spec", "force-first",
     0x36d9f37e8ba53442ULL, 3582624, 5178073, 0},
    {"susan-corners", "no-spec", "random",
     0x36d9f37e8ba53442ULL, 3582624, 5178073, 0},
    {"susan-smoothing", "baseline", "hardware",
     0x3e109e1a8f434571ULL, 1993024, 2943139, 0},
    {"susan-smoothing", "baseline", "force-first",
     0x3e109e1a8f434571ULL, 1993024, 2943139, 0},
    {"susan-smoothing", "baseline", "random",
     0x3e109e1a8f434571ULL, 1993024, 2943139, 0},
    {"susan-smoothing", "bitspec-max", "hardware",
     0x54a31cc83363bb9bULL, 2459921, 3651377, 0},
    {"susan-smoothing", "bitspec-max", "force-first",
     0xae36a6fa067b3853ULL, 3645221, 4996001, 1},
    {"susan-smoothing", "bitspec-max", "random",
     0xd732902fb80ffeebULL, 3645218, 4996879, 1},
    {"susan-smoothing", "no-spec", "hardware",
     0x93f205bae40960eULL, 1993024, 2943176, 0},
    {"susan-smoothing", "no-spec", "force-first",
     0x93f205bae40960eULL, 1993024, 2943176, 0},
    {"susan-smoothing", "no-spec", "random",
     0x93f205bae40960eULL, 1993024, 2943176, 0},
};

struct NamedConfig
{
    const char *name;
    SystemConfig config;
};

/** Baseline, BitSpec (MAX) and no-spec, in that order. */
std::vector<NamedConfig>
machineConfigs()
{
    return {
        {"baseline", SystemConfig::baseline()},
        {"bitspec-max", SystemConfig::bitspec(Heuristic::Max)},
        {"no-spec", SystemConfig::noSpeculation()},
    };
}

const MachinePin *
findMachinePin(const std::string &workload, const std::string &config,
               const std::string &policy)
{
    for (const MachinePin &p : kMachinePins)
        if (workload == p.workload && config == p.config &&
            policy == p.policy)
            return &p;
    return nullptr;
}

auto
inputOf(const Workload &w)
{
    return [&w](Module &m) { w.setInput(m, 0); };
}

/**
 * Runs @p policy on @p sys three times — once, again, and with the
 * block profiler attached — expects the three RunResults equal and the
 * cell to match its pin. Returns the sink-free run; @p core (optional)
 * receives the second run's core counts.
 */
RunResult
checkMachineCell(const System &sys, const Workload &w,
                 const char *config, MisspecPolicy policy,
                 CoreRunStats *core = nullptr)
{
    const std::string policy_name = misspecPolicyName(policy);
    const std::string what = w.name + "/" + config + "/" + policy_name;
    RunObservers counted;
    counted.core = core;
    const RunResult first = sys.run(inputOf(w), {}, {}, policy, 0xfeed);
    const RunResult again =
        sys.run(inputOf(w), {}, counted, policy, 0xfeed);
    const BlockMap bmap(sys.program());
    BlockProfilerSink blocks(bmap);
    RunObservers observers;
    observers.blocks = &blocks;
    const RunResult observed =
        sys.run(inputOf(w), {}, observers, policy, 0xfeed);
    EXPECT_TRUE(again == first) << what << ": repeated run differs";
    EXPECT_TRUE(observed == first)
        << what << ": run with the profiler attached differs";

    // The row describes the sink-free run every bench takes; the
    // region and block rows come from the third run, which must
    // equal it.
    const uint64_t hash = machineHash(first, blocks);
    const ActivityCounters &c = first.counters;
    const MachinePin *pin = findMachinePin(w.name, config, policy_name);
    if (pin && pin->hash == hash && pin->instructions == c.instructions &&
        pin->cycles == c.cycles && pin->misspecs == c.misspeculations)
        return first;
    ADD_FAILURE() << what << (pin ? " drifted" : " has no pin")
                  << "; observed row:\n    {\"" << w.name << "\", \""
                  << config << "\", \"" << policy_name << "\",\n     0x"
                  << std::hex << hash << std::dec << "ULL, "
                  << c.instructions << ", " << c.cycles << ", "
                  << c.misspeculations << "},";
    return first;
}

/** The Hardware cell of one configuration: the run every bench
 *  takes. */
void
checkHardwareCell(const std::string &workload, const NamedConfig &nc)
{
    const Workload &w = getWorkload(workload);
    System sys(w.source, nc.config, inputOf(w));
    CoreRunStats core;
    checkMachineCell(sys, w, nc.name, MisspecPolicy::Hardware, &core);
    // Every workload loops, so the run must have replayed memos;
    // otherwise matching the pin says nothing about replay.
    EXPECT_GT(core.memos, 0u) << w.name;
    EXPECT_GT(core.replayedRuns, 0u) << w.name;
}

class CoreEngineDiff : public ::testing::TestWithParam<std::string>
{};

TEST_P(CoreEngineDiff, BaselineConfigMatches)
{
    checkHardwareCell(GetParam(), machineConfigs()[0]);
}

TEST_P(CoreEngineDiff, BitspecConfigMatches)
{
    checkHardwareCell(GetParam(), machineConfigs()[1]);
}

TEST_P(CoreEngineDiff, NoSpeculationConfigMatches)
{
    checkHardwareCell(GetParam(), machineConfigs()[2]);
}

/**
 * The ForceFirst and Random cells of every configuration. These
 * policies keep FastCore off memo replay, so its slow path must
 * consume the RNG in the recorded order. Theorems 3.1/3.2 also make
 * every policy's committed outputs equal to Hardware's.
 */
class CorePolicyDiff : public ::testing::TestWithParam<std::string>
{};

TEST_P(CorePolicyDiff, PoliciesMatchAcrossEngines)
{
    const Workload &w = getWorkload(GetParam());
    for (const NamedConfig &nc : machineConfigs()) {
        System sys(w.source, nc.config, inputOf(w));
        const RunResult hw = sys.run(inputOf(w));
        for (MisspecPolicy policy :
             {MisspecPolicy::ForceFirst, MisspecPolicy::Random}) {
            const std::string what = w.name + "/" + nc.name + "/" +
                                     misspecPolicyName(policy);
            const RunResult r =
                checkMachineCell(sys, w, nc.name, policy);
            EXPECT_EQ(r.returnValue, hw.returnValue) << what;
            EXPECT_EQ(r.outputChecksum, hw.outputChecksum) << what;
            if (policy == MisspecPolicy::ForceFirst) {
                EXPECT_GE(r.counters.misspeculations,
                          hw.counters.misspeculations)
                    << what;
            }
        }
    }
}

// ---- Interpreter tier ----------------------------------------------

/** Return value, checksum and every InterpStats field, in
 *  declaration order. */
std::string
describe(uint64_t ret, uint64_t checksum, const InterpStats &s)
{
    return strFormat("%llu %016llx %llu %llu %llu %llu %llu",
                     static_cast<unsigned long long>(ret),
                     static_cast<unsigned long long>(checksum),
                     static_cast<unsigned long long>(s.steps),
                     static_cast<unsigned long long>(s.intAssignments),
                     static_cast<unsigned long long>(s.misspeculations),
                     static_cast<unsigned long long>(s.calls),
                     static_cast<unsigned long long>(s.outputs));
}

std::string
interpRun(Module &m, MisspecPolicy policy)
{
    Interpreter in(m);
    in.setMisspecPolicy(policy);
    in.setRandomSeed(42);
    const uint64_t ret = in.run("main");
    return describe(ret, in.outputChecksum(), in.stats());
}

/** Hash of each profiled instruction's position in module order and
 *  its count, min, max and sum; then the total assignments. */
std::string
profileHash(const Module &m, const BitwidthProfile &p)
{
    uint64_t h = kFnvOffset;
    uint64_t pos = 0;
    for (const auto &f : m.functions())
        for (const auto &bb : f->blocks())
            for (const auto &inst : bb->insts()) {
                if (const VarBitStats *s = p.statsFor(inst.get())) {
                    h = mix(h, pos);
                    h = mix(h, s->count);
                    h = mix(h, s->minBits);
                    h = mix(h, s->maxBits);
                    h = mix(h, s->sumBits);
                }
                ++pos;
            }
    return strFormat("%016llx %llu", static_cast<unsigned long long>(h),
                     static_cast<unsigned long long>(
                         p.totalAssignments()));
}

struct InterpPin
{
    const char *workload;
    const char *run;
    const char *observed;
};

const InterpPin kInterpPins[] = {
    {"CRC32", "plain",
     "3039364654 94acc272b766ff99 210437 171004 0 1 26"},
    {"CRC32", "profile",
     "2468a9676fa0fc97 171004"},
    {"CRC32", "squeezed/hardware",
     "3039364654 94acc272b766ff99 219944 170978 0 1 26"},
    {"CRC32", "squeezed/force-first",
     "3039364654 94acc272b766ff99 228138 179170 1 1 26"},
    {"CRC32", "squeezed/random",
     "3039364654 94acc272b766ff99 228118 179150 1 1 26"},
    {"FFT", "plain",
     "4132252 723cb1d9189a330b 46097 38027 0 0 8"},
    {"FFT", "profile",
     "0faefe946196a097 38027"},
    {"FFT", "squeezed/hardware",
     "4132252 723cb1d9189a330b 59336 45963 0 0 8"},
    {"FFT", "squeezed/force-first",
     "4132252 723cb1d9189a330b 64025 50650 1 0 8"},
    {"FFT", "squeezed/random",
     "4132252 723cb1d9189a330b 64021 50646 1 0 8"},
    {"basicmath", "plain",
     "200843 b58dd07b31744ce5 134102 98581 0 767 1"},
    {"basicmath", "profile",
     "cde35bfd2bbf9a75 98581"},
    {"basicmath", "squeezed/hardware",
     "200843 b58dd07b31744ce5 157073 106043 0 767 1"},
    {"basicmath", "squeezed/force-first",
     "200843 b58dd07b31744ce5 157111 105569 256 767 1"},
    {"basicmath", "squeezed/random",
     "200843 b58dd07b31744ce5 157694 106222 221 767 1"},
    {"bitcount", "plain",
     "9707 7e7a7ce4dd156b15 500070 360654 0 3072 3"},
    {"bitcount", "profile",
     "65f4a3237a39f8eb 360654"},
    {"bitcount", "squeezed/hardware",
     "9707 7e7a7ce4dd156b15 669597 472761 0 3072 3"},
    {"bitcount", "squeezed/force-first",
     "9707 7e7a7ce4dd156b15 711090 508110 3072 3072 3"},
    {"bitcount", "squeezed/random",
     "9707 7e7a7ce4dd156b15 704684 503604 2122 3072 3"},
    {"blowfish", "plain",
     "1741491743 883cf8c115e21410 40519 35971 0 1024 1"},
    {"blowfish", "profile",
     "c214dcb9565de85e 35971"},
    {"blowfish", "squeezed/hardware",
     "1741491743 883cf8c115e21410 49289 41476 0 1024 1"},
    {"blowfish", "squeezed/force-first",
     "1741491743 883cf8c115e21410 55633 47818 1 1024 1"},
    {"blowfish", "squeezed/random",
     "1741491743 883cf8c115e21410 55604 47789 1 1024 1"},
    {"dijkstra", "plain",
     "2632 adf6cd714722b901 352002 253610 0 8 8"},
    {"dijkstra", "profile",
     "5defd6ea66c8d49d 253610"},
    {"dijkstra", "squeezed/hardware",
     "2632 adf6cd714722b901 391522 274823 0 8 8"},
    {"dijkstra", "squeezed/force-first",
     "2632 adf6cd714722b901 534577 417860 9 8 8"},
    {"dijkstra", "squeezed/random",
     "2632 adf6cd714722b901 534641 417924 9 8 8"},
    {"patricia", "plain",
     "232 998bef7b95037c32 144999 102129 0 768 2"},
    {"patricia", "profile",
     "0239310713eddb9f 102129"},
    {"patricia", "squeezed/hardware",
     "232 998bef7b95037c32 164451 108450 0 768 2"},
    {"patricia", "squeezed/force-first",
     "232 998bef7b95037c32 181593 124058 767 768 2"},
    {"patricia", "squeezed/random",
     "232 998bef7b95037c32 174506 117231 637 768 2"},
    {"qsort", "plain",
     "3294806379 6ee0fe30af9dae87 137013 99275 0 5544 1"},
    {"qsort", "profile",
     "dfa85e9d451f5449 99275"},
    {"qsort", "squeezed/hardware",
     "3294806379 6ee0fe30af9dae87 161178 104229 0 5544 1"},
    {"qsort", "squeezed/force-first",
     "3294806379 6ee0fe30af9dae87 161178 104229 0 5544 1"},
    {"qsort", "squeezed/random",
     "3294806379 6ee0fe30af9dae87 161178 104229 0 5544 1"},
    {"rijndael", "plain",
     "3034872350 ccc98cdca79343e1 627396 497582 0 1921 1"},
    {"rijndael", "profile",
     "336d66fd1fe6d2ee 497582"},
    {"rijndael", "squeezed/hardware",
     "3034872350 ccc98cdca79343e1 708654 498828 0 1921 1"},
    {"rijndael", "squeezed/force-first",
     "3034872350 ccc98cdca79343e1 873336 659666 1922 1921 1"},
    {"rijndael", "squeezed/random",
     "3034872350 ccc98cdca79343e1 853745 640079 1843 1921 1"},
    {"sha", "plain",
     "3337655609 5b5426db6f8e2749 404655 330530 0 14336 5"},
    {"sha", "profile",
     "f4c27b0013b6069e 330530"},
    {"sha", "squeezed/hardware",
     "3337655609 5b5426db6f8e2749 467195 357411 0 14336 5"},
    {"sha", "squeezed/force-first",
     "3337655609 5b5426db6f8e2749 507134 397348 1 14336 5"},
    {"sha", "squeezed/random",
     "3337655609 5b5426db6f8e2749 507114 397328 1 14336 5"},
    {"stringsearch", "plain",
     "5 444af65c1b1039a6 722433 434232 0 256 8"},
    {"stringsearch", "profile",
     "cda56cf9bfeb62f3 434232"},
    {"stringsearch", "squeezed/hardware",
     "5 444af65c1b1039a6 740908 375979 0 256 8"},
    {"stringsearch", "squeezed/force-first",
     "5 444af65c1b1039a6 861817 496374 257 256 8"},
    {"stringsearch", "squeezed/random",
     "5 444af65c1b1039a6 858132 492689 257 256 8"},
    {"susan-edges", "plain",
     "1623784201 1cbb6365672463dd 2832021 2154988 0 90001 2"},
    {"susan-edges", "profile",
     "61f45cd393be3c96 2154988"},
    {"susan-edges", "squeezed/hardware",
     "1623784201 1cbb6365672463dd 3336522 2334613 0 90001 2"},
    {"susan-edges", "squeezed/force-first",
     "1623784201 1cbb6365672463dd 4834584 3832671 2 90001 2"},
    {"susan-edges", "squeezed/random",
     "1623784201 1cbb6365672463dd 4834546 3832633 2 90001 2"},
    {"susan-corners", "plain",
     "0 88201fb960ff6465 2851403 2159694 0 90001 2"},
    {"susan-corners", "profile",
     "9c7414909fffe966 2159694"},
    {"susan-corners", "squeezed/hardware",
     "0 88201fb960ff6465 3371654 2351353 0 90001 2"},
    {"susan-corners", "squeezed/force-first",
     "0 88201fb960ff6465 4896370 3876065 2 90001 2"},
    {"susan-corners", "squeezed/random",
     "0 88201fb960ff6465 4896332 3876027 2 90001 2"},
    {"susan-smoothing", "plain",
     "4024353571 8856d315b313a5b8 1340741 1038297 0 34597 1"},
    {"susan-smoothing", "profile",
     "db1059184cbc3038 1038297"},
    {"susan-smoothing", "squeezed/hardware",
     "4024353571 8856d315b313a5b8 1552921 1111458 0 34597 1"},
    {"susan-smoothing", "squeezed/force-first",
     "4024353571 8856d315b313a5b8 2275565 1834098 2 34597 1"},
    {"susan-smoothing", "squeezed/random",
     "4024353571 8856d315b313a5b8 2275507 1834040 2 34597 1"},
};

const InterpPin *
findInterpPin(const std::string &workload, const std::string &run)
{
    for (const InterpPin &p : kInterpPins)
        if (workload == p.workload && run == p.run)
            return &p;
    return nullptr;
}

void
checkInterpPin(const std::string &workload, const std::string &run,
               const std::string &observed)
{
    const InterpPin *pin = findInterpPin(workload, run);
    if (pin && observed == pin->observed)
        return;
    ADD_FAILURE() << workload << "/" << run
                  << (pin ? " drifted" : " has no pin")
                  << "; observed row:\n    {\"" << workload << "\", \""
                  << run << "\",\n     \"" << observed << "\"},";
}

class EngineDiff : public ::testing::TestWithParam<std::string>
{};

TEST_P(EngineDiff, PlainModuleMatches)
{
    const Workload &w = getWorkload(GetParam());
    auto mod = compileSource(w.source);
    w.setInput(*mod, 0);
    checkInterpPin(w.name, "plain",
                   interpRun(*mod, MisspecPolicy::Hardware));
}

TEST_P(EngineDiff, ProfileCountsMatch)
{
    const Workload &w = getWorkload(GetParam());
    auto mod = compileSource(w.source);
    w.setInput(*mod, 0);
    BitwidthProfile profile;
    Interpreter in(*mod);
    profile.profileRun(in, "main");
    checkInterpPin(w.name, "profile", profileHash(*mod, profile));
}

TEST_P(EngineDiff, SqueezedModuleMatchesUnderAllPolicies)
{
    const Workload &w = getWorkload(GetParam());
    auto mod = compileSource(w.source);
    w.setInput(*mod, 0);
    BitwidthProfile profile;
    profile.profileRun(*mod, "main");
    squeezeModule(*mod, profile, SqueezeOptions{});
    for (MisspecPolicy policy : kPolicies)
        checkInterpPin(w.name,
                       std::string("squeezed/") +
                           misspecPolicyName(policy),
                       interpRun(*mod, policy));
}

std::string
testName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string name = info.param;
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(Mibench, CoreEngineDiff,
                         ::testing::ValuesIn(kWorkloads), testName);
INSTANTIATE_TEST_SUITE_P(Mibench, CorePolicyDiff,
                         ::testing::ValuesIn(kWorkloads), testName);
INSTANTIATE_TEST_SUITE_P(Mibench, EngineDiff,
                         ::testing::ValuesIn(kWorkloads), testName);

} // namespace
} // namespace bitspec
