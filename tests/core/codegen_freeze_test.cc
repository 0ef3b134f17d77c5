/**
 * @file
 * Codegen freeze: for every workload under the five compile-heavy
 * configurations (baseline, BitSpec MAX/AVG/MIN, squeeze without
 * speculation), pin a 64-bit hash of the linked instruction stream
 * and every BackendStats and SqueezeStats field.
 *
 * Compile-path optimisations (liveness, SSA repair, register
 * allocation data structures) must not change what is compiled; this
 * makes "bit-identical codegen" a unit-test fact. One test per
 * workload so `ctest -j` spreads the compiles across cores.
 *
 * An intended codegen change updates the table: a failing test
 * prints the row it observed, ready to paste.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "artifact/snapshot.h"
#include "core/system.h"
#include "support/str.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

// Adding a stats field must extend describe() below (and re-pin).
static_assert(sizeof(BackendStats) == 6 * sizeof(unsigned),
              "BackendStats changed: extend describe()");
static_assert(sizeof(SqueezeStats) == 13 * sizeof(unsigned),
              "SqueezeStats changed: extend describe()");

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

uint64_t
mixOpnd(uint64_t h, const MOpnd &o)
{
    h = mix(h, static_cast<uint64_t>(o.kind));
    h = mix(h, o.reg);
    h = mix(h, o.slice);
    h = mix(h, static_cast<uint64_t>(o.imm));
    h = mix(h, o.vreg);
    return mix(h, o.vregIsSlice);
}

/** Hash of every field of every linked instruction, in order. */
uint64_t
flatHash(const MachProgram &p)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    h = mix(h, p.flat.size());
    for (const MachInst &inst : p.flat) {
        h = mix(h, static_cast<uint64_t>(inst.op));
        h = mix(h, static_cast<uint64_t>(inst.cond));
        h = mixOpnd(h, inst.dst);
        h = mixOpnd(h, inst.a);
        h = mixOpnd(h, inst.b);
        h = mix(h, inst.speculative);
        h = mix(h, inst.origBits);
        h = mix(h, static_cast<uint64_t>(inst.tag));
        h = mix(h, static_cast<uint64_t>(inst.target));
    }
    return h;
}

/** Every BackendStats field in declaration order: spill loads,
 *  spill stores, copies, spilled vregs, static insts, skeleton
 *  insts. */
std::string
describe(const BackendStats &s)
{
    return strFormat("%u %u %u %u %u %u", s.staticSpillLoads,
                     s.staticSpillStores, s.staticCopies,
                     s.spilledVRegs, s.staticInsts, s.skeletonInsts);
}

/** Every SqueezeStats field in declaration order: narrowed, regions,
 *  spec truncs, compares eliminated, bitmasks elided, static
 *  narrowed, checks dropped, regions elided, lint proven-safe /
 *  proven-unsafe / speculative, spec leaks, leaks discharged. */
std::string
describe(const SqueezeStats &s)
{
    return strFormat("%u %u %u %u %u %u %u %u %u %u %u %u %u",
                     s.narrowed, s.regions, s.specTruncs,
                     s.comparesEliminated, s.bitmasksElided,
                     s.staticNarrowed, s.checksDropped,
                     s.regionsElided, s.lintProvenSafe,
                     s.lintProvenUnsafe, s.lintSpeculative,
                     s.lintSpecLeaks, s.lintLeaksDischarged);
}

struct Pin
{
    const char *workload;
    const char *config;
    uint64_t flatHash;
    const char *backend;
    const char *squeeze;
};

// Recorded before the dense-id liveness / slot-conflict rewrite of
// the squeezer and the slice allocator.
const Pin kPins[] = {
    {"CRC32", "baseline", 0x721d43e5a2941c0eULL,
     "0 0 110 0 614 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"CRC32", "bitspec-max", 0xf3cd1355d57084a3ULL,
     "0 0 214 0 1161 8", "21 9 2 0 4 8 8 7 8 0 2 0 0"},
    {"CRC32", "bitspec-avg", 0xfe9aeb025f3b3010ULL,
     "0 0 226 0 1208 32", "29 14 2 1 4 8 11 10 11 0 4 0 0"},
    {"CRC32", "bitspec-min", 0xee2b6b62631a3d0cULL,
     "0 0 304 0 1450 129", "44 22 9 1 4 8 11 7 11 0 16 0 0"},
    {"CRC32", "no-spec", 0xe492aefc8bd0bfc7ULL,
     "0 0 102 0 662 0", "36 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"FFT", "baseline", 0x2619225e8794ef27ULL,
     "42 41 24 33 431 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"FFT", "bitspec-max", 0x4f204074642b5ed1ULL,
     "64 62 120 50 1114 153", "32 16 10 0 0 0 11 6 11 0 16 0 0"},
    {"FFT", "bitspec-avg", 0x4f204074642b5ed1ULL,
     "64 62 120 50 1114 153", "32 16 10 0 0 0 11 6 11 0 16 0 0"},
    {"FFT", "bitspec-min", 0x330d48290ea1907cULL,
     "85 69 176 53 1332 238", "40 21 26 0 0 0 19 6 19 0 32 0 0"},
    {"FFT", "no-spec", 0x751b610494ec309aULL,
     "42 41 24 33 439 0", "4 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"basicmath", "baseline", 0xd4329919fc8cc3cfULL,
     "16 10 166 10 783 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"basicmath", "bitspec-max", 0x763061042beae7e5ULL,
     "107 51 424 31 1686 105", "10 10 9 2 0 0 9 1 9 0 10 0 0"},
    {"basicmath", "bitspec-avg", 0x7407cdaf3e85baccULL,
     "99 46 446 28 1749 121", "18 13 13 4 0 0 13 1 13 0 17 0 0"},
    {"basicmath", "bitspec-min", 0x26c2d660da2a10f2ULL,
     "115 63 560 38 1983 165", "27 19 23 6 0 0 13 1 13 0 35 0 0"},
    {"basicmath", "no-spec", 0xd4329919fc8cc3cfULL,
     "16 10 166 10 783 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"bitcount", "baseline", 0x1d9c0ab2fa085df0ULL,
     "64 44 115 44 848 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"bitcount", "bitspec-max", 0x6c786af3cc930038ULL,
     "250 174 655 106 2588 202", "91 56 1 0 0 30 30 30 30 0 27 0 0"},
    {"bitcount", "bitspec-avg", 0xf039361dbd5b3649ULL,
     "251 176 655 107 2595 204", "102 56 12 0 0 30 30 30 30 0 38 0 0"},
    {"bitcount", "bitspec-min", 0x21047b4127e66a51ULL,
     "191 217 841 95 3015 250", "135 60 26 1 0 30 30 23 30 0 63 0 0"},
    {"bitcount", "no-spec", 0x7b84dfa070aee809ULL,
     "71 54 95 54 945 0", "60 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"blowfish", "baseline", 0xcb41c127076f402eULL,
     "32 32 19 32 373 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"blowfish", "bitspec-max", 0x28587bb747be1aa6ULL,
     "60 60 65 60 795 41", "29 7 2 0 20 0 5 3 5 0 4 0 1"},
    {"blowfish", "bitspec-avg", 0x28587bb747be1aa6ULL,
     "60 60 65 60 795 41", "29 7 2 0 20 0 5 3 5 0 4 0 1"},
    {"blowfish", "bitspec-min", 0x28587bb747be1aa6ULL,
     "60 60 65 60 795 41", "29 7 2 0 20 0 5 3 5 0 4 0 1"},
    {"blowfish", "no-spec", 0x39929f3a04f643f3ULL,
     "29 25 19 25 423 0", "20 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"dijkstra", "baseline", 0x2f90b5bbfed570bcULL,
     "29 30 149 25 1403 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"dijkstra", "bitspec-max", 0xc01ad7d1c0d2ab53ULL,
     "50 59 469 40 2805 150", "66 38 8 0 0 16 24 24 24 0 22 0 0"},
    {"dijkstra", "bitspec-avg", 0xa8aceb0429180ae3ULL,
     "54 60 533 43 2939 186", "75 42 12 0 0 16 24 24 24 0 30 0 0"},
    {"dijkstra", "bitspec-min", 0x567c34bd9081c33dULL,
     "65 75 573 49 3092 234", "79 46 16 0 0 16 24 24 24 0 38 0 0"},
    {"dijkstra", "no-spec", 0x8a112a8299b5d944ULL,
     "29 30 133 25 1403 0", "16 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"patricia", "baseline", 0x9feff9b98f13b728ULL,
     "0 0 75 0 707 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"patricia", "bitspec-max", 0x508324c3f0c00ebcULL,
     "21 8 317 5 1493 68", "30 14 0 0 0 9 0 0 0 0 14 0 0"},
    {"patricia", "bitspec-avg", 0x512e4e09bbead861ULL,
     "15 6 327 4 1533 86", "38 16 6 1 0 9 0 0 0 0 22 0 0"},
    {"patricia", "bitspec-min", 0xd5ad47f145279ab5ULL,
     "7 10 331 5 1556 90", "43 20 6 5 0 9 3 3 3 0 23 0 0"},
    {"patricia", "no-spec", 0x19e844fb03ab6ea9ULL,
     "0 0 75 0 726 0", "16 0 0 0 0 4 0 0 0 0 0 0 0"},
    {"qsort", "baseline", 0x89a33ef893c7259aULL,
     "814 772 293 586 5894 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"qsort", "bitspec-max", 0xe9d855da98e459aULL,
     "1513 1454 1773 1011 13202 427", "142 51 5 1 0 57 6 6 6 0 50 0 0"},
    {"qsort", "bitspec-avg", 0x470a217cc9d63a0bULL,
     "1459 1376 1883 958 13326 447", "158 61 7 2 0 57 10 9 10 0 58 0 0"},
    {"qsort", "bitspec-min", 0xb6254914b9fafebcULL,
     "1649 1573 2293 1092 14920 614", "196 90 14 9 0 57 15 15 15 0 89 0 0"},
    {"qsort", "no-spec", 0x9d7fb5a88ee03c13ULL,
     "820 778 293 592 5975 0", "57 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"rijndael", "baseline", 0x2ba4d6488af049c8ULL,
     "99 94 219 82 2634 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"rijndael", "bitspec-max", 0x5b45ce588ae35eb0ULL,
     "90 63 495 52 5383 392", "329 102 15 2 0 208 78 68 78 0 43 1 0"},
    {"rijndael", "bitspec-avg", 0x35d67aa26800e443ULL,
     "100 59 493 50 5385 390", "333 103 13 4 0 208 79 70 79 0 42 1 0"},
    {"rijndael", "bitspec-min", 0xefb69aa7b8c55077ULL,
     "106 49 557 40 5593 480", "341 111 21 4 0 208 79 70 79 0 58 1 0"},
    {"rijndael", "no-spec", 0xa2df578ab040e8d8ULL,
     "30 30 71 22 2395 0", "220 0 0 0 0 12 0 0 0 0 0 0 0"},
    {"sha", "baseline", 0xb4f72df3fd1f22e5ULL,
     "28 34 48 26 716 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"sha", "bitspec-max", 0xf61b0f96e8c8f142ULL,
     "56 70 114 53 1644 149", "52 14 0 0 0 22 7 6 7 0 19 0 0"},
    {"sha", "bitspec-avg", 0xf61b0f96e8c8f142ULL,
     "56 70 114 53 1644 149", "52 14 0 0 0 22 7 6 7 0 19 0 0"},
    {"sha", "bitspec-min", 0xdb5172d9b713eaa7ULL,
     "56 70 142 53 1885 317", "68 18 8 0 0 22 19 6 19 0 31 0 0"},
    {"sha", "no-spec", 0x9bf37f8437e816f4ULL,
     "28 34 32 26 723 0", "22 0 0 0 0 6 0 0 0 0 0 0 0"},
    {"stringsearch", "baseline", 0x265e125a6d0bd865ULL,
     "269 264 96 212 1408 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"stringsearch", "bitspec-max", 0xf171c482e2f6b952ULL,
     "431 380 720 258 3491 418", "96 41 9 14 0 32 20 19 20 0 42 0 0"},
    {"stringsearch", "bitspec-avg", 0x1f646a80099b200bULL,
     "386 404 624 281 3447 428", "99 43 8 16 0 32 21 21 21 0 42 0 0"},
    {"stringsearch", "bitspec-min", 0xc988113e052e4b12ULL,
     "308 321 624 213 2910 209", "114 43 13 16 0 32 21 21 21 0 62 1 0"},
    {"stringsearch", "no-spec", 0xd5b6132bee8bb2cdULL,
     "272 248 64 204 1349 0", "48 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"susan-edges", "baseline", 0x6d54264aab55f86eULL,
     "21 21 76 21 615 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"susan-edges", "bitspec-max", 0x5362e3523c14bc21ULL,
     "59 66 395 40 1693 146", "62 25 5 2 0 17 5 4 5 0 37 0 0"},
    {"susan-edges", "bitspec-avg", 0x87950084ee3cecb9ULL,
     "65 71 395 43 1710 145", "65 27 4 4 0 17 6 6 6 0 37 0 0"},
    {"susan-edges", "bitspec-min", 0xf5e60b10bdd3dd02ULL,
     "68 88 491 56 2034 262", "88 41 14 8 0 17 9 9 9 0 62 0 1"},
    {"susan-edges", "no-spec", 0xaea917dea5eedac6ULL,
     "21 21 59 21 615 0", "26 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"susan-corners", "baseline", 0x68af329681cd7a4bULL,
     "15 15 126 15 848 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"susan-corners", "bitspec-max", 0x4340960d7455c9feULL,
     "72 82 531 56 2336 173", "88 34 9 2 0 29 8 7 8 0 47 0 0"},
    {"susan-corners", "bitspec-avg", 0x3b52e1c37d5cbe26ULL,
     "81 86 531 59 2355 172", "91 36 8 4 0 29 9 9 9 0 47 0 0"},
    {"susan-corners", "bitspec-min", 0xde7d5a2295acbe7aULL,
     "84 98 629 66 2660 273", "108 46 18 4 0 29 9 9 9 0 71 0 1"},
    {"susan-corners", "no-spec", 0x5bdc8070c0f9f4c4ULL,
     "15 15 97 15 848 0", "38 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"susan-smoothing", "baseline", 0x317a977feda742edULL,
     "42 30 62 28 593 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"susan-smoothing", "bitspec-max", 0xa8c1d7963048b9dfULL,
     "181 172 357 124 1818 169", "49 21 7 2 0 13 5 3 5 0 32 0 0"},
    {"susan-smoothing", "bitspec-avg", 0x28740d24269bd117ULL,
     "175 168 357 122 1796 156", "52 23 6 4 0 13 6 5 6 0 32 0 0"},
    {"susan-smoothing", "bitspec-min", 0xd17ddd3bd946bde0ULL,
     "181 181 443 121 2127 289", "73 36 20 8 0 13 9 8 9 0 62 0 1"},
    {"susan-smoothing", "no-spec", 0x8f163f57bcb7d94aULL,
     "42 30 49 28 593 0", "21 0 0 0 0 0 0 0 0 0 0 0 0"},
};

struct NamedConfig
{
    const char *name;
    SystemConfig config;
};

std::vector<NamedConfig>
configs()
{
    return {
        {"baseline", SystemConfig::baseline()},
        {"bitspec-max", SystemConfig::bitspec(Heuristic::Max)},
        {"bitspec-avg", SystemConfig::bitspec(Heuristic::Avg)},
        {"bitspec-min", SystemConfig::bitspec(Heuristic::Min)},
        {"no-spec", SystemConfig::noSpeculation()},
    };
}

const Pin *
findPin(const std::string &workload, const std::string &config)
{
    for (const Pin &p : kPins)
        if (workload == p.workload && config == p.config)
            return &p;
    return nullptr;
}

class CodegenFreeze : public ::testing::TestWithParam<std::string>
{};

TEST_P(CodegenFreeze, MatchesPinnedCodegen)
{
    const Workload &w = getWorkload(GetParam());
    for (const NamedConfig &nc : configs()) {
        System sys(w.source, nc.config,
                   [&w](Module &m) { w.setInput(m, 0); });
        const uint64_t hash = flatHash(sys.program());
        // The snapshot carries the backend stats the System keeps.
        const std::string backend =
            describe(sys.makeSnapshot("").backendStats);
        const std::string squeeze = describe(sys.squeezeStats());

        const Pin *pin = findPin(w.name, nc.name);
        if (pin && pin->flatHash == hash && pin->backend == backend &&
            pin->squeeze == squeeze)
            continue;
        ADD_FAILURE() << w.name << "/" << nc.name
                      << (pin ? " drifted" : " has no pin")
                      << "; observed row:\n    {\"" << w.name
                      << "\", \"" << nc.name << "\", 0x" << std::hex
                      << hash << std::dec << "ULL,\n     \"" << backend
                      << "\", \"" << squeeze << "\"},";
        if (pin) {
            EXPECT_EQ(pin->flatHash, hash) << nc.name;
            EXPECT_EQ(pin->backend, backend) << nc.name;
            EXPECT_EQ(pin->squeeze, squeeze) << nc.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mibench, CodegenFreeze,
    ::testing::Values("CRC32", "FFT", "basicmath", "bitcount",
                      "blowfish", "dijkstra", "patricia", "qsort",
                      "rijndael", "sha", "stringsearch", "susan-edges",
                      "susan-corners", "susan-smoothing"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace bitspec
