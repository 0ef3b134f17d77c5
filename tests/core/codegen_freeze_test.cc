/**
 * @file
 * Codegen freeze: for every workload under the five compile-heavy
 * configurations (baseline, BitSpec MAX/AVG/MIN, squeeze without
 * speculation) and the Thumb-like ISA, pin a 64-bit hash of the
 * linked instruction stream and every BackendStats and SqueezeStats
 * field, plus a 64-bit hash of the printed IR of the trained module
 * and of each of the five configurations' squeezed modules. Thumb is
 * the only user of the two-address rewrite and of the 4-register
 * allocator. Generated programs add one hash per shard and
 * configuration (baseline, bitspec-max, Thumb) over the linked code
 * and backend stats of every program in the shard.
 *
 * Compile-path optimisations (liveness, SSA repair, register
 * allocation data structures) must not change what is compiled; this
 * makes "bit-identical codegen" a unit-test fact. The IR hashes catch
 * a change to the squeezed IR that happens to leave the linked code
 * alone. One test per workload so `ctest -j` spreads the compiles
 * across cores.
 *
 * An intended codegen change updates the table: a failing test
 * prints the row it observed, ready to paste.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.h"
#include "fuzz/differential.h"
#include "fuzz/gen.h"
#include "ir/printer.h"
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

/** FNV-1a over the bytes of printModule(@p m). */
uint64_t
irHash(const Module &m)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : printModule(m)) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
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
    // Thumb rows: recorded before the linear backend (dense isel
    // tables, one-pass edge splitting, sparse allocator liveness, one
    // layout rewrite).
    {"CRC32", "thumb", 0x1cac1c1b07a21a5cULL,
     "106 117 110 90 977 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"FFT", "thumb", 0x8788d2272b1996f9ULL,
     "161 143 24 120 781 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"basicmath", "thumb", 0xbecdc29531f8f3d9ULL,
     "309 187 166 147 1473 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"bitcount", "thumb", 0xa56aabe9b1bc5584ULL,
     "365 262 115 224 1826 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"blowfish", "thumb", 0xf1f280ce63e98efcULL,
     "159 142 19 119 731 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"dijkstra", "thumb", 0x40b8e95dd0ec4b54ULL,
     "492 448 149 343 2878 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"patricia", "thumb", 0x77ec601e341f8710ULL,
     "157 140 75 112 1104 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"qsort", "thumb", 0x507e9a0e27dfa4f0ULL,
     "2188 1858 293 1431 11391 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"rijndael", "thumb", 0x5ee09dfe44032604ULL,
     "960 896 219 742 6150 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"sha", "thumb", 0x79c298ca4d723780ULL,
     "285 265 48 223 1680 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"stringsearch", "thumb", 0xa35fdc32ad994d71ULL,
     "558 458 96 374 2348 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"susan-edges", "thumb", 0xc8a60165e01ced58ULL,
     "143 130 76 112 1004 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"susan-corners", "thumb", 0x8704a01cc3e66767ULL,
     "250 218 126 179 1624 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
    {"susan-smoothing", "thumb", 0xe1b910eb0757c9f6ULL,
     "151 132 62 109 959 0", "0 0 0 0 0 0 0 0 0 0 0 0 0"},
};

/** The printed-IR hashes of one workload: its trained module and the
 *  squeezed module of each configuration, in configs() order. */
struct IrPin
{
    const char *workload;
    uint64_t trained;
    uint64_t systems[5];
};

// Recorded before the linear squeeze (batched SSA repair, one-sweep
// cleanups, sparse known-bits).
const IrPin kIrPins[] = {
    {"CRC32", 0xd049d8df1eea7cbULL,
     {0x50f031fb0540e114ULL, 0x66c4206b2f73e150ULL,
      0x1f9086fe4a506bbcULL, 0x12697d365d3aeb55ULL,
      0xb7efbdd46b0e38d2ULL}},
    {"FFT", 0xccb0e94dbf69706fULL,
     {0xe8fda059b0af1735ULL, 0xada53e0d874c1f7cULL,
      0xada53e0d874c1f7cULL, 0x563e26d15a39bf65ULL,
      0x2025234020288dabULL}},
    {"basicmath", 0x28887b4af98f8223ULL,
     {0x98e390e1bf96888fULL, 0x3f00e86a5d9f92a6ULL,
      0x1934243f7ee1411bULL, 0xca6ee6ba423dba56ULL,
      0x98e390e1bf96888fULL}},
    {"bitcount", 0x3a59a17fac779f01ULL,
     {0xa0221e53758e83edULL, 0x82f8e6967e28055eULL,
      0x5d00a6f69ce47f67ULL, 0x1837c7c89a9524b0ULL,
      0xa99b9e02b7c1bfadULL}},
    {"blowfish", 0x47a8135ccaf0c535ULL,
     {0x8d0bb20a904f4f07ULL, 0x801ca22a9315dc56ULL,
      0x801ca22a9315dc56ULL, 0x801ca22a9315dc56ULL,
      0xc64761791971023dULL}},
    {"dijkstra", 0x635c7df689f821bULL,
     {0xa42ded0f913e75edULL, 0x7da310b79add802bULL,
      0xd99531dfcc878e90ULL, 0x3fee3e3b8cc4eed9ULL,
      0xa42ded0f913e75edULL}},
    {"patricia", 0xd769553682b29cd4ULL,
     {0xc7a83a5f5c1a1720ULL, 0xf4c99b805dd4bfb0ULL,
      0x71f5ef4ad141d8f9ULL, 0xb2293529d600c206ULL,
      0x14753b982879c5b3ULL}},
    {"qsort", 0xab7f0c5a233f7f36ULL,
     {0x4d49f1b0533aaac4ULL, 0x2607830b4bf53ae5ULL,
      0xa05fa71a9e5b8df2ULL, 0xe4afadf3143333afULL,
      0xa0ec55c3bbf4babdULL}},
    {"rijndael", 0x44801b17a6fd05a9ULL,
     {0xff78de2f839f1528ULL, 0x1b3b36915de0b644ULL,
      0x1a0286dfed177440ULL, 0xc681ea51735013d8ULL,
      0x4a35e4d846e9eb64ULL}},
    {"sha", 0xea767edc8dc29f4cULL,
     {0xea767edc8dc29f4cULL, 0xe49a8d46377c9758ULL,
      0xe49a8d46377c9758ULL, 0xc7391772bab44824ULL,
      0x2f274106c1da29d0ULL}},
    {"stringsearch", 0x5af71e165c55f2c5ULL,
     {0xc04efb0f9cbbc5efULL, 0x1963b4af4da32363ULL,
      0x5f32ff6b06f89137ULL, 0x383e15fc9a44c8a5ULL,
      0x514d10f77aa4087fULL}},
    {"susan-edges", 0xba5d6404f030ae49ULL,
     {0x8c93cbf6e6d9983aULL, 0x3bef24cdb45b4c88ULL,
      0x690a1106c800f65eULL, 0xf2cc305c907dd7c0ULL,
      0xc3ba5f450ecc837cULL}},
    {"susan-corners", 0x8f891577d1043b4aULL,
     {0x20c4b878affd5053ULL, 0xf30a142c146ea9acULL,
      0x97ccf1622dd68734ULL, 0xba953a5c3362468aULL,
      0x12f2c2e2e859c48bULL}},
    {"susan-smoothing", 0x2cc3fca3793a9fcdULL,
     {0xe2a3b7b73dda4d0dULL, 0x76ec3b78a52edabeULL,
      0x12ce54e064209432ULL, 0x2745c70d86196f34ULL,
      0x70df229da822b37ULL}},
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

/** The baseline compile for the Thumb-like ISA (paper RQ9). */
SystemConfig
thumbConfig()
{
    SystemConfig c = SystemConfig::baseline();
    c.isa = TargetISA::Thumb;
    return c;
}

const Pin *
findPin(const std::string &workload, const std::string &config)
{
    for (const Pin &p : kPins)
        if (workload == p.workload && config == p.config)
            return &p;
    return nullptr;
}

const IrPin *
findIrPin(const std::string &workload)
{
    for (const IrPin &p : kIrPins)
        if (workload == p.workload)
            return &p;
    return nullptr;
}

class CodegenFreeze : public ::testing::TestWithParam<std::string>
{};

/** Compare @p sys's linked-code hash and stats with the pinned row
 *  of (@p workload, @p config); print the observed row if they
 *  differ. */
void
expectPinned(const std::string &workload, const char *config,
             const System &sys)
{
    const uint64_t hash = flatHash(sys.program());
    const std::string backend = describe(sys.backendStats());
    const std::string squeeze = describe(sys.squeezeStats());

    const Pin *pin = findPin(workload, config);
    if (pin && pin->flatHash == hash && pin->backend == backend &&
        pin->squeeze == squeeze)
        return;
    ADD_FAILURE() << workload << "/" << config
                  << (pin ? " drifted" : " has no pin")
                  << "; observed row:\n    {\"" << workload << "\", \""
                  << config << "\", 0x" << std::hex << hash << std::dec
                  << "ULL,\n     \"" << backend << "\", \"" << squeeze
                  << "\"},";
    if (pin) {
        EXPECT_EQ(pin->flatHash, hash) << config;
        EXPECT_EQ(pin->backend, backend) << config;
        EXPECT_EQ(pin->squeeze, squeeze) << config;
    }
}

TEST_P(CodegenFreeze, MatchesPinnedCodegen)
{
    const Workload &w = getWorkload(GetParam());
    // The five configurations and Thumb share the default expander,
    // so one training serves them all, as in the experiment runner.
    const TrainedModule trained(w.source, ExpanderOptions{},
                                [&w](Module &m) { w.setInput(m, 0); });
    IrPin ir{w.name.c_str(), irHash(trained.module()), {}};
    const std::vector<NamedConfig> named = configs();
    for (size_t c = 0; c < named.size(); ++c) {
        const NamedConfig &nc = named[c];
        System sys(trained, nc.config);
        ir.systems[c] = irHash(sys.module());
        expectPinned(w.name, nc.name, sys);
    }
    expectPinned(w.name, "thumb", System(trained, thumbConfig()));

    const IrPin *pin = findIrPin(w.name);
    bool same = pin && pin->trained == ir.trained;
    for (size_t c = 0; same && c < named.size(); ++c)
        same = pin->systems[c] == ir.systems[c];
    if (same)
        return;
    std::ostringstream row;
    row << std::hex << "    {\"" << w.name << "\", 0x" << ir.trained
        << "ULL,\n     {";
    for (size_t c = 0; c < named.size(); ++c)
        row << (c ? (c % 2 ? ", " : ",\n      ") : "") << "0x"
            << ir.systems[c] << "ULL";
    row << "}},";
    ADD_FAILURE() << w.name << (pin ? " IR drifted" : " has no IR pin")
                  << "; observed row:\n" << row.str();
    if (pin) {
        EXPECT_EQ(pin->trained, ir.trained) << "trained module";
        for (size_t c = 0; c < named.size(); ++c)
            EXPECT_EQ(pin->systems[c], ir.systems[c]) << named[c].name;
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

// ---------------------------------------------------------------------
// Generated programs: 100 seeds in four shards of 25.
// ---------------------------------------------------------------------

constexpr unsigned kFuzzShardSeeds = 25;

/** One shard's hashes, one per configuration in fuzzConfigs() order:
 *  every program's linked-code hash and BackendStats fields, mixed in
 *  seed order. */
struct FuzzPin
{
    unsigned shard;
    uint64_t hashes[3];
};

// Recorded before the linear backend (dense isel tables, one-pass edge
// splitting, sparse allocator liveness, one layout rewrite).
const FuzzPin kFuzzPins[] = {
    {0, {0xcffa5083c776547ULL, 0xf6ac659abd22ebbfULL,
         0x51b181cb6e60472aULL}},
    {1, {0x484b63a28c9c802dULL, 0xc6e8d171fa809e7aULL,
         0xa50d1b7e128a36a1ULL}},
    {2, {0x8e4954d9d061cbdeULL, 0x670e45ec4c4b70f0ULL,
         0x28c2d3ab0c137bdeULL}},
    {3, {0xd0e9e979fe45829dULL, 0xfc449c7956543658ULL,
         0xdc810ea84d6bcbd2ULL}},
};

std::vector<NamedConfig>
fuzzConfigs()
{
    return {
        {"baseline", SystemConfig::baseline()},
        {"bitspec-max", SystemConfig::bitspec(Heuristic::Max)},
        {"thumb", thumbConfig()},
    };
}

uint64_t
mixStats(uint64_t h, const BackendStats &s)
{
    for (unsigned v : {s.staticSpillLoads, s.staticSpillStores,
                       s.staticCopies, s.spilledVRegs, s.staticInsts,
                       s.skeletonInsts})
        h = mix(h, v);
    return h;
}

class CodegenFuzzFreeze : public ::testing::TestWithParam<unsigned>
{};

TEST_P(CodegenFuzzFreeze, MatchesPinnedCodegen)
{
    const unsigned shard = GetParam();
    const std::vector<NamedConfig> named = fuzzConfigs();
    FuzzPin got{shard, {}};
    for (uint64_t &h : got.hashes)
        h = 0xcbf29ce484222325ULL;
    for (uint64_t seed = shard * kFuzzShardSeeds;
         seed < (shard + 1) * kFuzzShardSeeds; ++seed) {
        const Workload w = makeFuzzWorkload(generateProgram(seed));
        const TrainedModule trained(
            w.source, ExpanderOptions{},
            [&w](Module &m) { w.setInput(m, 0); });
        for (size_t c = 0; c < named.size(); ++c) {
            const System sys(trained, named[c].config);
            got.hashes[c] = mix(got.hashes[c], flatHash(sys.program()));
            got.hashes[c] = mixStats(got.hashes[c], sys.backendStats());
        }
    }

    const FuzzPin *pin = nullptr;
    for (const FuzzPin &p : kFuzzPins)
        if (p.shard == shard)
            pin = &p;
    bool same = pin != nullptr;
    for (size_t c = 0; same && c < named.size(); ++c)
        same = pin->hashes[c] == got.hashes[c];
    if (same)
        return;
    std::ostringstream row;
    row << "    {" << shard << std::hex << ", {0x" << got.hashes[0]
        << "ULL, 0x" << got.hashes[1] << "ULL,\n         0x"
        << got.hashes[2] << "ULL}},";
    ADD_FAILURE() << "fuzz shard " << shard
                  << (pin ? " drifted" : " has no pin")
                  << "; observed row:\n" << row.str();
    if (pin) {
        for (size_t c = 0; c < named.size(); ++c)
            EXPECT_EQ(pin->hashes[c], got.hashes[c]) << named[c].name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodegenFuzzFreeze,
                         ::testing::Values(0u, 1u, 2u, 3u));

} // namespace
} // namespace bitspec
