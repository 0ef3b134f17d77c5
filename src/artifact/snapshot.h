/**
 * @file
 * Versioned binary (de)serialization of a compiled System snapshot —
 * the value side of the on-disk artifact store (DESIGN.md "Artifact
 * store").
 *
 * A SystemSnapshot carries everything a warm-started System needs to
 * serve runs bit-identically to a fresh compile: the linked
 * MachProgram (including the per-function block metadata and
 * blockIndex that BlockMap reconstructs its flat-index partition and
 * region table from), the post-profiling global-data images
 * the run loop restores before every input, and the compile-time
 * stats (squeeze/lint, expander, backend, profiled IR steps) that
 * RunResult republishes. Per-block instruction lists are deliberately
 * omitted: they are consumed only by pre-layout passes, and every
 * post-layout consumer reads `code`/`flat` (tests/artifact's
 * differential guard enforces that this stays true).
 *
 * The encoding is explicit little-endian with no struct memcpy, so a
 * snapshot written by any build decodes on any other — *if* the
 * schema still matches. snapshotSchemaHash() folds the format version
 * with the sizeof of every serialized struct and the last enumerator
 * of every serialized enum; adding a field or an opcode changes the
 * hash, and the store treats the mismatch as a miss, so stale
 * artifact files self-invalidate instead of deserializing garbage.
 *
 * decodeSnapshot is fully bounds-checked and throws SnapshotError on
 * any malformed input; it never crashes or reads out of bounds. The
 * store maps that to "recompile and overwrite".
 */

#ifndef BITSPEC_ARTIFACT_SNAPSHOT_H_
#define BITSPEC_ARTIFACT_SNAPSHOT_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/mir.h"
#include "transform/expander.h"
#include "transform/squeezer.h"

namespace bitspec::artifact
{

/** Bump on any incompatible encoding change. Participates in
 *  snapshotSchemaHash(), so a bump alone invalidates old files. */
constexpr uint32_t kSnapshotFormatVersion = 1;

/** Malformed snapshot bytes (truncation, bad enum, bad sizes). */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &msg)
        : std::runtime_error("snapshot: " + msg)
    {}
};

/** Serializable image of one compiled System. */
struct SystemSnapshot
{
    /** One global's identity + post-profiling byte image. */
    struct GlobalImage
    {
        std::string name;
        uint32_t elemBits = 32;
        uint64_t elemCount = 0;
        uint32_t address = 0;
        std::vector<uint8_t> data;
    };

    /** Canonical ExperimentRunner::systemKey string of the compile
     *  this snapshot captures. The store compares it on load, so even
     *  a 128-bit key collision cannot serve the wrong System. */
    std::string key;

    MachProgram program;
    BackendStats backendStats;
    SqueezeStats squeezeStats;
    ExpandStats expandStats;
    uint64_t profiledIrSteps = 0;
    std::vector<GlobalImage> globals;
};

/**
 * Schema fingerprint baked from struct layouts (sizeof of every
 * serialized struct, last enumerator of every serialized enum) plus
 * kSnapshotFormatVersion. Identical across processes of the same
 * build; changes whenever the serialized surface changes shape.
 */
uint64_t snapshotSchemaHash();

/** Serialize @p snap (schema-hash prefixed, self-contained). */
std::vector<uint8_t> encodeSnapshot(const SystemSnapshot &snap);

/** Parse @p size bytes at @p data; throws SnapshotError on any
 *  malformed input, including a schema-hash mismatch. */
SystemSnapshot decodeSnapshot(const uint8_t *data, size_t size);

} // namespace bitspec::artifact

#endif // BITSPEC_ARTIFACT_SNAPSHOT_H_
