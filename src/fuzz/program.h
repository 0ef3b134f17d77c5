/**
 * @file
 * Structured random-program model for the misspeculation fuzzer.
 *
 * Programs are held as a statement tree, not as source text, so the
 * shrinker (shrink.h) can delete statements, unwrap control flow and
 * simplify expressions structurally and re-render after every probe.
 * render() emits the BitSpec C subset accepted by frontend/irgen.h.
 *
 * Every program reads its input from the `in0`/`in1` globals (written
 * by the fuzz Workload's setInput, like the MiBench kernels) and
 * self-initialises its `mem` byte array in-program, so one source
 * string is a complete, reproducible repro. The body (declarations,
 * statements, return) is main's own, or a helper `kernel` that main
 * calls helperCalls times, summing the results.
 */

#ifndef BITSPEC_FUZZ_PROGRAM_H_
#define BITSPEC_FUZZ_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bitspec
{

/** One statement of a generated program. */
struct FuzzStmt
{
    enum class Kind
    {
        Assign,   ///< target = expr;
        MemStore, ///< mem[(index) & 63] = (u8)(expr);
        If,       ///< if (expr) { body } else { elseBody }
        Loop,     ///< for (inductionVar = 0; < trip; ++) { body }
        Output,   ///< out(expr);
    };

    Kind kind = Kind::Assign;
    std::string target;       ///< Assign destination variable.
    std::string expr;         ///< RHS / store value / condition / out.
    std::string index;        ///< MemStore index expression.
    std::string inductionVar; ///< Loop counter name.
    unsigned trip = 0;        ///< Loop bound.
    std::vector<FuzzStmt> body;     ///< If-then / loop body.
    std::vector<FuzzStmt> elseBody; ///< If-else arm.
};

/** A local variable declaration (program prologue). */
struct FuzzDecl
{
    std::string type; ///< u8 / u16 / u32.
    std::string name;
    std::string init;
};

/** A complete generated program. */
struct FuzzProgram
{
    uint64_t seed = 0; ///< Generator seed (reproduction handle).
    std::vector<FuzzDecl> decls;
    std::vector<FuzzStmt> stmts;
    std::string ret = "0"; ///< Return expression.
    /** Calls main makes to the body as a helper; 0 renders the body
     *  in main itself. */
    unsigned helperCalls = 0;

    /** Emit the C-subset source. */
    std::string render() const;

    /** Total statements, counted recursively (shrink metric). */
    unsigned stmtCount() const;
};

} // namespace bitspec

#endif // BITSPEC_FUZZ_PROGRAM_H_
