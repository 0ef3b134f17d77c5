#include "fuzz/program.h"

namespace bitspec
{

namespace
{

void
renderStmts(const std::vector<FuzzStmt> &stmts, unsigned indent,
            std::string &out)
{
    const std::string pad(indent * 2, ' ');
    for (const FuzzStmt &s : stmts) {
        switch (s.kind) {
          case FuzzStmt::Kind::Assign:
            out += pad + s.target + " = " + s.expr + ";\n";
            break;
          case FuzzStmt::Kind::MemStore:
            out += pad + "mem[(" + s.index + ") & 63] = (u8)(" +
                   s.expr + ");\n";
            break;
          case FuzzStmt::Kind::If:
            out += pad + "if (" + s.expr + ") {\n";
            renderStmts(s.body, indent + 1, out);
            if (!s.elseBody.empty()) {
                out += pad + "} else {\n";
                renderStmts(s.elseBody, indent + 1, out);
            }
            out += pad + "}\n";
            break;
          case FuzzStmt::Kind::Loop:
            out += pad + "for (u32 " + s.inductionVar + " = 0; " +
                   s.inductionVar + " < " + std::to_string(s.trip) +
                   "; " + s.inductionVar + "++) {\n";
            renderStmts(s.body, indent + 1, out);
            out += pad + "}\n";
            break;
          case FuzzStmt::Kind::Output:
            out += pad + "out(" + s.expr + ");\n";
            break;
        }
    }
}

unsigned
countStmts(const std::vector<FuzzStmt> &stmts)
{
    unsigned n = 0;
    for (const FuzzStmt &s : stmts)
        n += 1 + countStmts(s.body) + countStmts(s.elseBody);
    return n;
}

} // namespace

std::string
FuzzProgram::render() const
{
    // Deterministic in-program array image, so the only run-to-run
    // inputs are the in0/in1 globals the Workload writes.
    const std::string init_mem = "  for (u32 z = 0; z < 64; z++) mem[z] = "
                                 "(u8)(z * 37 + 11);\n";
    std::string out = "u8 mem[64];\nu32 in0;\nu32 in1;\n";
    out += helperCalls ? "u32 kernel() {\n" : "u32 main() {\n" + init_mem;
    for (const FuzzDecl &d : decls)
        out += "  " + d.type + " " + d.name + " = " + d.init + ";\n";
    renderStmts(stmts, 1, out);
    out += "  return " + ret + ";\n}\n";
    if (helperCalls) {
        out += "u32 main() {\n" + init_mem + "  u32 r = 0;\n";
        for (unsigned i = 0; i < helperCalls; ++i)
            out += "  r = r + kernel();\n";
        out += "  return r;\n}\n";
    }
    return out;
}

unsigned
FuzzProgram::stmtCount() const
{
    return countStmts(stmts);
}

} // namespace bitspec
