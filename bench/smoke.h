/**
 * @file
 * `bitspec-paper smoke [BENCH.json]` (see smoke.cc).
 */

#ifndef BITSPEC_BENCH_SMOKE_H_
#define BITSPEC_BENCH_SMOKE_H_

#include <string>

namespace bitspec
{

/**
 * Run the experiment-engine smoke and the telemetry overhead gates;
 * with @p bench_json non-empty, splice their run-ledger record into
 * that google-benchmark JSON file as its `smoke` member. Returns the
 * exit status: 0 when every result is bit-identical and both gates
 * hold, else 1.
 */
int runSmoke(const std::string &bench_json);

} // namespace bitspec

#endif // BITSPEC_BENCH_SMOKE_H_
