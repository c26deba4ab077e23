/**
 * @file
 * The traced run: per-layer host costs measured from outside the
 * simulator, by timing calls into each layer's public functions.
 *
 * Each job of a round runs twice, serially: once untraced through
 * exp::runJob, and once assembled by hand from the same parts runJob
 * uses (SecureSystem, SpecWorkload, OooCore) with a pass-through
 * MemorySystem in front of SecureSystem. The wrapper counts every
 * access / accessRun / advanceTo call, times one call in 16 (mem and
 * sim layers) and logs each L2 miss it sees. The traced job must
 * reproduce the untraced one exactly; a mismatch is a failure.
 *
 * Three layers are then timed by replaying the job's own inputs:
 *
 *   - workload: the job's op stream is generated again by a twin
 *     SpecWorkload in 4096-op nextRun calls. The core is not given a
 *     wrapped generator because OooCore only devirtualizes SpecWorkload
 *     itself; any other generator moves it to its generic loop, which
 *     measured 10-26% slower and would distort every other layer;
 *   - core: the logged miss stream goes into a fresh controller's
 *     readBlock;
 *   - crypto: the primitives the controller calls, on the active
 *     backend.
 *
 * The clock's own cost is calibrated in the same process and taken out
 * of every layer's time.
 */

#ifndef SECMEM_PERF_TRACED_HH
#define SECMEM_PERF_TRACED_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/job.hh"

namespace secmem::perf
{

struct TraceReport
{
    /** Per-layer metrics, keyed by their BENCHMARK.json names. */
    std::map<std::string, double> metrics;
    std::uint64_t attempted = 0;
    /** Jobs whose traced result differed from runJob's or broke a law. */
    std::uint64_t failed = 0;
    /** Each layer's share of the traced core-run time, as text. */
    std::string shares;
    /** Every span of the round, as a JSON document. */
    std::string spansJson;
};

/** Trace every job of @p specs (one round of @p workload), serially. */
TraceReport traceRound(const std::string &workload,
                       const std::vector<exp::JobSpec> &specs);

} // namespace secmem::perf

#endif // SECMEM_PERF_TRACED_HH
