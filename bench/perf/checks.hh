/**
 * @file
 * Output checks for benchmark jobs: a flattener for the simulator's
 * stats JSON, the conservation laws every job must obey, and the digest
 * that pins a run's simulated results.
 */

#ifndef SECMEM_PERF_CHECKS_HH
#define SECMEM_PERF_CHECKS_HH

#include <cstdint>
#include <map>
#include <string>

#include "exp/job.hh"

namespace secmem::perf
{

/**
 * A JSON document flattened to dotted paths ("l2.misses",
 * "end_to_end.0.name"; array elements are indexed), each mapped to the
 * value's text exactly as written, so two dumps compare byte for byte.
 */
using FlatJson = std::map<std::string, std::string>;

/** Flatten @p json into @p out; false when it is malformed. */
bool flattenJson(const std::string &json, FlatJson *out);

/** Numeric value at @p path; false when absent or not a number. */
bool jsonNumber(const FlatJson &f, const std::string &path, double *value);

/**
 * Check @p out of job @p spec against the laws the simulator obeys:
 * loads + stores reach the L1, L1 misses reach the L2, L2 misses reach
 * the controller, every L2 write-back reaches the controller, IPC lies
 * in (0, width] and the measured window has the requested length.
 * Returns the first broken law, or an empty string when all hold.
 */
std::string checkJob(const exp::JobSpec &spec, const RunOutput &out);

/** 64-bit FNV-1a over a sequence of strings, as 16 hex digits. */
class Digest
{
  public:
    void add(const std::string &s);
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace secmem::perf

#endif // SECMEM_PERF_CHECKS_HH
