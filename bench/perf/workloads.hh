/**
 * @file
 * The benchmark's workloads and the seeded job lists of their rounds.
 *
 * A workload is a fixed (profile x scheme) sweep chosen to load one set
 * of simulator layers and leave another idle (README.md says which).
 * A round is one batch of that sweep, and a timed run is a fixed number
 * of rounds. A round's generator seeds are a pure function of
 * (benchmark seed, round, profile), so every round is fresh work that no
 * result cache can serve, and a run is reproducible from its seed alone.
 */

#ifndef SECMEM_PERF_WORKLOADS_HH
#define SECMEM_PERF_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/job.hh"

namespace secmem::perf
{

/** One configuration of a workload's sweep, under its figure label. */
struct Scheme
{
    std::string label;
    SecureMemConfig config;
};

/** A generator profile and the cache hierarchy it runs on. */
struct Profile
{
    SpecProfile spec;
    SystemParams sys{};
};

struct Workload
{
    std::string name;
    /** Submission order: a round's jobs are profile-major. */
    std::vector<Profile> profiles;
    std::vector<Scheme> schemes;
    /**
     * Rounds of a timed run: fixed, so every commit simulates the same
     * jobs for a seed. Sized to about 20 s per run at the commit that
     * introduced the benchmark, on the host README.md describes.
     */
    unsigned rounds;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** Workload by name; nullptr when unknown. */
const Workload *findWorkload(const std::string &name);

/** Generator seed of @p profile in round @p round of a run seeded @p seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t round,
                      const std::string &profile);

/** The jobs of round @p round: every profile x every scheme. */
std::vector<exp::JobSpec> roundJobs(const Workload &w, std::uint64_t seed,
                                    std::uint64_t round, RunLengths lengths);

} // namespace secmem::perf

#endif // SECMEM_PERF_WORKLOADS_HH
