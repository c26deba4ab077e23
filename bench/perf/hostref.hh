/**
 * @file
 * The host-speed reference: a fixed job whose host time tracks how fast
 * the shared host runs the simulator at a given moment.
 *
 * The host's speed drifts by tens of percent over minutes as other
 * tenants load its cores, caches and memory (README.md, Noise). A timed
 * run measures the reference right after every round, on as many
 * threads as the round used, and scales the round's timings to the
 * reference's nominal speed. The reference is benchmark code, so a
 * change to the simulator cannot move it.
 */

#ifndef SECMEM_PERF_HOSTREF_HH
#define SECMEM_PERF_HOSTREF_HH

#include <cstdint>
#include <vector>

namespace secmem::perf
{

/**
 * Each thread chases a random cycle through its own 512 KB table for a
 * fixed window; the result is host nanoseconds per dependent load.
 */
class HostReference
{
  public:
    /**
     * The median of measure() over 40 runs on 4 threads on the host
     * README.md describes. Only a scale: the normalised metrics of two
     * commits compare the same way whatever its value.
     */
    static constexpr double kNominalNsPerLoad = 6.0;

    explicit HostReference(unsigned threads);

    /** Run the chase on every thread now; mean ns per load. */
    double measure();

  private:
    /** One thread's table and where its chase stopped. */
    struct Lane
    {
        std::vector<std::uint32_t> next;
        std::uint32_t pos = 0;
    };

    std::vector<Lane> lanes_;
};

} // namespace secmem::perf

#endif // SECMEM_PERF_HOSTREF_HH
