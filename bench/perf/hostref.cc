#include "hostref.hh"

#include <chrono>
#include <numeric>
#include <stop_token>
#include <thread>
#include <utility>

namespace secmem::perf
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * 512 KB per thread: held in the core's own L2 unless something else on
 * the core evicts it. Of the tables tried (256 KB to 16 MB per thread,
 * and a mix with arithmetic), this one tracked the simulator best
 * (README.md, Noise).
 */
constexpr std::size_t kTableEntries = 1u << 17;
/** Loads between two looks at the stop flag. */
constexpr unsigned kBatch = 2000;
constexpr auto kWindow = std::chrono::milliseconds(20);

} // namespace

HostReference::HostReference(unsigned threads) : lanes_(threads)
{
    std::uint64_t rng = 0x243f6a8885a308d3ull;
    for (Lane &l : lanes_) {
        // Sattolo's shuffle: next[] is one cycle through every entry, so
        // the chase visits the whole table before it repeats.
        l.next.resize(kTableEntries);
        std::iota(l.next.begin(), l.next.end(), 0u);
        for (std::size_t i = kTableEntries - 1; i > 0; --i) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            std::swap(l.next[i], l.next[rng % i]);
        }
    }
}

double
HostReference::measure()
{
    std::vector<double> busyNs(lanes_.size(), 0.0);
    std::vector<std::uint64_t> loads(lanes_.size(), 0);
    {
        // jthread: requests stop and joins on every path out of the block.
        std::vector<std::jthread> threads;
        for (std::size_t i = 0; i < lanes_.size(); ++i) {
            threads.emplace_back([this, i, &busyNs,
                                  &loads](std::stop_token stop) {
                Lane &l = lanes_[i];
                const Clock::time_point t0 = Clock::now();
                std::uint32_t p = l.pos;
                std::uint64_t n = 0;
                do {
                    for (unsigned k = 0; k < kBatch; ++k)
                        p = l.next[p];
                    n += kBatch;
                } while (!stop.stop_requested());
                busyNs[i] = std::chrono::duration<double, std::nano>(
                                Clock::now() - t0)
                                .count();
                l.pos = p;
                loads[i] = n;
            });
        }
        std::this_thread::sleep_for(kWindow);
    }
    return std::accumulate(busyNs.begin(), busyNs.end(), 0.0) /
           static_cast<double>(std::accumulate(loads.begin(), loads.end(),
                                               std::uint64_t{0}));
}

} // namespace secmem::perf
