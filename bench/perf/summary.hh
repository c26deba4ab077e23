/**
 * @file
 * Order statistics for the benchmark's samples.
 */

#ifndef SECMEM_PERF_SUMMARY_HH
#define SECMEM_PERF_SUMMARY_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace secmem::perf
{

/**
 * The @p q quantile of @p v (0 <= q <= 1), interpolating linearly
 * between the two nearest ranks; 0 for an empty sample.
 */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** @p num / @p den, or 0 when nothing was counted. */
inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

} // namespace secmem::perf

#endif // SECMEM_PERF_SUMMARY_HH
