#include "workloads.hh"

namespace secmem::perf
{

namespace
{

/**
 * Kept here rather than shared with the simulator's hashing: the
 * benchmark's inputs must not change when a simulator hash does.
 */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::vector<Profile>
profiles(const std::vector<std::string> &names)
{
    std::vector<Profile> out;
    for (const std::string &n : names)
        out.push_back({profileByName(n)});
    return out;
}

/**
 * writehot on a scaled-down hierarchy that only this benchmark uses. A
 * minor counter overflows after 128 write-backs of one block, and within
 * the figures' 600k + 800k instructions neither the default hierarchy
 * nor the re-encryption ablation's (8 KB hot set, 4 KB L1, 64 KB L2)
 * gets there: the ablation's configuration at this length runs 0 page
 * re-encryptions and 0 freezes (it needs its own 1M + 4.5M for 4 and
 * 14). A 16 KB L2 gives about 14 page re-encryptions per Split job and
 * about 190 freezes per Mono8b job.
 */
Profile
writeHot()
{
    Profile p{writeHotProfile()};
    p.sys.l1Bytes = 4 << 10;
    p.sys.l2Bytes = 16 << 10;
    return p;
}

std::vector<Workload>
makeWorkloads()
{
    using C = SecureMemConfig;
    // Large working sets with high L2 miss rates.
    const std::vector<std::string> memBound = {
        "mcf", "art", "swim", "applu", "equake", "mgrid", "ammp", "wupwise"};
    std::vector<Profile> writeback = profiles({"twolf", "equake", "art"});
    writeback.insert(writeback.begin(), writeHot());
    return {
        // Controller read path, counter cache and AES pads, with no
        // GHASH or SHA-1 work: an authentication change must not move it.
        {"enc-mem",
         profiles(memBound),
         {{"Split", C::split()}, {"Mono64b", C::mono(64)},
          {"Direct", C::direct()}},
         36},
        // The paper's headline comparison. A miss costs several times
        // its enc-mem host time: controller, Merkle walk, GHASH and
        // SHA-1 changes show here.
        {"auth-mem",
         profiles(memBound),
         {{"Split+GCM", C::splitGcm()}, {"Split+SHA", C::splitSha()},
          {"Mono+SHA", C::monoSha()}},
         22},
        // Cache-resident profiles: the generator, the core loop and the
        // L1/L2 hit path carry the time; controller changes must not
        // move it.
        {"core-bound",
         profiles({"eon", "crafty", "mesa", "perlbmk", "gzip", "bzip2",
                   "gcc", "vortex"}),
         {{"baseline", C::baseline()}, {"Split", C::split()},
          {"Split+GCM", C::splitGcm()}},
         50},
        // Stores, dirty evictions, minor-counter overflow, page
        // re-encryption and freezes. writehot is submitted first, but
        // the pool pops each worker's deque from the back, so its jobs,
        // several times longer than the rest, usually start last and
        // set each round's tail: engine scheduling shows in sim_mips_norm
        // but not in sim_mips_per_cpu_norm.
        {"writeback",
         writeback,
         {{"Split", C::split()}, {"Mono8b", C::mono(8)},
          {"Split+GCM", C::splitGcm()}},
         22},
    };
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = makeWorkloads();
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t round, const std::string &profile)
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a of the profile name
    for (unsigned char c : profile)
        h = (h ^ c) * 0x100000001b3ull;
    return splitmix64(splitmix64(splitmix64(seed) ^ round) ^ h);
}

std::vector<exp::JobSpec>
roundJobs(const Workload &w, std::uint64_t seed, std::uint64_t round,
          RunLengths lengths)
{
    std::vector<exp::JobSpec> specs;
    for (const Profile &p : w.profiles) {
        SpecProfile spec = p.spec;
        spec.seed = mixSeed(seed, round, spec.name);
        for (const Scheme &s : w.schemes) {
            specs.push_back(
                exp::makeJob(s.label, spec, s.config, lengths, {}, p.sys));
        }
    }
    return specs;
}

} // namespace secmem::perf
