#include "traced.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <initializer_list>

#include "checks.hh"
#include "core/system.hh"
#include "cpu/ooo_core.hh"
#include "crypto/ghash.hh"
#include "crypto/seed.hh"
#include "obs/registry.hh"
#include "summary.hh"
#include "workload/spec_profiles.hh"

namespace secmem::perf
{

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * One call in kStride is timed, chosen by call index. A clock read
 * costs tens of nanoseconds, as much as an L1 hit, so timing every
 * call would mostly measure the clock.
 */
constexpr std::uint64_t kStride = 16;

/** Ops per timed SpecWorkload::nextRun call in the generator replay. */
constexpr unsigned kGenChunk = 4096;

/** Iterations of each crypto primitive per job. */
constexpr unsigned kCryptoIters = 1024;

/** Keeps replayed and probed results observable to the optimizer. */
volatile std::uint64_t g_sink = 0;

/** What the clock itself costs, measured in this process. */
struct Calibration
{
    /** Wall time one empty timed region adds to its caller. */
    double regionNs = 0.0;
    /** Duration an empty timed region reports for itself. */
    double biasNs = 0.0;
};

Calibration
calibrate()
{
    constexpr int kBatches = 9;
    constexpr int kRegions = 20000;
    std::vector<double> region;
    std::vector<double> bias;
    for (int b = 0; b < kBatches; ++b) {
        std::int64_t reported = 0;
        const std::int64_t start = nowNs();
        for (int i = 0; i < kRegions; ++i) {
            const std::int64_t t0 = nowNs();
            const std::int64_t t1 = nowNs();
            reported += t1 - t0;
        }
        const std::int64_t end = nowNs();
        region.push_back(static_cast<double>(end - start) / kRegions);
        bias.push_back(static_cast<double>(reported) / kRegions);
    }
    return {median(region), median(bias)};
}

/** Calls through one layer boundary during one job. */
struct Probe
{
    std::uint64_t calls = 0;
    /** Operations behind the calls (ops generated, ops per burst). */
    std::uint64_t units = 0;
    std::uint64_t timed = 0;
    /** Total duration of the timed calls, clock bias removed. */
    double timedNs = 0.0;
    /** Extent of the timed calls. */
    std::int64_t first = 0;
    std::int64_t last = 0;

    void
    record(std::int64_t t0, std::int64_t t1, double bias)
    {
        if (timed++ == 0)
            first = t0;
        last = t1;
        timedNs += static_cast<double>(t1 - t0) - bias;
    }

    /** Time of all calls, scaled up from the timed ones. */
    double
    estNs() const
    {
        return timed ? timedNs * static_cast<double>(calls) /
                           static_cast<double>(timed)
                     : 0.0;
    }
};

/** One L2 miss as the controller received it. */
struct MissEntry
{
    Addr base;
    Tick issue;
};

/**
 * Counts and samples the core's calls into SecureSystem. The calls are
 * qualified so the wrapper adds one virtual dispatch, not two.
 */
class TracedMemory final : public MemorySystem
{
  public:
    TracedMemory(SecureSystem &sys, double bias)
        : sys_(sys), bias_(bias),
          missDelay_(sys.params().l1Latency + sys.params().l2Latency)
    {}

    Probe hit;
    Probe miss;
    Probe burst;
    Probe advance;
    std::vector<MissEntry> misses;

    std::uint64_t
    timedRegions() const
    {
        return hit.timed + miss.timed + burst.timed + advance.timed;
    }

    MemAccess
    access(Addr addr, bool is_write, Tick now) override
    {
        MemAccess r;
        if (accessSeq_++ % kStride == 0) {
            const std::int64_t t0 = nowNs();
            r = sys_.SecureSystem::access(addr, is_write, now);
            const std::int64_t t1 = nowNs();
            (r.l2Miss ? miss : hit).record(t0, t1, bias_);
        } else {
            r = sys_.SecureSystem::access(addr, is_write, now);
        }
        Probe &p = r.l2Miss ? miss : hit;
        ++p.calls;
        ++p.units;
        if (r.l2Miss)
            logMiss(addr, now);
        return r;
    }

    void
    accessRun(MemBurstOp *ops, unsigned n) override
    {
        if (burstSeq_++ % kStride == 0) {
            const std::int64_t t0 = nowNs();
            sys_.SecureSystem::accessRun(ops, n);
            const std::int64_t t1 = nowNs();
            burst.record(t0, t1, bias_);
        } else {
            sys_.SecureSystem::accessRun(ops, n);
        }
        ++burst.calls;
        burst.units += n;
        for (unsigned i = 0; i < n; ++i) {
            if (ops[i].out.l2Miss)
                logMiss(ops[i].addr, ops[i].now);
        }
    }

    void
    advanceTo(Tick cycle) override
    {
        if (advanceSeq_++ % kStride == 0) {
            const std::int64_t t0 = nowNs();
            sys_.SecureSystem::advanceTo(cycle);
            const std::int64_t t1 = nowNs();
            advance.record(t0, t1, bias_);
        } else {
            sys_.SecureSystem::advanceTo(cycle);
        }
        ++advance.calls;
    }

  private:
    /**
     * The controller sees the miss after the L1 and L2 lookups. Loads
     * and stores miss alike (the store's data is merged on-chip), so
     * the replay needs only the block and the tick.
     */
    void
    logMiss(Addr addr, Tick now)
    {
        misses.push_back({blockBase(addr), now + missDelay_});
    }

    SecureSystem &sys_;
    double bias_;
    Tick missDelay_;
    std::uint64_t accessSeq_ = 0;
    std::uint64_t burstSeq_ = 0;
    std::uint64_t advanceSeq_ = 0;
};

/** The job's @p ops-op stream again, from a twin generator, chunk by chunk. */
Probe
replayGenerator(const SpecProfile &profile, std::uint64_t ops, double bias)
{
    SpecWorkload gen(profile);
    std::vector<TraceOp> buf(kGenChunk);
    Probe p;
    for (std::uint64_t done = 0; done < ops; done += kGenChunk) {
        const std::int64_t t0 = nowNs();
        gen.nextRun(buf.data(), kGenChunk);
        const std::int64_t t1 = nowNs();
        ++p.calls;
        p.units += kGenChunk;
        p.record(t0, t1, bias);
        g_sink = g_sink + buf.back().addr;
    }
    return p;
}

struct CryptoCost
{
    double aesNsPerBlock;
    double ghashNsPerChunk;
    double sha1NsPerTag;
};

/**
 * Time the primitives the controller calls, keyed as the job's
 * controller is, on the active backend: a counter-mode pad (four AES
 * blocks), GHASH updates, and a SHA-1 block tag.
 */
CryptoCost
probeCrypto(const SecureMemConfig &cfg)
{
    const Aes128 aes(cfg.dataKey);
    const Gf128Table subkey(Gf128::fromBlock(aes.encrypt(Block16{})));
    Block64 block{};

    const std::int64_t t0 = nowNs();
    for (unsigned i = 0; i < kCryptoIters; ++i)
        block = block ^ makePad(aes, Addr{i} * kBlockBytes, i, cfg.eivByte);
    const std::int64_t t1 = nowNs();
    Ghash gh(subkey);
    constexpr unsigned kChunks = kCryptoIters * (kChunksPerBlock + 1);
    for (unsigned i = 0; i < kChunks; ++i)
        gh.update(block.chunk(i % kChunksPerBlock));
    const std::int64_t t2 = nowNs();
    Block16 tag = gh.digest();
    for (unsigned i = 0; i < kCryptoIters; ++i)
        tag ^= sha1BlockTag(cfg.macKey, block, Addr{i} * kBlockBytes, i);
    const std::int64_t t3 = nowNs();
    g_sink = g_sink + tag.b[0];

    return {static_cast<double>(t1 - t0) / (kCryptoIters * kChunksPerBlock),
            static_cast<double>(t2 - t1) / kChunks,
            static_cast<double>(t3 - t2) / kCryptoIters};
}

/**
 * Why the traced job differs from the untraced one, or empty when it
 * reproduced it exactly.
 */
std::string
identityMismatch(const RunOutput &ref, const CoreRunResult &r,
                 const std::string &tracedStats)
{
    if (r.instructions != ref.instructions)
        return "instructions";
    if (r.cycles != ref.cycles)
        return "cycles";
    if (static_cast<double>(r.finalTick) / static_cast<double>(kCoreHz) !=
        ref.simSeconds)
        return "finalTick";
    FlatJson a;
    FlatJson b;
    if (!flattenJson(tracedStats, &a) || !flattenJson(ref.statsJson, &b))
        return "unparseable stats";
    // An OooCore built outside SecureSystem::run gets no stats group,
    // so the cpu group is not comparable. '/' is the character after
    // '.', so the range is exactly the paths under "cpu.".
    for (FlatJson *f : {&a, &b})
        f->erase(f->lower_bound("cpu."), f->lower_bound("cpu/"));
    if (a == b)
        return {};
    auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    return "stat " + (ia != a.end() ? ia->first : ib->first);
}

struct Span
{
    const char *name;
    std::size_t job;
    int id;
    int parent; ///< -1 for a job span
    std::int64_t start;
    std::int64_t end;
    std::uint64_t calls;
    double selfNs;
};

std::string
spansToJson(const std::string &workload, const Calibration &cal,
            const std::vector<Span> &spans)
{
    std::string out;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"workload\": \"%s\", \"probe_ns\": %.3f, "
                  "\"probe_bias_ns\": %.3f, \"stride\": %llu,\n \"spans\": [",
                  workload.c_str(), cal.regionNs, cal.biasNs,
                  static_cast<unsigned long long>(kStride));
    out += buf;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n  {\"id\": %d, \"parent\": %d, \"job\": %zu, "
                      "\"name\": \"%s\", \"start_ns\": %lld, "
                      "\"end_ns\": %lld, \"calls\": %llu, "
                      "\"self_ns\": %.0f}",
                      i ? "," : "", s.id, s.parent, s.job, s.name,
                      static_cast<long long>(s.start),
                      static_cast<long long>(s.end),
                      static_cast<unsigned long long>(s.calls), s.selfNs);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

} // namespace

TraceReport
traceRound(const std::string &workload, const std::vector<exp::JobSpec> &specs)
{
    const Calibration cal = calibrate();
    const std::int64_t origin = nowNs();
    TraceReport rep;
    std::vector<Span> spans;
    // Round sums: layer times, call counts, and registry counters.
    std::map<std::string, double> sum;
    std::vector<double> buildUs, aesNs, ghashNs, sha1Ns;

    for (std::size_t j = 0; j < specs.size(); ++j) {
        const exp::JobSpec &spec = specs[j];
        const std::uint64_t ops = spec.lengths.warmup + spec.lengths.sim;

        const std::int64_t u0 = nowNs();
        const RunOutput ref = exp::runJob(spec);
        sum["untraced_ns"] += static_cast<double>(nowNs() - u0);

        // The traced twin of runJob: the same parts, with the memory
        // boundary wrapped.
        const std::int64_t jobStart = nowNs();
        SecureSystem sys(spec.config, spec.sys);
        const std::int64_t built = nowNs();
        obs::StatRegistry registry;
        sys.registerStats(registry);
        SpecWorkload gen(spec.profile);
        TracedMemory mem(sys, cal.biasNs);
        OooCore core(spec.core, mem, spec.config.authMode);
        const std::int64_t c0 = nowNs();
        const CoreRunResult r =
            core.run(gen, spec.lengths.warmup, spec.lengths.sim);
        const std::int64_t c1 = nowNs();
        // runWorkload reads these samples after the run, which adds
        // them to its dump; read them too so the two dumps compare.
        for (const char *s : {"auth_walk_levels", "reenc_duration",
                              "reenc_concurrent"})
            sys.controller().stats().sample(s);
        const std::string statsJson = registry.jsonString();
        const std::int64_t tracedEnd = nowNs();

        ++rep.attempted;
        std::string why = identityMismatch(ref, r, statsJson);
        if (why.empty())
            why = checkJob(spec, ref);
        if (!why.empty()) {
            ++rep.failed;
            std::fprintf(stderr, "FAIL traced %s/%s: %s\n",
                         spec.profile.name.c_str(), spec.scheme.c_str(),
                         why.c_str());
        }

        const std::int64_t g0 = nowNs();
        const Probe genProbe = replayGenerator(spec.profile, ops, cal.biasNs);
        const std::int64_t g1 = nowNs();

        SecureMemoryController ctrl(spec.config);
        Block64 data;
        const std::int64_t r0 = nowNs();
        for (const MissEntry &e : mem.misses)
            g_sink = g_sink + ctrl.readBlock(e.base, e.issue, &data).dataReady;
        const std::int64_t r1 = nowNs();

        const std::int64_t k0 = nowNs();
        const CryptoCost crypto = probeCrypto(spec.config);
        const std::int64_t k1 = nowNs();
        const std::int64_t jobEnd = nowNs();

        // The core's own time: the core run less the sampled layers
        // under it, the probes' cost, and the generator work it did
        // inline (timed by the replay).
        const double coreDur = static_cast<double>(c1 - c0);
        const double memChildren = mem.hit.estNs() + mem.miss.estNs() +
                                   mem.burst.estNs() + mem.advance.estNs();
        const double probes = static_cast<double>(mem.timedRegions());
        const double coreSelf = coreDur - memChildren -
                                probes * cal.regionNs - genProbe.estNs();

        sum["gen_ns"] += genProbe.estNs();
        sum["gen_ops"] += static_cast<double>(genProbe.units);
        sum["hit_ns"] += mem.hit.estNs();
        sum["hit_calls"] += static_cast<double>(mem.hit.calls);
        sum["miss_ns"] += mem.miss.estNs();
        sum["miss_calls"] += static_cast<double>(mem.miss.calls);
        sum["burst_ns"] += mem.burst.estNs();
        sum["burst_calls"] += static_cast<double>(mem.burst.calls);
        sum["burst_ops"] += static_cast<double>(mem.burst.units);
        sum["advance_ns"] += mem.advance.estNs();
        sum["advance_calls"] += static_cast<double>(mem.advance.calls);
        sum["core_ns"] += coreDur;
        sum["core_self_ns"] += coreSelf;
        sum["instrs"] += static_cast<double>(ops);
        sum["replay_ns"] += static_cast<double>(r1 - r0);
        sum["replay_calls"] += static_cast<double>(mem.misses.size());
        sum["traced_ns"] += static_cast<double>(tracedEnd - jobStart);
        sum["probes"] += probes;
        buildUs.push_back(static_cast<double>(built - jobStart) / 1e3);
        aesNs.push_back(crypto.aesNsPerBlock);
        ghashNs.push_back(crypto.ghashNsPerChunk);
        sha1Ns.push_back(crypto.sha1NsPerTag);

        FlatJson stats;
        flattenJson(statsJson, &stats);
        for (const char *path :
             {"l1d.hits", "l1d.accesses", "l2.misses", "l2.accesses",
              "events.executed", "ctrl.reads", "ctrl.writes",
              "ctrcache.hits", "ctrcache.accesses", "maccache.hits",
              "maccache.accesses", "ctrl.page_reencs", "aes.ops",
              "aes.background_ops", "ctrl.ghash_chunks",
              "ctrl.sha1_blocks"}) {
            double v = 0.0;
            if (jsonNumber(stats, path, &v))
                sum[path] += v;
        }
        double levels = 0.0;
        double walks = 0.0;
        if (jsonNumber(stats, "ctrl.auth_walk_levels.mean", &levels) &&
            jsonNumber(stats, "ctrl.auth_walk_levels.count", &walks)) {
            sum["walk_levels"] += levels * walks;
            sum["walks"] += walks;
        }

        // This job's spans, times relative to the round's start.
        const int base = static_cast<int>(spans.size());
        auto span = [&](const char *name, int parent, std::int64_t s,
                        std::int64_t e, std::uint64_t calls, double self) {
            spans.push_back({name, j, static_cast<int>(spans.size()), parent,
                             s - origin, e - origin, calls, self});
        };
        const double direct = static_cast<double>(
            (built - jobStart) + (c1 - c0) + (g1 - g0) + (r1 - r0) +
            (k1 - k0));
        span("job", -1, jobStart, jobEnd, 1,
             static_cast<double>(jobEnd - jobStart) - direct);
        span("system_build", base, jobStart, built, 1,
             static_cast<double>(built - jobStart));
        span("core_run", base, c0, c1, 1, coreSelf);
        const int coreId = base + 2;
        const std::pair<const char *, const Probe *> layers[] = {
            {"mem.hit", &mem.hit},
            {"mem.miss", &mem.miss},
            {"mem.burst", &mem.burst},
            {"sim.advance", &mem.advance}};
        for (const auto &[name, probe] : layers) {
            span(name, coreId, probe->timed ? probe->first : c0,
                 probe->timed ? probe->last : c0, probe->calls,
                 probe->estNs());
        }
        span("workload.gen", base, g0, g1, genProbe.calls, genProbe.estNs());
        span("ctrl_replay", base, r0, r1, mem.misses.size(),
             static_cast<double>(r1 - r0));
        span("crypto_probe", base, k0, k1, 1, static_cast<double>(k1 - k0));
    }

    auto s = [&](const char *key) { return sum[key]; };
    const double aesOps = s("aes.ops") + s("aes.background_ops");
    const double aes = median(aesNs);
    const double ghash = median(ghashNs);
    const double sha1 = median(sha1Ns);
    auto &m = rep.metrics;
    m["workload.gen_ns_per_op"] = ratio(s("gen_ns"), s("gen_ops"));
    m["workload.ops"] = s("gen_ops");
    m["cpu.self_ns_per_instr"] = ratio(s("core_self_ns"), s("instrs"));
    m["cpu.instrs"] = s("instrs");
    m["mem.access_calls"] = s("hit_calls") + s("miss_calls");
    m["mem.hit_ns_per_call"] = ratio(s("hit_ns"), s("hit_calls"));
    m["mem.miss_calls"] = s("miss_calls");
    m["mem.miss_ns_per_call"] = ratio(s("miss_ns"), s("miss_calls"));
    m["mem.burst_calls"] = s("burst_calls");
    m["mem.burst_ns_per_op"] = ratio(s("burst_ns"), s("burst_ops"));
    m["mem.l1d_hit_rate"] = ratio(s("l1d.hits"), s("l1d.accesses"));
    m["mem.l2_miss_rate"] = ratio(s("l2.misses"), s("l2.accesses"));
    m["sim.advance_calls"] = s("advance_calls");
    m["sim.advance_ns_per_call"] = ratio(s("advance_ns"), s("advance_calls"));
    m["sim.events_executed"] = s("events.executed");
    m["core.ctrl_read_ns_per_call"] = ratio(s("replay_ns"), s("replay_calls"));
    m["core.system_build_us"] = median(buildUs);
    m["core.ctrl_reads"] = s("ctrl.reads");
    m["core.ctrl_writes"] = s("ctrl.writes");
    m["core.ctrcache_hit_rate"] =
        ratio(s("ctrcache.hits"), s("ctrcache.accesses"));
    m["core.maccache_hit_rate"] =
        ratio(s("maccache.hits"), s("maccache.accesses"));
    m["core.auth_walk_levels"] = ratio(s("walk_levels"), s("walks"));
    m["core.page_reencs"] = s("ctrl.page_reencs");
    m["crypto.aes_ns_per_block"] = aes;
    m["crypto.ghash_ns_per_chunk"] = ghash;
    m["crypto.sha1_ns_per_block"] = sha1;
    m["crypto.aes_ops"] = aesOps;
    m["crypto.ghash_chunks"] = s("ctrl.ghash_chunks");
    m["crypto.sha1_blocks"] = s("ctrl.sha1_blocks");
    m["crypto.est_frac"] = ratio(aesOps * aes +
                                     s("ctrl.ghash_chunks") * ghash +
                                     s("ctrl.sha1_blocks") * sha1,
                                 s("core_ns"));
    m["trace.probe_ns"] = cal.regionNs;
    m["trace.overhead_frac"] = ratio(s("traced_ns"), s("untraced_ns")) - 1.0;
    m["trace.closure_err"] =
        ratio(s("traced_ns") - cal.regionNs * s("probes"), s("untraced_ns")) -
        1.0;

    // The core run's time splits into these parts; the core's self
    // time is what the others leave.
    const std::pair<const char *, double> parts[] = {
        {"workload.gen", s("gen_ns")},   {"mem.hit", s("hit_ns")},
        {"mem.miss", s("miss_ns")},      {"mem.burst", s("burst_ns")},
        {"sim.advance", s("advance_ns")}, {"cpu.self", s("core_self_ns")},
        {"probes", cal.regionNs * s("probes")}};
    for (const auto &[name, ns] : parts) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%s%s %.1f%%",
                      rep.shares.empty() ? "" : ", ", name,
                      100.0 * ratio(ns, s("core_ns")));
        rep.shares += buf;
    }

    rep.spansJson = spansToJson(workload, cal, spans);
    return rep;
}

} // namespace secmem::perf
