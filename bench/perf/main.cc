/**
 * @file
 * secmem-perf: host-throughput benchmark of the simulator (README.md).
 *
 *   secmem-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *   secmem-perf --smoke [--seed N]
 *
 * --trace 0 measures the end-to-end metrics: the workload's fixed number
 * of rounds, each one exp::Engine batch of its sweep on min(4, cores)
 * threads with no result store; --seconds only caps the run. Before each
 * round the host-speed reference (hostref.hh) runs on as many threads,
 * and the run's timings are scaled to its nominal speed. setup_s
 * comes from copies of this program started with --setup-probe, which
 * exit at their first dispatched job. --trace 1 runs round 0 once
 * through the engine and once serially under the traced twin of runJob
 * (traced.hh) for the per-layer metrics. Both check every job's output
 * and shadow-execute one short job against the reference model.
 *
 * Every metric is printed by name with its unit; the last line of
 * stdout is one JSON object {"correct", "attempted", "failed",
 * "metrics"}, also written to
 * build-bench/results/<workload>-seed<N>-trace<T>.json.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.hh"
#include "crypto/backend/backend.hh"
#include "exp/engine.hh"
#include "hostref.hh"
#include "summary.hh"
#include "traced.hh"
#include "workloads.hh"

namespace secmem::perf
{

namespace
{

using Clock = std::chrono::steady_clock;

struct MetricDef
{
    const char *name;
    const char *unit;
};

// The names and units BENCHMARK.json lists; --smoke checks they agree.
const std::vector<MetricDef> kEndToEnd = {
    {"sim_mips_norm", "Minstr/s"},
    {"sim_mips_per_cpu_norm", "Minstr/cpu-s"},
    {"job_p50_ms_norm", "ms"},
    {"job_p95_ms_norm", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"workload.gen_ns_per_op", "ns/op"},
    {"workload.ops", "count"},
    {"cpu.self_ns_per_instr", "ns/instr"},
    {"cpu.instrs", "count"},
    {"mem.access_calls", "count"},
    {"mem.hit_ns_per_call", "ns/call"},
    {"mem.miss_calls", "count"},
    {"mem.miss_ns_per_call", "ns/call"},
    {"mem.burst_calls", "count"},
    {"mem.burst_ns_per_op", "ns/op"},
    {"mem.l1d_hit_rate", "ratio"},
    {"mem.l2_miss_rate", "ratio"},
    {"sim.advance_calls", "count"},
    {"sim.advance_ns_per_call", "ns/call"},
    {"sim.events_executed", "count"},
    {"core.ctrl_read_ns_per_call", "ns/call"},
    {"core.system_build_us", "us"},
    {"core.ctrl_reads", "count"},
    {"core.ctrl_writes", "count"},
    {"core.ctrcache_hit_rate", "ratio"},
    {"core.maccache_hit_rate", "ratio"},
    {"core.auth_walk_levels", "levels"},
    {"core.page_reencs", "count"},
    {"crypto.aes_ns_per_block", "ns/block"},
    {"crypto.ghash_ns_per_chunk", "ns/chunk"},
    {"crypto.sha1_ns_per_block", "ns/block"},
    {"crypto.aes_ops", "count"},
    {"crypto.ghash_chunks", "count"},
    {"crypto.sha1_blocks", "count"},
    {"crypto.est_frac", "ratio"},
    {"exp.busy_frac", "ratio"},
    {"exp.tail_frac", "ratio"},
    {"exp.pool_steals", "count"},
    {"exp.pool_idle_sleeps", "count"},
    {"trace.probe_ns", "ns"},
    {"trace.overhead_frac", "ratio"},
    {"trace.closure_err", "ratio"},
};

/** The figures' default run length, so layer shares match figure runs. */
constexpr RunLengths kFullLengths{600'000, 800'000};
/** --smoke run length. */
constexpr RunLengths kSmokeLengths{40'000, 60'000};
/** The shadow-executed job is short: the reference model is slow. */
constexpr RunLengths kVerifyLengths{20'000, 30'000};

/** Engine worker threads: the host's cores, at most 4. */
const unsigned kJobs =
    std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

/**
 * Timed runs complete this many rounds even past the --seconds cap, and
 * model_digest covers exactly these, so the digest does not depend on
 * whether the cap cut a run short.
 */
constexpr unsigned kPinnedRounds = 3;

/** Set-up probes per timed run, one before each of the first rounds. */
constexpr unsigned kSetupProbes = 15;

/** Host-speed reference samples before each timed round. */
constexpr unsigned kReferenceSamples = 2;

/** Result and span files, relative to the working directory. */
const std::string kResultDir = "build-bench/results";

/** |trace.closure_err| above this is flagged. */
constexpr double kClosureTolerance = 0.15;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** One engine batch: a round of the workload's sweep. */
struct Round
{
    std::vector<exp::JobSpec> specs;
    std::vector<RunOutput> outputs;
    /** Host wall seconds per job (Engine::history). */
    std::vector<double> jobWallS;
    double wallS = 0.0;
    double cpuS = 0.0;
    /** Simulated instructions, warm-up included. */
    double instrs = 0.0;
    unsigned threads = 0;
    std::uint64_t steals = 0;
    std::uint64_t idleSleeps = 0;
};

std::int64_t
steadyNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

/**
 * Run round @p round of the workload's sweep as one engine batch. With
 * @p setupProbe the process instead prints the steady-clock time of the
 * first job's dispatch, in nanoseconds, and exits there.
 */
Round
runRound(const Workload &w, std::uint64_t seed, std::uint64_t round,
         RunLengths lengths, unsigned jobs, bool setupProbe = false)
{
    Round r;
    const Clock::time_point start = Clock::now();
    const double cpu0 = processCpuSeconds();
    r.specs = roundJobs(w, seed, round, lengths);

    std::once_flag firstDispatch;
    exp::EngineOptions opts;
    opts.jobs = jobs;
    if (setupProbe) {
        opts.runner = [&](const exp::JobSpec &,
                          const RunObservers &) -> RunOutput {
            std::call_once(firstDispatch, [] {
                std::printf("%lld\n",
                            static_cast<long long>(steadyNs(Clock::now())));
                std::fflush(stdout);
                std::_Exit(0);
            });
            return {};
        };
    }
    exp::Engine engine(opts);
    r.outputs = engine.run(r.specs);

    r.wallS = secondsSince(start);
    r.cpuS = processCpuSeconds() - cpu0;
    for (const exp::Engine::JobRecord &h : engine.history())
        r.jobWallS.push_back(h.wallSeconds);
    for (const exp::JobSpec &s : r.specs)
        r.instrs += static_cast<double>(s.lengths.warmup + s.lengths.sim);
    r.threads = static_cast<unsigned>(
        std::min<std::size_t>(engine.jobs(), r.specs.size()));
    r.steals = engine.pool().steals();
    r.idleSleeps = engine.pool().idleSleeps();
    return r;
}

/**
 * Wall seconds from starting a copy of this program with --setup-probe
 * to its first dispatched job: process start, static initialisation,
 * round 0's job list, and the engine with its threads. NaN when the
 * probe failed.
 */
double
probeSetup(const Workload &w, std::uint64_t seed)
{
    int fds[2];
    if (pipe(fds) != 0)
        return NAN;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const std::string seedText = std::to_string(seed);
    const char *argv[] = {"secmem-perf", "--workload", w.name.c_str(),
                          "--seed", seedText.c_str(), "--setup-probe",
                          nullptr};

    pid_t pid = 0;
    const std::int64_t start = steadyNs(Clock::now());
    const int err = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                const_cast<char *const *>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    char buf[256];
    while (err == 0) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    if (err != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return NAN;
    char *end = nullptr;
    const long long dispatched = std::strtoll(out.c_str(), &end, 10);
    if (end == out.c_str())
        return NAN;
    return static_cast<double>(dispatched - start) * 1e-9;
}

struct Report
{
    std::map<std::string, double> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string digest;
    /** Informational lines: (label, text). */
    std::vector<std::pair<std::string, std::string>> info;

    /** Count @p why (empty = passed) as one checked operation. */
    void
    check(const std::string &what, const std::string &why)
    {
        ++attempted;
        if (why.empty())
            return;
        ++failed;
        std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(), why.c_str());
    }

    void
    checkRound(const Round &r)
    {
        for (std::size_t i = 0; i < r.specs.size(); ++i) {
            check(r.specs[i].profile.name + "/" + r.specs[i].scheme,
                  checkJob(r.specs[i], r.outputs[i]));
        }
    }
};

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

/**
 * Shadow-execute one short job against the reference model; a
 * divergence panics inside the job and fails it. The workload's last
 * scheme is used because core-bound's first is the unprotected
 * baseline.
 */
void
verifyModel(const Workload &w, std::uint64_t seed, Report &rep)
{
    exp::EngineOptions opts;
    opts.verifyModel = true;
    exp::Engine engine(opts);
    const exp::JobSpec spec =
        roundJobs(w, seed, 0, kVerifyLengths).at(w.schemes.size() - 1);
    const RunOutput out = engine.run({spec}).front();
    rep.check("verify-model " + spec.profile.name + "/" + spec.scheme,
              checkJob(spec, out));
}

/**
 * @p rounds rounds, cut short once @p seconds have passed but never
 * before kPinnedRounds. A set-up probe runs before each of the first
 * kSetupProbes rounds.
 */
Report
timedRun(const Workload &w, std::uint64_t seed, unsigned rounds,
         double seconds, RunLengths lengths, unsigned jobs)
{
    Report rep;
    std::vector<double> mips;
    std::vector<double> mipsCpu;
    std::vector<double> jobMs;
    // Every reference sample over its nominal: the host's slowdown.
    std::vector<double> slowdown;
    std::vector<double> setup;
    Digest digest;
    double ipcSum = 0.0;
    std::size_t ipcJobs = 0;
    double peakRssMb = 0.0;
    HostReference reference(jobs);

    const Clock::time_point start = Clock::now();
    std::uint64_t r = 0;
    for (; r < rounds && (r < kPinnedRounds || secondsSince(start) < seconds);
         ++r) {
        if (r < kSetupProbes) {
            const double s = probeSetup(w, seed);
            rep.check("setup probe", std::isfinite(s) ? "" : "no dispatch");
            if (std::isfinite(s))
                setup.push_back(s);
        }
        // Before the round, not after it: a sample taken just after a
        // round read slow about twice as often (README.md, Noise).
        for (unsigned k = 0; k < kReferenceSamples; ++k) {
            slowdown.push_back(reference.measure() /
                               HostReference::kNominalNsPerLoad);
        }
        const Round round = runRound(w, seed, r, lengths, jobs);
        mips.push_back(round.instrs / round.wallS / 1e6);
        mipsCpu.push_back(round.instrs / round.cpuS / 1e6);
        for (double s : round.jobWallS)
            jobMs.push_back(s * 1e3);
        rep.checkRound(round);
        if (r < kPinnedRounds) {
            for (const RunOutput &out : round.outputs) {
                digest.add(exp::runOutputToJson(out));
                ipcSum += out.ipc;
                ++ipcJobs;
            }
            // Later rounds add allocator growth, and the --seconds cap
            // can cut them, so the peak is read here.
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        }
    }
    verifyModel(w, seed, rep);

    // Each raw timing, scaled to what it would have been had the host
    // run the reference at its nominal speed.
    const double slow = median(slowdown);
    auto &m = rep.metrics;
    m["sim_mips_norm"] = median(mips) * slow;
    m["sim_mips_per_cpu_norm"] = median(mipsCpu) * slow;
    m["job_p50_ms_norm"] = quantile(jobMs, 0.50) / slow;
    m["job_p95_ms_norm"] = quantile(jobMs, 0.95) / slow;
    m["setup_s"] = median(setup);
    m["peak_rss_mb"] = peakRssMb;

    rep.digest = digest.hex();
    auto iqr = [](const std::vector<double> &v) {
        return fmt("%.4g", quantile(v, 0.25)) + " .. " +
               fmt("%.4g", quantile(v, 0.75));
    };
    rep.info = {
        {"rounds", std::to_string(r) + " of " + std::to_string(rounds)},
        {"job_samples", std::to_string(jobMs.size())},
        {"host_slowdown", fmt("%.4g", slow) + " (median of " +
                              std::to_string(slowdown.size()) +
                              " samples; quartiles " + iqr(slowdown) + ")"},
        {"sim_mips_raw", fmt("%.6g", median(mips))},
        {"sim_mips_per_cpu_raw", fmt("%.6g", median(mipsCpu))},
        {"job_p50_ms_raw", fmt("%.6g", quantile(jobMs, 0.50))},
        {"job_p95_ms_raw", fmt("%.6g", quantile(jobMs, 0.95))},
        {"sim_mips_raw_quartiles", iqr(mips)},
        {"model_digest", rep.digest + " (rounds 0.." +
                             std::to_string(std::min<std::uint64_t>(
                                 r, kPinnedRounds) - 1) + ")"},
        {"sim_ipc_mean",
         fmt("%.6f", ratio(ipcSum, static_cast<double>(ipcJobs)))},
    };
    return rep;
}

/** Per-layer metrics from round 0. */
Report
tracedRun(const Workload &w, std::uint64_t seed, RunLengths lengths,
          unsigned jobs)
{
    Report rep;
    const Round round = runRound(w, seed, 0, lengths, jobs);
    rep.checkRound(round);
    double busy = 0.0;
    double longest = 0.0;
    for (double s : round.jobWallS) {
        busy += s;
        longest = std::max(longest, s);
    }

    TraceReport tr = traceRound(w.name, round.specs);
    rep.metrics = tr.metrics;
    rep.attempted += tr.attempted;
    rep.failed += tr.failed;
    rep.info.push_back({"core_run_shares", tr.shares});
    auto &m = rep.metrics;
    m["exp.busy_frac"] = ratio(busy, round.threads * round.wallS);
    m["exp.tail_frac"] = ratio(longest, round.wallS);
    m["exp.pool_steals"] = static_cast<double>(round.steals);
    m["exp.pool_idle_sleeps"] = static_cast<double>(round.idleSleeps);
    verifyModel(w, seed, rep);

    const double closure = m["trace.closure_err"];
    if (std::fabs(closure) > kClosureTolerance) {
        rep.info.push_back({"FLAG", "trace.closure_err " +
                                        fmt("%+.3f", closure) +
                                        " is outside +-" +
                                        fmt("%.2f", kClosureTolerance)});
    }
    const std::string path = kResultDir + "/trace_" + w.name + ".json";
    std::ofstream(path) << tr.spansJson;
    rep.info.push_back({"spans", path});
    return rep;
}

void
printReport(const std::string &title, const Report &rep,
            const std::vector<MetricDef> &defs)
{
    std::printf("%s\n", title.c_str());
    for (const MetricDef &d : defs) {
        auto it = rep.metrics.find(d.name);
        if (it == rep.metrics.end())
            continue;
        std::printf("  %-28s %16.6g  %s\n", d.name, it->second, d.unit);
    }
    for (const auto &[label, text] : rep.info)
        std::printf("  %-28s %s\n", label.c_str(), text.c_str());
    std::printf("  %-28s %llu attempted, %llu failed\n", "checks",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
}

/**
 * The final result line. A metric that is missing or not finite is
 * written as 0 and makes the result incorrect.
 */
std::string
resultJson(const Report &rep, const std::vector<MetricDef> &defs)
{
    bool complete = true;
    std::string metrics;
    for (const MetricDef &d : defs) {
        auto it = rep.metrics.find(d.name);
        double v = it == rep.metrics.end() ? NAN : it->second;
        if (!std::isfinite(v)) {
            std::fprintf(stderr, "FAIL metric %s has no finite value\n",
                         d.name);
            complete = false;
            v = 0.0;
        }
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", d.name, v, d.unit);
        metrics += buf;
    }
    const bool correct = complete && rep.failed == 0;
    char head[160];
    std::snprintf(head, sizeof(head),
                  "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                  correct ? "true" : "false",
                  static_cast<unsigned long long>(rep.attempted),
                  static_cast<unsigned long long>(rep.failed));
    return std::string(head) + "\"metrics\": {" + metrics + "}}";
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    bool smoke = false;
    /** Exit at round 0's first dispatch; see probeSetup. */
    bool setupProbe = false;
};

/**
 * --smoke: one short round of every workload plus its traced run. Fails
 * unless every job passes its checks, model_digest is the same on 1 and
 * 4 engine threads and changes with the seed, and every metric
 * BENCHMARK.json names (read from the working directory) was printed
 * with the unit it lists.
 */
int
smoke(const Options &o)
{
    int problems = 0;
    auto expect = [&](bool ok, const std::string &what) {
        if (!ok) {
            ++problems;
            std::fprintf(stderr, "smoke FAIL: %s\n", what.c_str());
        }
    };
    std::map<std::string, std::string> printed; // name -> unit
    auto note = [&](const Report &rep, const std::vector<MetricDef> &defs) {
        for (const MetricDef &d : defs) {
            if (rep.metrics.count(d.name))
                printed[d.name] = d.unit;
        }
    };

    for (const Workload &w : workloads()) {
        const Report a = timedRun(w, o.seed, 1, 0.0, kSmokeLengths, 4);
        printReport("== " + w.name + " (smoke, 4 threads)", a, kEndToEnd);
        note(a, kEndToEnd);
        const Report b = timedRun(w, o.seed, 1, 0.0, kSmokeLengths, 1);
        const Report c = timedRun(w, o.seed + 1, 1, 0.0, kSmokeLengths, 4);
        expect(a.failed + b.failed + c.failed == 0, w.name + ": job checks");
        expect(a.digest == b.digest,
               w.name + ": model_digest differs between 4 threads and 1");
        expect(a.digest != c.digest,
               w.name + ": model_digest does not change with the seed");

        const Report t = tracedRun(w, o.seed, kSmokeLengths, 4);
        printReport("== " + w.name + " (smoke, traced)", t, kPerLayer);
        note(t, kPerLayer);
        expect(t.failed == 0, w.name + ": traced checks");
    }

    std::ifstream in("BENCHMARK.json");
    std::stringstream text;
    text << in.rdbuf();
    FlatJson bench;
    expect(in && flattenJson(text.str(), &bench),
           "cannot read BENCHMARK.json in the working directory");
    std::size_t named = 0;
    for (const char *section : {"end_to_end", "per_layer"}) {
        for (std::size_t k = 0;; ++k) {
            const std::string key = std::string(section) + "." +
                                    std::to_string(k);
            auto name = bench.find(key + ".name");
            if (name == bench.end())
                break;
            ++named;
            auto unit = bench.find(key + ".unit");
            auto it = printed.find(name->second);
            expect(it != printed.end() && unit != bench.end() &&
                       it->second == unit->second,
                   "metric " + name->second + " not printed with its unit");
        }
    }
    for (std::size_t k = 0;; ++k) {
        auto name = bench.find("workloads." + std::to_string(k) + ".name");
        if (name == bench.end())
            break;
        expect(findWorkload(name->second) != nullptr,
               "unknown workload " + name->second);
    }
    expect(named == kEndToEnd.size() + kPerLayer.size(),
           "BENCHMARK.json names " + std::to_string(named) + " metrics, " +
               std::to_string(kEndToEnd.size() + kPerLayer.size()) +
               " are measured");
    std::printf("smoke: %s\n", problems ? "FAIL" : "PASS");
    return problems ? 1 : 0;
}

[[noreturn]] void
usage(int status)
{
    std::fprintf(status ? stderr : stdout,
                 "usage: secmem-perf --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "       secmem-perf --smoke [--seed N]\n"
                 "workloads:");
    for (const Workload &w : workloads())
        std::fprintf(status ? stderr : stdout, " %s", w.name.c_str());
    std::fprintf(status ? stderr : stdout, "\n");
    std::exit(status);
}

bool
parseUnsigned(const char *s, std::uint64_t *v)
{
    char *end = nullptr;
    errno = 0;
    *v = std::strtoull(s, &end, 10);
    return *s >= '0' && *s <= '9' && *end == '\0' && errno == 0;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "secmem-perf: %s needs a value\n",
                             a.c_str());
                usage(2);
            }
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            if (!parseUnsigned(value(), &o.seed))
                usage(2);
        } else if (a == "--seconds") {
            char *end = nullptr;
            const char *v = value();
            o.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(o.seconds >= 0.0 && o.seconds <= 3600.0))
                usage(2);
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage(2);
            o.trace = v == "1";
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--setup-probe") {
            o.setupProbe = true;
        } else if (a == "--help" || a == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "secmem-perf: unknown argument '%s'\n",
                         a.c_str());
            usage(2);
        }
    }
    return o;
}

int
run(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    std::filesystem::create_directories(kResultDir);
    if (o.smoke)
        return smoke(o);

    const Workload *w = findWorkload(o.workload);
    if (!w) {
        std::fprintf(stderr, "secmem-perf: unknown workload '%s'\n",
                     o.workload.c_str());
        usage(2);
    }
    if (o.setupProbe) {
        runRound(*w, o.seed, 0, kFullLengths, kJobs, true);
        return 1; // runRound exits at the first dispatch
    }
    std::printf("secmem-perf: workload %s, seed %llu, %s, jobs %u, "
                "crypto backend %s\n",
                w->name.c_str(), static_cast<unsigned long long>(o.seed),
                o.trace ? "traced round 0"
                        : (std::to_string(w->rounds) + " rounds, cap " +
                           fmt("%g", o.seconds) + " s")
                              .c_str(),
                kJobs, activeCryptoBackend().name());

    const std::vector<MetricDef> &defs = o.trace ? kPerLayer : kEndToEnd;
    const Report rep =
        o.trace ? tracedRun(*w, o.seed, kFullLengths, kJobs)
                : timedRun(*w, o.seed, w->rounds, o.seconds, kFullLengths,
                           kJobs);
    printReport(o.trace ? "per-layer metrics" : "end-to-end metrics", rep,
                defs);

    const std::string line = resultJson(rep, defs);
    const std::string path = kResultDir + "/" + w->name + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             (o.trace ? "1" : "0") + ".json";
    std::ofstream(path) << "{\"workload\": \"" << w->name
                        << "\", \"seed\": " << o.seed
                        << ", \"trace\": " << o.trace
                        << ", \"model_digest\": \"" << rep.digest
                        << "\", \"result\": " << line << "}\n";
    std::printf("%s\n", line.c_str());
    return 0;
}

} // namespace

} // namespace secmem::perf

int
main(int argc, char **argv)
{
    return secmem::perf::run(argc, argv);
}
