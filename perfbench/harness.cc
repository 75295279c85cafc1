/**
 * @file
 * perfbench harness: runs one pinned benchmark workload against the
 * simulator library through its public entry points and prints one
 * JSON object describing what it measured and checked.
 *
 *   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
 *                     --state-dir DIR [--plan-ref M.OPTION@WS/STRIDE]...
 *                     [--inject-wrong N]
 *
 * perfbench/run.py builds this program, runs it and turns its output
 * into the benchmark's result line; see perfbench/README.md for the
 * workloads and the metric catalogue.
 *
 * A workload is a fixed list of jobs (sweeps and FFT runs, or a stream
 * of plan queries).  One pass runs every job once; the harness repeats
 * passes until the time budget is spent and reports medians over them.
 * The seed generates the plan-query stream of serve.plan.  sim.paper
 * has no random inputs: its grids are pinned and its jobs run in a
 * fixed order, which keeps the process's memory footprint the same from
 * run to run.
 *
 * With --trace 1 untraced passes alternate with passes that run with
 * the host profiler on; per-layer numbers come from the profiler's
 * zones, from spans this harness records around each call into the
 * library, and from each machine's stats tree.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/characterizer.hh"
#include "core/planner.hh"
#include "fft/fft2d_dist.hh"
#include "machine/machine.hh"
#include "serve/pack.hh"
#include "serve/planner_index.hh"
#include "sim/profiler.hh"

namespace {

using namespace gasnub;
using Clock = std::chrono::steady_clock;
using machine::SystemKind;

constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * KiB;

/** Plan queries per serve.plan pass, issued in chunks. */
constexpr std::size_t kQueriesPerPass = 1'000'000;
constexpr std::size_t kQueryChunk = 1 << 16;
/** Hot-key set size of the serve.plan stream. */
constexpr std::size_t kHotKeys = 64;
/** The FFT tests' numerical tolerance against the serial reference. */
constexpr double kFftMaxError = 1e-8;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void
die(const std::string &msg)
{
    std::cerr << "perfbench_harness: " << msg << "\n";
    std::exit(2);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** splitmix64: the harness's own input generator, independent of the
 *  simulator's RNG so a library change cannot change the inputs. */
class Rand
{
  public:
    explicit Rand(std::uint64_t seed) : _s(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (_s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n); the multiply-shift bias is below 2^-40. */
    std::uint64_t
    below(std::uint64_t n)
    {
        return static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(next()) * n) >> 64);
    }

  private:
    std::uint64_t _s;
};

/** FNV-1a over exact bytes: doubles are hashed by bit pattern. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            _h ^= b[i];
            _h *= 0x100000001b3ULL;
        }
    }
    template <class T>
    void
    add(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&v, sizeof v);
    }
    void
    str(std::string_view s)
    {
        add(s.size());
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

std::uint64_t
digestSurface(const core::Surface &s)
{
    Digest d;
    d.str(s.name());
    for (const core::SurfacePoint &p : s.points()) {
        d.add(p.wsBytes);
        d.add(p.stride);
        d.add(p.mbs);
    }
    return d.value();
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

const char *
machineName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::Dec8400: return "dec8400";
      case SystemKind::CrayT3D: return "t3d";
      case SystemKind::CrayT3E: return "t3e";
    }
    return "?";
}

constexpr SystemKind kMachines[] = {
    SystemKind::Dec8400, SystemKind::CrayT3D, SystemKind::CrayT3E};

/** Producer and consumer of remote sweeps, as tools/characterize
 *  places them (T3D endpoints on different network nodes). */
NodeId
remoteSrc(SystemKind kind)
{
    return kind == SystemKind::CrayT3D ? 0 : 1;
}
NodeId
remoteDst(SystemKind kind)
{
    return kind == SystemKind::CrayT3D ? 2 : 0;
}

/** A characterize benchmark name as a sweep spec on @p kind. */
core::SweepSpec
specFor(SystemKind kind, const std::string &bench)
{
    using remote::TransferMethod;
    const NodeId s = remoteSrc(kind), d = remoteDst(kind);
    if (bench == "loads")
        return core::SweepSpec::localLoads(0);
    if (bench == "copy-sload")
        return core::SweepSpec::localCopy(
            kernels::CopyVariant::StridedLoads, 0);
    if (bench == "pull")
        return core::SweepSpec::remote(TransferMethod::CoherentPull,
                                       true, s, d);
    if (bench == "fetch-sload")
        return core::SweepSpec::remote(TransferMethod::Fetch, true, s,
                                       d);
    if (bench == "fetch-sstore")
        return core::SweepSpec::remote(TransferMethod::Fetch, false, s,
                                       d);
    if (bench == "deposit-sload")
        return core::SweepSpec::remote(TransferMethod::Deposit, true, s,
                                       d);
    if (bench == "deposit-sstore")
        return core::SweepSpec::remote(TransferMethod::Deposit, false,
                                       s, d);
    die("unknown sweep '" + bench + "'");
}

// ----- per-pass measurements ------------------------------------------

/** Host-profiler numbers of one traced pass, keyed by metric name. */
using LayerSample = std::map<std::string, double>;

/** Fold the profiler's merged zones into per-layer metrics. */
void
profileLayers(double pass_s, LayerSample &out)
{
    double mem_self_ns = 0;
    std::map<std::string, std::pair<double, double>> zone; // ns, calls
    double point_ns = 0, remote_point_ns = 0;
    // "sweep.remote" below is the program's zone of a remote sweep.
    for (const prof::ZoneStats &z : prof::Profiler::instance().merged()) {
        auto &[ns, calls] = zone[z.name];
        ns += static_cast<double>(z.selfNs);
        calls += static_cast<double>(z.calls);
        if (z.name.rfind("mem.", 0) == 0)
            mem_self_ns += static_cast<double>(z.selfNs);
        if (z.name == "point") {
            point_ns += static_cast<double>(z.selfNs);
            if (z.path.rfind("sweep.remote;", 0) == 0)
                remote_point_ns += static_cast<double>(z.selfNs);
        }
    }
    for (const char *name :
         {"mem.readBatch", "mem.prime", "mem.writeBatch", "mem.batch",
          "mem.read", "mem.write", "noc.send"}) {
        const auto &[ns, calls] = zone[name];
        out[std::string(name) + ".self_s"] = ns * 1e-9;
        out[std::string(name) + ".calls"] = calls;
    }
    const auto &[send_ns, send_calls] = zone["noc.send"];
    out["noc.send.ns_per_call"] = send_calls > 0 ? send_ns / send_calls : 0;
    out["core.point.self_s"] = point_ns * 1e-9;
    out["remote.point.self_s"] = remote_point_ns * 1e-9;
    out["mem.self_s"] = mem_self_ns * 1e-9;
    out["mem.self_share"] = pass_s > 0 ? mem_self_ns * 1e-9 / pass_s : 0;
}

/** What every workload reports back to main(). */
struct RunResult
{
    std::vector<double> setupSamples;  ///< seconds per set-up rep
    std::vector<double> buildSamples;  ///< machine / index build part
    std::vector<double> passSeconds;   ///< untraced passes
    std::vector<double> tracedSeconds; ///< traced passes
    double opP50Us = 0, opP99Us = 0; ///< host time per op
    std::uint64_t opsPerPass = 0;    ///< ops in one pass
    std::uint64_t attempted = 0, failed = 0;
    std::uint64_t digest = 0;
    std::string values;             ///< JSON object of model outputs
    std::vector<LayerSample> layers; ///< one per traced pass
    LayerSample fixedLayers;         ///< pass-independent layer values
    std::vector<std::string> stats;  ///< stats trees after the last pass
};

/**
 * Set-up repeats for this long (within the rep limits below) before
 * the passes, and its time is the median over the reps.  Each rep
 * starts after malloc_trim() has returned the freed memory to the OS,
 * so it touches fresh pages as a new process does.  Without that, a
 * rep reused the previous rep's memory or not depending on the
 * allocator's state, and the median jumped 5x from run to run.
 */
constexpr double kSetupBudgetS = 1.0;
constexpr std::size_t kSetupMinReps = 11;
constexpr std::size_t kSetupMaxReps = 401;

/**
 * Repeat @p setup, which returns (set-up seconds, build seconds), and
 * record the samples.
 */
template <class SetupFn>
void
timeSetup(SetupFn &&setup, RunResult &r)
{
    const auto start = Clock::now();
    while (r.setupSamples.size() < kSetupMinReps ||
           (r.setupSamples.size() < kSetupMaxReps &&
            since(start) < kSetupBudgetS)) {
        malloc_trim(0);
        const auto [setup_s, build_s] = setup();
        r.setupSamples.push_back(setup_s);
        r.buildSamples.push_back(build_s);
    }
}

/**
 * The pass loop shared by every workload.  Without tracing: at least
 * two passes.  With tracing: untraced and traced passes alternate, so
 * both see the same host conditions, at least one of each.  The loop
 * stops once another pass would overrun the budget.  @p pass runs one
 * pass and returns its measured seconds; @p collect adds the
 * workload's own per-layer values of the traced pass just run.
 */
template <class PassFn, class CollectFn>
void
runPasses(double budget_s, bool trace, PassFn &&pass, CollectFn &&collect,
          RunResult &r)
{
    const auto start = Clock::now();
    for (int i = 0;; ++i) {
        const bool traced = trace && i % 2 == 1;
        if (traced) {
            prof::Profiler::enable(true);
            prof::Profiler::instance().reset();
        }
        const auto t0 = Clock::now();
        const double s = pass(traced);
        const double wall = since(t0);
        if (traced) {
            prof::Profiler::enable(false);
            r.tracedSeconds.push_back(s);
            LayerSample &l = r.layers.emplace_back();
            profileLayers(s, l);
            collect(l);
        } else {
            r.passSeconds.push_back(s);
        }
        if (i >= 1 && since(start) + wall > budget_s)
            break;
    }
}

// ----- simulator workloads --------------------------------------------

/** One Characterizer::run call of a sweep workload. */
struct SweepJob
{
    SystemKind kind;
    std::string bench;
    core::CharacterizeConfig cfg;

    std::string
    name() const
    {
        return std::string(machineName(kind)) + "." + bench;
    }
};

/** One DistributedFft2d::run call of the FFT workload. */
struct FftJob
{
    SystemKind kind;
    std::uint64_t n;
};

core::CharacterizeConfig
grid(std::vector<std::uint64_t> ws, std::vector<std::uint64_t> strides,
     std::uint64_t cap)
{
    core::CharacterizeConfig cfg;
    cfg.workingSets = std::move(ws);
    cfg.strides = std::move(strides);
    cfg.capBytes = cap;
    return cfg;
}

/*
 * The pinned grids.  Each contains the EXPERIMENTS.md reference points
 * of its figure and uses that figure bench's simulation cap, so the
 * model values match the figure benches.
 */
std::vector<SweepJob>
localJobs()
{
    // The DEC 8400 runs only its reference points (two runs, since they
    // do not form one rectangle).  Its walk is the most sensitive of the
    // three to other processes' memory traffic on the host: when its
    // full grid took 88% of a pass, the pass time varied by 30% from run
    // to run.  The Crays sweep the paper's whole stride axis instead.
    const std::vector<std::uint64_t> strides = core::paperStrides();
    return {
        {SystemKind::Dec8400, "loads",
         grid({4 * KiB, 64 * KiB, 1 * MiB}, {1, 8, 16}, 12 * MiB)},
        {SystemKind::Dec8400, "loads", grid({16 * MiB}, {1, 32}, 12 * MiB)},
        {SystemKind::CrayT3D, "loads",
         grid({4 * KiB, 64 * KiB, 1 * MiB, 16 * MiB}, strides, 4 * MiB)},
        {SystemKind::CrayT3E, "loads",
         grid({4 * KiB, 64 * KiB, 1 * MiB, 8 * MiB}, strides, 4 * MiB)},
        {SystemKind::Dec8400, "copy-sload",
         grid({65 * MiB}, {1, 16}, 12 * MiB)},
    };
}

std::vector<SweepJob>
remoteJobs()
{
    return {
        // Reaches 512 KiB (the fig04 cap) on four strides: the
        // remote sweeps' cost centre.
        {SystemKind::CrayT3D, "fetch-sload",
         grid({32 * KiB, 512 * KiB, 8 * MiB}, {1, 2, 8, 32}, 512 * KiB)},
        {SystemKind::CrayT3D, "deposit-sstore",
         grid({32 * KiB, 512 * KiB, 8 * MiB}, {1, 16}, 512 * KiB)},
        {SystemKind::CrayT3E, "fetch-sload",
         grid({32 * KiB, 1 * MiB, 8 * MiB}, {1, 16}, 1 * MiB)},
        {SystemKind::CrayT3E, "deposit-sstore",
         grid({32 * KiB, 1 * MiB, 8 * MiB}, {1, 15, 16}, 1 * MiB)},
        // Figure 2's 16 MiB rows are left out: at 0.7 s a point in the
        // per-access walk they would outweigh the torus work above.
        {SystemKind::Dec8400, "pull",
         grid({32 * KiB, 2 * MiB}, {1, 16, 32}, 12 * MiB)},
    };
}

std::vector<FftJob>
fftJobs()
{
    // Figures 15-17 sizes, trimmed from the top: the T3E alone takes
    // 3 s at 512^2 and 7 s at 1024^2, against 1.5 s for all the
    // sizes kept, and short passes keep the median steady.
    std::vector<FftJob> jobs;
    for (SystemKind kind : kMachines)
        for (std::uint64_t n : {32, 64, 128, 256})
            jobs.push_back({kind, n});
    return jobs;
}

/** One machine per job. */
std::vector<std::unique_ptr<machine::Machine>>
buildMachines(const std::vector<SystemKind> &kinds)
{
    std::vector<std::unique_ptr<machine::Machine>> machines;
    for (SystemKind kind : kinds)
        machines.push_back(std::make_unique<machine::Machine>(kind, 4));
    return machines;
}

/** Time building the machines of @p kinds as the workload's set-up. */
void
timeMachineSetup(const std::vector<SystemKind> &kinds, RunResult &r)
{
    timeSetup([&] {
        const auto t0 = Clock::now();
        const auto machines = buildMachines(kinds);
        const double s = since(t0);
        return std::pair{s, s};
    }, r);
}

std::string
statsJson(machine::Machine &m)
{
    std::ostringstream os;
    m.statsGroup().dumpJson(os);
    return os.str();
}

/**
 * Host time per op of a simulator workload, where an op is one pass:
 * regenerating all of the workload's surfaces or FFT results, which is
 * what a user of the simulator waits for.  p99 is the nearest-rank
 * value, so with fewer than 100 passes it is the slowest pass.
 */
void
passLatencies(RunResult &r)
{
    std::vector<double> v = r.passSeconds;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(v.size())));
    r.opsPerPass = 1;
    r.opP50Us = median(v) * 1e6;
    r.opP99Us = v[std::max<std::size_t>(rank, 1) - 1] * 1e6;
}

/**
 * Compare @p got against the first pass's @p want, or record it as
 * the reference when this is the first pass.
 */
void
checkSame(std::uint64_t got, std::uint64_t &want, bool first,
          RunResult &r)
{
    if (first) {
        want = got;
        return;
    }
    ++r.attempted;
    if (got != want)
        ++r.failed;
}

std::uint64_t
digestFft(const fft::Fft2dResult &f)
{
    Digest d;
    d.add(f.overallMFlops);
    d.add(f.computeMFlops);
    d.add(f.commMBs);
    d.add(f.totalTicks);
    d.add(f.computeTicks);
    d.add(f.commTicks);
    d.add(f.remoteBytes);
    d.add(f.maxError);
    return d.value();
}

/** A value of @p l, 0 where it has none. */
double
valueOf(const LayerSample &l, const std::string &key)
{
    const auto it = l.find(key);
    return it == l.end() ? 0 : it->second;
}

/** The job groups of sim.paper, in pass order, as metric prefixes. */
const char *const kGroups[] = {"sweep.local.", "sweep.remote.", "fft."};
/** The layer split reported for each group. */
const char *const kGroupKeys[] = {"mem.self_s", "noc.send.self_s",
                                  "noc.send.calls"};

/**
 * sim.paper: one pass runs the local sweeps, the remote sweeps and the
 * FFTs, in that order, each job on its own machine.  A traced pass
 * also reads the profile at the end of each group, so each group's
 * layer split is reported under its prefix in kGroups.
 */
void
runPaper(double budget_s, bool trace, RunResult &r)
{
    std::vector<SweepJob> sweeps = localJobs();
    const std::size_t n_local = sweeps.size();
    for (SweepJob &j : remoteJobs())
        sweeps.push_back(std::move(j));
    const std::vector<FftJob> ffts = fftJobs();
    std::vector<SystemKind> kinds;
    for (const SweepJob &j : sweeps)
        kinds.push_back(j.kind);
    for (const FftJob &j : ffts)
        kinds.push_back(j.kind);
    timeMachineSetup(kinds, r);
    auto machines = buildMachines(kinds);
    const std::size_t ns = sweeps.size(), n = kinds.size();
    std::vector<std::unique_ptr<core::Characterizer>> chars;
    for (std::size_t i = 0; i < ns; ++i)
        chars.push_back(std::make_unique<core::Characterizer>(*machines[i]));

    std::vector<std::uint64_t> want(n), want_stats(n);
    std::vector<std::unique_ptr<core::Surface>> surfaces(ns);
    std::vector<fft::Fft2dResult> results(ffts.size());
    std::map<std::string, double> job_s;
    int passes_done = 0;
    std::uint64_t points = 0, remote_bytes = 0;
    // The profile and the pass's seconds so far at the end of each group.
    std::vector<LayerSample> upto(std::size(kGroups));
    std::vector<double> upto_s(std::size(kGroups));

    auto pass = [&](bool traced) {
        job_s.clear();
        double spans = 0;
        remote_bytes = 0;
        std::uint64_t points_before = 0;
        for (auto &c : chars)
            points_before += c->points();
        auto endGroup = [&](std::size_t g) {
            upto_s[g] = spans;
            if (traced) {
                upto[g].clear();
                profileLayers(spans, upto[g]);
            }
        };
        auto check = [&](std::size_t i, std::uint64_t digest) {
            checkSame(digest, want[i], passes_done == 0, r);
            if (trace) {
                Digest d;
                d.str(statsJson(*machines[i]));
                checkSame(d.value(), want_stats[i], passes_done == 0, r);
            }
        };
        for (std::size_t i = 0; i < ns; ++i) {
            machines[i]->statsGroup().resetAll();
            const auto t0 = Clock::now();
            core::Surface s = chars[i]->run(
                specFor(sweeps[i].kind, sweeps[i].bench), sweeps[i].cfg);
            const double sec = since(t0);
            spans += sec;
            job_s["core.sweep_s." + sweeps[i].name()] += sec;
            check(i, digestSurface(s));
            surfaces[i] = std::make_unique<core::Surface>(std::move(s));
            if (i + 1 == n_local)
                endGroup(0);
        }
        endGroup(1);
        for (std::size_t k = 0; k < ffts.size(); ++k) {
            const std::size_t i = ns + k;
            machines[i]->statsGroup().resetAll();
            fft::Fft2dConfig cfg;
            cfg.n = ffts[k].n;
            cfg.verifyNumerics = true;
            const auto t0 = Clock::now();
            const fft::Fft2dResult f =
                fft::DistributedFft2d(*machines[i]).run(cfg);
            const double sec = since(t0);
            spans += sec;
            job_s[std::string("fft.run_s.") + machineName(ffts[k].kind)] +=
                sec;
            remote_bytes += f.remoteBytes;
            ++r.attempted;
            if (!(f.maxError <= kFftMaxError) || !(f.overallMFlops > 0))
                ++r.failed;
            check(i, digestFft(f));
            results[k] = f;
        }
        endGroup(2);
        points = 0;
        for (auto &c : chars)
            points += c->points();
        points -= points_before;
        ++passes_done;
        return spans;
    };
    auto collect = [&](LayerSample &l) {
        for (const auto &[name, s] : job_s)
            l[name] = s;
        l["core.points"] = static_cast<double>(points);
        l["fft.remote_bytes"] = static_cast<double>(remote_bytes);
        for (std::size_t g = 0; g < upto.size(); ++g) {
            auto delta = [&](const std::string &key) {
                return valueOf(upto[g], key) -
                       (g ? valueOf(upto[g - 1], key) : 0);
            };
            const std::string prefix = kGroups[g];
            for (const char *key : kGroupKeys)
                l[prefix + key] = delta(key);
            const double group_s = upto_s[g] - (g ? upto_s[g - 1] : 0);
            l[prefix + "mem.self_share"] =
                group_s > 0 ? delta("mem.self_s") / group_s : 0;
        }
    };
    runPasses(budget_s, trace, pass, collect, r);

    passLatencies(r);
    Digest all;
    for (std::uint64_t w : want)
        all.add(w);
    std::ostringstream v;
    v << "{\"sweep\":[";
    for (std::size_t i = 0; i < ns; ++i) {
        const core::Surface &s = *surfaces[i];
        v << (i ? "," : "") << "{\"name\":" << quoted(sweeps[i].name())
          << ",\"ws\":[";
        for (std::size_t k = 0; k < s.workingSets().size(); ++k)
            v << (k ? "," : "") << s.workingSets()[k];
        v << "],\"strides\":[";
        for (std::size_t k = 0; k < s.strides().size(); ++k)
            v << (k ? "," : "") << s.strides()[k];
        v << "],\"mbs\":[";
        const auto pts = s.points();
        for (std::size_t k = 0; k < pts.size(); ++k)
            v << (k ? "," : "") << num(pts[k].mbs);
        v << "]}";
    }
    v << "],\"fft\":[";
    for (std::size_t k = 0; k < ffts.size(); ++k) {
        const fft::Fft2dResult &f = results[k];
        v << (k ? "," : "") << "{\"machine\":"
          << quoted(machineName(ffts[k].kind)) << ",\"n\":" << ffts[k].n
          << ",\"overall\":" << num(f.overallMFlops)
          << ",\"compute\":" << num(f.computeMFlops)
          << ",\"comm\":" << num(f.commMBs)
          << ",\"max_error\":" << num(f.maxError) << "}";
    }
    v << "]}";
    r.digest = all.value();
    r.values = v.str();
    if (trace)
        for (auto &m : machines)
            r.stats.push_back(statsJson(*m));
}

// ----- serve.plan -----------------------------------------------------

/** Transfer implementation options packed per machine. */
std::vector<std::string>
packOptions(SystemKind kind)
{
    if (kind == SystemKind::Dec8400)
        return {"pull"};
    return {"fetch-sload", "fetch-sstore", "deposit-sload",
            "deposit-sstore"};
}

/**
 * Characterize every transfer option of every machine on a paper-like
 * grid and write one gas-pack-1 file per machine into @p dir.  The
 * packs are inputs of serve.plan, made once per build.
 */
void
makePacks(const std::filesystem::path &dir)
{
    std::filesystem::create_directories(dir);
    const std::vector<std::uint64_t> strides = {1,  2,  3,  4,  8,
                                                15, 16, 32, 64, 128};
    for (SystemKind kind : kMachines) {
        std::vector<std::uint64_t> ws;
        const std::uint64_t max_ws =
            kind == SystemKind::Dec8400 ? 2 * MiB : 8 * MiB;
        for (std::uint64_t w = 512; w <= max_ws; w *= 4)
            ws.push_back(w);
        machine::Machine m(kind, 4);
        core::Characterizer c(m);
        serve::MachinePack pack;
        pack.machine = machineName(kind);
        for (const std::string &label : packOptions(kind)) {
            const core::SweepSpec spec = specFor(kind, label);
            core::Surface s = c.run(spec, grid(ws, strides, 64 * KiB));
            pack.options.emplace_back(label, spec.method,
                                      spec.strideOnSource, std::move(s));
        }
        const auto path = dir / (pack.machine + ".pack");
        const auto tmp = dir / (pack.machine + ".pack.tmp");
        serve::savePackFile(pack, tmp.string());
        std::filesystem::rename(tmp, path);
    }
}

/** One generated plan query; @c hot marks the hot-key half. */
struct GenQuery
{
    std::uint32_t machine = 0;
    bool hot = false;
    core::TransferQuery query;
};

GenQuery
uniformQuery(Rand &rng, std::size_t machines)
{
    static const std::vector<std::uint64_t> strides =
        core::paperStrides();
    GenQuery q;
    q.machine = static_cast<std::uint32_t>(rng.below(machines));
    q.query.wsBytes = (KiB << rng.below(15)) + 8 * rng.below(4096);
    q.query.bytes = (64ull << rng.below(17)) + 8 * rng.below(512);
    q.query.stride = strides[rng.below(strides.size())];
    return q;
}

/**
 * Exact latency histogram in whole nanoseconds.  The clock reads whole
 * nanoseconds, so percentile() treats each count as spread evenly over
 * its nanosecond and interpolates within it (the grouped-data
 * percentile): a narrow peak then still gives a value that moves with
 * the counts instead of sticking to one integer.
 */
class LatencyHist
{
  public:
    void
    sample(std::uint64_t ns)
    {
        if (ns < _counts.size())
            ++_counts[ns];
        else
            _over.push_back(ns);
        ++_n;
    }

    double
    percentile(double p) const
    {
        const double rank = p * static_cast<double>(_n);
        double seen = 0;
        for (std::size_t v = 0; v < _counts.size(); ++v) {
            const auto c = static_cast<double>(_counts[v]);
            if (c > 0 && seen + c >= rank)
                return static_cast<double>(v) - 0.5 + (rank - seen) / c;
            seen += c;
        }
        std::vector<std::uint64_t> over = _over;
        std::sort(over.begin(), over.end());
        for (std::uint64_t v : over) {
            if (seen + 1 >= rank)
                return static_cast<double>(v) - 0.5 + (rank - seen);
            seen += 1;
        }
        return 0;
    }

  private:
    std::vector<std::uint64_t> _counts =
        std::vector<std::uint64_t>(1 << 15);
    std::vector<std::uint64_t> _over;
    std::uint64_t _n = 0;
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Parse "t3d.fetch-sload@8388608/32". */
struct PlanRef
{
    std::string text, machine, option;
    std::uint64_t ws = 0, stride = 0;
};

PlanRef
parsePlanRef(const std::string &s)
{
    PlanRef r;
    r.text = s;
    const auto dot = s.find('.'), at = s.find('@'), slash = s.find('/');
    if (dot == std::string::npos || at == std::string::npos ||
        slash == std::string::npos || !(dot < at && at < slash))
        die("bad --plan-ref '" + s + "'");
    r.machine = s.substr(0, dot);
    r.option = s.substr(dot + 1, at - dot - 1);
    r.ws = std::strtoull(s.substr(at + 1, slash - at - 1).c_str(),
                         nullptr, 10);
    r.stride = std::strtoull(s.substr(slash + 1).c_str(), nullptr, 10);
    if (r.ws == 0 || r.stride == 0)
        die("bad --plan-ref '" + s + "'");
    return r;
}

void
runServe(Rand &rng, double budget_s, bool trace,
         const std::filesystem::path &state_dir,
         const std::vector<PlanRef> &refs, std::uint64_t inject_wrong,
         RunResult &r)
{
    const auto pack_dir = state_dir / "packs";
    std::vector<std::string> paths;
    for (SystemKind kind : kMachines)
        paths.push_back(
            (pack_dir / (std::string(machineName(kind)) + ".pack"))
                .string());
    if (!std::filesystem::exists(paths.back()))
        makePacks(pack_dir);

    // Set-up: load the packs, then build the index over them.
    auto load = [&] {
        std::vector<serve::MachinePack> packs;
        for (const std::string &p : paths)
            packs.push_back(serve::loadPackFile(p));
        return packs;
    };
    timeSetup([&] {
        const auto t0 = Clock::now();
        auto packs = load();
        const auto t1 = Clock::now();
        const serve::PlannerIndex built(std::move(packs));
        return std::pair{since(t0), since(t1)};
    }, r);
    const auto index = std::make_unique<serve::PlannerIndex>(load());

    // The reference the index is locked to, over the same surfaces.
    const std::size_t machines = index->numMachines();
    std::vector<core::TransferPlanner> planners(machines);
    Digest packs_digest;
    for (std::size_t m = 0; m < machines; ++m) {
        packs_digest.str(index->machineName(m));
        for (std::size_t o = 0; o < index->numOptions(m); ++o) {
            const core::PlanOption &opt = index->option(m, o);
            planners[m].addOption(opt);
            packs_digest.str(opt.label);
            packs_digest.add(opt.method);
            packs_digest.add(opt.strideOnSource);
            packs_digest.add(opt.blockBytes);
            packs_digest.add(digestSurface(*opt.surface));
        }
    }
    r.digest = packs_digest.value();

    std::vector<GenQuery> hot;
    for (std::size_t i = 0; i < kHotKeys; ++i) {
        hot.push_back(uniformQuery(rng, machines));
        hot.back().hot = true;
    }

    LatencyHist all, hot_lat, tail_lat;
    std::vector<GenQuery> chunk(kQueryChunk);
    std::vector<serve::PlanAnswer> answers(kQueryChunk);
    std::uint64_t injected = 0;

    // A pass's time is the sum of its timed query loops; generating
    // and checking the queries happens outside them.
    auto pass = [&](bool traced) {
        double timed = 0;
        for (std::size_t done = 0; done < kQueriesPerPass;
             done += kQueryChunk) {
            const std::size_t n =
                std::min(kQueryChunk, kQueriesPerPass - done);
            for (std::size_t i = 0; i < n; ++i)
                chunk[i] = rng.below(2) ? hot[rng.below(kHotKeys)]
                                        : uniformQuery(rng, machines);
            const auto loop_start = Clock::now();
            for (std::size_t i = 0; i < n; ++i) {
                const GenQuery &q = chunk[i];
                const auto t0 = Clock::now();
                answers[i] = index->plan(q.machine, q.query);
                const auto ns = static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count());
                if (traced)
                    (q.hot ? hot_lat : tail_lat).sample(ns);
                else
                    all.sample(ns);
            }
            timed += since(loop_start);
            for (std::size_t i = 0; i < n && injected < inject_wrong;
                 ++i, ++injected)
                answers[i].predictedMBs += 1.0;
            for (std::size_t i = 0; i < n; ++i) {
                const GenQuery &q = chunk[i];
                const core::Plan want = planners[q.machine].best(q.query);
                const serve::PlanAnswer &a = answers[i];
                ++r.attempted;
                if (a.optionIndex != want.optionIndex ||
                    a.method != want.method ||
                    a.strideOnSource != want.strideOnSource ||
                    a.label != want.label ||
                    !sameBits(a.predictedMBs, want.predictedMBs) ||
                    !sameBits(a.predictedSeconds, want.predictedSeconds))
                    ++r.failed;
            }
        }
        return timed;
    };
    runPasses(budget_s, trace, pass, [](LayerSample &) {}, r);

    r.opsPerPass = kQueriesPerPass;
    r.opP50Us = all.percentile(0.50) * 1e-3;
    r.opP99Us = all.percentile(0.99) * 1e-3;
    r.fixedLayers["serve.index_build_s"] = median(r.buildSamples);
    if (trace) {
        r.fixedLayers["serve.hot_p50_ns"] = hot_lat.percentile(0.50);
        r.fixedLayers["serve.tail_p50_ns"] = tail_lat.percentile(0.50);
        r.fixedLayers["serve.tail_p99_ns"] = tail_lat.percentile(0.99);
        const serve::DecisionCacheStats cs = index->cacheStats();
        const double lookups =
            static_cast<double>(cs.hits) + static_cast<double>(cs.misses);
        r.fixedLayers["serve.cache.hit_ratio"] =
            lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0;
    }

    std::ostringstream v;
    v << "{\"plan\":{";
    for (std::size_t i = 0; i < refs.size(); ++i) {
        const PlanRef &ref = refs[i];
        const int m = index->machineId(ref.machine);
        double mbs = NAN;
        if (m >= 0) {
            core::TransferQuery q;
            q.bytes = q.wsBytes = ref.ws;
            q.stride = ref.stride;
            std::vector<double> predicted;
            index->predictAll(static_cast<std::size_t>(m), q, predicted);
            for (std::size_t o = 0; o < predicted.size(); ++o)
                if (index->option(static_cast<std::size_t>(m), o).label ==
                    ref.option)
                    mbs = predicted[o];
        }
        v << (i ? "," : "") << quoted(ref.text) << ":" << num(mbs);
    }
    v << "}}";
    r.values = v.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, state_dir;
    std::uint64_t seed = 0, inject_wrong = 0;
    double seconds = 0;
    int trace = -1;
    std::vector<PlanRef> refs;
    for (int i = 1; i < argc; ++i) {
        const std::string opt = argv[i];
        if (i + 1 >= argc)
            die("option " + opt + " needs a value");
        const std::string val = argv[++i];
        if (opt == "--workload")
            workload = val;
        else if (opt == "--seed")
            seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (opt == "--seconds")
            seconds = std::strtod(val.c_str(), nullptr);
        else if (opt == "--trace")
            trace = val == "1" ? 1 : val == "0" ? 0 : -1;
        else if (opt == "--state-dir")
            state_dir = val;
        else if (opt == "--plan-ref")
            refs.push_back(parsePlanRef(val));
        else if (opt == "--inject-wrong")
            inject_wrong = std::strtoull(val.c_str(), nullptr, 10);
        else
            die("unknown option " + opt);
    }
    if (workload.empty() || state_dir.empty() || trace < 0 ||
        !(seconds > 0))
        die("usage: --workload NAME --seed N --seconds S --trace 0|1 "
            "--state-dir DIR");
    if (inject_wrong > 0 && workload != "serve.plan")
        die("--inject-wrong applies to serve.plan only");

    RunResult r;
    if (workload == "sim.paper")
        runPaper(seconds, trace, r);
    else if (workload == "serve.plan") {
        Rand rng(seed * 0x2545f4914f6cdd1dULL + 0x5eed);
        runServe(rng, seconds, trace, state_dir, refs, inject_wrong, r);
    } else {
        die("unknown workload '" + workload + "'");
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    LayerSample layers = r.fixedLayers;
    if (!r.layers.empty()) {
        std::map<std::string, std::vector<double>> by_name;
        for (const LayerSample &l : r.layers)
            for (const auto &[k, v] : l)
                by_name[k].push_back(v);
        for (const auto &[k, v] : by_name)
            layers[k] = median(v);
        const double traced = median(r.tracedSeconds);
        const double untraced = median(r.passSeconds);
        layers["trace.wall_s"] = traced;
        layers["trace.overhead_ratio"] =
            untraced > 0 ? traced / untraced : 0;
    }
    if (trace)
        layers["machine.build_s"] =
            workload == "serve.plan" ? 0 : median(r.buildSamples);

    std::ostringstream out;
    auto list = [&](const char *key, const std::vector<double> &v) {
        out << "," << quoted(key) << ":[";
        for (std::size_t i = 0; i < v.size(); ++i)
            out << (i ? "," : "") << num(v[i]);
        out << "]";
    };
    out << "{\"workload\":" << quoted(workload) << ",\"seed\":" << seed
        << ",\"trace\":" << trace;
    list("setup_s", r.setupSamples);
    list("pass_s", r.passSeconds);
    list("traced_pass_s", r.tracedSeconds);
    const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    out << ",\"ops_per_pass\":" << r.opsPerPass
        << ",\"op_p50_us\":" << num(r.opP50Us)
        << ",\"op_p99_us\":" << num(r.opP99Us)
        << ",\"peak_rss_mb\":" << num(rss_mb)
        << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
        << ",\"digest\":" << quoted(hex(r.digest))
        << ",\"values\":" << r.values << ",\"layers\":{";
    bool first = true;
    for (const auto &[k, v] : layers) {
        out << (first ? "" : ",") << quoted(k) << ":" << num(v);
        first = false;
    }
    out << "},\"stats\":[";
    for (std::size_t i = 0; i < r.stats.size(); ++i)
        out << (i ? "," : "") << r.stats[i];
    out << "]}";
    std::cout << out.str() << std::endl;
    return 0;
}
