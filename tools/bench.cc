/**
 * @file
 * Benchmark-protocol runner: how fast is the simulator itself?
 *
 *   bench [--out FILE] [--pr N] [--repeats N] [--smoke] [--jobs N]
 *         [--scenario NAME] [--perf-sim PATH] [--list]
 *   bench --compare OLD.json NEW.json [--threshold PCT]
 *
 * Times the pinned scenario registry (bench::perfScenarios — three
 * machines' local/remote sweeps plus the gas 2D-FFT, all at fixed
 * grids) and writes a schema-versioned BENCH_<pr>.json: host
 * fingerprint, repeats, median/min seconds and points/sec per
 * scenario.  One such file is checked in per performance-relevant PR,
 * making the simulator's own speed a tracked, reviewable trajectory
 * (ROADMAP item 2; protocol in docs/perf_tracking.md).
 *
 * --compare reads two protocol files, prints one delta row per
 * scenario in the union of both files, and fails (exit 1) when any
 * common scenario's points/sec dropped by more than the threshold
 * (default 10%).  A scenario present in only one file is a schema
 * mismatch — the two runs did not measure the same protocol — and
 * exits 2, like a mismatched schema string.  CI runs a smoke pass
 * against the checked-in baseline.
 *
 * --perf-sim runs a google-benchmark binary (bench/perf_simulator)
 * with --benchmark_format=json and embeds its output under
 * "microbench" for archival; the per-kernel numbers complement the
 * end-to-end scenarios but are not compared.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/utsname.h>

#include "bench_util.hh"
#include "json_util.hh"
#include "sim/stats.hh"

using namespace gasnub;
using tooljson::JsonParser;
using tooljson::JsonValue;

namespace {

constexpr const char *kSchema = "gasnub-bench-1";

void
printUsage(std::ostream &os)
{
    os << "usage: bench [--out FILE] [--pr N] [--repeats N] "
           "[--smoke] [--jobs N]\n"
           "             [--scenario NAME] [--perf-sim PATH] "
           "[--list]\n"
           "       bench --compare OLD.json NEW.json "
           "[--threshold PCT]\n"
           "  --out FILE       write BENCH json (default: stdout)\n"
           "  --pr N           PR number recorded in the file\n"
           "  --repeats N      timed repetitions per scenario "
           "(default 5; smoke 2)\n"
           "  --smoke          fewer repeats, same pinned grids "
           "(comparable, noisier)\n"
           "  --jobs N         sweep worker threads (default 1 = "
           "serial, least noise)\n"
           "  --scenario NAME  run only the named scenario (repeat "
           "to run several)\n"
           "  --perf-sim PATH  also run a google-benchmark binary "
           "and embed its json\n"
           "  --list           print scenario names and exit\n"
           "  --compare        regression gate: exit 1 when NEW is "
           "slower than OLD by\n"
           "                   more than --threshold percent "
           "(default 10) on any scenario;\n"
           "                   differing scenario sets are a schema "
           "mismatch (exit 2)\n"
           "  --allow-new      with --compare: scenarios only in NEW "
           "are accepted (a PR\n"
           "                   growing the protocol), not a schema "
           "mismatch; scenarios\n"
           "                   only in OLD still exit 2\n"
           "exit status: 0 ok, 1 regression, 2 bad usage/input/"
           "schema\n";
}

[[noreturn]] void
usage()
{
    printUsage(std::cerr);
    std::exit(2);
}

[[noreturn]] void
fail(const std::string &msg)
{
    std::cerr << "bench: " << msg << "\n";
    std::exit(2);
}

double
seconds(std::chrono::steady_clock::time_point from,
        std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Measured result of one scenario. */
struct Timing
{
    std::string name;
    std::uint64_t points = 0;
    std::uint64_t accesses = 0;
    double secMedian = 0;
    double secMin = 0;
    double pointsPerSec = 0;
    double accessesPerSec = 0;
};

Timing
timeScenario(const bench::PerfScenario &s, int repeats, int jobs)
{
    Timing t;
    t.name = s.name;
    std::vector<double> secs;
    std::uint64_t bestP99 = ~std::uint64_t(0);
    for (int r = 0; r < repeats; ++r) {
        const auto start = std::chrono::steady_clock::now();
        const bench::PerfRunCounts counts =
            bench::runPerfScenario(s, jobs);
        secs.push_back(
            seconds(start, std::chrono::steady_clock::now()));
        t.points = counts.points;
        t.accesses = counts.accesses;
        bestP99 = std::min(bestP99, counts.sloP99Ns);
    }
    std::sort(secs.begin(), secs.end());
    t.secMin = secs.front();
    t.secMedian = secs[secs.size() / 2];
    // Rates from the fastest repeat: the minimum is the least-noise
    // estimate of the work's true cost on this host.
    if (s.serveSlo) {
        // SLO scenarios record inverse tail latency (1e9 / p99_ns)
        // as the rate, so a p99 increase reads as a rate drop and
        // the --compare gate flags it like any other regression.
        t.pointsPerSec =
            bestP99 > 0 ? 1e9 / static_cast<double>(bestP99) : 0.0;
        t.accessesPerSec = t.pointsPerSec;
    } else {
        t.pointsPerSec = static_cast<double>(t.points) / t.secMin;
        t.accessesPerSec = static_cast<double>(t.accesses) / t.secMin;
    }
    return t;
}

/** Run @p path --benchmark_format=json; empty string on failure. */
std::string
runPerfSim(const std::string &path)
{
    const std::string cmd = path + " --benchmark_format=json 2>/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        std::cerr << "bench: cannot run " << path << "\n";
        return "";
    }
    std::string out;
    std::array<char, 4096> buf;
    std::size_t n;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        out.append(buf.data(), n);
    if (pclose(pipe) != 0) {
        std::cerr << "bench: " << path << " failed; skipping "
                  << "microbench section\n";
        return "";
    }
    // Validate before embedding — a truncated run must not corrupt
    // the protocol file.  (Parse errors exit; acceptable for a tool.)
    JsonParser parser(out, "bench: " + path);
    parser.parse();
    return out;
}

void
writeBench(std::ostream &os, int pr, int repeats, int jobs, bool smoke,
           const std::vector<Timing> &timings,
           const std::string &microbench)
{
    utsname uts{};
    uname(&uts);
    os << "{\n  \"schema\": \"" << kSchema << "\",\n";
    os << "  \"pr\": " << pr << ",\n";
    os << "  \"host\": {\"system\": \"";
    stats::jsonEscape(os, uts.sysname);
    os << "\", \"release\": \"";
    stats::jsonEscape(os, uts.release);
    os << "\", \"machine\": \"";
    stats::jsonEscape(os, uts.machine);
    os << "\", \"cpus\": " << std::thread::hardware_concurrency()
#ifdef NDEBUG
       << ", \"build\": \"Release\"},\n";
#else
       << ", \"build\": \"Debug\"},\n";
#endif
    os << "  \"repeats\": " << repeats << ",\n";
    os << "  \"jobs\": " << jobs << ",\n";
    os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    os << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < timings.size(); ++i) {
        const Timing &t = timings[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"name\": \"%s\", \"points\": %llu, "
                      "\"accesses\": %llu, \"secMedian\": %.6g, "
                      "\"secMin\": %.6g, \"pointsPerSec\": %.6g, "
                      "\"accessesPerSec\": %.6g}",
                      t.name.c_str(),
                      static_cast<unsigned long long>(t.points),
                      static_cast<unsigned long long>(t.accesses),
                      t.secMedian, t.secMin, t.pointsPerSec,
                      t.accessesPerSec);
        os << buf << (i + 1 < timings.size() ? ",\n" : "\n");
    }
    os << "  ]";
    if (!microbench.empty())
        os << ",\n  \"microbench\": " << microbench;
    os << "\n}\n";
}

// ------------------------------------------------------------------
// --compare

JsonValue
loadBench(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fail("cannot open " + path);
    std::ostringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    JsonParser parser(text, "bench: " + path);
    JsonValue root = parser.parse();
    const JsonValue *schema = root.find("schema");
    if (!schema || schema->string != kSchema)
        fail(path + ": schema mismatch (want " + kSchema + ", got " +
             (schema ? schema->string : "none") + ")");
    return root;
}

int
compareBench(const std::string &oldPath, const std::string &newPath,
             double thresholdPct, bool allowNew)
{
    const JsonValue oldRoot = loadBench(oldPath);
    const JsonValue newRoot = loadBench(newPath);
    const JsonValue *oldScen = oldRoot.find("scenarios");
    const JsonValue *newScen = newRoot.find("scenarios");
    if (!oldScen || !newScen)
        fail("missing scenarios array");

    auto jobsOf = [](const JsonValue &root) {
        const JsonValue *j = root.find("jobs");
        return j ? j->number : 1.0;
    };
    if (jobsOf(oldRoot) != jobsOf(newRoot))
        std::cerr << "bench: note: comparing runs with different "
                     "--jobs; rates are not strictly comparable\n";

    // Per-file name -> pointsPerSec, in file order; the table walks
    // the union so a scenario present in only one file still gets a
    // row before the exit-2 verdict.
    auto rates = [](const JsonValue &scen, const std::string &path) {
        std::vector<std::pair<std::string, double>> out;
        for (const JsonValue &s : scen.array) {
            const JsonValue *name = s.find("name");
            const JsonValue *pps = s.find("pointsPerSec");
            if (!name || !pps)
                fail(path + ": scenario missing name/pointsPerSec");
            out.emplace_back(name->string, pps->number);
        }
        return out;
    };
    const auto oldRates = rates(*oldScen, oldPath);
    const auto newRates = rates(*newScen, newPath);
    auto lookup = [](const std::vector<std::pair<std::string, double>>
                         &v,
                     const std::string &name) -> const double * {
        for (const auto &[n, r] : v)
            if (n == name)
                return &r;
        return nullptr;
    };

    std::printf("%-22s %12s %12s %8s  %s\n", "scenario", "old pts/s",
                "new pts/s", "delta", "verdict");
    bool regression = false;
    bool mismatch = false;
    for (const auto &[name, oldPps] : oldRates) {
        const double *newPps = lookup(newRates, name);
        if (!newPps) {
            std::printf("%-22s %12.0f %12s %8s  ONLY-IN-OLD\n",
                        name.c_str(), oldPps, "-", "-");
            mismatch = true;
            continue;
        }
        const double delta = 100.0 * (*newPps - oldPps) / oldPps;
        const bool bad = delta < -thresholdPct;
        std::printf("%-22s %12.0f %12.0f %+7.1f%%  %s\n", name.c_str(),
                    oldPps, *newPps, delta, bad ? "REGRESSION" : "ok");
        if (bad)
            regression = true;
    }
    for (const auto &[name, newPps] : newRates) {
        if (lookup(oldRates, name))
            continue;
        std::printf("%-22s %12s %12.0f %8s  %s\n", name.c_str(), "-",
                    newPps, "-", allowNew ? "NEW" : "ONLY-IN-NEW");
        if (!allowNew)
            mismatch = true;
    }
    if (mismatch) {
        std::fprintf(stderr,
                     "bench: scenario sets differ; the files do not "
                     "measure the same protocol\n");
        return 2;
    }
    if (regression) {
        std::fprintf(stderr,
                     "bench: regression beyond %.1f%% threshold\n",
                     thresholdPct);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out;
    int pr = 0;
    int repeats = 0;
    bool smoke = false;
    int jobs = 1;
    std::vector<std::string> only;
    std::string perfSim;
    bool list = false;
    bool compare = false;
    bool allowNew = false;
    std::vector<std::string> comparePaths;
    double threshold = 10.0;

    for (int i = 1; i < argc; ++i) {
        const std::string opt = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                fail("option " + opt + " needs a value");
            return argv[++i];
        };
        if (opt == "--help" || opt == "-h") {
            printUsage(std::cout);
            return 0;
        } else if (opt == "--out")
            out = val();
        else if (opt == "--pr")
            pr = std::atoi(val().c_str());
        else if (opt == "--repeats")
            repeats = std::atoi(val().c_str());
        else if (opt == "--smoke")
            smoke = true;
        else if (opt == "--jobs")
            jobs = std::atoi(val().c_str());
        else if (opt == "--scenario")
            only.push_back(val());
        else if (opt == "--perf-sim")
            perfSim = val();
        else if (opt == "--list")
            list = true;
        else if (opt == "--compare")
            compare = true;
        else if (opt == "--allow-new")
            allowNew = true;
        else if (opt == "--threshold")
            threshold = std::atof(val().c_str());
        else if (opt.rfind("--", 0) == 0)
            usage();
        else
            comparePaths.push_back(opt);
    }

    if (compare) {
        if (comparePaths.size() != 2)
            usage();
        return compareBench(comparePaths[0], comparePaths[1],
                            threshold, allowNew);
    }
    if (!comparePaths.empty() || allowNew)
        usage();

    const std::vector<bench::PerfScenario> all =
        bench::perfScenarios();
    if (list) {
        for (const bench::PerfScenario &s : all)
            std::printf("%s\n", s.name.c_str());
        return 0;
    }

    std::vector<bench::PerfScenario> scenarios;
    if (only.empty()) {
        scenarios = all;
    } else {
        for (const std::string &name : only) {
            const auto it = std::find_if(
                all.begin(), all.end(),
                [&](const bench::PerfScenario &s) {
                    return s.name == name;
                });
            if (it == all.end())
                fail("unknown scenario '" + name +
                     "' (see --list)");
            scenarios.push_back(*it);
        }
    }

    if (repeats <= 0)
        repeats = smoke ? 2 : 5;

    std::vector<Timing> timings;
    for (const bench::PerfScenario &s : scenarios) {
        std::fprintf(stderr, "bench: %s (%d repeats)...\n",
                     s.name.c_str(), repeats);
        timings.push_back(timeScenario(s, repeats, jobs));
        const Timing &t = timings.back();
        std::fprintf(stderr,
                     "bench: %s: %.4g s min, %.6g points/s\n",
                     t.name.c_str(), t.secMin, t.pointsPerSec);
    }

    std::string microbench;
    if (!perfSim.empty())
        microbench = runPerfSim(perfSim);

    if (out.empty()) {
        writeBench(std::cout, pr, repeats, jobs, smoke, timings,
                   microbench);
    } else {
        std::ofstream os(out);
        if (!os)
            fail("cannot open " + out);
        writeBench(os, pr, repeats, jobs, smoke, timings, microbench);
        std::fprintf(stderr, "bench: wrote %s\n", out.c_str());
    }
    return 0;
}
