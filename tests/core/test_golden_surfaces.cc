/**
 * @file
 * Golden-surface regression tests: small characterization surfaces for
 * every machine, checked against files committed under tests/data/.
 * Any change to the timing model shows up here as a point-by-point
 * diff instead of a silently shifted figure.
 *
 * To regenerate the golden files after an *intentional* model change:
 *
 *     GASNUB_REGEN_GOLDEN=1 ./build/tests/test_core \
 *         --gtest_filter='*Golden*'
 *
 * then review the diff of the golden files under tests/data and commit
 * it together with the model change that explains it.
 *
 * The GoldenBytes cases are stricter: each file holds a saved surface
 * (attribution rows included) followed by the machine's full stats
 * JSON, and a serial Characterizer and a 4-worker SweepRunner must
 * both reproduce it byte for byte.  They pin every local kernel family
 * on every machine, with and without an injected fault plan, plus the
 * remote sweeps that run Machine::produce().  The same variable
 * regenerates them (from the serial run).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/characterizer.hh"
#include "core/surface_io.hh"
#include "core/sweep_runner.hh"
#include "machine/machine.hh"
#include "sim/trace.hh"
#include "sim/units.hh"

#ifndef GASNUB_TESTS_DATA_DIR
#error "GASNUB_TESTS_DATA_DIR must point at tests/data"
#endif

namespace {

using namespace gasnub;
using namespace gasnub::core;

struct GoldenCase
{
    const char *file;            ///< file name under tests/data/
    machine::SystemKind kind;
    SweepSpec spec;
    CharacterizeConfig cfg;
};

CharacterizeConfig
localGrid()
{
    CharacterizeConfig cfg;
    cfg.workingSets = {4_KiB, 64_KiB, 2_MiB};
    cfg.strides = {1, 8, 64};
    cfg.capBytes = 2_MiB;
    return cfg;
}

CharacterizeConfig
remoteGrid()
{
    CharacterizeConfig cfg;
    cfg.workingSets = {64_KiB, 256_KiB};
    cfg.strides = {1, 2, 3, 8};
    cfg.capBytes = 256_KiB;
    return cfg;
}

std::vector<GoldenCase>
goldenCases()
{
    // One local-loads surface per machine plus one surface of each
    // machine's native remote method (8400 coherent pull, T3D deposit
    // between distinct NICs, T3E fetch).
    return {
        {"golden_dec8400_loads.surf", machine::SystemKind::Dec8400,
         SweepSpec::localLoads(0), localGrid()},
        {"golden_t3d_loads.surf", machine::SystemKind::CrayT3D,
         SweepSpec::localLoads(0), localGrid()},
        {"golden_t3e_loads.surf", machine::SystemKind::CrayT3E,
         SweepSpec::localLoads(0), localGrid()},
        {"golden_dec8400_pull.surf", machine::SystemKind::Dec8400,
         SweepSpec::remote(remote::TransferMethod::CoherentPull, true,
                           1, 0),
         remoteGrid()},
        {"golden_t3d_deposit.surf", machine::SystemKind::CrayT3D,
         SweepSpec::remote(remote::TransferMethod::Deposit, false, 0,
                           2),
         remoteGrid()},
        {"golden_t3e_fetch.surf", machine::SystemKind::CrayT3E,
         SweepSpec::remote(remote::TransferMethod::Fetch, true, 1, 0),
         remoteGrid()},
    };
}

Surface
compute(const GoldenCase &gc)
{
    machine::Machine m(gc.kind, 4);
    Characterizer c(m);
    return c.run(gc.spec, gc.cfg);
}

class GoldenSurfaces
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GoldenSurfaces, MatchesCommittedFile)
{
    const GoldenCase gc = goldenCases()[GetParam()];
    const std::string path =
        std::string(GASNUB_TESTS_DATA_DIR) + "/" + gc.file;
    const Surface fresh = compute(gc);

    if (std::getenv("GASNUB_REGEN_GOLDEN")) {
        saveSurfaceFile(fresh, path);
        GTEST_SKIP() << "regenerated " << path;
    }

    const Surface golden = loadSurfaceFile(path);
    EXPECT_EQ(golden.name(), fresh.name());
    ASSERT_EQ(golden.workingSets(), fresh.workingSets());
    ASSERT_EQ(golden.strides(), fresh.strides());
    for (std::uint64_t ws : golden.workingSets()) {
        for (std::uint64_t st : golden.strides()) {
            const double want = golden.at(ws, st);
            const double got = fresh.at(ws, st);
            // The model is deterministic; the tolerance only absorbs
            // the text round-trip of the surface format.
            EXPECT_NEAR(got, want, 1e-6 * std::abs(want) + 1e-9)
                << gc.file << " ws=" << ws << " stride=" << st;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(All, GoldenSurfaces,
                         ::testing::Range<std::size_t>(0, 6),
                         [](const auto &info) {
                             std::string n =
                                 goldenCases()[info.param].file;
                             n = n.substr(0, n.find('.'));
                             return n;
                         });

struct BytesCase
{
    std::string name; ///< test name; file golden_bytes_<name>.txt
    machine::SystemKind kind;
    SweepSpec spec;
    CharacterizeConfig cfg;
    bool attribution;
    std::string faults;
};

CharacterizeConfig
bytesLocalGrid()
{
    // 512 KiB overflows the write-back L2s, so stores and copies also
    // pin the dirty-victim writebacks of the fill path.
    CharacterizeConfig cfg;
    cfg.workingSets = {2_KiB, 32_KiB, 512_KiB};
    cfg.strides = {1, 3, 8, 64};
    cfg.capBytes = 1_MiB;
    return cfg;
}

CharacterizeConfig
bytesRemoteGrid()
{
    CharacterizeConfig cfg;
    cfg.workingSets = {16_KiB, 64_KiB};
    cfg.strides = {1, 2};
    cfg.capBytes = 64_KiB;
    return cfg;
}

std::vector<BytesCase>
bytesCases()
{
    const std::pair<const char *, machine::SystemKind> machines[] = {
        {"dec8400", machine::SystemKind::Dec8400},
        {"t3d", machine::SystemKind::CrayT3D},
        {"t3e", machine::SystemKind::CrayT3E},
    };
    const std::pair<const char *, SweepSpec> families[] = {
        {"loads", SweepSpec::localLoads(0)},
        {"stores", SweepSpec::localStores(0)},
        {"copy_sload",
         SweepSpec::localCopy(kernels::CopyVariant::StridedLoads, 0)},
        {"copy_sstore",
         SweepSpec::localCopy(kernels::CopyVariant::StridedStores, 0)},
    };
    std::vector<BytesCase> cases;
    for (const auto &[mname, kind] : machines) {
        for (const auto &[kname, spec] : families) {
            const std::string name = std::string(mname) + "_" + kname;
            cases.push_back(
                {name, kind, spec, bytesLocalGrid(), true, ""});
            cases.push_back({name + "_faulty", kind, spec,
                             bytesLocalGrid(), true,
                             "seed=7;dram-stall:prob=.3,extra=300"});
        }
    }
    cases.push_back(
        {"t3d_deposit", machine::SystemKind::CrayT3D,
         SweepSpec::remote(remote::TransferMethod::Deposit, false, 1, 0),
         bytesRemoteGrid(), false, ""});
    cases.push_back(
        {"t3e_fetch", machine::SystemKind::CrayT3E,
         SweepSpec::remote(remote::TransferMethod::Fetch, false, 1, 0),
         bytesRemoteGrid(), false, ""});
    return cases;
}

/**
 * Saved surface followed by the stats JSON of one case.  @p jobs <= 0
 * runs a serial Characterizer; otherwise a SweepRunner with that many
 * workers, its stats merged into the main machine as the drivers do.
 */
std::string
computeBytes(const BytesCase &bc, int jobs)
{
    trace::Tracer tracer;
    trace::ScopedThreadTracer scoped(tracer, 0);
    machine::SystemConfig sys;
    sys.kind = bc.kind;
    sys.attribution = bc.attribution;
    if (!bc.faults.empty())
        sys.faults = sim::FaultPlan::parse(bc.faults);
    machine::Machine m(sys);
    std::ostringstream os;
    if (jobs <= 0) {
        Characterizer c(m);
        saveSurface(c.run(bc.spec, bc.cfg), os);
    } else {
        SweepRunner runner(sys, jobs);
        saveSurface(runner.run(bc.spec, bc.cfg), os);
        runner.mergeStatsInto(m.statsGroup());
    }
    m.statsGroup().dumpJson(os);
    return os.str();
}

std::string
bytesPath(const BytesCase &bc)
{
    return std::string(GASNUB_TESTS_DATA_DIR) + "/golden_bytes_" +
           bc.name + ".txt";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

class GoldenBytes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GoldenBytes, SerialMatchesCommittedFile)
{
    const BytesCase bc = bytesCases()[GetParam()];
    const std::string fresh = computeBytes(bc, 0);
    if (std::getenv("GASNUB_REGEN_GOLDEN")) {
        std::ofstream(bytesPath(bc), std::ios::binary) << fresh;
        GTEST_SKIP() << "regenerated " << bytesPath(bc);
    }
    EXPECT_EQ(readFile(bytesPath(bc)), fresh);
}

TEST_P(GoldenBytes, ParallelMatchesCommittedFile)
{
    const BytesCase bc = bytesCases()[GetParam()];
    EXPECT_EQ(readFile(bytesPath(bc)), computeBytes(bc, 4));
}

INSTANTIATE_TEST_SUITE_P(All, GoldenBytes,
                         ::testing::Range<std::size_t>(
                             0, bytesCases().size()),
                         [](const auto &info) {
                             return bytesCases()[info.param].name;
                         });

} // namespace
