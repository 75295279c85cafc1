/**
 * @file
 * Every JSON writer shares one escaper (stats::jsonEscape): a name
 * holding a control byte must come out as a \u escape, never as a raw
 * byte (invalid JSON), and decode back to the original name.  Drives
 * the profiler's JSON report and `report --format json`.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/surface.hh"
#include "core/surface_io.hh"
#include "json_util.hh"
#include "sim/profiler.hh"

#ifndef GASNUB_REPORT_BIN
#error "GASNUB_REPORT_BIN must point at the report tool"
#endif

namespace {

using namespace gasnub;
using tooljson::JsonParser;
using tooljson::JsonValue;

/** True when @p json holds a raw control byte other than newline. */
bool
hasRawControlByte(const std::string &json)
{
    for (const char c : json)
        if (static_cast<unsigned char>(c) < 0x20 && c != '\n')
            return true;
    return false;
}

TEST(JsonEscape, ControlByteNamesParseBack)
{
    const std::string name = "ctl\x01name";

    // Profiler zone report.
    prof::Profiler::enable(true);
    prof::Profiler::instance().reset();
    {
        GASNUB_PROF_ZONE("ctl\x01name");
    }
    std::ostringstream prof_json;
    prof::Profiler::instance().reportJson(prof_json);
    prof::Profiler::enable(false);
    EXPECT_FALSE(hasRawControlByte(prof_json.str()));
    const JsonValue profile =
        JsonParser(prof_json.str(), "profile").parse();
    bool found = false;
    for (const JsonValue &z : profile.find("zones")->array)
        found = found || z.find("name")->string == name;
    EXPECT_TRUE(found) << prof_json.str();

    // report --format json over a surface whose name and attribution
    // resource carry the byte.
    core::Surface s(name, {2048}, {1});
    s.set(2048, 1, 100);
    s.enableAttribution({name});
    s.setAttribution(2048, 1, 1000, {1000});
    const std::string dir = ::testing::TempDir();
    const std::string surf = dir + "/ctl_name.surf";
    const std::string out = dir + "/ctl_name.report.json";
    core::saveSurfaceFile(s, surf);
    const std::string cmd = std::string(GASNUB_REPORT_BIN) +
                            " --format json " + surf + " > " + out;
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::ifstream in(out);
    std::ostringstream report_json;
    report_json << in.rdbuf();
    EXPECT_FALSE(hasRawControlByte(report_json.str()));
    const JsonValue report =
        JsonParser(report_json.str(), "report").parse();
    const JsonValue &rep = report.find("reports")->array.at(0);
    EXPECT_EQ(rep.find("title")->string, name);
    const JsonValue &slice = rep.find("regions")
                                 ->array.at(0)
                                 .find("resources")
                                 ->array.at(0);
    EXPECT_EQ(slice.find("resource")->string, name);
}

} // namespace
