/**
 * @file
 * Tests of the --list-specs registry listing: every self-registering
 * axis appears in canonical order with its built-in names, so a new
 * registry (or a renamed builtin) cannot land without showing up in
 * the user-facing discovery surface.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/registry_listing.hh"

namespace {

using namespace rpcvalet;

bool
axisContains(const core::RegistryAxis &axis, const std::string &name)
{
    return std::find(axis.names.begin(), axis.names.end(), name) !=
           axis.names.end();
}

TEST(RegistryListing, AllSixAxesInCanonicalOrder)
{
    const std::vector<core::RegistryAxis> axes = core::listRegistries();
    ASSERT_EQ(axes.size(), 6u);
    EXPECT_EQ(axes[0].axis, "policy");
    EXPECT_EQ(axes[1].axis, "arrival");
    EXPECT_EQ(axes[2].axis, "workload");
    EXPECT_EQ(axes[3].axis, "router");
    EXPECT_EQ(axes[4].axis, "fault");
    EXPECT_EQ(axes[5].axis, "conn");
    for (const core::RegistryAxis &axis : axes) {
        EXPECT_FALSE(axis.names.empty()) << axis.axis;
        EXPECT_TRUE(
            std::is_sorted(axis.names.begin(), axis.names.end()))
            << axis.axis;
    }
}

TEST(RegistryListing, KnownBuiltinsAreListed)
{
    const std::vector<core::RegistryAxis> axes = core::listRegistries();
    ASSERT_EQ(axes.size(), 6u);
    EXPECT_TRUE(axisContains(axes[0], "greedy"));
    EXPECT_TRUE(axisContains(axes[0], "jbsq"));
    EXPECT_TRUE(axisContains(axes[1], "poisson"));
    EXPECT_TRUE(axisContains(axes[2], "herd"));
    EXPECT_TRUE(axisContains(axes[3], "direct"));
    EXPECT_TRUE(axisContains(axes[3], "shard"));
    EXPECT_TRUE(axisContains(axes[4], "crash"));
    EXPECT_TRUE(axisContains(axes[4], "packet-loss"));
    EXPECT_TRUE(axisContains(axes[5], "all"));
    EXPECT_TRUE(axisContains(axes[5], "grouped"));
}

TEST(RegistryListing, FormattedTextHasOneLinePerAxis)
{
    const std::string text = core::formatRegistryListing();
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
    EXPECT_NE(text.find("policy: "), std::string::npos);
    EXPECT_NE(text.find("conn: "), std::string::npos);
    // The conn line carries both builtins.
    const std::string connLine =
        text.substr(text.find("conn: "));
    EXPECT_NE(connLine.find("all"), std::string::npos);
    EXPECT_NE(connLine.find("grouped"), std::string::npos);
}

TEST(RegistryCheck, ReturnsTheParsedSpec)
{
    EXPECT_EQ(core::checkPolicy("jbsq:d=2").toString(), "jbsq:d=2");
    EXPECT_EQ(core::checkArrival("lognormal:cv=4").what, "arrival");
    EXPECT_EQ(core::checkWorkload("masstree-get").name, "masstree-get");
    EXPECT_EQ(core::checkRouter("bounded-load:c=1.5").params.size(), 1u);
    EXPECT_EQ(core::checkFault("packet-loss:p=0.01").name, "packet-loss");
    EXPECT_EQ(core::checkConnScheduler("grouped:size=8").toString(),
              "grouped:size=8");
}

/** One over-range parameter per axis, read through the axis check. */
struct OutOfRangeCase
{
    const char *spec;
    std::function<void(const std::string &)> check;
};

TEST(RegistryCheckDeath, OverRangeParametersDieOnEveryAxis)
{
    // None of these may wrap into a small value: 4294967297 would run
    // herd with 1-byte values if value_bytes were narrowed unchecked.
    const std::vector<OutOfRangeCase> cases = {
        {"pow2:d=4294967296",
         [](const std::string &t) { (void)core::checkPolicy(t); }},
        {"ramp:over=1e300ms",
         [](const std::string &t) { (void)core::checkArrival(t); }},
        {"herd:value_bytes=4294967297",
         [](const std::string &t) { (void)core::checkWorkload(t); }},
        {"bounded-load:vnodes=18446744073709551616",
         [](const std::string &t) { (void)core::checkRouter(t); }},
        {"crash:node=0,at=1e300ms",
         [](const std::string &t) { (void)core::checkFault(t); }},
        {"grouped:size=4294967296",
         [](const std::string &t) { (void)core::checkConnScheduler(t); }},
    };
    for (const OutOfRangeCase &c : cases) {
        SCOPED_TRACE(c.spec);
        EXPECT_EXIT(c.check(c.spec), ::testing::ExitedWithCode(1),
                    "out of range");
    }
}

} // namespace
