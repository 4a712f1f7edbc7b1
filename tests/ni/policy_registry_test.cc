/**
 * @file
 * Tests for the PolicyRegistry and the PolicySpec parser: name lookup
 * and error reporting, duplicate-registration detection, external
 * registration, spec round-tripping, and typed parameter access.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "ni/dispatch_policy.hh"

namespace {

using namespace rpcvalet;
using ni::PolicyRegistry;
using ni::PolicySpec;

TEST(Registry, BuiltinsAreRegistered)
{
    const auto names = PolicyRegistry::instance().names();
    for (const char *expected :
         {"greedy", "rr", "pow2", "jbsq", "stale-jsq", "delay-aware"}) {
        EXPECT_TRUE(std::find(names.begin(), names.end(), expected) !=
                    names.end())
            << expected << " missing from registry";
    }
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(RegistryDeath, UnknownNameIsFatalAndListsRegisteredNames)
{
    // The error must both flag the bad name and tell the user what is
    // available.
    EXPECT_EXIT(ni::makePolicy("nonesuch"),
                ::testing::ExitedWithCode(1),
                "unknown dispatch policy 'nonesuch'.*greedy.*jbsq.*rr");
}

TEST(RegistryDeath, DuplicateRegistrationIsFatal)
{
    EXPECT_EXIT(PolicyRegistry::instance().add(
                    "greedy",
                    [](const PolicySpec &) {
                        return ni::makePolicy("rr");
                    }),
                ::testing::ExitedWithCode(1),
                "'greedy' is already registered");
}

TEST(RegistryDeath, EmptyNameIsFatal)
{
    EXPECT_EXIT(PolicyRegistry::instance().add(
                    "",
                    [](const PolicySpec &) {
                        return ni::makePolicy("rr");
                    }),
                ::testing::ExitedWithCode(1), "empty name");
}

TEST(Registry, ExternalRegistrationIsVisibleEverywhere)
{
    // Mirrors examples/custom_policy_playground.cc: a policy defined in
    // this test TU becomes reachable by name through the public API.
    class EchoFirstCandidate : public ni::DispatchPolicy
    {
      public:
        std::optional<proto::CoreId>
        select(const ni::DispatchContext &ctx) override
        {
            for (const proto::CoreId core : ctx.candidates) {
                if (ctx.outstanding[core] < ctx.threshold)
                    return core;
            }
            return std::nullopt;
        }
        std::string name() const override { return "test-first-fit"; }
    };

    static const ni::PolicyRegistrar registrar(
        "test-first-fit", [](const PolicySpec &spec) {
            spec.expectKeys({});
            return std::make_unique<EchoFirstCandidate>();
        });

    EXPECT_TRUE(PolicyRegistry::instance().contains("test-first-fit"));
    EXPECT_EQ(ni::makePolicy("test-first-fit")->name(), "test-first-fit");
}

TEST(Spec, ParsesBareName)
{
    const PolicySpec spec = PolicySpec::parse("greedy");
    EXPECT_EQ(spec.name, "greedy");
    EXPECT_TRUE(spec.params.empty());
    EXPECT_EQ(spec.toString(), "greedy");
}

TEST(Spec, ParamsRoundTripThroughToString)
{
    const PolicySpec spec = PolicySpec::parse("pow2:d=3");
    EXPECT_EQ(spec.name, "pow2");
    EXPECT_EQ(spec.uintParam("d", 0), 3u);
    EXPECT_EQ(spec.toString(), "pow2:d=3");
    EXPECT_EQ(PolicySpec::parse(spec.toString()), spec);
}

TEST(Spec, MultipleParamsSortedAndRoundTrip)
{
    const PolicySpec spec = PolicySpec::parse("delay-aware:init=1us,alpha=0.25");
    EXPECT_DOUBLE_EQ(spec.doubleParam("alpha", 0.0), 0.25);
    EXPECT_EQ(spec.tickParam("init", 0), sim::microseconds(1.0));
    // Keys print sorted, independent of input order.
    EXPECT_EQ(spec.toString(), "delay-aware:alpha=0.25,init=1us");
    EXPECT_EQ(PolicySpec::parse(spec.toString()), spec);
}

TEST(Spec, TickParamUnits)
{
    EXPECT_EQ(PolicySpec::parse("x:t=50ns").tickParam("t", 0),
              sim::nanoseconds(50.0));
    EXPECT_EQ(PolicySpec::parse("x:t=1.5us").tickParam("t", 0),
              sim::microseconds(1.5));
    EXPECT_EQ(PolicySpec::parse("x:t=2ms").tickParam("t", 0),
              sim::microseconds(2000.0));
    // A bare number means nanoseconds.
    EXPECT_EQ(PolicySpec::parse("x:t=75").tickParam("t", 0),
              sim::nanoseconds(75.0));
    // Absent key falls back.
    EXPECT_EQ(PolicySpec::parse("x").tickParam("t", 123), 123u);
}

TEST(Spec, ImplicitConversionsFromStrings)
{
    const PolicySpec from_literal = "jbsq:d=2";
    EXPECT_EQ(from_literal.name, "jbsq");
    const std::string text = "stale-jsq:staleness=50ns";
    const PolicySpec from_string = text;
    EXPECT_EQ(from_string.tickParam("staleness", 0),
              sim::nanoseconds(50.0));
}

TEST(SpecDeath, MalformedSpecsAreFatal)
{
    EXPECT_EXIT(PolicySpec::parse(""), ::testing::ExitedWithCode(1),
                "empty name");
    EXPECT_EXIT(PolicySpec::parse(":d=2"), ::testing::ExitedWithCode(1),
                "empty name");
    EXPECT_EXIT(PolicySpec::parse("pow2:d"), ::testing::ExitedWithCode(1),
                "key=value");
    EXPECT_EXIT(PolicySpec::parse("pow2:=2"), ::testing::ExitedWithCode(1),
                "key=value");
    EXPECT_EXIT(PolicySpec::parse("pow2:d=2,d=3"),
                ::testing::ExitedWithCode(1), "duplicate key");
    // std::getline never yields the empty segment after a trailing
    // separator; parse must still reject these.
    EXPECT_EXIT(PolicySpec::parse("greedy:"), ::testing::ExitedWithCode(1),
                "key=value");
    EXPECT_EXIT(PolicySpec::parse("pow2:d=3,"),
                ::testing::ExitedWithCode(1), "key=value");
}

TEST(SpecDeath, UnknownParameterKeyIsFatalAtConstruction)
{
    // expectKeys: a typo'd key dies loudly instead of defaulting.
    EXPECT_EXIT(ni::makePolicy("pow2:dd=3"), ::testing::ExitedWithCode(1),
                "unknown parameter 'dd'");
    EXPECT_EXIT(ni::makePolicy("greedy:d=3"), ::testing::ExitedWithCode(1),
                "unknown parameter 'd'");
}

TEST(SpecDeath, NonNumericParamsAreFatal)
{
    EXPECT_EXIT(ni::makePolicy("pow2:d=abc"),
                ::testing::ExitedWithCode(1), "not a number");
    EXPECT_EXIT(ni::makePolicy("stale-jsq:staleness=50lightyears"),
                ::testing::ExitedWithCode(1), "unknown unit");
}

TEST(SpecDeath, OutOfRangeNumbersAreFatalNotUndefined)
{
    // Unrepresentable doubles must hit fatal() before any
    // double-to-integer cast (which would be UB).
    EXPECT_EXIT(ni::makePolicy("pow2:d=1e300"),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(ni::makePolicy("pow2:d=inf"),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(ni::makePolicy("pow2:d=nan"),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(ni::makePolicy("pow2:d=2.5"),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(ni::makePolicy("pow2:d=-1"),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(ni::makePolicy("stale-jsq:staleness=1e300ns"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(ni::makePolicy("stale-jsq:staleness=inf"),
                ::testing::ExitedWithCode(1), "out of range");
    // Values that fit a uint64 but not the policies' uint32 'd' must
    // die loudly rather than wrap (4294967298 would wrap to d=2).
    EXPECT_EXIT(ni::makePolicy("pow2:d=4294967298"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(ni::makePolicy("jbsq:d=4294967298"),
                ::testing::ExitedWithCode(1), "out of range");
    // NaN compares false against everything (it would silently poison
    // the EWMA), so real parameters reject it before any range check.
    EXPECT_EXIT(ni::makePolicy("delay-aware:alpha=nan"),
                ::testing::ExitedWithCode(1), "is not a finite number");
    EXPECT_EXIT(ni::makePolicy("delay-aware:alpha=0"),
                ::testing::ExitedWithCode(1), "alpha in \\(0, 1\\]");
    EXPECT_EXIT(ni::makePolicy("delay-aware:alpha=1.5"),
                ::testing::ExitedWithCode(1), "alpha in \\(0, 1\\]");
}

} // namespace
