/**
 * @file
 * Tests for the generic sim::Spec machinery shared by the policy and
 * arrival layers: parsing, round-tripping, typed accessors, and the
 * `what` diagnostic label; and for the value parsers (parseUint,
 * parseReal, parseDuration, parseBool) every typed-in setting uses.
 * The derived-type specifics live in tests/ni/policy_registry_test.cc
 * and tests/net/arrival_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/spec.hh"
#include "sim/types.hh"

namespace {

using rpcvalet::sim::Spec;

TEST(SimSpec, ParsesBareNameAndParams)
{
    const Spec bare = Spec::parse("widget", "widget");
    EXPECT_EQ(bare.name, "widget");
    EXPECT_TRUE(bare.params.empty());
    EXPECT_EQ(bare.toString(), "widget");

    const Spec spec = Spec::parse("w:b=2,a=1", "widget");
    EXPECT_EQ(spec.name, "w");
    EXPECT_EQ(spec.uintParam("a", 0), 1u);
    EXPECT_EQ(spec.uintParam("b", 0), 2u);
    // Keys print sorted, independent of input order.
    EXPECT_EQ(spec.toString(), "w:a=1,b=2");
    EXPECT_EQ(Spec::parse(spec.toString(), "widget"), spec);
}

TEST(SimSpec, IdentityIgnoresDiagnosticLabel)
{
    const Spec as_widget = Spec::parse("x:k=1", "widget");
    const Spec as_gadget = Spec::parse("x:k=1", "gadget");
    EXPECT_EQ(as_widget, as_gadget);
    EXPECT_NE(as_widget, Spec::parse("x:k=2", "widget"));
}

TEST(SimSpec, TypedAccessorsAndFallbacks)
{
    const Spec spec = Spec::parse("x:f=0.25,n=7,t=1.5us", "widget");
    EXPECT_DOUBLE_EQ(spec.doubleParam("f", 0.0), 0.25);
    EXPECT_EQ(spec.uintParam("n", 0), 7u);
    EXPECT_EQ(spec.tickParam("t", 0), rpcvalet::sim::microseconds(1.5));
    EXPECT_DOUBLE_EQ(spec.doubleParam("missing", 3.5), 3.5);
    EXPECT_EQ(spec.uintParam("missing", 9), 9u);
    EXPECT_EQ(spec.tickParam("missing", 123), 123u);
    EXPECT_TRUE(spec.has("f"));
    EXPECT_FALSE(spec.has("missing"));
}

TEST(SimSpecDeath, ErrorsCarryTheSubsystemLabel)
{
    // Diagnostics must say which subsystem's spec is malformed.
    EXPECT_EXIT(Spec::parse(":k=1", "widget"),
                ::testing::ExitedWithCode(1),
                "widget spec ':k=1' has an empty name");
    EXPECT_EXIT(Spec::parse("x:k", "gadget"),
                ::testing::ExitedWithCode(1), "gadget spec.*key=value");
    EXPECT_EXIT(Spec::parse("x:k=1", "widget").expectKeys({"other"}),
                ::testing::ExitedWithCode(1),
                "widget 'x:k=1': unknown parameter 'k'");
    EXPECT_EXIT(Spec::parse("x:k=abc", "widget").uintParam("k", 0),
                ::testing::ExitedWithCode(1),
                "widget 'x:k=abc'.*not a number");
}

// ----- the shared value parsers -----

using rpcvalet::sim::parseBool;
using rpcvalet::sim::parseDuration;
using rpcvalet::sim::parseReal;
using rpcvalet::sim::parseUint;

TEST(SimParse, IntegersArePlainDecimalAndExact)
{
    EXPECT_EQ(parseUint("0"), 0u);
    EXPECT_EQ(parseUint("007"), 7u);
    // Above 2^53 a trip through double would round.
    EXPECT_EQ(parseUint("9007199254740993"), 9007199254740993ull);
    EXPECT_EQ(parseUint("18446744073709551615"), UINT64_MAX);
    // Bounds are inclusive.
    EXPECT_EQ(parseUint("1", 1, 64), 1u);
    EXPECT_EQ(parseUint("64", 1, 64), 64u);
}

TEST(SimParseDeath, IntegersHaveOneSpelling)
{
    for (const char *text : {"1e3", "10.0", "-1", "+5", " 5", "inf"}) {
        SCOPED_TRACE(text);
        EXPECT_EXIT(parseUint(text), ::testing::ExitedWithCode(1),
                    "is not a non-negative integer");
    }
    EXPECT_EXIT(parseUint("abc"), ::testing::ExitedWithCode(1),
                "'abc' is not a number");
    EXPECT_EXIT(parseUint(""), ::testing::ExitedWithCode(1),
                "'' is not a number");
    EXPECT_EXIT(parseUint("18446744073709551616"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(parseUint("65", 1, 64), ::testing::ExitedWithCode(1),
                "'65' is out of range \\[1, 64\\]");
    EXPECT_EXIT(parseUint("0", 1, 64), ::testing::ExitedWithCode(1),
                "out of range");
}

TEST(SimParse, RealsDurationsAndBooleans)
{
    EXPECT_DOUBLE_EQ(parseReal("0.25"), 0.25);
    EXPECT_DOUBLE_EQ(parseReal("1e6"), 1e6);
    EXPECT_EQ(parseDuration("150"), rpcvalet::sim::nanoseconds(150.0));
    EXPECT_EQ(parseDuration("150ns"), rpcvalet::sim::nanoseconds(150.0));
    EXPECT_EQ(parseDuration("1.5us"), rpcvalet::sim::microseconds(1.5));
    EXPECT_EQ(parseDuration("50 us"), rpcvalet::sim::microseconds(50.0));
    EXPECT_EQ(parseDuration("2ms"), rpcvalet::sim::microseconds(2000.0));
    for (const char *yes : {"true", "yes", "on", "1"})
        EXPECT_TRUE(parseBool(yes)) << yes;
    for (const char *no : {"false", "no", "off", "0"})
        EXPECT_FALSE(parseBool(no)) << no;
}

TEST(SimParseDeath, MalformedRealsDurationsAndBooleans)
{
    EXPECT_EXIT(parseReal("0.5x"), ::testing::ExitedWithCode(1),
                "'0.5x' is not a number");
    EXPECT_EXIT(parseReal("inf"), ::testing::ExitedWithCode(1),
                "not a finite number");
    EXPECT_EXIT(parseReal("nan"), ::testing::ExitedWithCode(1),
                "not a finite number");
    EXPECT_EXIT(parseDuration("5s"), ::testing::ExitedWithCode(1),
                "unknown unit 's'");
    EXPECT_EXIT(parseDuration("-1us"), ::testing::ExitedWithCode(1),
                "out of range");
    EXPECT_EXIT(parseDuration("us"), ::testing::ExitedWithCode(1),
                "not a number");
    EXPECT_EXIT(parseBool("maybe"), ::testing::ExitedWithCode(1),
                "'maybe' is not a boolean");
}

TEST(SimSpecDeath, ParameterErrorsNameTheSpecAndTheParameter)
{
    const Spec spec = Spec::parse("x:n=70,t=9lightyears,b=2", "widget");
    EXPECT_EQ(spec.uintParam("n", 0, 0, 70), 70u);
    EXPECT_EXIT(spec.uintParam("n", 0, 0, 64), ::testing::ExitedWithCode(1),
                "widget 'x:b=2,n=70,t=9lightyears': parameter 'n=70': "
                "'70' is out of range \\[0, 64\\]");
    EXPECT_EXIT(spec.tickParam("t", 0), ::testing::ExitedWithCode(1),
                "parameter 't=9lightyears': duration '9lightyears' has "
                "unknown unit");
    EXPECT_EXIT(spec.boolParam("b", false), ::testing::ExitedWithCode(1),
                "parameter 'b=2': '2' is not a boolean");
}

} // namespace
