/**
 * @file
 * Tests of the generic sim::TypedSpec / Registry / Registrar templates
 * on toy axes defined here, independent of every simulator component:
 * static registration, name listing, the registration and lookup
 * errors, the null-product panic, factories with an extra argument,
 * and the typed spec's default, label and conversions.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/registry.hh"

namespace {

using namespace rpcvalet;

struct Widget
{
    std::string kind;
    double scale = 1.0;
};

using WidgetPtr = std::unique_ptr<Widget>;

/** A toy axis with a default name and a spec-only factory. */
struct WidgetAxis
{
    static constexpr const char *label = "widget";
    static constexpr const char *defaultName = "plain";
    static constexpr const char *noun = "toy widget";
    static constexpr const char *plural = "toy widgets";
    using Factory =
        std::function<WidgetPtr(const sim::TypedSpec<WidgetAxis> &)>;
    static void linkBuiltins() {}
};

/** A toy axis whose factories also take a scale, as arrival's do. */
struct ScaledAxis
{
    static constexpr const char *label = "scaled";
    static constexpr const char *defaultName = "";
    static constexpr const char *noun = "scaled widget";
    static constexpr const char *plural = "scaled widgets";
    using Factory = std::function<WidgetPtr(
        const sim::TypedSpec<ScaledAxis> &, double scale)>;
    static void
    checkArgs(const sim::Spec &spec, double scale)
    {
        if (!(scale > 0.0)) {
            sim::fatal("scaled widget '" + spec.toString() +
                       "' needs a positive scale");
        }
    }
    static void linkBuiltins() {}
};

using WidgetSpec = sim::TypedSpec<WidgetAxis>;
using WidgetRegistry = sim::Registry<WidgetAxis>;
using WidgetRegistrar = sim::Registrar<WidgetAxis>;
using ScaledRegistry = sim::Registry<ScaledAxis>;

WidgetPtr
makeWidget(const WidgetSpec &spec)
{
    return std::make_unique<Widget>(Widget{spec.name});
}

WidgetPtr
makeNothing(const WidgetSpec &)
{
    return nullptr;
}

WidgetPtr
makeScaled(const sim::TypedSpec<ScaledAxis> &spec, double scale)
{
    return std::make_unique<Widget>(Widget{spec.name, scale});
}

// Registered out of order at static initialization, before main.
const WidgetRegistrar zetaReg("zeta", makeWidget);
const WidgetRegistrar plainReg("plain", makeWidget);
const WidgetRegistrar alphaReg{"alpha", makeWidget};
const WidgetRegistrar nullReg("returns-null", makeNothing);
const sim::Registrar<ScaledAxis> scaledReg("sized", makeScaled);

TEST(SimRegistry, RegistrarsRunAtStaticInit)
{
    const WidgetRegistry &reg = WidgetRegistry::instance();
    EXPECT_TRUE(reg.contains("plain"));
    EXPECT_TRUE(reg.contains("alpha"));
    EXPECT_FALSE(reg.contains("beta"));
    EXPECT_EQ(reg.make("alpha")->kind, "alpha");
    // The two axes keep separate tables.
    EXPECT_FALSE(ScaledRegistry::instance().contains("plain"));
}

TEST(SimRegistry, NamesAreSortedAndJoined)
{
    const WidgetRegistry &reg = WidgetRegistry::instance();
    const std::vector<std::string> sorted{"alpha", "plain", "returns-null",
                                          "zeta"};
    EXPECT_EQ(reg.names(), sorted);
    EXPECT_EQ(reg.namesJoined(), "alpha, plain, returns-null, zeta");
}

TEST(SimRegistry, ExtraFactoryArgumentReachesTheFactory)
{
    const WidgetPtr w = ScaledRegistry::instance().make("sized", 2.5);
    EXPECT_EQ(w->kind, "sized");
    EXPECT_DOUBLE_EQ(w->scale, 2.5);
}

TEST(SimRegistryDeath, RegistrationErrorsAreFatal)
{
    WidgetRegistry &reg = WidgetRegistry::instance();
    EXPECT_EXIT(reg.add("plain", makeWidget), ::testing::ExitedWithCode(1),
                "^fatal: toy widget 'plain' is already registered "
                "\\(duplicate registration\\)\n$");
    EXPECT_EXIT(reg.add("", makeWidget), ::testing::ExitedWithCode(1),
                "^fatal: toy widget registered with an empty name\n$");
    EXPECT_EXIT(reg.add("hollow", nullptr), ::testing::ExitedWithCode(1),
                "^fatal: toy widget 'hollow' has a null factory\n$");
}

TEST(SimRegistryDeath, UnknownNameIsFatalAndListsEveryName)
{
    const std::string expected =
        "^fatal: unknown toy widget 'beta' \\(registered toy widgets: "
        "alpha, plain, returns-null, zeta\\)\n$";
    EXPECT_EXIT(WidgetRegistry::instance().make("beta"),
                ::testing::ExitedWithCode(1), expected);
    EXPECT_EXIT(WidgetRegistry::instance().expectRegistered("beta"),
                ::testing::ExitedWithCode(1), expected);
    WidgetRegistry::instance().expectRegistered("plain"); // no exit
}

TEST(SimRegistryDeath, FactoryReturningNullPanics)
{
    // A null product is a simulator bug, not a user error: abort.
    EXPECT_EXIT(WidgetRegistry::instance().make("returns-null"),
                ::testing::KilledBySignal(SIGABRT),
                "panic: factory for toy widget 'returns-null' returned "
                "null");
}

TEST(SimRegistryDeath, ExtraArgumentsAreCheckedAfterTheLookup)
{
    EXPECT_EXIT(ScaledRegistry::instance().make("sized", 0.0),
                ::testing::ExitedWithCode(1),
                "scaled widget 'sized' needs a positive scale");
    // The name lookup comes first, so a typo is reported as one.
    EXPECT_EXIT(ScaledRegistry::instance().make("sizd", 0.0),
                ::testing::ExitedWithCode(1),
                "unknown scaled widget 'sizd' \\(registered scaled "
                "widgets: sized\\)");
}

TEST(SimTypedSpec, DefaultNameAndLabel)
{
    const WidgetSpec plain;
    EXPECT_EQ(plain.name, "plain");
    EXPECT_EQ(plain.what, "widget");
    EXPECT_TRUE(plain.params.empty());
    const sim::TypedSpec<ScaledAxis> unnamed;
    EXPECT_EQ(unnamed.name, "");
    EXPECT_EQ(unnamed.what, "scaled");
}

TEST(SimTypedSpec, ImplicitConstructionFromStrings)
{
    const WidgetSpec from_literal = "zeta:k=3";
    EXPECT_EQ(from_literal.name, "zeta");
    EXPECT_EQ(from_literal.uintParam("k", 0), 3u);
    EXPECT_EQ(from_literal.what, "widget");
    const std::string text = "alpha:t=2us";
    const WidgetSpec from_string = text;
    EXPECT_EQ(from_string.tickParam("t", 0), sim::microseconds(2.0));
    EXPECT_EQ(WidgetSpec::parse("alpha:t=2us"), from_string);
}

TEST(SimTypedSpec, EqualityIgnoresTheLabel)
{
    const WidgetSpec widget = "x:k=1";
    const sim::TypedSpec<ScaledAxis> scaled = "x:k=1";
    EXPECT_EQ(widget, scaled);
    EXPECT_EQ(widget, sim::Spec::parse("x:k=1", "other"));
    EXPECT_NE(widget, WidgetSpec("x:k=2"));
}

TEST(SimTypedSpecDeath, ParseErrorsCarryTheLabel)
{
    EXPECT_EXIT(WidgetSpec::parse(""), ::testing::ExitedWithCode(1),
                "widget spec '' has an empty name");
    EXPECT_EXIT((void)sim::TypedSpec<ScaledAxis>("s:k"),
                ::testing::ExitedWithCode(1), "scaled spec 's:k'");
}

} // namespace
