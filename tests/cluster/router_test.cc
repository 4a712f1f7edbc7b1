/**
 * @file
 * Unit tests for the cluster routing layer: RouterRegistry plumbing,
 * built-in router decisions against a fake cluster view (including
 * the shard router's keyspace partition), and health/failover
 * bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/router.hh"
#include "cluster/topology.hh"
#include "sim/rng.hh"

namespace {

using namespace rpcvalet;
using cluster::ClusterView;
using cluster::HealthTracker;
using cluster::RouteContext;
using cluster::Router;
using cluster::RouterPtr;
using cluster::RouterRegistrar;
using cluster::RouterRegistry;
using cluster::RouterSpec;

/** Scriptable cluster state for exercising routing decisions. */
class FakeView : public ClusterView
{
  public:
    explicit FakeView(std::uint32_t n) : up_(n, true), load_(n, 0) {}

    std::uint32_t
    numServers() const override
    {
        return static_cast<std::uint32_t>(up_.size());
    }

    bool isUp(std::uint32_t s) const override { return up_[s]; }

    std::uint64_t outstanding(std::uint32_t s) const override
    {
        return load_[s];
    }

    std::vector<bool> up_;
    std::vector<std::uint64_t> load_;
};

RouteContext
ctxFor(std::uint64_t key, const FakeView &view, sim::Rng &rng,
       std::uint8_t cls = 0)
{
    return RouteContext{key, cls, /*client=*/42, view, rng};
}

// ----- registry plumbing -----

TEST(RouterRegistry, BuiltinsAreRegistered)
{
    auto &reg = RouterRegistry::instance();
    for (const char *name :
         {"direct", "random", "rr", "shard", "bounded-load"})
        EXPECT_TRUE(reg.contains(name)) << name;
    const auto names = reg.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(RouterRegistry, SpecStringRoundTrips)
{
    const std::string text = "bounded-load:c=1.5,vnodes=32";
    const RouterSpec spec = RouterSpec::parse(text);
    EXPECT_EQ(spec.name, "bounded-load");
    EXPECT_EQ(spec.toString(), text);
    // The instance reports its resolved parameters canonically.
    const RouterPtr router = RouterRegistry::instance().make(spec);
    EXPECT_EQ(router->name(), "bounded-load:c=1.5,vnodes=32");
}

TEST(RouterRegistry, DefaultSpecIsDirect)
{
    const RouterSpec spec;
    EXPECT_EQ(spec.name, "direct");
    EXPECT_EQ(RouterRegistry::instance().make(spec)->name(), "direct");
}

TEST(RouterRegistryDeath, UnknownRouterListsRegisteredNames)
{
    EXPECT_EXIT((void)RouterRegistry::instance().make(
                    RouterSpec::parse("nope")),
                ::testing::ExitedWithCode(1),
                "unknown cluster router 'nope'.*bounded-load.*direct.*"
                "random.*rr.*shard");
}

TEST(RouterRegistryDeath, DuplicateRegistrationIsFatal)
{
    EXPECT_EXIT(RouterRegistry::instance().add(
                    "direct",
                    [](const RouterSpec &) -> RouterPtr {
                        return nullptr;
                    }),
                ::testing::ExitedWithCode(1),
                "cluster router 'direct' is already registered");
}

TEST(RouterRegistryDeath, BadBoundedLoadParametersAreFatal)
{
    EXPECT_EXIT((void)RouterRegistry::instance().make(
                    RouterSpec::parse("bounded-load:c=1.0")),
                ::testing::ExitedWithCode(1), "c must be > 1");
    EXPECT_EXIT((void)RouterRegistry::instance().make(
                    RouterSpec::parse("bounded-load:vnodes=0")),
                ::testing::ExitedWithCode(1),
                "vnodes must be in \\[1, 4096\\]");
    // inf would pass 'c > 1'; real parameters are finite at parse.
    EXPECT_EXIT((void)RouterRegistry::instance().make(
                    RouterSpec::parse("bounded-load:c=inf")),
                ::testing::ExitedWithCode(1),
                "parameter 'c=inf': 'inf' is not a finite number");
}

/** External registration: the same seam examples/ plugs into. */
class EverythingToOneRouter : public Router
{
  public:
    std::uint32_t
    route(const RouteContext &ctx) override
    {
        return ctx.view.numServers() - 1;
    }

    std::string name() const override { return "test-last"; }
};

const RouterRegistrar testReg("test-last", [](const RouterSpec &spec) {
    spec.expectKeys({});
    return std::make_unique<EverythingToOneRouter>();
});

TEST(RouterRegistry, ExternalRegistrationWorks)
{
    auto &reg = RouterRegistry::instance();
    ASSERT_TRUE(reg.contains("test-last"));
    FakeView view(4);
    sim::Rng rng(1);
    const RouterPtr router = reg.make(RouterSpec::parse("test-last"));
    EXPECT_EQ(router->route(ctxFor(7, view, rng)), 3u);
}

// ----- built-in routing decisions -----

TEST(Routers, DirectAlwaysPicksServerZero)
{
    FakeView view(4);
    sim::Rng rng(1);
    const RouterPtr r = RouterRegistry::instance().make("direct");
    for (std::uint64_t k = 0; k < 32; ++k)
        EXPECT_EQ(r->route(ctxFor(k, view, rng)), 0u);
}

TEST(Routers, RoundRobinCyclesAndSkipsDownServers)
{
    FakeView view(4);
    sim::Rng rng(1);
    const RouterPtr r = RouterRegistry::instance().make("rr");
    EXPECT_EQ(r->route(ctxFor(0, view, rng)), 0u);
    EXPECT_EQ(r->route(ctxFor(0, view, rng)), 1u);
    EXPECT_EQ(r->route(ctxFor(0, view, rng)), 2u);
    EXPECT_EQ(r->route(ctxFor(0, view, rng)), 3u);
    EXPECT_EQ(r->route(ctxFor(0, view, rng)), 0u);
    view.up_[1] = false;
    EXPECT_EQ(r->route(ctxFor(0, view, rng)), 2u);
    EXPECT_EQ(r->route(ctxFor(0, view, rng)), 3u);
    EXPECT_EQ(r->route(ctxFor(0, view, rng)), 0u);
    EXPECT_EQ(r->route(ctxFor(0, view, rng)), 2u);
}

TEST(Routers, RandomOnlyPicksUpServers)
{
    FakeView view(4);
    view.up_[0] = false;
    view.up_[2] = false;
    sim::Rng rng(7);
    const RouterPtr r = RouterRegistry::instance().make("random");
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 200; ++i) {
        const std::uint32_t s = r->route(ctxFor(0, view, rng));
        ASSERT_LT(s, 4u);
        EXPECT_TRUE(view.up_[s]);
        seen.insert(s);
    }
    EXPECT_EQ(seen, (std::set<std::uint32_t>{1, 3}));
}

/** The shard router's owner of @p key among @p servers. */
std::uint32_t
shardOwner(std::uint64_t key, std::uint32_t servers)
{
    return static_cast<std::uint32_t>(sim::mix64(key) % servers);
}

TEST(Routers, ShardRoutesToOwnerAndFailsOver)
{
    FakeView view(4);
    sim::Rng rng(1);
    const RouterPtr r = RouterRegistry::instance().make("shard");
    for (std::uint64_t k = 0; k < 64; ++k)
        EXPECT_EQ(r->route(ctxFor(k, view, rng)), shardOwner(k, 4));
    // Key owned by a down server fails over to the next up index.
    std::uint64_t key = 0;
    while (shardOwner(key, 4) != 2)
        ++key;
    view.up_[2] = false;
    EXPECT_EQ(r->route(ctxFor(key, view, rng)), 3u);
    view.up_[3] = false;
    EXPECT_EQ(r->route(ctxFor(key, view, rng)), 0u);
}

TEST(Routers, BoundedLoadAvoidsOverloadedServer)
{
    FakeView view(4);
    view.load_ = {100, 0, 0, 0};
    sim::Rng rng(1);
    const RouterPtr r =
        RouterRegistry::instance().make("bounded-load:c=1.25");
    // Average load ~25; capacity ~32: server 0 is far over, the ring
    // walk must land elsewhere for every key.
    for (std::uint64_t k = 0; k < 256; ++k)
        EXPECT_NE(r->route(ctxFor(k, view, rng)), 0u);
}

TEST(Routers, BoundedLoadSpreadsBalancedLoadByKey)
{
    FakeView view(4);
    sim::Rng rng(1);
    const RouterPtr r =
        RouterRegistry::instance().make("bounded-load:c=2.0");
    std::set<std::uint32_t> seen;
    for (std::uint64_t k = 0; k < 256; ++k) {
        const std::uint32_t s = r->route(ctxFor(k, view, rng));
        // Same key, same decision (consistent hashing is stateless
        // when loads do not change).
        EXPECT_EQ(s, r->route(ctxFor(k, view, rng)));
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Routers, ShardPartitionIsStableAndCoversEveryServer)
{
    FakeView view(4);
    sim::Rng rng(1);
    const RouterPtr r = RouterRegistry::instance().make("shard");
    std::set<std::uint32_t> seen;
    for (std::uint64_t k = 0; k < 4096; ++k) {
        const std::uint32_t s = r->route(ctxFor(k, view, rng));
        ASSERT_LT(s, 4u);
        EXPECT_EQ(r->route(ctxFor(k, view, rng)), s); // stable
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Routers, ShardSpreadsSequentialKeysEvenly)
{
    FakeView view(4);
    sim::Rng rng(1);
    const RouterPtr r = RouterRegistry::instance().make("shard");
    std::vector<std::uint64_t> counts(4, 0);
    // Sequential keys: the adversarial case a modulo-only map fails.
    for (std::uint64_t k = 0; k < 40000; ++k)
        ++counts[r->route(ctxFor(k, view, rng))];
    for (const std::uint64_t c : counts) {
        EXPECT_GT(c, 8000u);
        EXPECT_LT(c, 12000u);
    }
}

// ----- health tracker -----

TEST(HealthTracker, ConsecutiveFailuresMarkDown)
{
    HealthTracker health(2, /*fail_threshold=*/3, /*recovery_after=*/0);
    EXPECT_TRUE(health.isUp(0, 0));
    EXPECT_FALSE(health.reportFailure(0, 10));
    EXPECT_FALSE(health.reportFailure(0, 20));
    EXPECT_TRUE(health.isUp(0, 20)); // two of three: still up
    EXPECT_TRUE(health.reportFailure(0, 30)); // third: transition
    EXPECT_FALSE(health.isUp(0, 30));
    EXPECT_TRUE(health.isUp(1, 30)); // neighbor untouched
    EXPECT_EQ(health.nodesDown(30), 1u);
    EXPECT_EQ(health.downTransitions(), 1u);
}

TEST(HealthTracker, SuccessResetsTheFailureStreak)
{
    HealthTracker health(1, 3, 0);
    health.reportFailure(0, 10);
    health.reportFailure(0, 20);
    health.reportSuccess(0);
    health.reportFailure(0, 30);
    health.reportFailure(0, 40);
    EXPECT_TRUE(health.isUp(0, 40)); // streak restarted after success
    EXPECT_TRUE(health.reportFailure(0, 50));
    EXPECT_FALSE(health.isUp(0, 50));
}

TEST(HealthTracker, RecoveryOpensACanaryProbeNotFullHealth)
{
    HealthTracker health(1, 1, /*recovery_after=*/100);
    EXPECT_TRUE(health.reportFailure(0, 10));
    EXPECT_FALSE(health.isUp(0, 50));
    EXPECT_FALSE(health.isUp(0, 109));
    // Recovery elapsed: routable again, but only for one canary
    // request — the node is not yet considered healthy.
    EXPECT_TRUE(health.isUp(0, 110));
    health.noteRouted(0); // the canary departs
    EXPECT_FALSE(health.isUp(0, 111)); // nothing piles on behind it
    // The canary times out: still down, recovery clock restarted, and
    // no second down transition — the node never actually came back.
    EXPECT_FALSE(health.reportFailure(0, 120));
    EXPECT_FALSE(health.isUp(0, 219));
    EXPECT_TRUE(health.isUp(0, 220)); // next probe window opens
    EXPECT_EQ(health.downTransitions(), 1u);
}

TEST(HealthTracker, CanarySuccessRestoresFullHealth)
{
    HealthTracker health(1, /*fail_threshold=*/2, /*recovery_after=*/100);
    health.reportFailure(0, 10);
    EXPECT_TRUE(health.reportFailure(0, 20));
    EXPECT_TRUE(health.isUp(0, 120)); // probe window open
    health.noteRouted(0);
    EXPECT_FALSE(health.isUp(0, 120)); // canary in flight: hold traffic
    health.reportSuccess(0);
    EXPECT_TRUE(health.isUp(0, 121)); // genuinely serving again
    // Fully healthy: going down again takes a fresh failure streak.
    EXPECT_FALSE(health.reportFailure(0, 130));
    EXPECT_TRUE(health.isUp(0, 130));
    EXPECT_TRUE(health.reportFailure(0, 140));
    EXPECT_EQ(health.downTransitions(), 2u);
}

} // namespace
