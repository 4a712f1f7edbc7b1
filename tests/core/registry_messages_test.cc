/**
 * @file
 * Exact-text locks on the registries' user-facing diagnostics: the
 * unknown-name and duplicate-registration fatals of every spec axis,
 * and the `--list-specs` listing. Each expectation is the whole of the
 * dying process's stderr, so a reworded message, a dropped plural, or
 * a built-in that stops registering fails here.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "app/workload.hh"
#include "cluster/router.hh"
#include "conn/conn.hh"
#include "core/registry_listing.hh"
#include "fault/fault.hh"
#include "net/arrival.hh"
#include "ni/dispatch_policy.hh"

namespace {

using namespace rpcvalet;

/** make() @p name on @p Registry; arrival's factories also take a rate. */
template <typename Registry, int... rate>
void
makeNamed(const char *name)
{
    (void)Registry::instance().make(name, rate...);
}

/** Register @p name on @p Registry with a factory that is never run. */
template <typename Registry>
void
registerNamed(const char *name)
{
    Registry::instance().add(name, [](const auto &...) { return nullptr; });
}

/** One fatal to provoke, and the complete stderr it must produce. */
struct FatalCase
{
    void (*provoke)(const char *name);
    const char *name;
    const char *stderrText;
};

void
expectFatalText(const std::vector<FatalCase> &cases)
{
    for (const FatalCase &c : cases) {
        SCOPED_TRACE(c.stderrText);
        EXPECT_EXIT(c.provoke(c.name), ::testing::ExitedWithCode(1),
                    ::testing::Matcher<const std::string &>(c.stderrText));
    }
}

TEST(RegistryMessagesDeath, UnknownNameListsEveryBuiltin)
{
    const std::vector<FatalCase> cases = {
        {makeNamed<ni::PolicyRegistry>, "nonesuch",
         "fatal: unknown dispatch policy 'nonesuch' (registered "
         "policies: delay-aware, greedy, jbsq, pow2, rr, stale-jsq)\n"},
        {makeNamed<net::ArrivalRegistry, 1000000>, "nonesuch",
         "fatal: unknown arrival process 'nonesuch' (registered arrival "
         "processes: deterministic, lognormal, mmpp2, poisson, ramp, "
         "trace)\n"},
        {makeNamed<app::WorkloadRegistry>, "nonesuch",
         "fatal: unknown workload 'nonesuch' (registered workloads: "
         "chain, herd, masstree, masstree-get, masstree-scan, mix, "
         "synthetic)\n"},
        {makeNamed<cluster::RouterRegistry>, "nonesuch",
         "fatal: unknown cluster router 'nonesuch' (registered routers: "
         "bounded-load, direct, random, rr, shard)\n"},
        {makeNamed<fault::FaultRegistry>, "nonesuch",
         "fatal: unknown fault 'nonesuch' (registered faults: crash, "
         "ni-stall, packet-corrupt, packet-delay, packet-loss, "
         "slow-core)\n"},
        {makeNamed<conn::ConnRegistry>, "nonesuch",
         "fatal: unknown conn scheduler 'nonesuch' (registered conn "
         "schedulers: all, grouped)\n"},
    };
    expectFatalText(cases);
}

TEST(RegistryMessagesDeath, DuplicateRegistrationNamesTheAxis)
{
    const std::vector<FatalCase> cases = {
        {registerNamed<ni::PolicyRegistry>, "greedy",
         "fatal: dispatch policy 'greedy' is already registered "
         "(duplicate registration)\n"},
        {registerNamed<net::ArrivalRegistry>, "poisson",
         "fatal: arrival process 'poisson' is already registered "
         "(duplicate registration)\n"},
        {registerNamed<app::WorkloadRegistry>, "herd",
         "fatal: workload 'herd' is already registered (duplicate "
         "registration)\n"},
        {registerNamed<cluster::RouterRegistry>, "direct",
         "fatal: cluster router 'direct' is already registered "
         "(duplicate registration)\n"},
        {registerNamed<fault::FaultRegistry>, "crash",
         "fatal: fault 'crash' is already registered (duplicate "
         "registration)\n"},
        {registerNamed<conn::ConnRegistry>, "all",
         "fatal: conn scheduler 'all' is already registered (duplicate "
         "registration)\n"},
    };
    expectFatalText(cases);
}

TEST(RegistryMessages, ListingIsExact)
{
    EXPECT_EQ(core::formatRegistryListing(),
              "policy: delay-aware, greedy, jbsq, pow2, rr, stale-jsq\n"
              "arrival: deterministic, lognormal, mmpp2, poisson, ramp, "
              "trace\n"
              "workload: chain, herd, masstree, masstree-get, "
              "masstree-scan, mix, synthetic\n"
              "router: bounded-load, direct, random, rr, shard\n"
              "fault: crash, ni-stall, packet-corrupt, packet-delay, "
              "packet-loss, slow-core\n"
              "conn: all, grouped\n");
}

} // namespace
