/**
 * @file
 * Tests for the arrival-process subsystem: registry lookup and error
 * reporting, external registration and lifecycle hooks, the poisson
 * driver's recorded arrival stream and its Poisson contract, each
 * built-in's statistical contract (MMPP long-run rate, lognormal mean,
 * ramp monotonicity), and exact trace replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "net/arrival.hh"
#include "sim/domain.hh"

namespace {

using namespace rpcvalet;
using net::ArrivalDriver;
using net::ArrivalProcess;
using net::ArrivalRegistry;
using net::ArrivalSpec;
using Simulator = sim::EventDomain;

net::ArrivalProcessPtr
make(const std::string &spec, double rate)
{
    return ArrivalRegistry::instance().make(ArrivalSpec::parse(spec),
                                            rate);
}

/** Drain @p n gaps straight from a process (no simulator). */
std::vector<double>
drawGaps(ArrivalProcess &proc, std::size_t n, std::uint64_t seed = 1)
{
    sim::Rng rng(seed, 0x90150);
    std::vector<double> gaps;
    gaps.reserve(n);
    sim::Tick now = 0;
    proc.onStart(now);
    for (std::size_t i = 0; i < n; ++i) {
        const double gap = proc.nextInterarrivalNs(rng, now);
        gaps.push_back(gap);
        now += sim::nanoseconds(gap);
    }
    return gaps;
}

double
meanOf(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

TEST(ArrivalRegistry, BuiltinsAreRegistered)
{
    const auto names = ArrivalRegistry::instance().names();
    for (const char *expected : {"deterministic", "lognormal", "mmpp2",
                                 "poisson", "ramp", "trace"}) {
        EXPECT_TRUE(std::find(names.begin(), names.end(), expected) !=
                    names.end())
            << expected << " missing from registry";
    }
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ArrivalRegistryDeath, UnknownNameIsFatalAndListsRegisteredNames)
{
    EXPECT_EXIT(make("nonesuch", 1e6), ::testing::ExitedWithCode(1),
                "unknown arrival process 'nonesuch'.*mmpp2.*poisson");
}

TEST(ArrivalRegistryDeath, DuplicateRegistrationIsFatal)
{
    EXPECT_EXIT(ArrivalRegistry::instance().add(
                    "poisson",
                    [](const ArrivalSpec &, double rate) {
                        return make("deterministic", rate);
                    }),
                ::testing::ExitedWithCode(1),
                "'poisson' is already registered");
}

TEST(ArrivalRegistryDeath, NonPositiveRateIsFatal)
{
    EXPECT_EXIT(make("poisson", 0.0), ::testing::ExitedWithCode(1),
                "positive target rate");
}

TEST(ArrivalSpecParsing, RoundTripsAndRejectsMalformed)
{
    const ArrivalSpec spec =
        ArrivalSpec::parse("mmpp2:ratio=8,burst=0.2");
    EXPECT_EQ(spec.name, "mmpp2");
    EXPECT_DOUBLE_EQ(spec.doubleParam("burst", 0.0), 0.2);
    EXPECT_EQ(spec.toString(), "mmpp2:burst=0.2,ratio=8");
    EXPECT_EQ(ArrivalSpec::parse(spec.toString()), spec);
    // Default-constructed spec is the paper's Poisson generator.
    EXPECT_EQ(ArrivalSpec{}.toString(), "poisson");

    EXPECT_EXIT(ArrivalSpec::parse(""), ::testing::ExitedWithCode(1),
                "arrival spec.*empty name");
    EXPECT_EXIT(ArrivalSpec::parse("poisson:"),
                ::testing::ExitedWithCode(1), "key=value");
    EXPECT_EXIT(make("poisson:cv=2", 1e6), ::testing::ExitedWithCode(1),
                "unknown parameter 'cv'");
}

TEST(ArrivalSpecDeath, BuiltinParameterRangesAreChecked)
{
    EXPECT_EXIT(make("lognormal:cv=0", 1e6),
                ::testing::ExitedWithCode(1), "cv > 0");
    EXPECT_EXIT(make("mmpp2:burst=1.5", 1e6),
                ::testing::ExitedWithCode(1), "burst in \\(0, 1\\)");
    EXPECT_EXIT(make("mmpp2:ratio=0.5", 1e6),
                ::testing::ExitedWithCode(1), "ratio >= 1");
    EXPECT_EXIT(make("ramp:from=0", 1e6), ::testing::ExitedWithCode(1),
                "from > 0");
    EXPECT_EXIT(make("trace", 1e6), ::testing::ExitedWithCode(1),
                "trace needs file=PATH");
    EXPECT_EXIT(make("trace:file=/nonexistent/gaps.txt", 1e6),
                ::testing::ExitedWithCode(1), "cannot open trace file");
}

TEST(ArrivalRegistry, ExternalRegistrationAndLifecycleHooks)
{
    // Mirrors examples/custom_arrival_playground.cc: a process defined
    // in this test TU becomes reachable by name, and the driver fires
    // its lifecycle hooks.
    struct Counters
    {
        int starts = 0;
        int halts = 0;
    };
    static Counters counters;

    class FixedGap : public ArrivalProcess
    {
      public:
        double
        nextInterarrivalNs(sim::Rng &rng, sim::Tick now) override
        {
            (void)rng;
            (void)now;
            return 100.0;
        }
        void onStart(sim::Tick) override { ++counters.starts; }
        void onHalt(sim::Tick) override { ++counters.halts; }
        std::string name() const override { return "test-fixed-gap"; }
    };

    static const net::ArrivalRegistrar registrar(
        "test-fixed-gap", [](const ArrivalSpec &spec, double) {
            spec.expectKeys({});
            return std::make_unique<FixedGap>();
        });

    EXPECT_TRUE(ArrivalRegistry::instance().contains("test-fixed-gap"));

    Simulator sim;
    std::uint64_t fired = 0;
    ArrivalDriver driver(sim, make("test-fixed-gap", 1e6), 1,
                         [&fired] { ++fired; });
    EXPECT_EQ(driver.process().name(), "test-fixed-gap");
    driver.start();
    sim.runUntil(sim::nanoseconds(1000.0));
    driver.halt();
    sim.run();
    EXPECT_EQ(fired, 10u); // arrivals at 100, 200, ..., 1000 ns
    EXPECT_EQ(driver.arrivals(), fired);
    EXPECT_EQ(counters.starts, 1);
    EXPECT_EQ(counters.halts, 1);
}

TEST(PoissonArrival, MatchesRecordedStream)
{
    // The "poisson" driver is the one Poisson source of the traffic
    // generator and the queueing models, so every golden rests on its
    // arrival ticks at a fixed seed. Exact comparisons: a replay.
    std::vector<sim::Tick> driven;
    Simulator sim;
    ArrivalDriver driver(sim, make("poisson", 5e6), /*seed=*/7,
                         [&] { driven.push_back(sim.now()); });
    driver.start();
    sim.runUntil(sim::microseconds(500.0));
    driver.halt();
    sim.run();

    ASSERT_EQ(driven.size(), 2441u);
    const std::vector<sim::Tick> first(driven.begin(), driven.begin() + 8);
    EXPECT_EQ(first, (std::vector<sim::Tick>{118082, 418525, 481681, 549767,
                                             746734, 1116421, 1117723,
                                             1185507}));
    EXPECT_EQ(driven.back(), 499447852u);
}

// The Poisson process's own contract: rate, halt, exponential gaps,
// seed determinism.

TEST(Poisson, GeneratesConfiguredMeanRate)
{
    Simulator sim;
    // 10 Mrps for 10 ms -> expect ~100k arrivals.
    ArrivalDriver proc(sim, make("poisson", 10e6), /*seed=*/42, [] {});
    proc.start();
    sim.runUntil(sim::microseconds(10000.0));
    const double expected = 100000.0;
    EXPECT_NEAR(static_cast<double>(proc.arrivals()), expected,
                expected * 0.02);
}

TEST(Poisson, HaltStopsArrivals)
{
    Simulator sim;
    ArrivalDriver *handle = nullptr;
    std::uint64_t seen = 0;
    ArrivalDriver proc(sim, make("poisson", 1e6), 7, [&] {
        ++seen;
        if (seen == 100)
            handle->halt();
    });
    handle = &proc;
    proc.start();
    sim.run();
    EXPECT_EQ(seen, 100u);
}

TEST(Poisson, InterArrivalTimesAreExponential)
{
    // Coefficient of variation of exponential gaps is 1.
    Simulator sim;
    std::vector<sim::Tick> stamps;
    ArrivalDriver proc(sim, make("poisson", 5e6), 99,
                       [&] { stamps.push_back(sim.now()); });
    proc.start();
    sim.runUntil(sim::microseconds(20000.0));
    ASSERT_GT(stamps.size(), 10000u);
    double sum = 0.0;
    double sum_sq = 0.0;
    for (size_t i = 1; i < stamps.size(); ++i) {
        const double gap = static_cast<double>(stamps[i] - stamps[i - 1]);
        sum += gap;
        sum_sq += gap * gap;
    }
    const double n = static_cast<double>(stamps.size() - 1);
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    const double cov = std::sqrt(var) / mean;
    EXPECT_NEAR(cov, 1.0, 0.05);
    EXPECT_NEAR(mean, 200.0 * sim::ticksPerNs, 10.0 * sim::ticksPerNs);
}

TEST(Poisson, DeterministicForSameSeed)
{
    auto run_once = [](std::uint64_t seed) {
        Simulator sim;
        std::vector<sim::Tick> stamps;
        ArrivalDriver proc(sim, make("poisson", 2e6), seed,
                           [&] { stamps.push_back(sim.now()); });
        proc.start();
        sim.runUntil(sim::microseconds(1000.0));
        return stamps;
    };
    EXPECT_EQ(run_once(5), run_once(5));
    EXPECT_NE(run_once(5), run_once(6));
}

TEST(DeterministicArrival, ConstantGaps)
{
    auto proc = make("deterministic", 1e7); // 100 ns period
    const auto gaps = drawGaps(*proc, 50);
    for (const double gap : gaps)
        EXPECT_DOUBLE_EQ(gap, 100.0);
}

TEST(LogNormalArrival, MeanGapMatchesConfiguredRate)
{
    auto proc = make("lognormal:cv=2", 1e6); // mean gap 1000 ns
    const auto gaps = drawGaps(*proc, 200000);
    EXPECT_NEAR(meanOf(gaps), 1000.0, 50.0);
    // cv=2: the sample standard deviation must be roughly twice the
    // mean (loose bound; heavy right tail converges slowly).
    double var = 0.0;
    const double mean = meanOf(gaps);
    for (const double gap : gaps)
        var += (gap - mean) * (gap - mean);
    var /= static_cast<double>(gaps.size());
    EXPECT_NEAR(std::sqrt(var) / mean, 2.0, 0.4);
}

TEST(Mmpp2Arrival, LongRunRateMatchesConfiguredRate)
{
    // Many dwell cycles: 200k arrivals at 2 Mrps is ~100 ms, i.e.
    // ~1000 cycles of the (20 us burst, 180 us base) process.
    auto proc = make("mmpp2:burst=0.1,ratio=10,dwell=20us", 2e6);
    const auto gaps = drawGaps(*proc, 200000);
    const double measured_rate = 1e9 / meanOf(gaps); // per second
    EXPECT_NEAR(measured_rate / 2e6, 1.0, 0.08);
}

TEST(Mmpp2Arrival, BurstsAreBurstier)
{
    // Same average rate: the MMPP gap sequence must have a higher
    // squared coefficient of variation than Poisson's CV^2 = 1.
    auto proc = make("mmpp2:burst=0.1,ratio=10,dwell=20us", 2e6);
    const auto gaps = drawGaps(*proc, 200000);
    const double mean = meanOf(gaps);
    double var = 0.0;
    for (const double gap : gaps)
        var += (gap - mean) * (gap - mean);
    var /= static_cast<double>(gaps.size());
    EXPECT_GT(var / (mean * mean), 1.5);
}

TEST(RampArrival, RateRampsMonotonically)
{
    // from=0.25 to=4 over 1 ms: early gaps must average much longer
    // than late gaps, bracketing the configured endpoint rates.
    auto proc = make("ramp:from=0.25,to=4,over=1ms", 1e7);
    sim::Rng rng(3, 0x90150);
    sim::Tick now = 0;
    proc->onStart(now);
    double early_sum = 0.0, late_sum = 0.0;
    int early_n = 0, late_n = 0;
    while (now < sim::microseconds(1000.0)) {
        const double gap = proc->nextInterarrivalNs(rng, now);
        if (now < sim::microseconds(100.0)) {
            early_sum += gap;
            ++early_n;
        } else if (now >= sim::microseconds(900.0)) {
            late_sum += gap;
            ++late_n;
        }
        now += sim::nanoseconds(gap);
    }
    ASSERT_GT(early_n, 100);
    ASSERT_GT(late_n, 100);
    const double early_mean = early_sum / early_n;
    const double late_mean = late_sum / late_n;
    // Endpoint means: 400 ns at 0.25x, 25 ns at 4x (of the 100 ns
    // base gap); the first/last deciles sit near them.
    EXPECT_GT(early_mean, 4.0 * late_mean);
    // Past the ramp the rate holds at `to`.
    const auto held = proc->nextInterarrivalNs(rng, sim::microseconds(5000.0));
    EXPECT_LT(held, 1000.0);
}

TEST(RampArrival, FlatRampIsBitIdenticalToPoisson)
{
    // from=to=1 degenerates to a fixed-rate Poisson process drawing
    // the same exponentials.
    auto ramp = make("ramp:from=1,to=1", 3e6);
    auto poisson = make("poisson", 3e6);
    EXPECT_EQ(drawGaps(*ramp, 5000, 11), drawGaps(*poisson, 5000, 11));
}

class TraceArrivalTest : public ::testing::Test
{
  protected:
    std::string
    writeTrace(const std::string &content)
    {
        const std::string path =
            ::testing::TempDir() + "arrival_trace_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name() +
            ".txt";
        std::ofstream out(path);
        out << content;
        return path;
    }
};

TEST_F(TraceArrivalTest, RawReplayIsExactAndCyclic)
{
    const std::string path =
        writeTrace("# recorded gaps in ns\n100\n250.5\n50\n");
    auto proc = make("trace:file=" + path + ",raw=1", 1e6);
    sim::Rng rng(1);
    proc->onStart(0);
    EXPECT_DOUBLE_EQ(proc->nextInterarrivalNs(rng, 0), 100.0);
    EXPECT_DOUBLE_EQ(proc->nextInterarrivalNs(rng, 0), 250.5);
    EXPECT_DOUBLE_EQ(proc->nextInterarrivalNs(rng, 0), 50.0);
    // Wraps around to the top.
    EXPECT_DOUBLE_EQ(proc->nextInterarrivalNs(rng, 0), 100.0);
    // onStart rewinds, so every run replays the same sequence.
    proc->onStart(0);
    EXPECT_DOUBLE_EQ(proc->nextInterarrivalNs(rng, 0), 100.0);
}

TEST_F(TraceArrivalTest, DriverReplaysExactArrivalTimes)
{
    const std::string path = writeTrace("100\n250.5\n50\n");
    Simulator sim;
    std::vector<sim::Tick> stamps;
    ArrivalDriver driver(sim, make("trace:file=" + path + ",raw=1", 1e6),
                         1, [&] { stamps.push_back(sim.now()); });
    driver.start();
    sim.runUntil(sim::nanoseconds(500.0));
    driver.halt();
    sim.run();
    const std::vector<sim::Tick> expected = {
        sim::nanoseconds(100.0),
        sim::nanoseconds(100.0) + sim::nanoseconds(250.5),
        sim::nanoseconds(100.0) + sim::nanoseconds(250.5) +
            sim::nanoseconds(50.0),
    };
    EXPECT_EQ(stamps, expected);
}

TEST_F(TraceArrivalTest, NormalizesMeanRateToConfiguredRate)
{
    // Mean recorded gap is 200 ns; at 10 Mrps (100 ns mean) the shape
    // is kept but every gap is halved.
    const std::string path = writeTrace("100\n300\n");
    auto proc = make("trace:file=" + path, 1e7);
    sim::Rng rng(1);
    EXPECT_DOUBLE_EQ(proc->nextInterarrivalNs(rng, 0), 50.0);
    EXPECT_DOUBLE_EQ(proc->nextInterarrivalNs(rng, 0), 150.0);
}

TEST_F(TraceArrivalTest, MalformedTracesAreFatal)
{
    const std::string empty = writeTrace("# only comments\n\n");
    EXPECT_EXIT(make("trace:file=" + empty, 1e6),
                ::testing::ExitedWithCode(1),
                "no interarrival samples");
    const std::string garbage = writeTrace("100\nbogus\n");
    EXPECT_EXIT(make("trace:file=" + garbage, 1e6),
                ::testing::ExitedWithCode(1), "bad interarrival line");
    const std::string negative = writeTrace("100\n-5\n");
    EXPECT_EXIT(make("trace:file=" + negative, 1e6),
                ::testing::ExitedWithCode(1), "bad interarrival line");
    const std::string infinite = writeTrace("100\ninf\n");
    EXPECT_EXIT(make("trace:file=" + infinite, 1e6),
                ::testing::ExitedWithCode(1), "bad interarrival line");
    const std::string zeros = writeTrace("0\n0\n");
    EXPECT_EXIT(make("trace:file=" + zeros, 1e6),
                ::testing::ExitedWithCode(1),
                "mean interarrival must be positive");
}

TEST_F(TraceArrivalTest, BadLineIsNamedByFileAndLineNumber)
{
    const std::string path = writeTrace("100\n# comment\n2x\n");
    EXPECT_EXIT(make("trace:file=" + path, 1e6),
                ::testing::ExitedWithCode(1),
                path + ":3: '2x' is not a number");
}

} // namespace
