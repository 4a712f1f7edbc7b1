/**
 * @file
 * Steady-state heap allocations per RPC: a budget that may only fall.
 *
 * This binary replaces the global operator new with one that counts
 * calls. Each workload runs on one node at two measured sizes after the
 * same warmup; set-up, harvest and every other fixed cost cancel in the
 * difference, so the extra allocations divided by the extra RPCs is
 * what one more RPC costs. The RpcApplication interface owns two
 * buffers per RPC (the request makeRequest returns and
 * HandleResult::reply), so the budget is 2 plus slack for amortised
 * growth (the sample logs, the event pools).
 *
 * Sanitizer runtimes allocate on their own and may replace operator
 * new themselves, so the test skips under them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/experiment.hh"

namespace {

std::atomic<std::uint64_t> g_news{0};

void *
countedAlloc(std::size_t n)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace rpcvalet;

// RPCVALET_SANITIZED comes from the build (-DRPCVALET_SANITIZE=...);
// the compiler's own macros cover sanitizers enabled by other means.
#if defined(RPCVALET_SANITIZED) || defined(__SANITIZE_ADDRESS__) ||           \
    defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/** Budget: the interface's two buffers plus amortised-growth slack. */
constexpr double kAllocsPerRpcBudget = 2.1;

struct Counted
{
    std::uint64_t news = 0;
    std::uint64_t rpcs = 0;
};

/** One 1-node run at 0.8 load: operator new calls and RPCs served. */
Counted
countRun(const std::string &workload, std::uint64_t measured)
{
    core::ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.arrivalRps =
        0.8 * core::estimateCapacityRps(cfg.system, cfg.workload);
    cfg.warmupRpcs = 5000;
    cfg.measuredRpcs = measured;
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    const core::RunStats stats = core::runExperiment(cfg);
    return Counted{g_news.load(std::memory_order_relaxed) - before,
                   stats.completions};
}

class AllocBudget : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AllocBudget, SteadyStateAllocationsPerRpc)
{
    if (kSanitized)
        GTEST_SKIP() << "allocation counts are not meaningful under "
                        "sanitizers";
    const Counted small = countRun(GetParam(), 20000);
    const Counted large = countRun(GetParam(), 60000);
    ASSERT_GT(large.rpcs, small.rpcs);
    const double perRpc = static_cast<double>(large.news - small.news) /
                          static_cast<double>(large.rpcs - small.rpcs);
    RecordProperty("allocs_per_rpc", std::to_string(perRpc));
    EXPECT_LE(perRpc, kAllocsPerRpcBudget)
        << GetParam() << ": " << (large.news - small.news)
        << " allocations for " << (large.rpcs - small.rpcs)
        << " extra RPCs";
    // The count is live: each RPC makes at least its request.
    EXPECT_GE(perRpc, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    OneNode, AllocBudget,
    ::testing::Values("herd", "herd:value_bytes=1536,read_ratio=0.5"),
    [](const ::testing::TestParamInfo<const char *> &spec_info) {
        return std::string(spec_info.index == 0 ? "herd" : "herd1536rw");
    });

} // namespace
