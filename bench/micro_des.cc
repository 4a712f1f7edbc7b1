/**
 * @file
 * Engineering microbenchmarks (google-benchmark): throughput of the
 * DES kernel, RNG samplers, data-structure substrates, and a full
 * end-to-end simulation — the numbers that determine how long the
 * figure benches take, not paper results.
 *
 * The kernel benches compare the timer-wheel/pooled-event kernel
 * against a bench-local copy of the original kernel (one heap-
 * allocated std::function per event in a std::priority_queue) kept
 * here as the regression baseline: BM_EventQueueScheduleRun vs
 * BM_EventQueueScheduleRunLegacyHeap. The rewrite's acceptance bar is
 * >= 3x on that pair.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "app/hash_table.hh"
#include "app/skip_list.hh"
#include "core/experiment.hh"
#include "sim/distributions.hh"
#include "sim/simulator.hh"

namespace {

using namespace rpcvalet;

/**
 * The pre-timer-wheel DES kernel, verbatim in miniature: a binary heap
 * of (when, seq, std::function) entries. Kept bench-only so the
 * speedup claim stays measurable on the hardware at hand instead of
 * relying on a recorded number.
 */
class LegacyHeapQueue
{
  public:
    using Callback = std::function<void()>;

    sim::Tick now() const { return now_; }

    void
    schedule(sim::Tick delay, Callback cb)
    {
        queue_.push(Item{now_ + delay, nextSeq_++, std::move(cb)});
    }

    void
    run()
    {
        while (!queue_.empty()) {
            Item item = std::move(const_cast<Item &>(queue_.top()));
            queue_.pop();
            now_ = item.when;
            item.cb();
        }
    }

  private:
    struct Item
    {
        sim::Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Item &a, const Item &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    sim::Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::priority_queue<Item, std::vector<Item>, Later> queue_;
};

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        std::uint64_t fired = 0;
        for (int i = 0; i < 1000; ++i) {
            s.schedule(sim::nanoseconds(i), [&fired] { ++fired; });
        }
        s.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueScheduleRunLegacyHeap(benchmark::State &state)
{
    for (auto _ : state) {
        LegacyHeapQueue s;
        std::uint64_t fired = 0;
        for (int i = 0; i < 1000; ++i) {
            s.schedule(sim::nanoseconds(i), [&fired] { ++fired; });
        }
        s.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRunLegacyHeap);

/** A recurring intrusive event rescheduling itself: the steady-state
 *  arrival-generator shape — zero allocations per occurrence. */
class Ticker
{
  public:
    explicit Ticker(sim::Simulator &sim, std::uint64_t limit)
        : sim_(sim), limit_(limit), event_(*this, "ticker")
    {}

    void start() { sim_.schedule(event_, sim::nanoseconds(1)); }

    std::uint64_t fired() const { return fired_; }

  private:
    void
    fire()
    {
        if (++fired_ < limit_)
            sim_.schedule(event_, sim::nanoseconds(1));
    }

    sim::Simulator &sim_;
    std::uint64_t limit_;
    std::uint64_t fired_ = 0;
    sim::MemberEvent<Ticker, &Ticker::fire> event_;
};

void
BM_RecurringMemberEvent(benchmark::State &state)
{
    sim::Simulator s;
    for (auto _ : state) {
        Ticker t(s, 1000);
        t.start();
        s.run();
        benchmark::DoNotOptimize(t.fired());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_RecurringMemberEvent);

/** Schedule/deschedule churn: pending timers that mostly never fire
 *  (retry/timeout shape); measures intrusive O(1) cancellation. */
void
BM_EventDescheduleChurn(benchmark::State &state)
{
    sim::Simulator s;
    struct Noop : sim::Event
    {
        void process() override {}
    };
    constexpr int kTimers = 64;
    Noop timers[kTimers];
    std::uint64_t rounds = 0;
    for (auto _ : state) {
        for (int i = 0; i < kTimers; ++i)
            s.schedule(timers[i], sim::nanoseconds(100 + i));
        for (int i = 0; i < kTimers; ++i)
            s.deschedule(timers[i]);
        ++rounds;
    }
    benchmark::DoNotOptimize(rounds);
    state.SetItemsProcessed(state.iterations() * kTimers);
}
BENCHMARK(BM_EventDescheduleChurn);

void
BM_RngUniform(benchmark::State &state)
{
    sim::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

void
BM_GevSample(benchmark::State &state)
{
    sim::GevDist d(363.0, 100.0, 0.65);
    sim::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(d.sample(rng));
}
BENCHMARK(BM_GevSample);

void
BM_HashTablePutGet(benchmark::State &state)
{
    // The server's pair: an in-place PUT from the request's bytes and a
    // copy-free GET.
    app::HashTable t;
    sim::Rng rng(1);
    const std::vector<std::uint8_t> value = {1, 2, 3};
    std::uint64_t k = 0;
    for (auto _ : state) {
        t.put(k % 100000, value.data(), value.size());
        benchmark::DoNotOptimize(t.find((k * 7) % 100000));
        ++k;
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_HashTablePutGet);

void
BM_SkipListInsertFind(benchmark::State &state)
{
    app::SkipList s;
    std::uint64_t k = 0;
    for (auto _ : state) {
        s.insert(k % 100000, {1, 2});
        benchmark::DoNotOptimize(s.find((k * 13) % 100000));
        ++k;
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SkipListInsertFind);

void
BM_SkipListScan100(benchmark::State &state)
{
    app::SkipList s;
    for (std::uint64_t k = 0; k < 100000; ++k)
        s.insert(k, {1, 2});
    std::uint64_t start = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.scan(start % 90000, 100));
        start += 997;
    }
}
BENCHMARK(BM_SkipListScan100);

void
BM_EndToEndRpcSimulation(benchmark::State &state)
{
    // Simulated-RPC throughput of the full-system model; reported as
    // items/s, plus the kernel's events/s so regressions in the
    // simulator core are visible directly.
    const std::uint64_t events_before = core::totalSimulatedEvents();
    for (auto _ : state) {
        core::ExperimentConfig cfg;
        cfg.arrivalRps = 10e6;
        cfg.warmupRpcs = 100;
        cfg.measuredRpcs = 5000;
        const auto r = core::runExperiment(cfg);
        benchmark::DoNotOptimize(r.point.p99Ns);
    }
    state.SetItemsProcessed(state.iterations() * 5100);
    state.counters["sim_events_per_sec"] = benchmark::Counter(
        static_cast<double>(core::totalSimulatedEvents() - events_before),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndRpcSimulation)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
