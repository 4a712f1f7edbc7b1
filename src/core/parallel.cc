#include "core/parallel.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace rpcvalet::core {

void
runIndexedParallel(std::size_t count, unsigned threads,
                   const std::function<void(std::size_t)> &fn)
{
    RV_ASSERT(fn != nullptr, "runIndexedParallel needs a function");
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= count)
                return;
            fn(i);
        }
    };

    if (threads <= 1 || count <= 1) {
        worker();
        return;
    }
    std::vector<std::thread> pool;
    const std::size_t n =
        std::min<std::size_t>(threads, count);
    pool.reserve(n);
    for (std::size_t t = 0; t < n; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
}

unsigned
pointConcurrency(unsigned threads, unsigned parallelDomains)
{
    const unsigned per_point = std::max(1u, parallelDomains);
    return std::max(1u, threads / per_point);
}

WindowPool::WindowPool(unsigned workers, Prologue prologue)
    : workers_(std::max(1u, workers)), prologue_(std::move(prologue))
{
    threads_.reserve(workers_ - 1);
    for (unsigned w = 1; w < workers_; ++w)
        threads_.emplace_back([this, w] { workerLoop(w); });
}

WindowPool::~WindowPool()
{
    shutdown_.store(true, std::memory_order_release);
    for (auto &t : threads_)
        t.join();
}

std::vector<unsigned>
WindowPool::ownerMap(std::size_t domains, unsigned workers)
{
    // Longest first: the client domain (weight 2), then the node
    // domains (weight 1 each) in index order, each onto the least
    // loaded worker, the lowest-numbered one on a tie.
    std::vector<unsigned> owners(domains, 0);
    std::vector<unsigned> load(std::max(1u, workers), 0);
    for (std::size_t i = 0; i < domains; ++i) {
        const auto least = static_cast<unsigned>(
            std::min_element(load.begin(), load.end()) - load.begin());
        owners[i] = least;
        load[least] += i == 0 ? 2 : 1;
    }
    return owners;
}

void
WindowPool::run(const std::vector<sim::EventDomain *> &domains,
                sim::Tick until)
{
    if (threads_.empty()) {
        // Sequential execution of the same window schedule: domain
        // isolation makes this bit-identical to any worker count.
        for (sim::EventDomain *d : domains)
            runDomain(*d, until);
        return;
    }

    if (owners_.size() != domains.size())
        owners_ = ownerMap(domains.size(), workers_);
    domains_ = &domains;
    until_ = until;
    doneWorkers_.store(0, std::memory_order_relaxed);
    // The release publishes the window inputs (and any coordinator
    // writes at the barrier, e.g. the fabric's bank flip) to the
    // workers' acquire loads of the generation counter.
    generation_.fetch_add(1, std::memory_order_release);

    runOwned(0); // the coordinator is worker 0

    // Wait for every helper to finish the round; their release
    // increments publish the domain mutations back to us.
    const auto n = static_cast<std::uint32_t>(threads_.size());
    unsigned spins = 0;
    while (doneWorkers_.load(std::memory_order_acquire) != n) {
        if (++spins % 64 == 0)
            std::this_thread::yield();
    }
}

void
WindowPool::runOwned(unsigned worker)
{
    const std::vector<sim::EventDomain *> &doms = *domains_;
    const sim::Tick until = until_;
    for (std::size_t i = 0; i < doms.size(); ++i) {
        if (owners_[i] == worker)
            runDomain(*doms[i], until);
    }
}

void
WindowPool::runDomain(sim::EventDomain &domain, sim::Tick until)
{
    if (prologue_)
        prologue_(domain);
    domain.runUntil(until);
}

void
WindowPool::workerLoop(unsigned worker)
{
    std::uint64_t seen = 0;
    unsigned spins = 0;
    for (;;) {
        const std::uint64_t g =
            generation_.load(std::memory_order_acquire);
        if (g == seen) {
            if (shutdown_.load(std::memory_order_acquire))
                return;
            if (++spins % 64 == 0)
                std::this_thread::yield();
            continue;
        }
        seen = g;
        spins = 0;
        runOwned(worker);
        doneWorkers_.fetch_add(1, std::memory_order_release);
    }
}

} // namespace rpcvalet::core
