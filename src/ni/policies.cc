/**
 * @file
 * Built-in dispatch policies, self-registered with the PolicyRegistry.
 *
 * The first three reproduce the paper's ablation set (greedy, rr,
 * pow2). The remaining three exercise the event-driven API's stateful
 * reach, inspired by related NI-dispatch systems:
 *
 *  - jbsq:d=N       JBSQ(n)-style bounded per-core queues with
 *                   deferred assignment (nanoPU): at most d RPCs are
 *                   committed per core; excess arrivals wait in the
 *                   shared CQ until a completion frees a slot.
 *  - stale-jsq      join-shortest-queue over a periodically sampled
 *                   (hence stale) load snapshot, modeling dispatchers
 *                   whose load telemetry lags the cores.
 *  - delay-aware    least-*work* selection: per-core remaining-work
 *                   estimates learned online from dispatch->completion
 *                   delays, discounting in-flight RPCs by their age.
 */

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "ni/dispatch_policy.hh"
#include "sim/logging.hh"

namespace rpcvalet::ni {

namespace {

/**
 * The paper's proof-of-concept greedy dispatch: prefer the core with
 * the fewest outstanding requests (an idle core over a single-booked
 * one), breaking ties with a rotating cursor so load spreads evenly.
 */
class GreedyLeastLoaded : public DispatchPolicy
{
  public:
    std::optional<proto::CoreId>
    select(const DispatchContext &ctx) override
    {
        std::optional<proto::CoreId> best;
        std::uint32_t best_load = ctx.threshold;
        const std::size_t n = ctx.candidates.size();
        for (std::size_t i = 0; i < n; ++i) {
            const proto::CoreId core = ctx.candidates[(cursor_ + i) % n];
            const std::uint32_t load = ctx.outstanding[core];
            if (load < best_load) {
                best = core;
                best_load = load;
                if (load == 0)
                    break; // cannot do better than idle
            }
        }
        if (best)
            cursor_ = (cursor_ + 1) % n;
        return best;
    }

    std::string name() const override { return "greedy"; }

  private:
    std::size_t cursor_ = 0;
};

/** Plain rotation over candidates, skipping saturated cores. */
class RoundRobin : public DispatchPolicy
{
  public:
    std::optional<proto::CoreId>
    select(const DispatchContext &ctx) override
    {
        const std::size_t n = ctx.candidates.size();
        for (std::size_t i = 0; i < n; ++i) {
            const proto::CoreId core = ctx.candidates[(cursor_ + i) % n];
            if (ctx.outstanding[core] < ctx.threshold) {
                cursor_ = (cursor_ + i + 1) % n;
                return core;
            }
        }
        return std::nullopt;
    }

    std::string name() const override { return "rr"; }

  private:
    std::size_t cursor_ = 0;
};

/**
 * Power-of-d-choices: sample d random candidates and keep the least
 * loaded; fall back to a linear scan when all samples are saturated
 * (the hardware equivalent would retry, but the fallback keeps the
 * simulation work-conserving for a fair comparison).
 */
class PowerOfDChoices : public DispatchPolicy
{
  public:
    explicit PowerOfDChoices(std::uint32_t d) : d_(d)
    {
        if (d_ < 1)
            sim::fatal("pow2 needs d >= 1");
    }

    std::optional<proto::CoreId>
    select(const DispatchContext &ctx) override
    {
        const std::size_t n = ctx.candidates.size();
        proto::CoreId pick = ctx.candidates[ctx.rng.uniformInt(0, n - 1)];
        for (std::uint32_t s = 1; s < d_; ++s) {
            const proto::CoreId other =
                ctx.candidates[ctx.rng.uniformInt(0, n - 1)];
            if (ctx.outstanding[other] < ctx.outstanding[pick])
                pick = other;
        }
        if (ctx.outstanding[pick] < ctx.threshold)
            return pick;
        for (const proto::CoreId core : ctx.candidates) {
            if (ctx.outstanding[core] < ctx.threshold)
                return core;
        }
        return std::nullopt;
    }

    std::string
    name() const override
    {
        return "pow2:d=" + std::to_string(d_);
    }

  private:
    std::uint32_t d_;
};

/**
 * JBSQ(d): join-bounded-shortest-queue with deferred assignment. The
 * policy tracks its own per-core commitment counts through the
 * dispatch/complete events and never commits more than d RPCs to a
 * core; when every candidate is at its bound the head RPC stays in
 * the shared CQ (deferred) until a completion frees a slot.
 */
class Jbsq : public DispatchPolicy
{
  public:
    explicit Jbsq(std::uint32_t d) : d_(d)
    {
        if (d_ < 1)
            sim::fatal("jbsq needs d >= 1");
    }

    void
    onArrival(const DispatchContext &ctx) override
    {
        (void)ctx;
        ++pending_;
    }

    void
    onDispatch(proto::CoreId core, const DispatchContext &ctx) override
    {
        ensureSize(ctx);
        ++committed_[core];
        RV_ASSERT(pending_ > 0, "JBSQ dispatch without a pending arrival");
        --pending_;
    }

    void
    onComplete(proto::CoreId core, const DispatchContext &ctx) override
    {
        ensureSize(ctx);
        RV_ASSERT(committed_[core] > 0,
                  "JBSQ completion without a committed RPC");
        --committed_[core];
    }

    std::optional<proto::CoreId>
    select(const DispatchContext &ctx) override
    {
        ensureSize(ctx);
        const std::uint32_t bound = std::min(d_, ctx.threshold);
        std::optional<proto::CoreId> best;
        std::uint32_t best_load = bound;
        const std::size_t n = ctx.candidates.size();
        for (std::size_t i = 0; i < n; ++i) {
            const proto::CoreId core = ctx.candidates[(cursor_ + i) % n];
            const std::uint32_t load = committed_[core];
            if (load < best_load) {
                best = core;
                best_load = load;
                if (load == 0)
                    break;
            }
        }
        if (best)
            cursor_ = (cursor_ + 1) % n;
        return best;
    }

    std::string
    name() const override
    {
        return "jbsq:d=" + std::to_string(d_);
    }

  private:
    void
    ensureSize(const DispatchContext &ctx)
    {
        if (committed_.size() < ctx.outstanding.size())
            committed_.resize(ctx.outstanding.size(), 0);
    }

    std::uint32_t d_;
    std::vector<std::uint32_t> committed_;
    std::uint64_t pending_ = 0;
    std::size_t cursor_ = 0;
};

/**
 * Join-shortest-queue over stale load information: the policy refreshes
 * its private snapshot of the outstanding counts at most once per
 * staleness window and ranks cores by the snapshot, modeling load
 * telemetry that lags the cores. Admission still checks the live
 * credit counters (the NI owns those), so the threshold invariant
 * holds regardless of staleness. With staleness=0 the snapshot always
 * equals the live counts and the policy degenerates to greedy.
 */
class StaleJsq : public DispatchPolicy
{
  public:
    explicit StaleJsq(sim::Tick staleness) : staleness_(staleness) {}

    std::optional<proto::CoreId>
    select(const DispatchContext &ctx) override
    {
        if (!hasSnapshot_ || ctx.now - snapshotAt_ >= staleness_) {
            snapshot_ = ctx.outstanding;
            snapshotAt_ = ctx.now;
            hasSnapshot_ = true;
        }
        std::optional<proto::CoreId> best;
        std::uint32_t best_estimate =
            std::numeric_limits<std::uint32_t>::max();
        const std::size_t n = ctx.candidates.size();
        for (std::size_t i = 0; i < n; ++i) {
            const proto::CoreId core = ctx.candidates[(cursor_ + i) % n];
            if (ctx.outstanding[core] >= ctx.threshold)
                continue; // live credit check, never stale
            const std::uint32_t estimate = snapshot_[core];
            if (estimate < best_estimate) {
                best = core;
                best_estimate = estimate;
                if (estimate == 0)
                    break;
            }
        }
        if (best)
            cursor_ = (cursor_ + 1) % n;
        return best;
    }

    std::string
    name() const override
    {
        return sim::strfmt("stale-jsq:staleness=%gns",
                           sim::toNs(staleness_));
    }

  private:
    sim::Tick staleness_;
    std::vector<std::uint32_t> snapshot_;
    sim::Tick snapshotAt_ = 0;
    bool hasSnapshot_ = false;
    std::size_t cursor_ = 0;
};

/**
 * Delay-aware least-work: estimates each core's remaining work instead
 * of counting RPCs. The policy learns the mean dispatch-to-completion
 * delay online (EWMA over the completion events) and scores a core as
 * the sum, over its in-flight RPCs, of the learned delay discounted by
 * how long each has already been in flight — so a core whose RPC is
 * about to finish beats one that just started, even at equal counts.
 */
class DelayAwareLeastWork : public DispatchPolicy
{
  public:
    explicit DelayAwareLeastWork(double alpha, sim::Tick initial_estimate)
        : alpha_(alpha), init_(initial_estimate),
          ewmaDelayNs_(sim::toNs(initial_estimate))
    {
        // Negated form so NaN (all comparisons false) is also fatal.
        if (!(alpha_ > 0.0 && alpha_ <= 1.0))
            sim::fatal("delay-aware needs alpha in (0, 1]");
    }

    void
    onDispatch(proto::CoreId core, const DispatchContext &ctx) override
    {
        ensureSize(ctx);
        inFlight_[core].push_back(ctx.now);
    }

    void
    onComplete(proto::CoreId core, const DispatchContext &ctx) override
    {
        ensureSize(ctx);
        RV_ASSERT(!inFlight_[core].empty(),
                  "delay-aware completion without an in-flight RPC");
        // Completions are credited oldest-first; with threshold 2 the
        // pipelined second RPC starts only after the first finishes,
        // so FIFO matches the core's actual service order.
        const sim::Tick dispatched = inFlight_[core].front();
        inFlight_[core].pop_front();
        const double delay_ns = sim::toNs(ctx.now - dispatched);
        ewmaDelayNs_ = (1.0 - alpha_) * ewmaDelayNs_ + alpha_ * delay_ns;
    }

    std::optional<proto::CoreId>
    select(const DispatchContext &ctx) override
    {
        ensureSize(ctx);
        std::optional<proto::CoreId> best;
        double best_work = std::numeric_limits<double>::infinity();
        const std::size_t n = ctx.candidates.size();
        for (std::size_t i = 0; i < n; ++i) {
            const proto::CoreId core = ctx.candidates[(cursor_ + i) % n];
            if (ctx.outstanding[core] >= ctx.threshold)
                continue;
            const double work = remainingWorkNs(core, ctx.now);
            if (work < best_work) {
                best = core;
                best_work = work;
                if (work == 0.0)
                    break; // idle core
            }
        }
        if (best)
            cursor_ = (cursor_ + 1) % n;
        return best;
    }

    std::string
    name() const override
    {
        return sim::strfmt("delay-aware:alpha=%g,init=%gns", alpha_,
                           sim::toNs(init_));
    }

  private:
    void
    ensureSize(const DispatchContext &ctx)
    {
        if (inFlight_.size() < ctx.outstanding.size())
            inFlight_.resize(ctx.outstanding.size());
    }

    double
    remainingWorkNs(proto::CoreId core, sim::Tick now) const
    {
        double total = 0.0;
        for (const sim::Tick dispatched : inFlight_[core]) {
            const double age_ns = sim::toNs(now - dispatched);
            total += std::max(ewmaDelayNs_ - age_ns, 0.0);
        }
        return total;
    }

    double alpha_;
    sim::Tick init_;
    double ewmaDelayNs_;
    std::vector<std::deque<sim::Tick>> inFlight_;
    std::size_t cursor_ = 0;
};

const PolicyRegistrar greedyReg("greedy", [](const PolicySpec &spec) {
    spec.expectKeys({});
    return std::make_unique<GreedyLeastLoaded>();
});

const PolicyRegistrar rrReg("rr", [](const PolicySpec &spec) {
    spec.expectKeys({});
    return std::make_unique<RoundRobin>();
});

const PolicyRegistrar pow2Reg("pow2", [](const PolicySpec &spec) {
    spec.expectKeys({"d"});
    return std::make_unique<PowerOfDChoices>(
        static_cast<std::uint32_t>(spec.uintParam("d", 2, 0, UINT32_MAX)));
});

const PolicyRegistrar jbsqReg("jbsq", [](const PolicySpec &spec) {
    spec.expectKeys({"d"});
    return std::make_unique<Jbsq>(
        static_cast<std::uint32_t>(spec.uintParam("d", 2, 0, UINT32_MAX)));
});

const PolicyRegistrar staleJsqReg("stale-jsq", [](const PolicySpec &spec) {
    spec.expectKeys({"staleness"});
    return std::make_unique<StaleJsq>(
        spec.tickParam("staleness", sim::nanoseconds(100.0)));
});

const PolicyRegistrar delayAwareReg(
    "delay-aware", [](const PolicySpec &spec) {
        spec.expectKeys({"alpha", "init"});
        return std::make_unique<DelayAwareLeastWork>(
            spec.doubleParam("alpha", 0.1),
            spec.tickParam("init", sim::nanoseconds(550.0)));
    });

} // namespace

// Anchor odr-used by PolicyRegistry::instance() so this translation
// unit — and with it the registrars above — is linked into every
// binary that touches the registry.
void
PolicyAxis::linkBuiltins()
{
}

} // namespace rpcvalet::ni
