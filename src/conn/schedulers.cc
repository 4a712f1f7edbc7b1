/**
 * @file
 * Built-in connection schedulers.
 *
 * `all` keeps every logical client connected and never gates an issue.
 * It is the scheduler of every run that names no population (one
 * client per emulated node, unbounded QP cache); under a named
 * population the server-side QP cache is finite, so
 * connection-context thrash becomes visible.
 *
 * `grouped` implements ScaleRPC's connection grouping (EuroSys 2019;
 * see SNIPPETS.md Snippet 3): clients partition into groups, a time
 * slice rotates the active group, and the mechanics preserve the
 * snippet's invariants —
 *
 *   I1  only the active group's clients issue requests during a slice
 *       (enforced at admission; requests of inactive clients queue),
 *   I2  the physical connection pool is sized for one group (see
 *       conn::effectiveQpCapacity),
 *   I3  a group drains its outstanding requests before the switch
 *       completes,
 *   I4  a warmed-up client moves WARMUP -> PROCESS only on its first
 *       response,
 *   I5  active clients move PROCESS -> IDLE only at the context
 *       switch itself.
 *
 * Warmup pre-admits the next group's first queued request while the
 * current group drains, hiding the context-switch latency (and warming
 * the server's QP cache). With regroup=priority, every full rotation
 * (epoch) re-sorts clients by measured priority Pi = Ti/Si — slice
 * throughput over average request size — and repartitions, so clients
 * with similar behavior share slices.
 *
 * Deferred backlog drains under a bounded per-client window (the
 * `window` parameter, default 4): activation releases at most
 * `window` queued requests per client, and each completion releases
 * one more. This is the closed-loop pacing of a real client — without
 * it, a group switch would dump an entire inactive period's backlog
 * on the server at once and the resulting burst queueing would bury
 * the very tail latency grouping exists to protect.
 */

#include <algorithm>
#include <numeric>

#include "conn/conn.hh"
#include "sim/logging.hh"

namespace rpcvalet::conn {
namespace {

/** ScaleRPC defaults (Snippet 3). */
constexpr std::uint64_t defaultGroupSize = 40;
constexpr double defaultSliceUs = 100.0;
/** Per-client backlog window: releases per activation/completion. */
constexpr std::uint64_t defaultWindow = 4;

/** Every client connected; nothing ever deferred. */
class AllScheduler final : public ConnScheduler
{
  public:
    explicit AllScheduler(const ConnSpec &spec) : spec_(spec)
    {
        spec_.expectKeys({});
    }

    std::string name() const override { return spec_.toString(); }

    void
    bind(std::uint32_t numClients, sim::EventDomain &sim,
         AdmitFn admit) override
    {
        (void)numClients;
        (void)sim;
        (void)admit;
    }

    bool mayIssue(std::uint32_t) const override { return true; }

  private:
    ConnSpec spec_;
};

/** ScaleRPC connection grouping with time slices. */
class GroupedScheduler final : public ConnScheduler
{
  public:
    explicit GroupedScheduler(const ConnSpec &spec) : spec_(spec)
    {
        spec_.expectKeys({"size", "slice", "window", "warmup",
                          "regroup"});
        size_ = static_cast<std::uint32_t>(
            spec_.uintParam("size", defaultGroupSize, 0, UINT32_MAX));
        if (size_ == 0)
            sim::fatal("conn scheduler 'grouped': size must be >= 1");
        slice_ = spec_.tickParam(
            "slice", sim::nanoseconds(defaultSliceUs * 1000.0));
        if (slice_ == 0)
            sim::fatal("conn scheduler 'grouped': slice must be > 0");
        window_ = static_cast<std::uint32_t>(
            spec_.uintParam("window", defaultWindow, 0, UINT32_MAX));
        if (window_ == 0)
            sim::fatal("conn scheduler 'grouped': window must be >= 1");
        warmup_ = spec_.boolParam("warmup", true);
        if (spec_.has("regroup")) {
            const std::string &mode = spec_.params.at("regroup");
            if (mode == "priority")
                regroupByPriority_ = true;
            else if (mode != "none") {
                sim::fatal(sim::strfmt(
                    "conn scheduler 'grouped': regroup must be 'none' "
                    "or 'priority' (got '%s')",
                    mode.c_str()));
            }
        }
    }

    std::string name() const override { return spec_.toString(); }

    void
    bind(std::uint32_t numClients, sim::EventDomain &sim,
         AdmitFn admit) override
    {
        RV_ASSERT(sim_ == nullptr, "grouped scheduler bound twice");
        RV_ASSERT(numClients >= 1, "grouped scheduler needs clients");
        RV_ASSERT(admit != nullptr, "grouped scheduler needs an admit hook");
        sim_ = &sim;
        admit_ = std::move(admit);
        state_.assign(numClients, State::Idle);
        outstandingByClient_.assign(numClients, 0);
        perf_.assign(numClients, ClientPerf{});
        // Initial partition: contiguous id blocks, in id order.
        order_.resize(numClients);
        std::iota(order_.begin(), order_.end(), 0u);
        partition();
    }

    void
    start() override
    {
        // The initial active group starts processing immediately; with
        // a single group there is never a switch, so no timer is armed
        // and the event schedule matches `all` exactly.
        for (const std::uint32_t c : groups_[active_])
            state_[c] = State::Process;
        if (groups_.size() > 1)
            armSliceTimer();
    }

    void halt() override { halted_ = true; }

    bool
    mayIssue(std::uint32_t client) const override
    {
        // I1: only the active group's PROCESS clients issue, and not
        // while the group is draining toward a switch.
        return groupOf_[client] == active_ && !draining_ &&
               state_[client] == State::Process;
    }

    void
    onLaunched(std::uint32_t client) override
    {
        ++outstandingByClient_[client];
        ++outstandingByGroup_[groupOf_[client]];
    }

    void
    onCompleted(std::uint32_t client, std::uint32_t bytes) override
    {
        ++perf_[client].completions;
        perf_[client].bytes += bytes;
        if (state_[client] == State::Warmup) {
            // I4: the first response promotes a warmed-up client.
            state_[client] = State::Process;
            if (groupOf_[client] == active_ && !draining_)
                admit_(client, window_);
        } else if (state_[client] == State::Process &&
                   groupOf_[client] == active_ && !draining_) {
            // Windowed backlog drain: one completion releases one
            // deferred request (no-op while the queue is empty).
            admit_(client, 1);
        }
    }

    void
    onRetired(std::uint32_t client) override
    {
        RV_ASSERT(outstandingByClient_[client] > 0,
                  "conn outstanding underflow");
        --outstandingByClient_[client];
        const std::uint32_t g = groupOf_[client];
        RV_ASSERT(outstandingByGroup_[g] > 0,
                  "conn group-outstanding underflow");
        --outstandingByGroup_[g];
        // I3: the switch blocked on this group's drain completes once
        // its last outstanding request retires.
        if (draining_ && g == active_ && outstandingByGroup_[g] == 0)
            performSwitch();
    }

    std::uint32_t
    numGroups() const override
    {
        return static_cast<std::uint32_t>(groups_.size());
    }

    std::uint32_t
    groupOf(std::uint32_t client) const override
    {
        return groupOf_[client];
    }

    ConnSchedStats
    stats() const override
    {
        ConnSchedStats s;
        s.groups = numGroups();
        s.groupSwitches = groupSwitches_;
        s.warmupHits = warmupHits_;
        s.warmupMisses = warmupMisses_;
        s.regroups = regroups_;
        return s;
    }

  private:
    enum class State : std::uint8_t
    {
        Idle,   ///< group inactive, nothing warmed up
        Warmup, ///< pre-admitted one request ahead of its slice
        Process ///< fully admitted
    };

    /** Per-epoch throughput/size counters behind Pi = Ti/Si. */
    struct ClientPerf
    {
        std::uint64_t completions = 0;
        std::uint64_t bytes = 0;
    };

    /** Rebuild groups_ / groupOf_ / outstandingByGroup_ from order_. */
    void
    partition()
    {
        const std::uint32_t n =
            static_cast<std::uint32_t>(order_.size());
        const std::uint32_t numGroups = (n + size_ - 1) / size_;
        groups_.assign(numGroups, {});
        groupOf_.assign(n, 0);
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t g = i / size_;
            groups_[g].push_back(order_[i]);
            groupOf_[order_[i]] = g;
        }
        outstandingByGroup_.assign(numGroups, 0);
        for (std::uint32_t c = 0; c < n; ++c)
            outstandingByGroup_[groupOf_[c]] += outstandingByClient_[c];
    }

    void
    armSliceTimer()
    {
        sim_->schedule(slice_, [this] { onSliceExpired(); });
    }

    void
    onSliceExpired()
    {
        if (halted_)
            return;
        // Warm up the next group while the active one drains: each of
        // its idle clients pre-sends at most one queued request, so the
        // server's connection cache is hot when the slice begins.
        draining_ = true;
        if (warmup_) {
            const std::uint32_t next = nextGroup();
            for (const std::uint32_t c : groups_[next]) {
                if (state_[c] != State::Idle)
                    continue;
                if (admit_(c, 1) > 0) {
                    state_[c] = State::Warmup;
                    ++warmupHits_;
                } else {
                    ++warmupMisses_;
                }
            }
        }
        // I3: switch only after the active group's outstanding
        // requests drain (possibly immediately).
        if (outstandingByGroup_[active_] == 0)
            performSwitch();
    }

    std::uint32_t
    nextGroup() const
    {
        return (active_ + 1) % static_cast<std::uint32_t>(groups_.size());
    }

    void
    performSwitch()
    {
        // I5: the outgoing group's clients go idle at the context
        // switch itself, never earlier.
        for (const std::uint32_t c : groups_[active_])
            state_[c] = State::Idle;
        const bool wrapped = nextGroup() == 0;
        active_ = nextGroup();
        draining_ = false;
        ++groupSwitches_;
        if (wrapped && regroupByPriority_)
            regroup();
        // Activate: idle clients process immediately; warmed-up ones
        // stay WARMUP until their first response (I4) — their queues
        // flush (windowed) at the promotion.
        for (const std::uint32_t c : groups_[active_]) {
            if (state_[c] == State::Warmup)
                continue;
            state_[c] = State::Process;
            admit_(c, window_);
        }
        armSliceTimer();
    }

    /**
     * End-of-epoch priority regrouping: Pi = Ti/Si with Ti the
     * client's epoch completions and Si its average request size, so
     * Pi reduces to completions^2 / bytes. Stable order (Pi
     * descending, id ascending) keeps the repartition deterministic;
     * perf counters reset so each epoch is judged on its own traffic.
     */
    void
    regroup()
    {
        const std::uint32_t n =
            static_cast<std::uint32_t>(order_.size());
        std::vector<double> pi(n, 0.0);
        for (std::uint32_t c = 0; c < n; ++c) {
            const ClientPerf &p = perf_[c];
            if (p.completions > 0 && p.bytes > 0) {
                pi[c] = static_cast<double>(p.completions) *
                        static_cast<double>(p.completions) /
                        static_cast<double>(p.bytes);
            }
        }
        std::iota(order_.begin(), order_.end(), 0u);
        std::stable_sort(order_.begin(), order_.end(),
                         [&pi](std::uint32_t a, std::uint32_t b) {
                             return pi[a] > pi[b];
                         });
        partition();
        perf_.assign(n, ClientPerf{});
        ++regroups_;
    }

    ConnSpec spec_;
    std::uint32_t size_ = defaultGroupSize;
    std::uint32_t window_ = defaultWindow;
    sim::Tick slice_ = 0;
    bool warmup_ = true;
    bool regroupByPriority_ = false;

    sim::EventDomain *sim_ = nullptr;
    AdmitFn admit_;
    std::vector<State> state_;
    std::vector<std::uint32_t> groupOf_;
    std::vector<std::vector<std::uint32_t>> groups_;
    /** Client ids in partition order (regrouping re-sorts this). */
    std::vector<std::uint32_t> order_;
    std::vector<std::uint32_t> outstandingByClient_;
    std::vector<std::uint64_t> outstandingByGroup_;
    std::vector<ClientPerf> perf_;
    std::uint32_t active_ = 0;
    bool draining_ = false;
    bool halted_ = false;
    std::uint64_t groupSwitches_ = 0;
    std::uint64_t warmupHits_ = 0;
    std::uint64_t warmupMisses_ = 0;
    std::uint64_t regroups_ = 0;
};

const ConnRegistrar registerAll{"all", [](const ConnSpec &spec) {
    return ConnSchedulerPtr(new AllScheduler(spec));
}};

const ConnRegistrar registerGrouped{"grouped", [](const ConnSpec &spec) {
    return ConnSchedulerPtr(new GroupedScheduler(spec));
}};

} // namespace

void
ConnAxis::linkBuiltins()
{
    // The registrars above run at static initialization; this function
    // exists only to give the registry's instance() a symbol to pull
    // from this archive member.
}

} // namespace rpcvalet::conn
