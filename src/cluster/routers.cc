/**
 * @file
 * Built-in cluster routers.
 *
 * Every built-in is health-aware: servers the HealthTracker marks down
 * are skipped and traffic fails over to an up peer (the automatic-
 * failover behavior of the rpc-load-balancer exemplar). When *no*
 * server is up the routers still return a deterministic index — the
 * traffic generator's timeout path then recycles those requests until
 * a node recovers.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/router.hh"
#include "sim/logging.hh"

namespace rpcvalet::cluster {

namespace {

/** First up server at or after @p start (wrapping); @p start itself
 *  when none is up. */
std::uint32_t
nextUp(const ClusterView &view, std::uint32_t start)
{
    const std::uint32_t n = view.numServers();
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t s = (start + i) % n;
        if (view.isUp(s))
            return s;
    }
    return start;
}

/** Always server 0 — the single-node default. Makes no Rng draws. */
class DirectRouter : public Router
{
  public:
    std::uint32_t
    route(const RouteContext &ctx) override
    {
        (void)ctx;
        return 0;
    }

    std::string name() const override { return "direct"; }
};

/** Uniformly random over up servers. */
class RandomRouter : public Router
{
  public:
    std::uint32_t
    route(const RouteContext &ctx) override
    {
        const std::uint32_t n = ctx.view.numServers();
        const std::uint32_t up = ctx.view.upCount();
        if (up == 0 || up == n) {
            return static_cast<std::uint32_t>(
                ctx.rng.uniformInt(0, n - 1));
        }
        std::uint64_t k = ctx.rng.uniformInt(0, up - 1);
        for (std::uint32_t s = 0; s < n; ++s) {
            if (ctx.view.isUp(s) && k-- == 0)
                return s;
        }
        return 0; // unreachable: up > 0
    }

    std::string name() const override { return "random"; }
};

/** Round-robin over up servers (stateful cursor). */
class RoundRobinRouter : public Router
{
  public:
    std::uint32_t
    route(const RouteContext &ctx) override
    {
        const std::uint32_t n = ctx.view.numServers();
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t s =
                static_cast<std::uint32_t>(cursor_++ % n);
            if (ctx.view.isUp(s))
                return s;
        }
        return static_cast<std::uint32_t>(cursor_++ % n);
    }

    std::string name() const override { return "rr"; }

  private:
    std::uint64_t cursor_ = 0;
};

/** Key affinity: the keyspace splits into one hashed partition per
 *  server, and server mix64(key) mod N serves the key; when it is
 *  down, fail over to the next up server (keyspace correctness is
 *  preserved by the workloads' canonical-value verification). */
class ShardRouter : public Router
{
  public:
    std::uint32_t
    route(const RouteContext &ctx) override
    {
        return nextUp(ctx.view, static_cast<std::uint32_t>(
                                    sim::mix64(ctx.key) %
                                    ctx.view.numServers()));
    }

    std::string name() const override { return "shard"; }
};

/**
 * Consistent hashing with bounded loads (Mirrokni et al.): walk the
 * hash ring from the key's position and take the first up server whose
 * outstanding count stays within c times the current average load.
 * Keeps shard affinity's locality under light load while capping the
 * per-server overload that plain consistent hashing allows.
 */
class BoundedLoadRouter : public Router
{
  public:
    BoundedLoadRouter(double c, std::uint32_t vnodes)
        : c_(c), vnodes_(vnodes)
    {}

    std::uint32_t
    route(const RouteContext &ctx) override
    {
        const std::uint32_t n = ctx.view.numServers();
        buildRing(n);

        const std::uint64_t h = sim::mix64(ctx.key);
        std::size_t start = std::lower_bound(
                                ring_.begin(), ring_.end(),
                                RingEntry{h, 0}) -
                            ring_.begin();
        if (start == ring_.size())
            start = 0;

        const std::uint32_t up = ctx.view.upCount();
        if (up == 0)
            return ring_[start].server; // all down: deterministic shed
        // Bounded-load capacity: no server may exceed c * the average
        // load counting the request being placed.
        const double avg =
            static_cast<double>(ctx.view.totalOutstanding() + 1) /
            static_cast<double>(up);
        const std::uint64_t capacity = static_cast<std::uint64_t>(
            std::max(1.0, std::ceil(c_ * avg)));

        std::fill(visited_.begin(), visited_.end(), false);
        std::uint32_t distinct = 0;
        std::uint32_t least_loaded = ring_[start].server;
        std::uint64_t least_load = ~std::uint64_t{0};
        for (std::size_t i = 0; i < ring_.size() && distinct < n; ++i) {
            const std::uint32_t s =
                ring_[(start + i) % ring_.size()].server;
            if (visited_[s])
                continue;
            visited_[s] = true;
            ++distinct;
            if (!ctx.view.isUp(s))
                continue;
            const std::uint64_t load = ctx.view.outstanding(s);
            if (load + 1 <= capacity)
                return s;
            if (load < least_load) {
                least_load = load;
                least_loaded = s;
            }
        }
        return least_loaded;
    }

    std::string
    name() const override
    {
        return sim::strfmt("bounded-load:c=%g,vnodes=%u", c_, vnodes_);
    }

  private:
    struct RingEntry
    {
        std::uint64_t hash;
        std::uint32_t server;

        bool
        operator<(const RingEntry &o) const
        {
            return hash < o.hash;
        }
    };

    void
    buildRing(std::uint32_t num_servers)
    {
        if (num_servers == ringServers_)
            return;
        ringServers_ = num_servers;
        ring_.clear();
        ring_.reserve(static_cast<std::size_t>(num_servers) * vnodes_);
        for (std::uint32_t s = 0; s < num_servers; ++s) {
            for (std::uint32_t v = 0; v < vnodes_; ++v) {
                const std::uint64_t h = sim::mix64(
                    (static_cast<std::uint64_t>(s) << 32) | (v + 1));
                ring_.push_back(RingEntry{h, s});
            }
        }
        std::sort(ring_.begin(), ring_.end());
        visited_.assign(num_servers, false);
    }

    double c_;
    std::uint32_t vnodes_;
    std::uint32_t ringServers_ = 0;
    std::vector<RingEntry> ring_;
    std::vector<bool> visited_; // per-route scratch, reused
};

const RouterRegistrar directReg("direct", [](const RouterSpec &spec) {
    spec.expectKeys({});
    return std::make_unique<DirectRouter>();
});

const RouterRegistrar randomReg("random", [](const RouterSpec &spec) {
    spec.expectKeys({});
    return std::make_unique<RandomRouter>();
});

const RouterRegistrar rrReg("rr", [](const RouterSpec &spec) {
    spec.expectKeys({});
    return std::make_unique<RoundRobinRouter>();
});

const RouterRegistrar shardReg("shard", [](const RouterSpec &spec) {
    spec.expectKeys({});
    return std::make_unique<ShardRouter>();
});

const RouterRegistrar boundedLoadReg(
    "bounded-load", [](const RouterSpec &spec) {
        spec.expectKeys({"c", "vnodes"});
        const double c = spec.doubleParam("c", 1.25);
        if (!(c > 1.0)) {
            sim::fatal(sim::strfmt(
                "router 'bounded-load': c must be > 1 (got %g); c=1 "
                "leaves no headroom over the average load",
                c));
        }
        const std::uint64_t vnodes = spec.uintParam("vnodes", 64);
        if (vnodes == 0 || vnodes > 4096) {
            sim::fatal(sim::strfmt(
                "router 'bounded-load': vnodes must be in [1, 4096] "
                "(got %llu)",
                static_cast<unsigned long long>(vnodes)));
        }
        return std::make_unique<BoundedLoadRouter>(
            c, static_cast<std::uint32_t>(vnodes));
    });

} // namespace

// Anchor odr-used by RouterRegistry::instance() so this translation
// unit — and with it the registrars above — is linked into every
// binary that touches the registry.
void
RouterAxis::linkBuiltins()
{
}

} // namespace rpcvalet::cluster
