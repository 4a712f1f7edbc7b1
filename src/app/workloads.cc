/**
 * @file
 * Built-in workloads of the app::WorkloadRegistry, plus the composite
 * "mix" workload that blends any registered workloads with per-request
 * class tags.
 *
 * Registered specs:
 *
 *   herd[:keys=,value_bytes=,read_ratio=]       §5 HERD-like KV tier
 *   masstree[:scan_ratio=,keys=,value_bytes=,scan_count=]
 *                                               ordered store, gets +
 *                                               interfering scans
 *   masstree-get[:keys=,value_bytes=]           the pure get class
 *   masstree-scan[:keys=,value_bytes=,scan_count=]
 *                                               the pure scan class
 *   synthetic[:dist=fixed|uniform|exponential|gev,padding=]
 *                                               §5 echo microbenchmark
 *   chain[:tiers=,fanout=,root_ns=,leaf_ns=]    microservice chain:
 *                                               each arrival fans out
 *                                               nested RPCs per tier
 *   mix:CLASS=WEIGHT,...                        composite of any
 *                                               registered workloads
 *
 * "mix" treats every parameter key as a registered workload name and
 * its value as a sampling weight (normalized internally), giving each
 * component's request classes distinct global ids — e.g.
 * "mix:masstree-get=0.998,masstree-scan=0.002" reproduces Fig. 7b's
 * get+scan blend with separately accounted get and scan tails. With a
 * single component ("mix:herd=1") no component-selection random draw
 * is made, so the run is bit-identical to the component alone.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "app/chain_app.hh"
#include "app/herd_app.hh"
#include "app/masstree_app.hh"
#include "app/synthetic_app.hh"
#include "app/wire_format.hh"
#include "app/workload.hh"
#include "sim/logging.hh"

namespace rpcvalet::app {

namespace {

/**
 * Composite workload: samples each request from one of its component
 * workloads by weight and remaps the component-local class ids into
 * one global class table (component order = sorted spec keys).
 */
class MixWorkload : public RpcApplication
{
  public:
    struct Component
    {
        /** Registry name (also the reported class-name prefix). */
        std::string name;
        /** Normalized sampling weight. */
        double weight = 0.0;
        RpcApplicationPtr app;
        /** Global id of this component's local class 0. */
        std::uint8_t classBase = 0;
        std::size_t classCount = 0;
    };

    MixWorkload(std::vector<Component> components, std::string label)
        : components_(std::move(components)), label_(std::move(label))
    {
        RV_ASSERT(!components_.empty(), "mix needs components");
        double cumulative = 0.0;
        for (const Component &comp : components_) {
            cumulative += comp.weight;
            cumulative_.push_back(cumulative);
            const auto classes = comp.app->requestClasses();
            RV_ASSERT(classes.size() == comp.classCount,
                      "component class table changed size");
            for (const RequestClass &cl : classes) {
                RequestClass tagged = cl;
                // Single-class components report under their workload
                // name; multi-class ones get "workload.class" tags.
                tagged.name = classes.size() == 1
                                  ? comp.name
                                  : comp.name + "." + cl.name;
                classes_.push_back(std::move(tagged));
                componentOfClass_.push_back(&comp - components_.data());
            }
        }
        // Guard against accumulated rounding drift in the last bucket.
        cumulative_.back() = 1.0;
    }

    std::vector<std::uint8_t>
    makeRequest(sim::Rng &client_rng) override
    {
        // With one component there is nothing to choose: consume no
        // randomness, so "mix:x=1" replays "x" bit-for-bit.
        std::size_t pick = 0;
        if (components_.size() > 1) {
            const double u = client_rng.uniform();
            while (pick + 1 < components_.size() &&
                   u >= cumulative_[pick])
                ++pick;
        }
        Component &comp = components_[pick];
        std::vector<std::uint8_t> request =
            comp.app->makeRequest(client_rng);
        RV_ASSERT(request.size() >= requestHeaderBytes,
                  "component produced a truncated request");
        request[requestClassOffset] = static_cast<std::uint8_t>(
            comp.classBase + request[requestClassOffset]);
        return request;
    }

    HandleResult
    handle(const std::vector<std::uint8_t> &request,
           sim::Rng &server_rng) override
    {
        const Component &comp = componentFor(request);
        HandleResult result =
            comp.classBase == 0
                ? comp.app->handle(request, server_rng)
                : comp.app->handle(localizedRequest(comp, request),
                                   server_rng);
        const std::size_t local =
            std::min<std::size_t>(result.classId, comp.classCount - 1);
        result.classId =
            static_cast<std::uint8_t>(comp.classBase + local);
        return result;
    }

    bool
    verifyReply(const std::vector<std::uint8_t> &request,
                const std::vector<std::uint8_t> &reply) const override
    {
        const Component &comp = componentFor(request);
        if (comp.classBase == 0)
            return comp.app->verifyReply(request, reply);
        return comp.app->verifyReply(localizedRequest(comp, request),
                                     reply);
    }

    double
    meanProcessingNs() const override
    {
        double mean = 0.0;
        for (const Component &comp : components_)
            mean += comp.weight * comp.app->meanProcessingNs();
        return mean;
    }

    double
    latencyCriticalMeanNs() const override
    {
        // Weighted over components that declare any latency-critical
        // class (a planning estimate: components do not expose their
        // internal critical share).
        double mean = 0.0;
        double weight = 0.0;
        for (const Component &comp : components_) {
            bool critical = false;
            for (std::size_t c = 0; c < comp.classCount; ++c)
                critical = critical ||
                           classes_[comp.classBase + c].latencyCritical;
            if (!critical)
                continue;
            mean += comp.weight * comp.app->latencyCriticalMeanNs();
            weight += comp.weight;
        }
        return weight > 0.0 ? mean / weight : meanProcessingNs();
    }

    std::vector<RequestClass>
    requestClasses() const override
    {
        return classes_;
    }

    std::string
    name() const override
    {
        return label_;
    }

  private:
    /**
     * The request as the component generated it: class byte restored
     * to the component-local id. Components own the class byte within
     * their requests (a classId-reading handle() — see the bimodal
     * playground — must not observe the mix's global remapping).
     */
    std::vector<std::uint8_t>
    localizedRequest(const Component &comp,
                     const std::vector<std::uint8_t> &request) const
    {
        std::vector<std::uint8_t> local = request;
        if (local.size() > requestClassOffset) {
            local[requestClassOffset] = static_cast<std::uint8_t>(
                local[requestClassOffset] - comp.classBase);
        }
        return local;
    }

    const Component &
    componentFor(const std::vector<std::uint8_t> &request) const
    {
        std::size_t cls = request.size() > requestClassOffset
                              ? request[requestClassOffset]
                              : 0;
        cls = std::min(cls, componentOfClass_.size() - 1);
        return components_[componentOfClass_[cls]];
    }

    std::vector<Component> components_;
    std::vector<double> cumulative_;
    std::vector<RequestClass> classes_;
    /** Global class id -> index into components_. */
    std::vector<std::size_t> componentOfClass_;
    std::string label_;
};

HerdApp::Params
herdParams(const WorkloadSpec &spec)
{
    HerdApp::Params p;
    p.numKeys = spec.uintParam("keys", p.numKeys);
    p.valueBytes = static_cast<std::uint32_t>(
        spec.uintParam("value_bytes", p.valueBytes, 0, UINT32_MAX));
    p.readFraction = spec.doubleParam("read_ratio", p.readFraction);
    if (!(p.readFraction >= 0.0 && p.readFraction <= 1.0)) {
        sim::fatal("workload '" + spec.toString() +
                   "': read_ratio must be in [0, 1]");
    }
    return p;
}

MasstreeApp::Params
masstreeParams(const WorkloadSpec &spec, double scan_ratio)
{
    if (!(scan_ratio >= 0.0 && scan_ratio <= 1.0)) {
        sim::fatal("workload '" + spec.toString() +
                   "': scan_ratio must be in [0, 1]");
    }
    MasstreeApp::Params p;
    p.getFraction = 1.0 - scan_ratio;
    p.numKeys = spec.uintParam("keys", p.numKeys);
    p.valueBytes = static_cast<std::uint32_t>(
        spec.uintParam("value_bytes", p.valueBytes, 0, UINT32_MAX));
    p.scanCount = static_cast<std::uint32_t>(
        spec.uintParam("scan_count", p.scanCount, 0, UINT32_MAX));
    return p;
}

const WorkloadRegistrar herdReg("herd", [](const WorkloadSpec &spec) {
    spec.expectKeys({"keys", "value_bytes", "read_ratio"});
    return std::make_unique<HerdApp>(herdParams(spec));
});

const WorkloadRegistrar masstreeReg(
    "masstree", [](const WorkloadSpec &spec) {
        spec.expectKeys(
            {"scan_ratio", "keys", "value_bytes", "scan_count"});
        return std::make_unique<MasstreeApp>(
            masstreeParams(spec, spec.doubleParam("scan_ratio", 0.01)));
    });

const WorkloadRegistrar masstreeGetReg(
    "masstree-get", [](const WorkloadSpec &spec) {
        spec.expectKeys({"keys", "value_bytes"});
        return std::make_unique<MasstreeApp>(
            masstreeParams(spec, 0.0));
    });

const WorkloadRegistrar masstreeScanReg(
    "masstree-scan", [](const WorkloadSpec &spec) {
        spec.expectKeys({"keys", "value_bytes", "scan_count"});
        return std::make_unique<MasstreeApp>(
            masstreeParams(spec, 1.0));
    });

const WorkloadRegistrar syntheticReg(
    "synthetic", [](const WorkloadSpec &spec) {
        spec.expectKeys({"dist", "padding"});
        std::string dist = "gev";
        if (const auto it = spec.params.find("dist");
            it != spec.params.end())
            dist = it->second;
        std::unique_ptr<SyntheticApp> app;
        for (const sim::SyntheticKind kind : sim::allSyntheticKinds()) {
            if (dist == sim::syntheticKindName(kind))
                app = std::make_unique<SyntheticApp>(kind);
        }
        if (app == nullptr) {
            std::string kinds;
            for (const sim::SyntheticKind kind :
                 sim::allSyntheticKinds()) {
                if (!kinds.empty())
                    kinds += ", ";
                kinds += sim::syntheticKindName(kind);
            }
            sim::fatal("workload '" + spec.toString() +
                       "': unknown dist '" + dist + "' (one of: " +
                       kinds + ")");
        }
        if (spec.has("padding")) {
            app->setRequestPaddingBytes(static_cast<std::uint32_t>(
                spec.uintParam("padding", 0, 0, UINT32_MAX)));
        }
        return app;
    });

const WorkloadRegistrar chainReg(
    "chain", [](const WorkloadSpec &spec) {
        spec.expectKeys({"tiers", "fanout", "root_ns", "leaf_ns"});
        ChainApp::Params p;
        p.tiers = static_cast<std::uint32_t>(
            spec.uintParam("tiers", p.tiers, 0, UINT32_MAX));
        p.fanout = static_cast<std::uint32_t>(
            spec.uintParam("fanout", p.fanout, 0, UINT32_MAX));
        p.rootNs = spec.doubleParam("root_ns", p.rootNs);
        p.leafNs = spec.doubleParam("leaf_ns", p.leafNs);
        return std::make_unique<ChainApp>(p, spec.toString());
    });

const WorkloadRegistrar mixReg("mix", [](const WorkloadSpec &spec) {
    if (spec.params.empty()) {
        sim::fatal("workload '" + spec.toString() +
                   "': mix needs at least one CLASS=WEIGHT pair "
                   "(e.g. mix:masstree-get=0.998,masstree-scan=0.002)");
    }
    std::vector<MixWorkload::Component> components;
    double total_weight = 0.0;
    std::size_t total_classes = 0;
    for (const auto &[name, value] : spec.params) {
        (void)value;
        if (name == "mix") {
            sim::fatal("workload '" + spec.toString() +
                       "': mix cannot nest another mix");
        }
        if (!WorkloadRegistry::instance().contains(name)) {
            sim::fatal("workload '" + spec.toString() + "': '" + name +
                       "' is not a registered workload (registered: " +
                       WorkloadRegistry::instance().namesJoined() + ")");
        }
        const double weight = spec.doubleParam(name, 0.0);
        if (!(weight > 0.0) || !std::isfinite(weight)) {
            sim::fatal("workload '" + spec.toString() + "': weight of '" +
                       name + "' must be a positive number");
        }
        MixWorkload::Component comp;
        comp.name = name;
        comp.weight = weight;
        WorkloadSpec sub;
        sub.name = name;
        comp.app = WorkloadRegistry::instance().make(sub);
        comp.classCount = comp.app->requestClasses().size();
        if (comp.classCount == 0) {
            sim::fatal("workload '" + spec.toString() + "': component '" +
                       name + "' declares no request classes");
        }
        if (total_classes + comp.classCount >
            std::numeric_limits<std::uint8_t>::max() + 1u) {
            sim::fatal("workload '" + spec.toString() +
                       "': more than 256 request classes");
        }
        comp.classBase = static_cast<std::uint8_t>(total_classes);
        total_classes += comp.classCount;
        total_weight += weight;
        components.push_back(std::move(comp));
    }
    for (auto &comp : components)
        comp.weight /= total_weight;
    return std::make_unique<MixWorkload>(std::move(components),
                                         spec.toString());
});

} // namespace

/** Anchor: see sim/registry.hh's linkBuiltins(). */
void
WorkloadAxis::linkBuiltins()
{
}

} // namespace rpcvalet::app
