#include "app/chain_app.hh"

#include <algorithm>
#include <utility>

#include "app/wire_format.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace rpcvalet::app {

namespace {

/** An Echo request for @p tier carrying @p key as its marker. */
std::vector<std::uint8_t>
chainRequest(std::uint32_t tier, std::uint64_t key)
{
    RpcRequest req;
    req.op = RpcOp::Echo;
    req.classId = static_cast<std::uint8_t>(tier);
    req.key = key;
    return encodeRequest(req);
}

/** Total RPCs a chain of @p tiers with @p fanout serves per arrival. */
double
treeSize(std::uint32_t tiers, std::uint32_t fanout)
{
    double total = 0.0;
    double level = 1.0;
    for (std::uint32_t t = 0; t < tiers; ++t) {
        total += level;
        level *= fanout;
    }
    return total;
}

} // namespace

void
ChainApp::Params::validate() const
{
    if (tiers < 1 || tiers > 8) {
        sim::fatal(sim::strfmt(
            "chain workload: tiers must be in [1, 8] (got %u)", tiers));
    }
    if (fanout < 1 || fanout > 16) {
        sim::fatal(sim::strfmt(
            "chain workload: fanout must be in [1, 16] (got %u)",
            fanout));
    }
    if (treeSize(tiers, fanout) > 1024.0) {
        sim::fatal(sim::strfmt(
            "chain workload: tiers=%u, fanout=%u serves %.0f RPCs per "
            "arrival (limit 1024)",
            tiers, fanout, treeSize(tiers, fanout)));
    }
    if (!(rootNs > 0.0) || !(leafNs > 0.0)) {
        sim::fatal("chain workload: root_ns and leaf_ns must be "
                   "positive");
    }
}

ChainApp::ChainApp(const Params &params, std::string label)
    : params_(params), label_(std::move(label))
{
    params_.validate();
}

std::vector<std::uint8_t>
ChainApp::makeRequest(sim::Rng &client_rng)
{
    // Clients only originate roots; deeper tiers exist as nested RPCs.
    return chainRequest(0, client_rng.next());
}

HandleResult
ChainApp::handle(const std::vector<std::uint8_t> &request,
                 sim::Rng &server_rng)
{
    (void)server_rng;
    const auto req = decodeRequest(request);
    HandleResult result;

    if (!req) {
        result.processingNs = params_.leafNs;
        result.reply = encodeReply(RpcReply{RpcStatus::Error, {}});
        return result;
    }

    const std::uint32_t tier =
        std::min<std::uint32_t>(req->classId, params_.tiers - 1);
    result.classId = static_cast<std::uint8_t>(tier);
    result.processingNs = tier == 0 ? params_.rootNs : params_.leafNs;

    // Non-leaf tiers fan out. Child keys derive deterministically from
    // the parent's (no Rng draw), so a chain run is reproducible from
    // the client streams alone.
    if (tier + 1 < params_.tiers) {
        result.nested.reserve(params_.fanout);
        for (std::uint32_t c = 0; c < params_.fanout; ++c)
            result.nested.push_back(
                chainRequest(tier + 1, sim::mix64(req->key + c)));
    }

    // Echo the marker so the issuing side can verify the round trip.
    result.reply = encodeReplyFrame(RpcStatus::Ok, 8);
    for (int i = 0; i < 8; ++i) {
        result.reply[replyHeaderBytes + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>((req->key >> (8 * i)) & 0xff);
    }
    return result;
}

bool
ChainApp::verifyReply(const std::vector<std::uint8_t> &request,
                      const std::vector<std::uint8_t> &reply) const
{
    const auto req = decodeRequest(request);
    const auto rep = decodeReply(reply);
    if (!req || !rep || rep->status != RpcStatus::Ok ||
        rep->value.size() != 8)
        return false;
    std::uint64_t marker = 0;
    for (int i = 0; i < 8; ++i) {
        marker |= static_cast<std::uint64_t>(
                      rep->value[static_cast<std::size_t>(i)])
                  << (8 * i);
    }
    return marker == req->key;
}

double
ChainApp::meanProcessingNs() const
{
    // Per-RPC mean over the whole tree: one root plus (R - 1) deeper
    // RPCs per arrival.
    const double total = treeSize(params_.tiers, params_.fanout);
    return (params_.rootNs + (total - 1.0) * params_.leafNs) / total;
}

double
ChainApp::latencyCriticalMeanNs() const
{
    return params_.rootNs;
}

double
ChainApp::requestsPerArrival() const
{
    return treeSize(params_.tiers, params_.fanout);
}

std::vector<RequestClass>
ChainApp::requestClasses() const
{
    // One class per tier; only the client-visible root counts toward
    // the headline tail metric. No built-in SLO: a root's end-to-end
    // latency composes across tiers, so bounds belong to the scenario
    // ([slo] section), not the workload.
    std::vector<RequestClass> classes;
    classes.reserve(params_.tiers);
    for (std::uint32_t t = 0; t < params_.tiers; ++t) {
        classes.push_back(RequestClass{sim::strfmt("tier%u", t), t == 0,
                                       0.0});
    }
    return classes;
}

std::string
ChainApp::name() const
{
    return label_;
}

} // namespace rpcvalet::app
