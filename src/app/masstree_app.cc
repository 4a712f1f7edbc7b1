#include "app/masstree_app.hh"

#include <algorithm>
#include <optional>

#include "app/service_profiles.hh"
#include "app/wire_format.hh"
#include "sim/logging.hh"

namespace rpcvalet::app {

MasstreeApp::MasstreeApp(const Params &params)
    : params_(params), getProcessing_(makeMasstreeGetProfile()),
      scanProcessing_(makeMasstreeScanProfile())
{
    RV_ASSERT(params_.numKeys > 0, "Masstree needs at least one key");
    RV_ASSERT(params_.keyStride > 0, "key stride must be positive");
    RV_ASSERT(params_.scanCount > 0, "scan count must be positive");
    for (std::uint64_t k = 0; k < params_.numKeys; ++k) {
        const std::uint64_t key = k * params_.keyStride;
        store_.insert(key, valueForKey(key));
    }
}

std::vector<std::uint8_t>
MasstreeApp::valueForKey(std::uint64_t key) const
{
    std::vector<std::uint8_t> value(params_.valueBytes);
    for (std::uint32_t i = 0; i < params_.valueBytes; ++i)
        value[i] = static_cast<std::uint8_t>((key * 197 + i) & 0xff);
    return value;
}

std::vector<std::uint8_t>
MasstreeApp::makeRequest(sim::Rng &client_rng)
{
    RpcRequest req;
    const std::uint64_t k =
        client_rng.uniformInt(0, params_.numKeys - 1);
    req.key = k * params_.keyStride;
    if (client_rng.uniform() < params_.getFraction) {
        req.op = RpcOp::Get;
        req.classId = getClassId();
    } else {
        req.op = RpcOp::Scan;
        req.count = params_.scanCount;
        req.classId = scanClassId();
    }
    return encodeRequest(req);
}

HandleResult
MasstreeApp::handle(const std::vector<std::uint8_t> &request,
                    sim::Rng &server_rng)
{
    HandleResult result;
    const auto req = decodeRequest(request);
    if (req && req->op == RpcOp::Scan) {
        // Real ordered scan over the skip list; the reply packs
        // (key, value) pairs until the size cap, written in place.
        result.processingNs = scanProcessing_->sample(server_rng);
        result.latencyCritical = false;
        result.classId = scanClassId();
        const auto entries = store_.scan(req->key, req->count);
        std::size_t packed = 0;
        std::size_t value_bytes = 0;
        for (; packed < entries.size(); ++packed) {
            const std::size_t entry_bytes =
                8 + entries[packed].second.size();
            if (value_bytes + entry_bytes > params_.maxReplyValueBytes)
                break;
            value_bytes += entry_bytes;
        }
        result.reply = encodeReplyFrame(
            RpcStatus::Ok, static_cast<std::uint32_t>(value_bytes));
        std::uint8_t *out = result.reply.data() + replyHeaderBytes;
        for (std::size_t e = 0; e < packed; ++e) {
            const auto &[key, value] = entries[e];
            for (int i = 0; i < 8; ++i)
                *out++ = static_cast<std::uint8_t>((key >> (8 * i)) & 0xff);
            out = std::copy(value.begin(), value.end(), out);
        }
        return result;
    }

    result.processingNs = getProcessing_->sample(server_rng);
    RpcReply reply;
    reply.status = RpcStatus::Error;
    // Holds a found value until the reply is encoded from it.
    std::optional<std::vector<std::uint8_t>> found;
    if (req && req->op == RpcOp::Get) {
        found = store_.find(req->key);
        if (found) {
            reply.status = RpcStatus::Ok;
            reply.value = *found;
        } else {
            reply.status = RpcStatus::NotFound;
        }
    } else if (req && req->op == RpcOp::Put) {
        store_.insert(req->key, std::vector<std::uint8_t>(
                                    req->value.begin(), req->value.end()));
        reply.status = RpcStatus::Ok;
    }
    result.reply = encodeReply(reply);
    return result;
}

bool
MasstreeApp::verifyReply(const std::vector<std::uint8_t> &request,
                         const std::vector<std::uint8_t> &reply) const
{
    const auto req = decodeRequest(request);
    const auto rep = decodeReply(reply);
    if (!req || !rep)
        return false;
    if (req->op == RpcOp::Get) {
        const std::vector<std::uint8_t> expected = valueForKey(req->key);
        return rep->status == RpcStatus::Ok && rep->value == expected;
    }
    if (req->op == RpcOp::Scan) {
        // Scan replies hold consecutive (key, value) pairs starting at
        // the requested key; spot-check the first entry.
        if (rep->status != RpcStatus::Ok)
            return false;
        if (rep->value.size() < 8 + params_.valueBytes)
            return false;
        std::uint64_t first_key = 0;
        for (int i = 0; i < 8; ++i) {
            first_key |= static_cast<std::uint64_t>(
                             rep->value[static_cast<size_t>(i)])
                         << (8 * i);
        }
        return first_key == req->key;
    }
    return rep->status != RpcStatus::Error;
}

double
MasstreeApp::meanProcessingNs() const
{
    return params_.getFraction * getProcessing_->mean() +
           (1.0 - params_.getFraction) * scanProcessing_->mean();
}

double
MasstreeApp::latencyCriticalMeanNs() const
{
    return getProcessing_->mean();
}

std::uint8_t
MasstreeApp::scanClassId() const
{
    // Scan-only configurations collapse to one class, so the scan
    // class takes slot 0 there.
    return params_.getFraction > 0.0 ? 1 : 0;
}

std::vector<RequestClass>
MasstreeApp::requestClasses() const
{
    // Gets declare the paper's 12.5 us SLO (10x the ~1.25 us mean get
    // processing, §6.1); scans are served but not latency-critical.
    std::vector<RequestClass> classes;
    if (params_.getFraction > 0.0) {
        classes.push_back(
            RequestClass{"get", true, 10.0 * getProcessing_->mean()});
    }
    if (params_.getFraction < 1.0)
        classes.push_back(RequestClass{"scan", false, 0.0});
    return classes;
}

std::string
MasstreeApp::name() const
{
    return "masstree";
}

} // namespace rpcvalet::app
