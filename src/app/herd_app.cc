#include "app/herd_app.hh"

#include <cstring>
#include <optional>

#include "app/service_profiles.hh"
#include "app/wire_format.hh"
#include "sim/logging.hh"

namespace rpcvalet::app {

HerdApp::HerdApp(const Params &params)
    : params_(params), table_(params.numKeys * 2),
      processing_(makeHerdProfile())
{
    RV_ASSERT(params_.numKeys > 0, "HERD needs at least one key");
    RV_ASSERT(params_.readFraction >= 0.0 && params_.readFraction <= 1.0,
              "read fraction must be a probability");
    // Deterministic pattern so both client and server can recompute
    // it: byte i of key k's value is (k * 131 + i) & 0xff, so every
    // value is the slice of one byte ramp that starts at (k * 131) &
    // 0xff.
    ramp_.resize(256 + std::size_t{params_.valueBytes});
    for (std::size_t j = 0; j < ramp_.size(); ++j)
        ramp_[j] = static_cast<std::uint8_t>(j & 0xff);
    // The table starts at twice the key count, so the preload never
    // grows it.
    for (std::uint64_t k = 0; k < params_.numKeys; ++k)
        table_.put(k, valueStart(k), params_.valueBytes);
}

const std::uint8_t *
HerdApp::valueStart(std::uint64_t key) const
{
    return ramp_.data() + ((key * 131) & 0xff);
}

std::vector<std::uint8_t>
HerdApp::valueForKey(std::uint64_t key) const
{
    return std::vector<std::uint8_t>(valueStart(key),
                                     valueStart(key) + params_.valueBytes);
}

bool
HerdApp::isValueOf(std::uint64_t key, ByteView value) const
{
    return value.size() == params_.valueBytes &&
           (value.empty() ||
            std::memcmp(value.data(), valueStart(key), value.size()) == 0);
}

std::vector<std::uint8_t>
HerdApp::makeRequest(sim::Rng &client_rng)
{
    RpcRequest req;
    req.key = client_rng.uniformInt(0, params_.numKeys - 1);
    if (client_rng.uniform() < params_.readFraction) {
        req.op = RpcOp::Get;
        return encodeRequest(req);
    }
    // PUTs rewrite the canonical value, so GET verification stays
    // valid regardless of interleaving. The value is written straight
    // into the request.
    req.op = RpcOp::Put;
    std::vector<std::uint8_t> bytes =
        encodeRequestFrame(req, params_.valueBytes);
    std::memcpy(bytes.data() + requestHeaderBytes, valueStart(req.key),
                params_.valueBytes);
    return bytes;
}

HandleResult
HerdApp::handle(const std::vector<std::uint8_t> &request,
                sim::Rng &server_rng)
{
    HandleResult result;
    result.processingNs = processing_->sample(server_rng);

    const auto req = decodeRequest(request);
    RpcReply reply;
    if (!req) {
        reply.status = RpcStatus::Error;
    } else {
        switch (req->op) {
          case RpcOp::Get:
            // The reply is encoded straight from the stored value.
            if (const std::optional<ByteView> value =
                    table_.find(req->key)) {
                reply.status = RpcStatus::Ok;
                reply.value = *value;
            } else {
                reply.status = RpcStatus::NotFound;
            }
            break;
          case RpcOp::Put:
            table_.put(req->key, req->value.data(), req->value.size());
            reply.status = RpcStatus::Ok;
            break;
          case RpcOp::Del:
            reply.status = table_.erase(req->key) ? RpcStatus::Ok
                                                  : RpcStatus::NotFound;
            break;
          default:
            reply.status = RpcStatus::Error;
            break;
        }
    }
    result.reply = encodeReply(reply);
    return result;
}

bool
HerdApp::verifyReply(const std::vector<std::uint8_t> &request,
                     const std::vector<std::uint8_t> &reply) const
{
    const auto req = decodeRequest(request);
    const auto rep = decodeReply(reply);
    if (!req || !rep)
        return false;
    switch (req->op) {
      case RpcOp::Get:
        // All GET keys are preloaded and PUTs write canonical values,
        // so a GET must return exactly valueForKey(key), checked in
        // place.
        return rep->status == RpcStatus::Ok &&
               isValueOf(req->key, rep->value);
      case RpcOp::Put:
        return rep->status == RpcStatus::Ok;
      default:
        return rep->status != RpcStatus::Error;
    }
}

double
HerdApp::meanProcessingNs() const
{
    return processing_->mean();
}

std::vector<RequestClass>
HerdApp::requestClasses() const
{
    // One class: gets and puts share the Fig. 6b processing profile.
    // SLO follows the paper's 10x mean processing time.
    return {RequestClass{name(), true, 10.0 * processing_->mean()}};
}

std::string
HerdApp::name() const
{
    return "herd";
}

} // namespace rpcvalet::app
