#include "app/synthetic_app.hh"

#include <algorithm>

#include "app/wire_format.hh"
#include "sim/logging.hh"

namespace rpcvalet::app {

SyntheticApp::SyntheticApp(sim::SyntheticKind kind)
    : processing_(sim::makeSynthetic(kind)),
      label_("synthetic-" + sim::syntheticKindName(kind))
{
}

SyntheticApp::SyntheticApp(sim::DistributionPtr processing,
                           std::string label)
    : processing_(std::move(processing)), label_(std::move(label))
{
    RV_ASSERT(processing_ != nullptr, "processing distribution missing");
}

void
SyntheticApp::setRequestPaddingBytes(std::uint32_t bytes)
{
    requestPadding_ = bytes;
}

std::vector<std::uint8_t>
SyntheticApp::makeRequest(sim::Rng &client_rng)
{
    (void)client_rng;
    RpcRequest req;
    req.op = RpcOp::Echo;
    req.key = nextMarker_++;
    // Default padding keeps a request within one cache block; larger
    // paddings exercise multi-packet sends and rendezvous pulls.
    std::vector<std::uint8_t> bytes =
        encodeRequestFrame(req, requestPadding_);
    std::fill(bytes.begin() + requestHeaderBytes, bytes.end(),
              static_cast<std::uint8_t>(req.key & 0xff));
    return bytes;
}

HandleResult
SyntheticApp::handle(const std::vector<std::uint8_t> &request,
                     sim::Rng &server_rng)
{
    const auto req = decodeRequest(request);
    HandleResult result;
    result.processingNs = processing_->sample(server_rng);

    if (!req) {
        result.reply = encodeReply(RpcReply{RpcStatus::Error, {}});
        return result;
    }
    // §5 step iii: a 512 B reply. Echo the request marker in the
    // leading bytes so the client can verify the round trip.
    result.reply =
        encodeReplyFrame(RpcStatus::Ok, replyBytes - replyHeaderBytes);
    for (int i = 0; i < 8; ++i) {
        result.reply[replyHeaderBytes + static_cast<size_t>(i)] =
            static_cast<std::uint8_t>((req->key >> (8 * i)) & 0xff);
    }
    return result;
}

bool
SyntheticApp::verifyReply(const std::vector<std::uint8_t> &request,
                          const std::vector<std::uint8_t> &reply) const
{
    const auto req = decodeRequest(request);
    const auto rep = decodeReply(reply);
    if (!req || !rep || rep->status != RpcStatus::Ok)
        return false;
    if (reply.size() != replyBytes)
        return false;
    std::uint64_t marker = 0;
    for (int i = 0; i < 8; ++i) {
        marker |= static_cast<std::uint64_t>(
                      rep->value[static_cast<size_t>(i)])
                  << (8 * i);
    }
    return marker == req->key;
}

double
SyntheticApp::meanProcessingNs() const
{
    return processing_->mean();
}

std::vector<RequestClass>
SyntheticApp::requestClasses() const
{
    return {RequestClass{label_, true, 10.0 * processing_->mean()}};
}

std::string
SyntheticApp::name() const
{
    return label_;
}

} // namespace rpcvalet::app
