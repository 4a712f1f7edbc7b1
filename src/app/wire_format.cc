#include "app/wire_format.hh"

#include <cstring>

namespace rpcvalet::app {

namespace {

void
putU32(std::uint8_t *out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
}

void
putU64(std::uint8_t *out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
}

std::uint32_t
getU32(const std::vector<std::uint8_t> &in, std::size_t at)
{
    return static_cast<std::uint32_t>(in[at]) |
           (static_cast<std::uint32_t>(in[at + 1]) << 8) |
           (static_cast<std::uint32_t>(in[at + 2]) << 16) |
           (static_cast<std::uint32_t>(in[at + 3]) << 24);
}

std::uint64_t
getU64(const std::vector<std::uint8_t> &in, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(in[at + static_cast<size_t>(i)])
             << (8 * i);
    return v;
}

} // namespace

bool
operator==(ByteView a, ByteView b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

std::uint64_t
requestKeyOf(const std::vector<std::uint8_t> &request)
{
    if (request.size() < requestKeyOffset + 8)
        return 0;
    return getU64(request, requestKeyOffset);
}

std::vector<std::uint8_t>
encodeRequestFrame(const RpcRequest &req, std::uint32_t value_bytes)
{
    std::vector<std::uint8_t> out(requestHeaderBytes + value_bytes);
    out[0] = static_cast<std::uint8_t>(req.op);
    out[requestClassOffset] = req.classId;
    putU64(&out[requestKeyOffset], req.key);
    putU32(&out[10], req.count);
    putU32(&out[14], value_bytes);
    return out;
}

std::vector<std::uint8_t>
encodeRequest(const RpcRequest &req)
{
    std::vector<std::uint8_t> out = encodeRequestFrame(
        req, static_cast<std::uint32_t>(req.value.size()));
    if (!req.value.empty())
        std::memcpy(&out[requestHeaderBytes], req.value.data(),
                    req.value.size());
    return out;
}

std::optional<RpcRequest>
decodeRequest(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < requestHeaderBytes)
        return std::nullopt;
    RpcRequest req;
    if (bytes[0] > static_cast<std::uint8_t>(RpcOp::Echo))
        return std::nullopt;
    req.op = static_cast<RpcOp>(bytes[0]);
    req.classId = bytes[requestClassOffset];
    req.key = getU64(bytes, requestKeyOffset);
    req.count = getU32(bytes, 10);
    const std::uint32_t vlen = getU32(bytes, 14);
    if (bytes.size() < requestHeaderBytes + vlen)
        return std::nullopt;
    req.value = ByteView(bytes.data() + requestHeaderBytes, vlen);
    return req;
}

std::vector<std::uint8_t>
encodeReplyFrame(RpcStatus status, std::uint32_t value_bytes)
{
    std::vector<std::uint8_t> out(replyHeaderBytes + value_bytes);
    out[0] = static_cast<std::uint8_t>(status);
    putU32(&out[1], value_bytes);
    return out;
}

std::vector<std::uint8_t>
encodeReply(const RpcReply &reply)
{
    std::vector<std::uint8_t> out = encodeReplyFrame(
        reply.status, static_cast<std::uint32_t>(reply.value.size()));
    if (!reply.value.empty())
        std::memcpy(&out[replyHeaderBytes], reply.value.data(),
                    reply.value.size());
    return out;
}

std::optional<RpcReply>
decodeReply(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < replyHeaderBytes)
        return std::nullopt;
    RpcReply reply;
    if (bytes[0] > static_cast<std::uint8_t>(RpcStatus::Error))
        return std::nullopt;
    reply.status = static_cast<RpcStatus>(bytes[0]);
    const std::uint32_t vlen = getU32(bytes, 1);
    if (bytes.size() < replyHeaderBytes + vlen)
        return std::nullopt;
    reply.value = ByteView(bytes.data() + replyHeaderBytes, vlen);
    return reply;
}

} // namespace rpcvalet::app
