/**
 * @file
 * RPC wire format shared by clients (traffic generator) and servers.
 *
 * Requests and replies are real byte strings that travel through the
 * simulated protocol (packetized into 64 B blocks, written into
 * receive buffers, parsed by the serving core), so application results
 * are verifiable end to end.
 *
 * Request:  [op:u8][class:u8][key:u64le][count:u32le][vlen:u32le][value...]
 * Reply:    [status:u8][vlen:u32le][value...]
 *
 * The class byte tags which request class of the generating workload
 * this RPC belongs to (see app::RequestClass): the client stamps it in
 * makeRequest, composite workloads ("mix") remap it into their global
 * class table, and the serving node uses the id echoed through
 * HandleResult for per-class tail accounting. Replies carry no class —
 * the server reports it, so replies stay byte-identical across
 * workload compositions.
 *
 * Decoding copies nothing: a decoded value is a ByteView into the bytes
 * it was decoded from, so it lives only as long as they do. Encoding
 * writes each message once, at its exact size; the *Frame encoders
 * leave the value zeroed for callers that write it in place.
 */

#ifndef RPCVALET_APP_WIRE_FORMAT_HH
#define RPCVALET_APP_WIRE_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace rpcvalet::app {

/**
 * A read-only byte range inside a caller-owned buffer. Views compare
 * by content. Binding one to a temporary vector does not compile: the
 * view would dangle.
 */
class ByteView
{
  public:
    ByteView() = default;
    ByteView(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}
    ByteView(const std::vector<std::uint8_t> &bytes)
        : data_(bytes.data()), size_(bytes.size())
    {}
    ByteView(std::vector<std::uint8_t> &&) = delete;

    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const std::uint8_t *begin() const { return data_; }
    const std::uint8_t *end() const { return data_ + size_; }
    std::uint8_t operator[](std::size_t i) const { return data_[i]; }

  private:
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
};

bool operator==(ByteView a, ByteView b);
inline bool
operator!=(ByteView a, ByteView b)
{
    return !(a == b);
}

/** RPC operation codes. */
enum class RpcOp : std::uint8_t
{
    Get = 0,
    Put = 1,
    Del = 2,
    Scan = 3,
    Echo = 4,
};

/** Reply status codes. */
enum class RpcStatus : std::uint8_t
{
    Ok = 0,
    NotFound = 1,
    Error = 2,
};

/** A request's fields; the value is a view (see ByteView). */
struct RpcRequest
{
    RpcOp op = RpcOp::Get;
    /** Request-class id within the generating workload (see
     *  app::RequestClass); single-class workloads leave it 0. */
    std::uint8_t classId = 0;
    std::uint64_t key = 0;
    /** Scan length for Scan requests. */
    std::uint32_t count = 0;
    ByteView value;
};

/** A reply's fields; the value is a view (see ByteView). */
struct RpcReply
{
    RpcStatus status = RpcStatus::Ok;
    ByteView value;
};

/** Fixed header sizes. */
constexpr std::size_t requestHeaderBytes = 1 + 1 + 8 + 4 + 4;
constexpr std::size_t replyHeaderBytes = 1 + 4;

/** Byte offset of the request-class id within an encoded request. */
constexpr std::size_t requestClassOffset = 1;

/** Byte offset of the request key within an encoded request. */
constexpr std::size_t requestKeyOffset = 2;

/**
 * Read the request key straight off the wire bytes without a full
 * decode (cluster routers hash it on every request). Returns 0 for
 * requests too short to carry a key.
 */
std::uint64_t requestKeyOf(const std::vector<std::uint8_t> &request);

/** Serialize a request, copying its value in. */
std::vector<std::uint8_t> encodeRequest(const RpcRequest &req);

/**
 * Serialize @p req's fields with a @p value_bytes-long value left
 * zeroed at requestHeaderBytes, for the caller to write in place
 * (req.value is not read).
 */
std::vector<std::uint8_t> encodeRequestFrame(const RpcRequest &req,
                                             std::uint32_t value_bytes);

/**
 * Parse a request; nullopt on malformed input. The value views
 * @p bytes.
 */
std::optional<RpcRequest>
decodeRequest(const std::vector<std::uint8_t> &bytes);
std::optional<RpcRequest> decodeRequest(std::vector<std::uint8_t> &&) =
    delete;

/** Serialize a reply, copying its value in. */
std::vector<std::uint8_t> encodeReply(const RpcReply &reply);

/**
 * Serialize a reply of @p status with a @p value_bytes-long value left
 * zeroed at replyHeaderBytes, for the caller to write in place.
 */
std::vector<std::uint8_t> encodeReplyFrame(RpcStatus status,
                                           std::uint32_t value_bytes);

/** Parse a reply; nullopt on malformed input. The value views @p bytes. */
std::optional<RpcReply>
decodeReply(const std::vector<std::uint8_t> &bytes);
std::optional<RpcReply> decodeReply(std::vector<std::uint8_t> &&) = delete;

} // namespace rpcvalet::app

#endif // RPCVALET_APP_WIRE_FORMAT_HH
