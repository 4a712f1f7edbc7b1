/**
 * @file
 * Unit tests for the RPC wire format codec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "app/wire_format.hh"

namespace {

using Bytes = std::vector<std::uint8_t>;

using namespace rpcvalet::app;

TEST(WireFormat, RequestRoundTrip)
{
    RpcRequest req;
    req.op = RpcOp::Put;
    req.key = 0xDEADBEEFCAFEF00DULL;
    req.count = 42;
    const Bytes value = {1, 2, 3, 4, 5};
    req.value = value;
    const auto bytes = encodeRequest(req);
    EXPECT_EQ(bytes.size(), requestHeaderBytes + 5);
    const auto back = decodeRequest(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->op, RpcOp::Put);
    EXPECT_EQ(back->key, req.key);
    EXPECT_EQ(back->count, 42u);
    EXPECT_EQ(back->value, value);
    // The decoded value is a view into the encoded bytes, not a copy.
    EXPECT_EQ(back->value.data(), bytes.data() + requestHeaderBytes);
}

TEST(WireFormat, RequestRoundTripEmptyValue)
{
    RpcRequest req;
    req.op = RpcOp::Get;
    req.key = 7;
    const auto bytes = encodeRequest(req);
    const auto back = decodeRequest(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->op, RpcOp::Get);
    EXPECT_EQ(back->key, 7u);
    EXPECT_TRUE(back->value.empty());
}

TEST(WireFormat, ReplyRoundTrip)
{
    RpcReply reply;
    reply.status = RpcStatus::NotFound;
    const Bytes value = {9, 8, 7};
    reply.value = value;
    const auto bytes = encodeReply(reply);
    const auto back = decodeReply(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->status, RpcStatus::NotFound);
    EXPECT_EQ(back->value, value);
    EXPECT_EQ(back->value.data(), bytes.data() + replyHeaderBytes);
}

TEST(WireFormat, TruncatedRequestRejected)
{
    RpcRequest req;
    req.op = RpcOp::Get;
    auto bytes = encodeRequest(req);
    bytes.resize(requestHeaderBytes - 1);
    EXPECT_FALSE(decodeRequest(bytes).has_value());
}

TEST(WireFormat, ValueLengthBeyondBufferRejected)
{
    RpcRequest req;
    req.op = RpcOp::Put;
    const Bytes value = {1, 2, 3};
    req.value = value;
    auto bytes = encodeRequest(req);
    bytes.resize(bytes.size() - 1); // chop one value byte
    EXPECT_FALSE(decodeRequest(bytes).has_value());
    // The same for replies.
    RpcReply reply;
    reply.value = value;
    auto reply_bytes = encodeReply(reply);
    reply_bytes.pop_back();
    EXPECT_FALSE(decodeReply(reply_bytes).has_value());
}

TEST(WireFormat, UnknownOpRejected)
{
    RpcRequest req;
    req.op = RpcOp::Get;
    auto bytes = encodeRequest(req);
    bytes[0] = 99;
    EXPECT_FALSE(decodeRequest(bytes).has_value());
}

TEST(WireFormat, UnknownStatusRejected)
{
    RpcReply reply;
    auto bytes = encodeReply(reply);
    bytes[0] = 50;
    EXPECT_FALSE(decodeReply(bytes).has_value());
}

TEST(WireFormat, EmptyBufferRejected)
{
    const Bytes empty;
    EXPECT_FALSE(decodeRequest(empty).has_value());
    EXPECT_FALSE(decodeReply(empty).has_value());
}

TEST(WireFormat, KeyEncodingIsLittleEndian)
{
    RpcRequest req;
    req.op = RpcOp::Get;
    req.key = 0x0102030405060708ULL;
    const auto bytes = encodeRequest(req);
    EXPECT_EQ(bytes[2], 0x08);
    EXPECT_EQ(bytes[9], 0x01);
}

TEST(WireFormat, ClassIdRoundTripsAtItsFixedOffset)
{
    RpcRequest req;
    req.op = RpcOp::Scan;
    req.classId = 7;
    req.key = 99;
    const auto bytes = encodeRequest(req);
    EXPECT_EQ(bytes[requestClassOffset], 7);
    const auto back = decodeRequest(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->classId, 7);
    // The class byte is patchable in place (composite workloads remap
    // component-local ids into their global class table).
    auto patched = bytes;
    patched[requestClassOffset] = 3;
    EXPECT_EQ(decodeRequest(patched)->classId, 3);
}

TEST(WireFormat, FramesLeaveTheValueZeroedForInPlaceWrites)
{
    RpcRequest req;
    req.op = RpcOp::Put;
    req.classId = 2;
    req.key = 11;
    req.count = 3;
    Bytes frame = encodeRequestFrame(req, 4);
    ASSERT_EQ(frame.size(), requestHeaderBytes + 4);
    EXPECT_EQ(Bytes(frame.begin() + requestHeaderBytes, frame.end()),
              Bytes(4, 0));
    // Writing the value in place gives exactly what encodeRequest
    // makes from a copied-in value.
    const Bytes value = {5, 6, 7, 8};
    std::copy(value.begin(), value.end(),
              frame.begin() + requestHeaderBytes);
    req.value = value;
    EXPECT_EQ(frame, encodeRequest(req));

    Bytes reply_frame = encodeReplyFrame(RpcStatus::Ok, 2);
    reply_frame[replyHeaderBytes] = 1;
    reply_frame[replyHeaderBytes + 1] = 2;
    const Bytes reply_value = {1, 2};
    EXPECT_EQ(reply_frame,
              encodeReply(RpcReply{RpcStatus::Ok, ByteView(reply_value)}));
}

TEST(WireFormat, ByteViewsCompareByContent)
{
    const Bytes a = {1, 2, 3};
    const Bytes b = {1, 2, 3};
    const Bytes c = {1, 2, 4};
    EXPECT_EQ(ByteView(a), ByteView(b));
    EXPECT_NE(ByteView(a), ByteView(c));
    EXPECT_NE(ByteView(a), ByteView(a.data(), 2));
    EXPECT_EQ(ByteView(), ByteView(a.data(), 0));
}

} // namespace
