/**
 * @file
 * Unit tests for the three workload applications and their Fig. 6
 * processing-time profiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "app/herd_app.hh"
#include "app/masstree_app.hh"
#include "app/service_profiles.hh"
#include "app/synthetic_app.hh"
#include "app/wire_format.hh"

namespace {

using namespace rpcvalet;
using namespace rpcvalet::app;

// --------------------------------------------------------- profiles

TEST(Profiles, HerdMeanMatchesFig6b)
{
    // Fig. 6b: HERD processing times have a mean of 330 ns.
    auto d = makeHerdProfile();
    EXPECT_NEAR(d->mean(), 330.0, 12.0);
    sim::Rng rng(1);
    for (int i = 0; i < 20000; ++i) {
        const double x = d->sample(rng);
        EXPECT_GE(x, 80.0);
        EXPECT_LE(x, 1000.0);
    }
}

TEST(Profiles, MasstreeGetMeanMatchesFig6c)
{
    // Fig. 6c: gets average 1.25 us.
    auto d = makeMasstreeGetProfile();
    EXPECT_NEAR(d->mean(), 1250.0, 50.0);
}

TEST(Profiles, MasstreeScanRangeMatchesPaper)
{
    // §5: scans run 60-120 us.
    auto d = makeMasstreeScanProfile();
    EXPECT_DOUBLE_EQ(d->mean(), 90000.0);
    sim::Rng rng(2);
    for (int i = 0; i < 10000; ++i) {
        const double x = d->sample(rng);
        EXPECT_GE(x, 60000.0);
        EXPECT_LT(x, 120000.0);
    }
}

// --------------------------------------------------------- synthetic

TEST(SyntheticApp, RequestReplyRoundTripVerifies)
{
    SyntheticApp app(sim::SyntheticKind::Fixed);
    sim::Rng client(1), server(2);
    const auto req = app.makeRequest(client);
    const auto result = app.handle(req, server);
    EXPECT_TRUE(result.latencyCritical);
    EXPECT_EQ(result.reply.size(), SyntheticApp::replyBytes);
    EXPECT_TRUE(app.verifyReply(req, result.reply));
}

TEST(SyntheticApp, MismatchedReplyFailsVerification)
{
    SyntheticApp app(sim::SyntheticKind::Fixed);
    sim::Rng client(1), server(2);
    const auto req_a = app.makeRequest(client);
    const auto req_b = app.makeRequest(client);
    const auto result_a = app.handle(req_a, server);
    EXPECT_FALSE(app.verifyReply(req_b, result_a.reply));
}

TEST(SyntheticApp, ProcessingTimeFollowsDistribution)
{
    SyntheticApp app(sim::SyntheticKind::Fixed);
    sim::Rng client(1), server(2);
    const auto req = app.makeRequest(client);
    for (int i = 0; i < 100; ++i) {
        const auto result = app.handle(req, server);
        EXPECT_DOUBLE_EQ(result.processingNs, 600.0); // 300 + 300 fixed
    }
    EXPECT_NEAR(app.meanProcessingNs(), 600.0, 5.0);
}

TEST(SyntheticApp, MalformedRequestYieldsErrorReply)
{
    SyntheticApp app(sim::SyntheticKind::Fixed);
    sim::Rng server(2);
    const auto result = app.handle({1, 2, 3}, server);
    const auto reply = decodeReply(result.reply);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, RpcStatus::Error);
}

// --------------------------------------------------------------- HERD

TEST(HerdApp, PreloadsAllKeys)
{
    HerdApp::Params p;
    p.numKeys = 1000;
    HerdApp app(p);
    EXPECT_EQ(app.table().size(), 1000u);
}

TEST(HerdApp, ValueForKeyFollowsTheCanonicalPattern)
{
    // Byte i of key k's value is (k * 131 + i) & 0xff; values longer
    // than 256 bytes wrap.
    HerdApp::Params p;
    p.numKeys = 4;
    p.valueBytes = 600;
    HerdApp app(p);
    for (const std::uint64_t key :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{77},
          std::uint64_t{123456789}, ~std::uint64_t{0}}) {
        const auto value = app.valueForKey(key);
        ASSERT_EQ(value.size(), 600u);
        for (std::uint32_t i = 0; i < 600; ++i) {
            ASSERT_EQ(value[i], static_cast<std::uint8_t>(
                                    (key * 131 + i) & 0xff))
                << "key " << key << " byte " << i;
        }
    }
}

TEST(HerdApp, GetReturnsCanonicalValue)
{
    HerdApp app;
    sim::Rng server(3);
    RpcRequest req;
    req.op = RpcOp::Get;
    req.key = 123;
    const auto result = app.handle(encodeRequest(req), server);
    const auto reply = decodeReply(result.reply);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, RpcStatus::Ok);
    EXPECT_EQ(reply->value, app.valueForKey(123));
}

TEST(HerdApp, PutThenGetRoundTrips)
{
    HerdApp app;
    sim::Rng server(3);
    RpcRequest put;
    put.op = RpcOp::Put;
    put.key = 77;
    const auto value = app.valueForKey(77);
    put.value = value;
    app.handle(encodeRequest(put), server);

    RpcRequest get;
    get.op = RpcOp::Get;
    get.key = 77;
    const auto result = app.handle(encodeRequest(get), server);
    EXPECT_TRUE(app.verifyReply(encodeRequest(get), result.reply));
}

TEST(HerdApp, RequestMixMatchesReadFraction)
{
    HerdApp::Params p;
    p.readFraction = 0.95;
    HerdApp app(p);
    sim::Rng client(5);
    int gets = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const auto bytes = app.makeRequest(client);
        const auto req = decodeRequest(bytes);
        ASSERT_TRUE(req.has_value());
        gets += (req->op == RpcOp::Get);
    }
    EXPECT_NEAR(gets / static_cast<double>(n), 0.95, 0.01);
}

TEST(HerdApp, EveryGeneratedRequestVerifies)
{
    HerdApp app;
    sim::Rng client(6), server(7);
    for (int i = 0; i < 5000; ++i) {
        const auto req = app.makeRequest(client);
        const auto result = app.handle(req, server);
        EXPECT_TRUE(app.verifyReply(req, result.reply)) << "i=" << i;
        EXPECT_TRUE(result.latencyCritical);
    }
}

TEST(HerdApp, ProcessingTimesInProfileRange)
{
    HerdApp app;
    sim::Rng client(8), server(9);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const auto result = app.handle(app.makeRequest(client), server);
        EXPECT_GE(result.processingNs, 80.0);
        EXPECT_LE(result.processingNs, 1000.0);
        sum += result.processingNs;
    }
    EXPECT_NEAR(sum / n, 330.0, 15.0);
}

TEST(HerdApp, DeleteLifecycle)
{
    HerdApp app;
    sim::Rng server(3);
    RpcRequest del;
    del.op = RpcOp::Del;
    del.key = 5;
    auto result = app.handle(encodeRequest(del), server);
    EXPECT_EQ(decodeReply(result.reply)->status, RpcStatus::Ok);
    result = app.handle(encodeRequest(del), server);
    EXPECT_EQ(decodeReply(result.reply)->status, RpcStatus::NotFound);
}

// ----------------------------------------------------------- Masstree

TEST(MasstreeApp, GetReturnsCanonicalValue)
{
    MasstreeApp app;
    sim::Rng server(3);
    RpcRequest req;
    req.op = RpcOp::Get;
    req.key = 16 * 50; // key 50 at stride 16
    const auto result = app.handle(encodeRequest(req), server);
    EXPECT_TRUE(app.verifyReply(encodeRequest(req), result.reply));
    EXPECT_TRUE(result.latencyCritical);
}

TEST(MasstreeApp, ScanReturnsOrderedEntriesAndIsNotCritical)
{
    MasstreeApp::Params p;
    p.numKeys = 1000;
    MasstreeApp app(p);
    sim::Rng server(3);
    RpcRequest req;
    req.op = RpcOp::Scan;
    req.key = 16 * 10;
    req.count = 100;
    const auto result = app.handle(encodeRequest(req), server);
    EXPECT_FALSE(result.latencyCritical);
    EXPECT_GE(result.processingNs, 60000.0);
    EXPECT_LE(result.processingNs, 120000.0);
    EXPECT_TRUE(app.verifyReply(encodeRequest(req), result.reply));
    // Reply packs (8-byte key + value) entries, capped by the reply
    // budget.
    const auto reply = decodeReply(result.reply);
    ASSERT_TRUE(reply.has_value());
    const std::size_t entry_bytes = 8 + 8;
    EXPECT_EQ(reply->value.size() % entry_bytes, 0u);
    EXPECT_GT(reply->value.size() / entry_bytes, 50u);
}

TEST(MasstreeApp, ScanReplyRespectsSizeCap)
{
    MasstreeApp::Params p;
    p.maxReplyValueBytes = 160; // 10 entries max
    MasstreeApp app(p);
    sim::Rng server(3);
    RpcRequest req;
    req.op = RpcOp::Scan;
    req.key = 0;
    req.count = 100;
    const auto result = app.handle(encodeRequest(req), server);
    const auto reply = decodeReply(result.reply);
    ASSERT_TRUE(reply.has_value());
    EXPECT_LE(reply->value.size(), 160u);
}

TEST(MasstreeApp, RequestMixMatchesGetFraction)
{
    MasstreeApp app;
    sim::Rng client(5);
    int scans = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const auto bytes = app.makeRequest(client);
        const auto req = decodeRequest(bytes);
        ASSERT_TRUE(req.has_value());
        scans += (req->op == RpcOp::Scan);
    }
    EXPECT_NEAR(scans / static_cast<double>(n), 0.01, 0.003);
}

TEST(MasstreeApp, MeanProcessingBlendsGetsAndScans)
{
    MasstreeApp app;
    // 0.99 * ~1.25us + 0.01 * 90us ~= 2.14 us.
    EXPECT_NEAR(app.meanProcessingNs(), 2140.0, 150.0);
    EXPECT_NEAR(app.latencyCriticalMeanNs(), 1250.0, 50.0);
}

TEST(MasstreeApp, EveryGeneratedRequestVerifies)
{
    MasstreeApp app;
    sim::Rng client(6), server(7);
    for (int i = 0; i < 3000; ++i) {
        const auto req = app.makeRequest(client);
        const auto result = app.handle(req, server);
        EXPECT_TRUE(app.verifyReply(req, result.reply)) << "i=" << i;
    }
}

} // namespace
