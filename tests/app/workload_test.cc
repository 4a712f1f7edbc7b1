/**
 * @file
 * Unit tests for the spec-driven workload layer: WorkloadSpec parsing,
 * the WorkloadRegistry (errors, external registration), the built-in
 * factories' parameter wiring, and the composite "mix" workload's
 * class-table construction and request tagging.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "app/masstree_app.hh"
#include "app/wire_format.hh"
#include "app/workload.hh"
#include "sim/rng.hh"

namespace {

using namespace rpcvalet;
using app::WorkloadRegistry;
using app::WorkloadSpec;

TEST(WorkloadSpec, DefaultIsHerd)
{
    const WorkloadSpec spec;
    EXPECT_EQ(spec.name, "herd");
    EXPECT_TRUE(spec.params.empty());
    EXPECT_EQ(spec.what, "workload");
}

TEST(WorkloadSpec, ParseRoundTrips)
{
    const WorkloadSpec spec("masstree:scan_ratio=0.02,keys=1000");
    EXPECT_EQ(spec.name, "masstree");
    EXPECT_EQ(WorkloadSpec(spec.toString()), spec);
}

TEST(WorkloadRegistry, BuiltinsAreRegistered)
{
    auto &reg = WorkloadRegistry::instance();
    for (const char *name : {"herd", "masstree", "masstree-get",
                             "masstree-scan", "synthetic", "mix"})
        EXPECT_TRUE(reg.contains(name)) << name;
}

TEST(WorkloadRegistry, ExternalRegistrationIsUsableAndMixable)
{
    // Registered here, outside src/app — and immediately selectable by
    // spec string, including as a mix component.
    static const app::WorkloadRegistrar reg(
        "wl-test-external", [](const WorkloadSpec &spec) {
            spec.expectKeys({});
            return WorkloadRegistry::instance().make(
                WorkloadSpec("herd"));
        });
    EXPECT_TRUE(
        WorkloadRegistry::instance().contains("wl-test-external"));
    const auto app = WorkloadRegistry::instance().make(
        WorkloadSpec("wl-test-external"));
    EXPECT_EQ(app->name(), "herd");
    const auto mixed = WorkloadRegistry::instance().make(
        WorkloadSpec("mix:herd=0.5,wl-test-external=0.5"));
    ASSERT_EQ(mixed->requestClasses().size(), 2u);
    EXPECT_EQ(mixed->requestClasses()[1].name, "wl-test-external");
}

TEST(WorkloadRegistryDeath, UnknownNameIsFatalListingAlternatives)
{
    EXPECT_EXIT((void)WorkloadRegistry::instance().make(
                    WorkloadSpec("nonesuch")),
                ::testing::ExitedWithCode(1),
                "unknown workload 'nonesuch'.*herd.*mix");
}

TEST(WorkloadRegistryDeath, DuplicateRegistrationIsFatal)
{
    EXPECT_EXIT(WorkloadRegistry::instance().add(
                    "herd",
                    [](const WorkloadSpec &) {
                        return WorkloadRegistry::instance().make(
                            WorkloadSpec("herd"));
                    }),
                ::testing::ExitedWithCode(1),
                "already registered");
}

TEST(WorkloadRegistryDeath, UnknownParameterKeyIsFatal)
{
    EXPECT_EXIT((void)WorkloadRegistry::instance().make(
                    WorkloadSpec("herd:scan_ratio=0.5")),
                ::testing::ExitedWithCode(1),
                "unknown parameter 'scan_ratio'");
}

TEST(WorkloadBuiltins, HerdParameterWiring)
{
    const auto app = WorkloadRegistry::instance().make(
        WorkloadSpec("herd:keys=128,read_ratio=0.5"));
    EXPECT_EQ(app->name(), "herd");
    ASSERT_EQ(app->requestClasses().size(), 1u);
    EXPECT_TRUE(app->requestClasses()[0].latencyCritical);
    EXPECT_GT(app->requestClasses()[0].sloNs, 0.0);
}

TEST(WorkloadBuiltinsDeath, HerdReadRatioOutOfRangeIsFatal)
{
    EXPECT_EXIT((void)WorkloadRegistry::instance().make(
                    WorkloadSpec("herd:read_ratio=1.5")),
                ::testing::ExitedWithCode(1),
                "read_ratio must be in");
}

TEST(WorkloadBuiltins, SyntheticDistWiring)
{
    const auto gev = WorkloadRegistry::instance().make(
        WorkloadSpec("synthetic:dist=gev"));
    EXPECT_EQ(gev->name(), "synthetic-gev");
    const auto fixed = WorkloadRegistry::instance().make(
        WorkloadSpec("synthetic:dist=fixed"));
    EXPECT_EQ(fixed->name(), "synthetic-fixed");
    // Default dist is gev.
    EXPECT_EQ(WorkloadRegistry::instance()
                  .make(WorkloadSpec("synthetic"))
                  ->name(),
              "synthetic-gev");
    // padding= grows the request.
    sim::Rng rng(7);
    const auto padded = WorkloadRegistry::instance().make(
        WorkloadSpec("synthetic:padding=500"));
    EXPECT_EQ(padded->makeRequest(rng).size(),
              app::requestHeaderBytes + 500);
}

TEST(WorkloadBuiltinsDeath, SyntheticUnknownDistIsFatal)
{
    EXPECT_EXIT((void)WorkloadRegistry::instance().make(
                    WorkloadSpec("synthetic:dist=zipf")),
                ::testing::ExitedWithCode(1),
                "unknown dist 'zipf'.*gev");
}

TEST(WorkloadBuiltins, MasstreeClassTablesFollowScanRatio)
{
    const auto mixed = WorkloadRegistry::instance().make(
        WorkloadSpec("masstree:scan_ratio=0.3"));
    ASSERT_EQ(mixed->requestClasses().size(), 2u);
    EXPECT_EQ(mixed->requestClasses()[0].name, "get");
    EXPECT_TRUE(mixed->requestClasses()[0].latencyCritical);
    EXPECT_NEAR(mixed->requestClasses()[0].sloNs, 12500.0, 500.0);
    EXPECT_EQ(mixed->requestClasses()[1].name, "scan");
    EXPECT_FALSE(mixed->requestClasses()[1].latencyCritical);

    const auto gets = WorkloadRegistry::instance().make(
        WorkloadSpec("masstree-get"));
    ASSERT_EQ(gets->requestClasses().size(), 1u);
    EXPECT_EQ(gets->requestClasses()[0].name, "get");

    const auto scans = WorkloadRegistry::instance().make(
        WorkloadSpec("masstree-scan"));
    ASSERT_EQ(scans->requestClasses().size(), 1u);
    EXPECT_EQ(scans->requestClasses()[0].name, "scan");
    EXPECT_FALSE(scans->requestClasses()[0].latencyCritical);
}

TEST(WorkloadBuiltins, MasstreeStampsScanClassOnTheWire)
{
    app::MasstreeApp::Params p;
    p.getFraction = 0.0; // scans only, single class -> id 0
    app::MasstreeApp scan_only(p);
    sim::Rng rng(3);
    const auto request = scan_only.makeRequest(rng);
    EXPECT_EQ(request[app::requestClassOffset], 0);
    const auto decoded = app::decodeRequest(request);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->op, app::RpcOp::Scan);

    p.getFraction = 0.5; // mixed -> scans are class 1
    app::MasstreeApp half(p);
    bool saw_scan = false;
    for (int i = 0; i < 64; ++i) {
        const auto bytes = half.makeRequest(rng);
        const auto req = app::decodeRequest(bytes);
        ASSERT_TRUE(req.has_value());
        if (req->op == app::RpcOp::Scan) {
            EXPECT_EQ(req->classId, 1);
            saw_scan = true;
        } else {
            EXPECT_EQ(req->classId, 0);
        }
    }
    EXPECT_TRUE(saw_scan);
}

TEST(MixWorkload, ClassTableConcatenatesComponents)
{
    const auto mix = WorkloadRegistry::instance().make(
        WorkloadSpec("mix:masstree-get=0.998,masstree-scan=0.002"));
    const auto classes = mix->requestClasses();
    ASSERT_EQ(classes.size(), 2u);
    // Components in sorted-name order; single-class components report
    // under their workload name.
    EXPECT_EQ(classes[0].name, "masstree-get");
    EXPECT_TRUE(classes[0].latencyCritical);
    EXPECT_EQ(classes[1].name, "masstree-scan");
    EXPECT_FALSE(classes[1].latencyCritical);
    // Multi-class components get "workload.class" tags.
    const auto nested = WorkloadRegistry::instance().make(
        WorkloadSpec("mix:herd=0.5,masstree=0.5"));
    const auto nested_classes = nested->requestClasses();
    ASSERT_EQ(nested_classes.size(), 3u);
    EXPECT_EQ(nested_classes[0].name, "herd");
    EXPECT_EQ(nested_classes[1].name, "masstree.get");
    EXPECT_EQ(nested_classes[2].name, "masstree.scan");
}

TEST(MixWorkload, RequestsCarryGlobalClassIds)
{
    const auto mix = WorkloadRegistry::instance().make(
        WorkloadSpec("mix:herd=0.5,masstree=0.5"));
    sim::Rng client(11);
    sim::Rng server(12);
    bool saw[3] = {false, false, false};
    // Scans are 0.5 * 0.01 of draws; 4000 draws make a miss
    // astronomically unlikely (and the seed is fixed anyway).
    for (int i = 0; i < 4000; ++i) {
        const auto request = mix->makeRequest(client);
        const std::uint8_t cls = request[app::requestClassOffset];
        ASSERT_LT(cls, 3);
        saw[cls] = true;
        // The server echoes the same global id through HandleResult.
        const auto result = mix->handle(request, server);
        EXPECT_EQ(result.classId, cls);
        EXPECT_TRUE(mix->verifyReply(request, result.reply));
    }
    EXPECT_TRUE(saw[0]); // herd
    EXPECT_TRUE(saw[1]); // masstree get
    EXPECT_TRUE(saw[2]); // masstree scan
}

/**
 * Two-class echo workload whose handle() branches on the wire class
 * byte (like the bimodal playground): used to prove mix components
 * observe component-LOCAL class ids, not the mix's global remapping.
 */
class ClassEchoApp : public app::RpcApplication
{
  public:
    std::vector<std::uint8_t>
    makeRequest(sim::Rng &client_rng) override
    {
        app::RpcRequest req;
        req.op = app::RpcOp::Echo;
        req.classId = client_rng.uniform() < 0.5 ? 0 : 1;
        return app::encodeRequest(req);
    }

    app::HandleResult
    handle(const std::vector<std::uint8_t> &request,
           sim::Rng &) override
    {
        const auto req = app::decodeRequest(request);
        app::HandleResult result;
        result.processingNs = 100.0;
        // The component must never see a foreign (global) id.
        EXPECT_TRUE(req.has_value());
        EXPECT_LT(req->classId, 2);
        result.classId = req->classId;
        result.reply = app::encodeReply(app::RpcReply{});
        return result;
    }

    bool
    verifyReply(const std::vector<std::uint8_t> &request,
                const std::vector<std::uint8_t> &) const override
    {
        const auto req = app::decodeRequest(request);
        return req.has_value() && req->classId < 2;
    }

    double meanProcessingNs() const override { return 100.0; }

    std::vector<app::RequestClass>
    requestClasses() const override
    {
        return {app::RequestClass{"a", true, 0.0},
                app::RequestClass{"b", true, 0.0}};
    }

    std::string name() const override { return "wl-test-classecho"; }
};

TEST(MixWorkload, ComponentsSeeLocalClassIdsInHandleAndVerify)
{
    static const app::WorkloadRegistrar reg(
        "wl-test-classecho", [](const WorkloadSpec &spec) {
            spec.expectKeys({});
            return std::make_unique<ClassEchoApp>();
        });
    // "herd" sorts first, so the echo component's classBase is 1: its
    // local classes {0, 1} occupy global ids {1, 2}.
    const auto mix = WorkloadRegistry::instance().make(
        WorkloadSpec("mix:herd=0.5,wl-test-classecho=0.5"));
    sim::Rng client(21);
    sim::Rng server(22);
    bool saw_echo = false;
    for (int i = 0; i < 64; ++i) {
        const auto request = mix->makeRequest(client);
        const std::uint8_t global = request[app::requestClassOffset];
        const auto result = mix->handle(request, server);
        // handle() remaps the component's local echo back to the
        // global id — and ClassEchoApp itself asserts it only ever
        // saw local ids on the wire.
        EXPECT_EQ(result.classId, global);
        EXPECT_TRUE(mix->verifyReply(request, result.reply));
        saw_echo = saw_echo || global > 0;
    }
    EXPECT_TRUE(saw_echo);
}

TEST(MixWorkload, SingleComponentConsumesNoExtraRandomness)
{
    // "mix:herd=1" must replay "herd" bit-for-bit: same client RNG
    // stream, same request bytes.
    const auto plain =
        WorkloadRegistry::instance().make(WorkloadSpec("herd"));
    const auto mix =
        WorkloadRegistry::instance().make(WorkloadSpec("mix:herd=1"));
    sim::Rng a(99);
    sim::Rng b(99);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(plain->makeRequest(a), mix->makeRequest(b));
    EXPECT_DOUBLE_EQ(plain->meanProcessingNs(), mix->meanProcessingNs());
}

TEST(MixWorkload, MeanProcessingIsWeighted)
{
    const auto herd =
        WorkloadRegistry::instance().make(WorkloadSpec("herd"));
    const auto scan =
        WorkloadRegistry::instance().make(WorkloadSpec("masstree-scan"));
    const auto mix = WorkloadRegistry::instance().make(
        WorkloadSpec("mix:herd=0.75,masstree-scan=0.25"));
    EXPECT_NEAR(mix->meanProcessingNs(),
                0.75 * herd->meanProcessingNs() +
                    0.25 * scan->meanProcessingNs(),
                1e-6);
}

TEST(MixWorkloadDeath, EmptyMixIsFatal)
{
    EXPECT_EXIT((void)WorkloadRegistry::instance().make(
                    WorkloadSpec("mix")),
                ::testing::ExitedWithCode(1),
                "at least one CLASS=WEIGHT");
}

TEST(MixWorkloadDeath, UnknownComponentIsFatal)
{
    EXPECT_EXIT((void)WorkloadRegistry::instance().make(
                    WorkloadSpec("mix:nonesuch=1")),
                ::testing::ExitedWithCode(1),
                "'nonesuch' is not a registered workload");
}

TEST(MixWorkloadDeath, NonPositiveWeightIsFatal)
{
    EXPECT_EXIT((void)WorkloadRegistry::instance().make(
                    WorkloadSpec("mix:herd=0")),
                ::testing::ExitedWithCode(1),
                "weight of 'herd' must be a positive number");
}

TEST(MixWorkloadDeath, NestedMixIsFatal)
{
    EXPECT_EXIT((void)WorkloadRegistry::instance().make(
                    WorkloadSpec("mix:herd=0.5,mix=0.5")),
                ::testing::ExitedWithCode(1), "cannot nest");
}

} // namespace
