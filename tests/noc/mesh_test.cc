/**
 * @file
 * Unit tests for the 2D mesh model (Table 1 geometry and timing).
 */

#include <gtest/gtest.h>

#include "noc/mesh.hh"

namespace {

using rpcvalet::noc::Coord;
using rpcvalet::noc::Mesh;
using rpcvalet::noc::chipClock;
using rpcvalet::sim::nanoseconds;

Mesh
paperMesh()
{
    return Mesh(4, 4);
}

TEST(Mesh, CoreCoordsAreRowMajor)
{
    const Mesh m = paperMesh();
    EXPECT_EQ(m.coreCoord(0), (Coord{0, 0}));
    EXPECT_EQ(m.coreCoord(3), (Coord{0, 3}));
    EXPECT_EQ(m.coreCoord(4), (Coord{1, 0}));
    EXPECT_EQ(m.coreCoord(15), (Coord{3, 3}));
}

TEST(Mesh, BackendsSitOnEastEdgeOnePerRow)
{
    const Mesh m = paperMesh();
    for (std::uint32_t b = 0; b < 4; ++b) {
        const Coord c = m.backendCoord(b);
        EXPECT_EQ(c.col, 4);
        EXPECT_EQ(c.row, static_cast<int>(b));
    }
    // Extra backends wrap.
    EXPECT_EQ(m.backendCoord(5).row, 1);
}

TEST(Mesh, HopsAreManhattanDistance)
{
    const Mesh m = paperMesh();
    EXPECT_EQ(m.hops({0, 0}, {0, 0}), 0);
    EXPECT_EQ(m.hops({0, 0}, {3, 3}), 6);
    EXPECT_EQ(m.hops({1, 2}, {2, 0}), 3);
    EXPECT_EQ(m.hops({2, 0}, {1, 2}), 3); // symmetric
}

TEST(Mesh, HopLatencyMatchesTable1)
{
    // 3 cycles/hop at 2 GHz = 1.5 ns per hop; a 16 B message is a
    // single flit (16 B links), so pure hop latency.
    const Mesh m = paperMesh();
    EXPECT_EQ(m.transferLatency({0, 0}, {0, 1}, 16), nanoseconds(1.5));
    EXPECT_EQ(m.transferLatency({0, 0}, {2, 2}, 16), nanoseconds(6.0));
}

TEST(Mesh, SerializationAddsBodyFlits)
{
    // 64 B = 4 flits on 16 B links: 3 body flits behind the head.
    const Mesh m = paperMesh();
    const auto one_hop_16 = m.transferLatency({0, 0}, {0, 1}, 16);
    const auto one_hop_64 = m.transferLatency({0, 0}, {0, 1}, 64);
    EXPECT_EQ(one_hop_64 - one_hop_16, chipClock.cycles(3));
}

TEST(Mesh, ZeroHopTransferOnlySerializes)
{
    const Mesh m = paperMesh();
    EXPECT_EQ(m.transferLatency({1, 1}, {1, 1}, 16), 0u);
}

TEST(Mesh, BackendToCoreCoversRowAndColumn)
{
    const Mesh m = paperMesh();
    // Backend 0 at (0,4); core 0 at (0,0): 4 hops.
    EXPECT_EQ(m.backendToCore(0, 0, 16), nanoseconds(4 * 1.5));
    // Core 15 at (3,3): |0-3| + |4-3| = 4 hops.
    EXPECT_EQ(m.backendToCore(0, 15, 16), nanoseconds(4 * 1.5));
}

TEST(Mesh, BackendToBackendIndirectionIsAFewNs)
{
    // §4.3: "the indirection from any NI backend to the NI dispatcher
    // costs a couple of on-chip interconnect hops, adding just a few
    // ns".
    const Mesh m = paperMesh();
    for (std::uint32_t b = 1; b < 4; ++b) {
        const auto lat = m.backendToBackend(b, 0, 16);
        EXPECT_GT(lat, 0u);
        EXPECT_LE(lat, nanoseconds(5.0));
    }
    EXPECT_EQ(m.backendToBackend(0, 0, 16), 0u);
}

TEST(Mesh, TransferLatencySymmetric)
{
    const Mesh m = paperMesh();
    for (std::uint32_t a = 0; a < 16; ++a) {
        for (std::uint32_t b = 0; b < 16; ++b) {
            EXPECT_EQ(m.transferLatency(m.coreCoord(a), m.coreCoord(b),
                                        64),
                      m.transferLatency(m.coreCoord(b), m.coreCoord(a),
                                        64));
        }
    }
}

} // namespace
