#include "noc/mesh.hh"

#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"

namespace rpcvalet::noc {

Mesh::Mesh(int rows, int cols) : rows_(rows), cols_(cols)
{
    RV_ASSERT(rows >= 1 && cols >= 1, "mesh must have at least one tile");
}

Coord
Mesh::coreCoord(proto::CoreId core) const
{
    const int id = static_cast<int>(core);
    RV_ASSERT(id < rows_ * cols_, "core id outside mesh");
    return Coord{id / cols_, id % cols_};
}

Coord
Mesh::backendCoord(std::uint32_t backend) const
{
    // Backends are replicated across the chip's east edge (Fig. 4),
    // one per row; extra backends (if any) wrap around.
    return Coord{static_cast<int>(backend) % rows_, cols_};
}

int
Mesh::hops(Coord a, Coord b) const
{
    return std::abs(a.row - b.row) + std::abs(a.col - b.col);
}

sim::Tick
Mesh::transferLatency(Coord a, Coord b, std::uint32_t bytes) const
{
    const int h = hops(a, b);
    // Head latency: hop traversal. Serialization: body flits behind
    // the head flit on the final link.
    const double flits = std::ceil(static_cast<double>(bytes) /
                                   static_cast<double>(linkBytes));
    const double cycles =
        static_cast<double>(h) * hopCycles + std::max(flits - 1.0, 0.0);
    return chipClock.cycles(cycles);
}

sim::Tick
Mesh::backendToCore(std::uint32_t backend, proto::CoreId core,
                    std::uint32_t bytes) const
{
    return transferLatency(backendCoord(backend), coreCoord(core), bytes);
}

sim::Tick
Mesh::coreToBackend(proto::CoreId core, std::uint32_t backend,
                    std::uint32_t bytes) const
{
    return transferLatency(coreCoord(core), backendCoord(backend), bytes);
}

sim::Tick
Mesh::backendToBackend(std::uint32_t a, std::uint32_t b,
                       std::uint32_t bytes) const
{
    return transferLatency(backendCoord(a), backendCoord(b), bytes);
}

} // namespace rpcvalet::noc
