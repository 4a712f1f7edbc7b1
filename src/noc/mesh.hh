/**
 * @file
 * On-chip interconnect model (Table 1: 2D mesh, 16 B links,
 * 3 cycles/hop) and the Manycore NI floorplan of Fig. 4.
 *
 * Tiles are laid out rows x cols (4x4 for the 16-core chip); each tile
 * hosts one core and its collocated NI frontend. NI backends are
 * replicated along the chip's east edge, one per row, and reach tiles
 * through the mesh. Latency is modeled as XY-routing hop delay plus
 * per-flit link serialization; link-level contention is deliberately
 * not modeled — the contention that shapes the results lives in the
 * NI pipelines and dispatcher occupancy.
 */

#ifndef RPCVALET_NOC_MESH_HH
#define RPCVALET_NOC_MESH_HH

#include <cstdint>

#include "proto/packet.hh"
#include "sim/types.hh"

namespace rpcvalet::noc {

/** Coordinate of a mesh endpoint (tile or edge backend). */
struct Coord
{
    int row = 0;
    int col = 0;

    bool operator==(const Coord &other) const
    {
        return row == other.row && col == other.col;
    }
    bool operator!=(const Coord &other) const { return !(*this == other); }
};

/** Geometry + timing of the on-chip mesh. */
class Mesh
{
  public:
    /**
     * @param rows,cols   Tile grid (4x4 default).
     * @param hop_cycles  Cycles per router hop (Table 1: 3).
     * @param link_bytes  Link width in bytes per cycle (Table 1: 16).
     * @param clock       Chip clock domain.
     */
    Mesh(int rows, int cols, double hop_cycles, std::uint32_t link_bytes,
         sim::Clock clock);

    /** Tile coordinate of core @p core (row-major). */
    Coord coreCoord(proto::CoreId core) const;

    /**
     * Coordinate of NI backend @p backend: east edge, one per row
     * (backend b sits in pseudo-column `cols` of row b mod rows).
     */
    Coord backendCoord(std::uint32_t backend) const;

    /** Manhattan hop count between two coordinates (XY routing). */
    int hops(Coord a, Coord b) const;

    /**
     * Latency of moving @p bytes from @p a to @p b: hop traversal plus
     * head-flit serialization per link width.
     */
    sim::Tick transferLatency(Coord a, Coord b, std::uint32_t bytes) const;

    /** Convenience: backend-to-core transfer (e.g. CQE delivery). */
    sim::Tick backendToCore(std::uint32_t backend, proto::CoreId core,
                            std::uint32_t bytes) const;

    /** Convenience: core-to-backend transfer (e.g. WQE forwarding). */
    sim::Tick coreToBackend(proto::CoreId core, std::uint32_t backend,
                            std::uint32_t bytes) const;

    /** Convenience: backend-to-backend (completion forwarding, §4.3). */
    sim::Tick backendToBackend(std::uint32_t a, std::uint32_t b,
                               std::uint32_t bytes) const;

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    const sim::Clock &clock() const { return clock_; }

  private:
    int rows_;
    int cols_;
    double hopCycles_;
    std::uint32_t linkBytes_;
    sim::Clock clock_;
};

} // namespace rpcvalet::noc

#endif // RPCVALET_NOC_MESH_HH
