/**
 * @file
 * EventDomain: the unit of simulation in the redesigned kernel API.
 *
 * A domain is a Simulator shard with an identity: it owns one
 * two-level timer wheel and one local clock, and every component bound
 * to it (an RpcNode with its NI backends and cores, or the
 * traffic-generator/client side) schedules exclusively on that wheel.
 * Components therefore take an EventDomain& at construction — the
 * schedule/now/runUntil surface lives here, and a bare Simulator no
 * longer appears in component signatures.
 *
 * Single-domain runs (the default) behave exactly like the old global
 * wheel: one EventDomain carries everything and run() executes the
 * identical event sequence (locked by tests/core/kernel_identity).
 *
 * Multi-domain runs are conservative parallel DES: all domains execute
 * their events inside a window [T, T + lookahead) in parallel, where
 * the lookahead is the fabric link latency — a packet sent at time t
 * cannot be visible to another domain before t + latency >= T +
 * lookahead, so within a window no domain can affect another. A
 * cross-domain packet is parked in the fabric's per-edge mailboxes
 * (net/fabric.hh) while its window runs. The window barrier does O(1)
 * work: it closes the window (flipping the fabric's mailbox bank) and
 * advances every clock together. Each domain's mail is then drained
 * into its wheel by the domain's owner, just before the domain runs
 * its next window (core::WindowPool's prologue), so the per-packet
 * barrier work runs in parallel on the domains' owners.
 *
 * Threading model
 * ---------------
 * An EventDomain — wheel, clock, event pools, and every component
 * bound to it — is owned by exactly one thread. In a parallel run
 * that owner is fixed for the whole run: core::WindowPool maps
 * domain 0 (the client side) to the coordinator and deals the node
 * domains round-robin over its helper threads, and a domain runs every
 * window on that one thread, so its state stays in one core's caches.
 * Between windows the coordinator touches domain state only at the
 * barrier (reading clocks and counters, closing the fabric window),
 * ordered against the owners' windows by the barrier's
 * release/acquire pairs. No sim:: type is internally synchronized; do
 * not touch a domain from two threads without such a handoff.
 */

#ifndef RPCVALET_SIM_DOMAIN_HH
#define RPCVALET_SIM_DOMAIN_HH

#include <cstdint>
#include <string>
#include <utility>

#include "sim/simulator.hh"

namespace rpcvalet::sim {

/** Dense domain index within one experiment (0 = client side). */
using DomainId = std::uint32_t;

/** A simulator shard: one wheel, one clock, one owning thread. */
class EventDomain : public Simulator
{
  public:
    /** A standalone domain (single-wheel runs, unit tests). */
    EventDomain() = default;

    /** A named shard of a multi-domain experiment. */
    EventDomain(DomainId id, std::string name)
        : id_(id), name_(std::move(name))
    {}

    DomainId id() const { return id_; }
    const std::string &name() const { return name_; }

  private:
    DomainId id_ = 0;
    std::string name_ = "main";
};

} // namespace rpcvalet::sim

#endif // RPCVALET_SIM_DOMAIN_HH
