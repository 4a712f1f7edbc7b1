/**
 * @file
 * Intrusive simulation events (gem5-style).
 *
 * An Event is a reusable, allocation-free unit of scheduled work: the
 * queue linkage (doubly-linked hook) and timestamp live inside the
 * object, so scheduling touches no allocator and descheduling is O(1).
 * Components embed Events as members and implement process(); a fired
 * event may reschedule itself, which is how recurring activities
 * (arrival generators, pollers) run forever without per-occurrence
 * allocations.
 *
 * Three building blocks:
 *  - Event        abstract base: process() + schedule state
 *  - MemberEvent  Event that calls a member function on its owner
 *  - EventPool    slab-backed free list of payload-carrying events for
 *                 components with several in flight at once (packet
 *                 deliveries, CQE hops)
 *
 * One-shot callers with small captures can instead use the
 * Simulator::schedule(Tick, Callback) shim, which draws pooled events
 * internally (see sim/simulator.hh for how to choose).
 *
 * Threading model: an Event and the EventPool it came from belong to
 * the simulator wheel they schedule on, and inherit that wheel's
 * single-owner rule (sim/simulator.hh) — pools are not locked, and a
 * payload event must be released back to the pool that issued it, on
 * the owning thread. Cross-domain traffic never moves Event objects
 * between wheels; at the window barrier the fabric copies each packet
 * (a fixed-size, trivially copyable value: header plus its inline
 * 64 B block) into an event from the destination domain's own pool
 * (net/fabric.hh).
 */

#ifndef RPCVALET_SIM_EVENT_HH
#define RPCVALET_SIM_EVENT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace rpcvalet::sim {

class Simulator;

/**
 * Intrusive doubly-linked hook. Queue lists are circular with sentinel
 * nodes, so linking and unlinking never touch a head/tail pointer.
 */
struct EventLink
{
    EventLink *next = nullptr;
    EventLink *prev = nullptr;
};

/**
 * A schedulable unit of work. Derive, implement process(), embed as a
 * member of the owning component, and pass to Simulator::schedule().
 *
 * Lifetime: an Event must not outlive its Simulator while scheduled;
 * the destructor deschedules automatically (so components that die
 * before the simulator — the normal stack order — are always safe).
 * An Event belongs to at most one Simulator at a time.
 */
class Event : public EventLink
{
  public:
    Event() = default;
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    virtual ~Event();

    /** True while the event sits in a simulator's queue. */
    bool scheduled() const { return (simWhere_ & kWhereMask) != 0; }

    /** Scheduled firing time (valid while scheduled()). */
    Tick when() const { return when_; }

    /** The event's work; runs with Simulator::now() == when(). */
    virtual void process() = 0;

    /** Short label for panic messages and debugging. */
    virtual const char *description() const { return "event"; }

  protected:
    /**
     * The simulator that last scheduled this event (set by schedule,
     * kept across firing) — lets subclasses reach their queue from
     * process() without storing a second back-pointer.
     */
    Simulator *owningSim() const
    {
        return reinterpret_cast<Simulator *>(simWhere_ & ~kWhereMask);
    }

  private:
    friend class Simulator;

    /**
     * Which queue region holds the event (see simulator.hh), packed
     * into the owning simulator pointer's alignment bits: events are
     * the unit of hot-path memory traffic, so every word counts.
     */
    enum class Where : std::uintptr_t
    {
        None = 0,
        Open = 1,
        Bucket = 2,
        Overflow = 3,
    };

    static constexpr std::uintptr_t kWhereMask = 3;

    Where where() const
    {
        return static_cast<Where>(simWhere_ & kWhereMask);
    }

    void
    setState(Simulator *sim, Where where)
    {
        simWhere_ = reinterpret_cast<std::uintptr_t>(sim) |
                    static_cast<std::uintptr_t>(where);
    }

    void
    setWhere(Where where)
    {
        simWhere_ = (simWhere_ & ~kWhereMask) |
                    static_cast<std::uintptr_t>(where);
    }

    /** Owning simulator (aligned pointer) | Where (low two bits). */
    std::uintptr_t simWhere_ = 0;
    Tick when_ = 0;
};

/**
 * Event that invokes a member function on its owner — the idiomatic
 * form for a component's recurring or singleton events:
 *
 *   class ArrivalDriver {
 *       void fire();
 *       MemberEvent<ArrivalDriver, &ArrivalDriver::fire> event_{*this};
 *   };
 */
template <typename T, void (T::*Fn)()>
class MemberEvent : public Event
{
  public:
    explicit MemberEvent(T &obj, const char *what = "member-event")
        : obj_(obj), what_(what)
    {}

    void process() override { (obj_.*Fn)(); }
    const char *description() const override { return what_; }

  private:
    T &obj_;
    const char *what_;
};

/**
 * Slab-backed free list of reusable events for components that keep
 * several payload-carrying events in flight (e.g. one per packet in a
 * pipeline). E derives Event and is default-constructible; acquire()
 * recycles a released instance or carves one from the current slab
 * chunk (chunked arrays: one allocation per kChunk events, addresses
 * stable for the pool's lifetime), release() returns one for reuse.
 * Only idle (unscheduled) events may be released; the free list
 * borrows the event's own link hook, so pooling adds no per-event
 * storage.
 */
template <typename E>
class EventPool
{
  public:
    EventPool() = default;
    EventPool(const EventPool &) = delete;
    EventPool &operator=(const EventPool &) = delete;

    E *
    acquire()
    {
        if (free_ != nullptr) {
            E *e = free_;
            free_ = e->EventLink::next == nullptr
                        ? nullptr
                        : static_cast<E *>(e->EventLink::next);
            e->EventLink::next = nullptr;
            return e;
        }
        if (used_ == kChunk) {
            chunks_.push_back(std::make_unique<E[]>(kChunk));
            used_ = 0;
        }
        ++size_;
        return &chunks_.back()[used_++];
    }

    void
    release(E *e)
    {
        // A scheduled event is still linked into the wheel through
        // the very hook the free list borrows; pooling it would hand
        // a queued event back out and corrupt the queue silently.
        RV_ASSERT(!e->scheduled(), "released event is still scheduled");
        e->EventLink::next = free_;
        free_ = e;
    }

    /** Total events ever created (pool growth diagnostics). */
    std::size_t size() const { return size_; }

  private:
    static constexpr std::size_t kChunk = 256;

    std::vector<std::unique_ptr<E[]>> chunks_;
    std::size_t used_ = kChunk;
    std::size_t size_ = 0;
    E *free_ = nullptr;
};

} // namespace rpcvalet::sim

#endif // RPCVALET_SIM_EVENT_HH
