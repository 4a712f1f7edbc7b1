/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * Events are (time, sequence) ordered: two events scheduled for the
 * same tick fire in scheduling order, which makes entire simulations
 * bit-reproducible for a given seed.
 *
 * The kernel is allocation-free on the schedule/fire hot path:
 *
 *  - Intrusive events (sim/event.hh): components embed sim::Event
 *    subclasses and schedule them directly — no allocation ever.
 *  - One-shot callables: schedule(Tick, f) builds the callable inside
 *    a pooled internal event; captures up to 3 pointers are stored
 *    inline (sim/callback.hh), larger ones fall back to the heap.
 *    Prefer a reusable Event for anything carrying bulky payloads
 *    (packets, CQEs) or firing once per RPC.
 *
 * Pending events live in a two-level bucketed timer wheel instead of a
 * binary heap:
 *
 *  - Near future: kNumBuckets buckets of kBucketTicks each (a rotating
 *    ~2 µs horizon at 1 ns granularity). schedule() appends to the
 *    destination bucket in O(1), unsorted. When the wheel reaches a
 *    bucket it is "opened": its events are stably sorted by time once
 *    (append order breaks ties, preserving the (time, seq) FIFO
 *    contract) and then popped from the head in O(1).
 *  - Far future: events beyond the horizon wait in a sorted overflow
 *    list and migrate into buckets as the horizon advances past them.
 *
 * A bitmap over buckets makes skipping empty time O(buckets/64) words,
 * and descheduling is O(1) thanks to the intrusive doubly-linked
 * hooks. Determinism is unchanged from the heap kernel and is locked
 * by tests/core/kernel_identity_test.cc.
 *
 * Threading model
 * ---------------
 * A Simulator (wheel, clock, callback pool) is single-owner state: it
 * is never internally synchronized, and exactly one thread may call
 * schedule/deschedule/run/runUntil at any instant. Parallel runs do
 * not share a wheel — they shard the experiment into sim::EventDomain
 * instances (sim/domain.hh, each is-a Simulator), each executed by one
 * fixed worker of a core::WindowPool between window barriers, so
 * every mutation still happens under one owner. There is no process-global
 * "current simulator": components receive their EventDomain& at
 * construction and hold it for life.
 */

#ifndef RPCVALET_SIM_SIMULATOR_HH
#define RPCVALET_SIM_SIMULATOR_HH

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/callback.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace rpcvalet::sim {

/** Discrete-event simulator with a monotonically advancing clock. */
class Simulator
{
    /** Only callables take the one-shot overloads. */
    template <typename F>
    using EnableIfCallable =
        std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F> &>>;

  public:
    Simulator();
    ~Simulator();

    // Queued events hold pointers into this object; the simulator
    // identity must be stable.
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    // ----- intrusive event API (allocation-free) -----

    /** Schedule @p ev to fire @p delay ticks from now. */
    void schedule(Event &ev, Tick delay) { scheduleAt(ev, now_ + delay); }

    /**
     * Schedule @p ev at absolute time @p when. Scheduling in the past
     * or scheduling an already-scheduled event is a simulator bug and
     * panics (use reschedule() to move a pending event). Inline: this
     * is the innermost step of every schedule call.
     */
    void
    scheduleAt(Event &ev, Tick when)
    {
        RV_ASSERT(!ev.scheduled(), "event is already scheduled");
        RV_ASSERT(when >= now_, "event scheduled in the past");
        ev.when_ = when;
        place(ev);
        ++pending_;
    }

    /** Remove a pending event (panics if @p ev is not scheduled). */
    void deschedule(Event &ev);

    /** Move @p ev (scheduled or not) to fire @p delay from now. */
    void reschedule(Event &ev, Tick delay)
    {
        if (ev.scheduled())
            deschedule(ev);
        scheduleAt(ev, now_ + delay);
    }

    // ----- one-shot callables -----

    /**
     * Schedule callable @p f to run @p delay ticks from now. The
     * closure is built directly inside a pooled one-shot event.
     */
    template <typename F, typename = EnableIfCallable<F>>
    void
    schedule(Tick delay, F &&f)
    {
        OneShot *ev = oneShots_.acquire();
        ev->cb.emplace(std::forward<F>(f));
        scheduleAt(*ev, now_ + delay);
    }

    /**
     * Schedule callable @p f at absolute time @p when. Scheduling in
     * the past is a simulator bug and panics.
     */
    template <typename F, typename = EnableIfCallable<F>>
    void
    scheduleAt(Tick when, F &&f)
    {
        OneShot *ev = oneShots_.acquire();
        ev->cb.emplace(std::forward<F>(f));
        scheduleAt(*ev, when);
    }

    // ----- running -----

    /**
     * Run until the event queue drains or stop() is called. Returns the
     * time of the last executed event.
     */
    Tick run();

    /**
     * Run all events with time <= @p until, then set now() to @p until
     * (if not stopped earlier). Returns now().
     */
    Tick runUntil(Tick until);

    /** Ask the main loop to return after the current event. */
    void stop() { stopRequested_ = true; }

    /** True once stop() was called (cleared by the next run call). */
    bool stopRequested() const { return stopRequested_; }

    /** Number of events waiting in the queue. */
    std::size_t pendingEvents() const { return pending_; }

    /** Total number of events executed so far. */
    std::uint64_t executedEvents() const { return executed_; }

  private:
    friend class Event;

    // Wheel geometry: 1024-tick (~1 ns) buckets, 2048 of them — a
    // rotating ~2 µs horizon that covers the common pipeline, mesh and
    // interarrival delays of this model. Both are powers of two so the
    // bucket of a tick is two shifts away.
    static constexpr unsigned kBucketBits = 10;
    static constexpr Tick kBucketTicks = Tick(1) << kBucketBits;
    static constexpr std::size_t kNumBuckets = 2048;
    static constexpr std::uint64_t kBucketMask = kNumBuckets - 1;
    static constexpr std::size_t kBitmapWords = kNumBuckets / 64;

    /** Internal pooled event backing the one-shot callback shim. */
    struct OneShot : Event
    {
        InplaceCallback cb;

        void process() override;
        const char *description() const override { return "one-shot"; }
    };

    static std::uint64_t bucketOf(Tick when)
    {
        return when >> kBucketBits;
    }

    static bool listEmpty(const EventLink &head)
    {
        return head.next == &head;
    }

    static void initList(EventLink &head)
    {
        head.next = &head;
        head.prev = &head;
    }

    /** Append @p ev at the tail of @p head (FIFO order). */
    static void appendTo(EventLink &head, Event &ev);

    /**
     * Insert @p ev keeping @p head sorted by (when, insertion order).
     * Scans from the tail: the common pattern (later schedules, later
     * times) makes this O(1) amortized.
     */
    static void
    insertSorted(EventLink &head, Event &ev)
    {
        EventLink *pos = head.prev;
        while (pos != &head &&
               static_cast<Event *>(pos)->when_ > ev.when_)
            pos = pos->prev;
        ev.next = pos->next;
        ev.prev = pos;
        pos->next->prev = &ev;
        pos->next = &ev;
    }

    /** Route a (when-stamped) event into open/bucket/overflow. */
    void
    place(Event &ev)
    {
        const std::uint64_t bucket = bucketOf(ev.when_);
        if (bucket >= cursor_ + kNumBuckets) {
            insertSorted(overflow_, ev);
            ev.setState(this, Event::Where::Overflow);
        } else if (bucket == cursor_) {
            insertSorted(open_, ev);
            ev.setState(this, Event::Where::Open);
        } else {
            // when >= now() >= cursor window start, so in-horizon
            // events are never behind the cursor. Push-front:
            // openBucket restores insertion order before anything
            // fires.
            const std::size_t slot =
                static_cast<std::size_t>(bucket & kBucketMask);
            ev.next = buckets_[slot];
            buckets_[slot] = &ev;
            occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
            ev.setState(this, Event::Where::Bucket);
        }
    }

    /** Unlink from whichever region holds the event. */
    void removeFromQueue(Event &ev);

    /**
     * Pop the earliest pending event if it is due at or before
     * @p until, else return nullptr. One bitmap scan per popped event:
     * the scan that finds the next occupied bucket also moves the
     * cursor there — but never to a bucket that starts after @p until,
     * because a runUntil() caller may still schedule anything at or
     * after until (the next window's mail lands at until + 1), and the
     * cursor must not pass it.
     */
    Event *popEarliest(Tick until);

    /**
     * Move the cursor to bucket @p target, migrating newly in-horizon
     * overflow events.
     */
    void advanceCursor(std::uint64_t target);

    /** Sort bucket @p target's events into the open list. */
    void openBucket(std::uint64_t target);

    /** Absolute bucket numbers of candidate work, or ~0 if none. */
    std::uint64_t nextOccupiedBucket() const;

    /** Execute the earliest event due at or before @p until; false
     *  when there is none. */
    bool executeNext(Tick until);

    void releaseOneShot(OneShot *ev);

    Tick now_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t executed_ = 0;
    bool stopRequested_ = false;

    /** Absolute bucket number of the open (currently served) window. */
    std::uint64_t cursor_ = 0;
    /** The open bucket, sorted by (when, insertion). */
    EventLink open_;
    /** Beyond-horizon events, sorted by (when, insertion). */
    EventLink overflow_;
    /**
     * In-horizon buckets: singly-linked stacks, newest first (one
     * head pointer each, so a fresh wheel is a small memset and an
     * append is two stores). A bucket is put into (time, seq) order
     * only when opened; descheduling from an unopened bucket walks
     * the few events it holds.
     */
    std::vector<Event *> buckets_;
    /** One bit per bucket: does it hold any events? */
    std::array<std::uint64_t, kBitmapWords> occupied_{};
    /** Scratch for sorting a bucket as it opens (reused, no alloc). */
    std::vector<Event *> sortScratch_;

    // Declared last: destroyed first, after ~Simulator's body has
    // detached any still-pending events, so ~Event sees them idle.
    EventPool<OneShot> oneShots_;
};

} // namespace rpcvalet::sim

#endif // RPCVALET_SIM_SIMULATOR_HH
