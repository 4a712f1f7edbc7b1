#include "sim/simulator.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace rpcvalet::sim {

namespace {

constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};
/** run()'s horizon: every pending event is due by then. */
constexpr Tick kMaxTick = ~Tick{0};

} // namespace

Simulator::Simulator() : buckets_(kNumBuckets)
{
    initList(open_);
    initList(overflow_);
}

Simulator::~Simulator()
{
    // Detach (do not fire) anything still queued, so the destructors
    // of surviving events — including our own pooled one-shots, whose
    // slab is destroyed after this body — see an idle event. The
    // occupancy bitmap names the buckets worth visiting, so a drained
    // simulator (the common case) skips the whole wheel.
    const auto detach_all = [](EventLink &head) {
        for (EventLink *p = head.next; p != &head;) {
            Event *e = static_cast<Event *>(p);
            p = p->next;
            e->next = nullptr;
            e->prev = nullptr;
            e->simWhere_ = 0;
        }
        initList(head);
    };
    detach_all(open_);
    detach_all(overflow_);
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t bits = occupied_[w];
        while (bits != 0) {
            const unsigned bit =
                static_cast<unsigned>(__builtin_ctzll(bits));
            bits &= bits - 1;
            Event *&head = buckets_[w * 64 + bit];
            for (Event *e = head; e != nullptr;) {
                Event *next = static_cast<Event *>(e->next);
                e->next = nullptr;
                e->prev = nullptr;
                e->simWhere_ = 0;
                e = next;
            }
            head = nullptr;
        }
    }
    pending_ = 0;
}

void
Simulator::appendTo(EventLink &head, Event &ev)
{
    ev.prev = head.prev;
    ev.next = &head;
    head.prev->next = &ev;
    head.prev = &ev;
}

void
Simulator::openBucket(std::uint64_t target)
{
    const std::size_t idx = static_cast<std::size_t>(target & kBucketMask);
    Event *head = buckets_[idx];
    if (head == nullptr)
        return;
    buckets_[idx] = nullptr;
    occupied_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));

    if (head->next == nullptr) {
        // Fast path: one event per ~1 ns bucket is the common shape.
        appendTo(open_, *head);
        head->setWhere(Event::Where::Open);
        return;
    }

    // The chain is newest-first (push-front); rebuild insertion order,
    // then stable-sort by time so append order breaks ties — the
    // (time, seq) FIFO contract. Insertion sort: buckets are small and
    // nearly sorted, and equal-time runs cost O(1) per event.
    sortScratch_.clear();
    for (Event *e = head; e != nullptr;
         e = static_cast<Event *>(e->next))
        sortScratch_.push_back(e);
    std::reverse(sortScratch_.begin(), sortScratch_.end());
    for (std::size_t i = 1; i < sortScratch_.size(); ++i) {
        Event *e = sortScratch_[i];
        std::size_t j = i;
        while (j > 0 && sortScratch_[j - 1]->when_ > e->when_) {
            sortScratch_[j] = sortScratch_[j - 1];
            --j;
        }
        sortScratch_[j] = e;
    }
    for (Event *e : sortScratch_) {
        appendTo(open_, *e);
        e->setWhere(Event::Where::Open);
    }
}

void
Simulator::removeFromQueue(Event &ev)
{
    if (ev.where() == Event::Where::Bucket) {
        // Unopened buckets are singly linked: walk the few events the
        // ~1 ns window holds to find the predecessor.
        const std::size_t slot =
            static_cast<std::size_t>(bucketOf(ev.when_) & kBucketMask);
        Event *&head = buckets_[slot];
        if (head == &ev) {
            head = static_cast<Event *>(ev.next);
        } else {
            Event *p = head;
            RV_ASSERT(p != nullptr, "event missing from its bucket");
            while (p->next != static_cast<EventLink *>(&ev)) {
                RV_ASSERT(p->next != nullptr,
                          "event missing from its bucket");
                p = static_cast<Event *>(p->next);
            }
            p->next = ev.next;
        }
        if (head == nullptr)
            occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    } else {
        ev.prev->next = ev.next;
        ev.next->prev = ev.prev;
    }
    ev.next = nullptr;
    ev.prev = nullptr;
    ev.setWhere(Event::Where::None);
}

void
Simulator::deschedule(Event &ev)
{
    RV_ASSERT(ev.scheduled(), "descheduling an unscheduled event");
    RV_ASSERT(ev.owningSim() == this,
              "event is scheduled on another simulator");
    removeFromQueue(ev);
    --pending_;
}

void
Simulator::OneShot::process()
{
    Simulator *sim = owningSim();
    // Invoke-and-destroy in one indirect call; captures are dropped
    // before pooling so resources are not held until the next reuse.
    cb.invokeOnce();
    sim->releaseOneShot(this);
}

void
Simulator::releaseOneShot(OneShot *ev)
{
    oneShots_.release(ev);
}

std::uint64_t
Simulator::nextOccupiedBucket() const
{
    const std::size_t start =
        static_cast<std::size_t>(cursor_ & kBucketMask);
    const std::size_t start_word = start / 64;
    const unsigned start_bit = static_cast<unsigned>(start % 64);
    // Circular scan beginning at the cursor's word; the first word's
    // low bits (behind the cursor) are rescanned last, as they are a
    // full rotation away.
    for (std::size_t i = 0; i <= kBitmapWords; ++i) {
        const std::size_t w = (start_word + i) % kBitmapWords;
        std::uint64_t bits = occupied_[w];
        if (i == 0)
            bits &= ~std::uint64_t{0} << start_bit;
        else if (i == kBitmapWords)
            bits &= ~(~std::uint64_t{0} << start_bit);
        if (bits == 0)
            continue;
        const std::size_t slot =
            w * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
        const std::uint64_t dist =
            (slot + kNumBuckets - start) & kBucketMask;
        RV_ASSERT(dist != 0, "open window's bucket slot is occupied");
        return cursor_ + dist;
    }
    return kNoBucket;
}

void
Simulator::advanceCursor(std::uint64_t target)
{
    cursor_ = target;

    // Pull overflow events the new horizon covers back into the wheel.
    // They sit above every in-horizon bucket (or, when the wheel was
    // empty, go straight into the freshly opened window), so the
    // target bucket stays the earliest work.
    while (!listEmpty(overflow_)) {
        Event *e = static_cast<Event *>(overflow_.next);
        if (bucketOf(e->when_) >= cursor_ + kNumBuckets)
            break;
        e->prev->next = e->next;
        e->next->prev = e->prev;
        place(*e);
    }
}

Event *
Simulator::popEarliest(Tick until)
{
    if (pending_ == 0)
        return nullptr;
    if (listEmpty(open_)) {
        std::uint64_t target = nextOccupiedBucket();
        if (target == kNoBucket) {
            RV_ASSERT(!listEmpty(overflow_),
                      "timer wheel lost a pending event");
            target =
                bucketOf(static_cast<Event *>(overflow_.next)->when_);
        }
        // The earliest work's bucket starts after until: leave the
        // cursor where it is, so later schedules before that bucket
        // (but at or after until) still land ahead of it.
        if (target > bucketOf(until))
            return nullptr;
        advanceCursor(target);
        const std::size_t idx =
            static_cast<std::size_t>(target & kBucketMask);
        Event *bhead = buckets_[idx];
        if (bhead != nullptr && bhead->next == nullptr &&
            listEmpty(open_) && bhead->when_ <= until) {
            // Fast path: the earliest bucket holds exactly one event —
            // the common shape at ~1 ns granularity — so it pops
            // without touching the open list.
            buckets_[idx] = nullptr;
            occupied_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
            bhead->prev = nullptr;
            bhead->setWhere(Event::Where::None);
            --pending_;
            return bhead;
        }
        openBucket(target);
    }
    RV_ASSERT(!listEmpty(open_), "timer wheel lost a pending event");
    Event *ev = static_cast<Event *>(open_.next);
    if (ev->when_ > until)
        return nullptr;
    ev->prev->next = ev->next;
    ev->next->prev = ev->prev;
    ev->next = nullptr;
    ev->prev = nullptr;
    ev->setWhere(Event::Where::None);
    --pending_;
    return ev;
}

// Inline into both run loops: one call fewer per event.
inline bool
Simulator::executeNext(Tick until)
{
    Event *ev = popEarliest(until);
    if (ev == nullptr)
        return false;
    RV_ASSERT(ev->when_ >= now_, "event queue went backwards");
    now_ = ev->when_;
    ++executed_;
    ev->process();
    return true;
}

Tick
Simulator::run()
{
    stopRequested_ = false;
    while (!stopRequested_ && executeNext(kMaxTick)) {
    }
    return now_;
}

Tick
Simulator::runUntil(Tick until)
{
    stopRequested_ = false;
    while (!stopRequested_ && executeNext(until)) {
    }
    if (!stopRequested_ && now_ < until)
        now_ = until;
    return now_;
}

} // namespace rpcvalet::sim
