//! The stable, timed event queue at the heart of the simulator.
//!
//! [`DriverQueue`] is a `BinaryHeap` keyed on `(time, seq)`, where `seq` is
//! a per-queue push counter: events pop in time order and same-instant
//! events pop in insertion (FIFO) order, which is what makes a run
//! bit-for-bit reproducible. The scenario-corpus trace hashes pin that
//! order end to end.
//!
//! [`DriverQueue::push_batch`] stores many events as one heap entry keyed
//! by the batch's earliest pending `(time, seq)`; every observable
//! behaviour (pop order, ties, `len`, snapshots) is that of the same events
//! pushed one at a time.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::fmt::Debug;

use crate::SimTime;

/// One heap entry, keyed by the earliest pending `(time, seq)` it holds.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    slot: Slot<E>,
}

/// What a heap entry holds.
#[derive(Debug)]
enum Slot<E> {
    /// One event, pushed with [`DriverQueue::push`].
    One(E),
    /// A batch from [`DriverQueue::push_batch`]. Boxed so a single entry
    /// stays small.
    Batch(Box<Batch<E>>),
}

/// The pending events of one batch, sorted by descending `(time, seq)` so
/// the entry's key is the last item. Never empty while in the heap.
#[derive(Debug)]
struct Batch<E> {
    items: Vec<(SimTime, u64, E)>,
}

impl<E> Entry<E> {
    /// Visits this entry's events that fire at `time`, unordered.
    fn visit_at<'a>(&'a self, time: SimTime, f: &mut impl FnMut(u64, &'a E)) {
        match &self.slot {
            Slot::One(event) if self.time == time => f(self.seq, event),
            Slot::One(_) => {}
            Slot::Batch(batch) => {
                for (_, seq, event) in batch.items.iter().rev().take_while(|&&(t, _, _)| t == time)
                {
                    f(*seq, event);
                }
            }
        }
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Which scheduler backs a simulation's event queue.
///
/// There is one: the `BinaryHeap` queue. The type stays so configurations
/// and benchmark code that name the scheduler keep compiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The `BinaryHeap` + sequence-number queue, O(log n) push/pop.
    #[default]
    Heap,
}

/// The simulator's event queue: time order, FIFO among ties, monotonic
/// pushes, O(log n) push and pop.
///
/// # Example
///
/// ```
/// use sim_core::{DriverQueue, SchedulerKind, SimDuration, SimTime};
///
/// let mut q: DriverQueue<&str> = DriverQueue::new(SchedulerKind::Heap);
/// q.push(SimTime::ZERO + SimDuration::from_millis(5), "b");
/// q.push(SimTime::ZERO + SimDuration::from_millis(1), "a");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t.as_micros(), ev), (1_000, "a"));
/// ```
#[derive(Debug)]
pub struct DriverQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    last_popped: SimTime,
    /// Pending events, counting each batched event (the heap counts entries).
    len: usize,
}

impl<E: Debug> DriverQueue<E> {
    /// Creates an empty queue.
    pub fn new(kind: SchedulerKind) -> Self {
        let SchedulerKind::Heap = kind;
        DriverQueue { heap: BinaryHeap::new(), next_seq: 0, last_popped: SimTime::ZERO, len: 0 }
    }

    /// Panics unless `time` is at or after the last popped event.
    fn check_not_past(&self, time: SimTime, event: &E) {
        assert!(
            time >= self.last_popped,
            "scheduled event at {time} before current time {}: {event:?}",
            self.last_popped
        );
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event — scheduling
    /// into the past is always a logic error in the caller. The message
    /// carries the offending event's debug summary.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.check_not_past(time, &event);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.heap.push(Entry { time, seq, slot: Slot::One(event) });
    }

    /// Schedules every `(time, event)` of `events` exactly as the same
    /// calls to [`Self::push`] in order would: they take consecutive
    /// sequence numbers, pop in `(time, seq)` order and count in
    /// [`Self::len`] one by one. They share one heap entry, so a batch of
    /// `n` costs one heap push and its pops sift an entry whose key moves
    /// only as far as the batch's next event. An empty batch is a no-op.
    ///
    /// # Panics
    ///
    /// Panics, before scheduling any of them, if any event is earlier than
    /// the last popped event; the message names that event.
    pub fn push_batch(&mut self, events: Vec<(SimTime, E)>) {
        for (time, event) in &events {
            self.check_not_past(*time, event);
        }
        let base = self.next_seq;
        self.next_seq += events.len() as u64;
        self.len += events.len();
        let mut items: Vec<(SimTime, u64, E)> =
            events.into_iter().zip(base..).map(|((time, event), seq)| (time, seq, event)).collect();
        items.sort_unstable_by_key(|&(time, seq, _)| std::cmp::Reverse((time, seq)));
        if let Some(&(time, seq, _)) = items.last() {
            self.heap.push(Entry { time, seq, slot: Slot::Batch(Box::new(Batch { items })) });
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let mut head = self.heap.peek_mut()?;
        let (time, event) = if let Slot::Batch(batch) = &mut head.slot {
            let items = &mut batch.items;
            let (time, _, event) = items.pop()?;
            // Re-key the entry in place: the heap sifts it down from the
            // root on drop, which is cheaper than a pop plus a push.
            match items.last() {
                Some(&(next_time, next_seq, _)) => {
                    head.time = next_time;
                    head.seq = next_seq;
                }
                None => {
                    PeekMut::pop(head);
                }
            }
            (time, event)
        } else {
            let Entry { time, slot: Slot::One(event), .. } = PeekMut::pop(head) else {
                return None;
            };
            (time, event)
        };
        debug_assert!(time >= self.last_popped, "event queue went backwards");
        self.last_popped = time;
        self.len -= 1;
        Some((time, event))
    }

    /// Removes and returns the `n`-th event (FIFO order) among those tied at
    /// the earliest pending time; `pop_nth(0)` is exactly [`Self::pop`].
    /// The other tied entries keep their sequence numbers, so FIFO order
    /// among the survivors is preserved. Returns `None` (removing nothing)
    /// if the queue is empty or `n` is not below [`Self::tie_count`].
    pub fn pop_nth(&mut self, n: usize) -> Option<(SimTime, E)> {
        let time = self.heap.peek()?.time;
        // Lift the whole tie run out as `(seq, event)`: every single entry
        // at `time`, and each batch's events at `time` off its back (the
        // batch's later events go back as a batch).
        let mut tied: Vec<(u64, E)> = Vec::new();
        let mut rest: Vec<Entry<E>> = Vec::new();
        while self.heap.peek().is_some_and(|e| e.time == time) {
            let Some(entry) = self.heap.pop() else { break };
            match entry.slot {
                Slot::One(event) => tied.push((entry.seq, event)),
                Slot::Batch(mut batch) => {
                    while let Some((_, seq, event)) = batch.items.pop_if(|item| item.0 == time) {
                        tied.push((seq, event));
                    }
                    if let Some(&(time, seq, _)) = batch.items.last() {
                        rest.push(Entry { time, seq, slot: Slot::Batch(batch) });
                    }
                }
            }
        }
        tied.sort_unstable_by_key(|&(seq, _)| seq);
        let chosen = (n < tied.len()).then(|| tied.swap_remove(n));
        // swap_remove scrambles the survivors' order, but re-inserting into
        // the heap restores `(time, seq)` order from the preserved seqs.
        self.heap.extend(rest);
        self.heap.extend(tied.into_iter().map(|(seq, event)| Entry {
            time,
            seq,
            slot: Slot::One(event),
        }));
        let (_, event) = chosen?;
        debug_assert!(time >= self.last_popped, "event queue went backwards");
        self.last_popped = time;
        self.len -= 1;
        Some((time, event))
    }

    /// Visits `(seq, event)` for each event tied at the earliest time,
    /// unordered.
    fn visit_head_ties<'a>(&'a self, mut f: impl FnMut(u64, &'a E)) {
        let Some(time) = self.peek_time() else { return };
        for entry in self.heap.iter().filter(|e| e.time == time) {
            entry.visit_at(time, &mut f);
        }
    }

    /// Number of pending events tied at the earliest time (0 when empty).
    pub fn tie_count(&self) -> usize {
        let mut count = 0;
        self.visit_head_ties(|_, _| count += 1);
        count
    }

    /// Visits each event tied at the earliest time, in FIFO order — the
    /// order `pop_nth` indexes.
    pub fn for_each_tie(&self, mut f: impl FnMut(&E)) {
        let mut tied: Vec<(u64, &E)> = Vec::new();
        self.visit_head_ties(|seq, event| tied.push((seq, event)));
        tied.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, event) in tied {
            f(event);
        }
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// The virtual time of the most recently popped event (`SimTime::ZERO`
    /// before the first pop).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Number of pending events (each batched event counts).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E: crate::Snapshotable + Debug> crate::Snapshotable for DriverQueue<E> {
    /// Layout: `now`, the next sequence number, then the pending events in
    /// canonical `(time, seq)` order, each as `time, seq, event`. Batches
    /// expand into their events, so the bytes do not depend on how the
    /// events were pushed (a decoded queue holds no batches).
    fn encode(&self, w: &mut crate::SnapshotWriter) {
        let mut events: Vec<(SimTime, u64, &E)> = Vec::with_capacity(self.len);
        for entry in &self.heap {
            match &entry.slot {
                Slot::One(event) => events.push((entry.time, entry.seq, event)),
                Slot::Batch(batch) => {
                    events
                        .extend(batch.items.iter().map(|(time, seq, event)| (*time, *seq, event)));
                }
            }
        }
        events.sort_unstable_by_key(|&(time, seq, _)| (time, seq));
        w.put(&self.last_popped);
        w.put_u64(self.next_seq);
        w.put_usize(events.len());
        for (time, seq, event) in events {
            w.put(&time);
            w.put_u64(seq);
            event.encode(w);
        }
    }

    fn decode(r: &mut crate::SnapshotReader<'_>) -> Result<Self, crate::SnapError> {
        let last_popped: SimTime = r.get()?;
        let next_seq = r.take_u64()?;
        let count = r.take_usize()?;
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let time: SimTime = r.get()?;
            let seq = r.take_u64()?;
            let event = E::decode(r)?;
            if time < last_popped {
                return Err(crate::SnapError::Invalid("queued event before now"));
            }
            if seq >= next_seq {
                return Err(crate::SnapError::Invalid("queued event seq from the future"));
            }
            if entries.last().is_some_and(|p| (time, seq) <= (p.time, p.seq)) {
                return Err(crate::SnapError::Invalid("queue entries out of order"));
            }
            entries.push(Entry { time, seq, slot: Slot::One(event) });
        }
        let len = entries.len();
        Ok(DriverQueue { heap: BinaryHeap::from(entries), next_seq, last_popped, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshotable;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    fn queue<E: Debug>() -> DriverQueue<E> {
        DriverQueue::new(SchedulerKind::Heap)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = queue();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = queue();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = queue();
        q.push(t(10), 'a');
        assert_eq!(q.pop(), Some((t(10), 'a')));
        q.push(t(10), 'b'); // same instant as "now" is allowed
        q.push(t(15), 'c');
        assert_eq!(q.pop(), Some((t(10), 'b')));
        assert_eq!(q.pop(), Some((t(15), 'c')));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_past_panics() {
        let mut q = queue();
        q.push(t(10), ());
        q.pop();
        q.push(t(9), ());
    }

    #[test]
    fn past_panic_names_the_event() {
        let caught = std::panic::catch_unwind(|| {
            let mut q = queue();
            q.push(t(10), "late-rto");
            q.pop();
            q.push(t(9), "late-rto");
        });
        let msg = caught.unwrap_err();
        let msg = msg.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("late-rto"), "panic must carry the event: {msg}");
    }

    #[test]
    fn now_and_len_track_state() {
        let mut q = queue();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(t(42), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(42)));
        q.pop();
        assert_eq!(q.now(), t(42));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn tie_count_and_for_each_tie_see_the_fifo_run() {
        let mut q = queue();
        assert_eq!(q.tie_count(), 0);
        q.push(t(10), 'a');
        q.push(t(10), 'b');
        q.push(t(10), 'c');
        q.push(t(20), 'z');
        assert_eq!(q.tie_count(), 3);
        let mut seen = Vec::new();
        q.for_each_tie(|&e| seen.push(e));
        assert_eq!(seen, vec!['a', 'b', 'c'], "ties must visit in FIFO order");
        q.pop();
        assert_eq!(q.tie_count(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.tie_count(), 1, "a lone head is a tie run of one");
    }

    #[test]
    fn pop_nth_picks_one_tie_and_keeps_fifo_for_the_rest() {
        let mut q = queue();
        for e in ['a', 'b', 'c', 'd'] {
            q.push(t(10), e);
        }
        q.push(t(20), 'z');
        assert_eq!(q.pop_nth(2), Some((t(10), 'c')));
        assert_eq!(q.pop_nth(4), None, "out-of-run index must not pop");
        assert_eq!(q.len(), 4, "failed pop_nth must not lose events");
        assert_eq!(q.pop(), Some((t(10), 'a')));
        assert_eq!(q.pop(), Some((t(10), 'b')));
        assert_eq!(q.pop(), Some((t(10), 'd')));
        assert_eq!(q.pop(), Some((t(20), 'z')));
        q.push(t(20), 'y');
        assert_eq!(q.pop_nth(0), Some((t(20), 'y')));
    }

    #[test]
    fn pop_nth_zero_is_exactly_pop() {
        // Same deterministic mixed workload on two queues: one popped with
        // `pop()`, one with `pop_nth(0)` — every observation must agree.
        let mut plain = queue();
        let mut nth = queue();
        let mut state = 0xdeadbeefu64;
        let step = |s: &mut u64| {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        };
        for i in 0..5_000u64 {
            let r = step(&mut state);
            if r % 10 < 6 {
                let base = plain.now().as_nanos();
                let delta = if r % 2 == 0 { r % 20 } else { r % 500_000 };
                plain.push(t(base + delta), i);
                nth.push(t(base + delta), i);
            } else {
                assert_eq!(plain.pop(), nth.pop_nth(0));
                assert_eq!(plain.now(), nth.now());
                assert_eq!(plain.peek_time(), nth.peek_time());
            }
        }
        loop {
            let (a, b) = (plain.pop(), nth.pop_nth(0));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn single_entries_stay_small() {
        // The hold model and every non-batched event pay for the entry size:
        // a batch must stay behind one pointer.
        assert!(std::mem::size_of::<Entry<u64>>() <= 32);
    }

    #[test]
    fn batch_pops_like_single_pushes() {
        let mut batched = queue();
        let mut single = queue();
        batched.push(t(20), 'a');
        single.push(t(20), 'a');
        let events = vec![(t(30), 'b'), (t(20), 'c'), (t(10), 'd'), (t(20), 'e')];
        for &(at, e) in &events {
            single.push(at, e);
        }
        batched.push_batch(events);
        batched.push(t(10), 'f');
        single.push(t(10), 'f');
        assert_eq!(batched.len(), 6);
        loop {
            assert_eq!(batched.len(), single.len());
            let (a, b) = (batched.pop(), single.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut q = queue();
        q.push(t(10), 'a');
        q.push_batch(Vec::new());
        assert_eq!((q.len(), q.tie_count()), (1, 1));
        q.push(t(10), 'b');
        q.push_batch(vec![(t(10), 'c')]);
        // The empty batch consumed no sequence numbers: FIFO is a, b, c.
        assert_eq!(q.pop(), Some((t(10), 'a')));
        assert_eq!(q.pop(), Some((t(10), 'b')));
        assert_eq!(q.pop(), Some((t(10), 'c')));
        assert!(q.is_empty());
    }

    #[test]
    fn batch_into_the_past_panics_and_names_the_event() {
        let caught = std::panic::catch_unwind(|| {
            let mut q = queue();
            q.push(t(10), "now");
            q.pop();
            q.push_batch(vec![(t(12), "fine"), (t(9), "late-rx-end")]);
        });
        let msg = caught.unwrap_err();
        let msg = msg.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("before current time"), "{msg}");
        assert!(msg.contains("late-rx-end"), "panic must carry the event: {msg}");
    }

    #[test]
    fn pop_nth_reaches_into_a_batch() {
        let mut q = queue();
        q.push(t(5), 'x');
        q.pop();
        q.push(t(10), 'a');
        q.push_batch(vec![(t(10), 'b'), (t(20), 'z'), (t(10), 'c')]);
        q.push(t(10), 'd');
        assert_eq!(q.tie_count(), 4);
        let mut seen = Vec::new();
        q.for_each_tie(|&e| seen.push(e));
        assert_eq!(seen, vec!['a', 'b', 'c', 'd']);
        // Out of range inside a batch: nothing removed, time unchanged.
        assert_eq!(q.pop_nth(4), None);
        assert_eq!((q.len(), q.now(), q.tie_count()), (5, t(5), 4));
        assert_eq!(q.pop_nth(2), Some((t(10), 'c')));
        assert_eq!(q.now(), t(10));
        assert_eq!(q.pop_nth(1), Some((t(10), 'b')));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((t(10), 'a')));
        assert_eq!(q.pop(), Some((t(10), 'd')));
        assert_eq!(q.pop(), Some((t(20), 'z')));
        assert!(q.is_empty());
    }

    fn encode(q: &DriverQueue<u64>) -> Vec<u8> {
        let mut w = crate::SnapshotWriter::new();
        q.encode(&mut w);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<DriverQueue<u64>, crate::SnapError> {
        DriverQueue::decode(&mut crate::SnapshotReader::new(bytes))
    }

    #[test]
    fn snapshot_round_trip_keeps_seqs() {
        let mut q = queue();
        for (i, at) in [30u64, 10, 10, 20, 10].into_iter().enumerate() {
            q.push(t(at), i as u64);
        }
        q.pop();
        let mut restored = decode(&encode(&q)).unwrap();
        assert_eq!(restored.now(), q.now());
        // Fresh pushes after the restore must tie-break exactly as in the
        // original: the sequence counter travels with the snapshot.
        q.push(t(20), 99);
        restored.push(t(20), 99);
        loop {
            let (a, b) = (q.pop(), restored.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn snapshot_decode_validates_entries() {
        let entry = |w: &mut crate::SnapshotWriter, time: u64, seq: u64| {
            w.put(&t(time));
            w.put_u64(seq);
            w.put_u64(0);
        };
        let build = |now: u64, next_seq: u64, entries: &[(u64, u64)]| {
            let mut w = crate::SnapshotWriter::new();
            w.put(&t(now));
            w.put_u64(next_seq);
            w.put_usize(entries.len());
            for &(time, seq) in entries {
                entry(&mut w, time, seq);
            }
            w.finish()
        };
        assert!(decode(&build(5, 3, &[(5, 0), (6, 2)])).is_ok());
        let err = |bytes: Vec<u8>| decode(&bytes).err();
        let invalid = |why| Some(crate::SnapError::Invalid(why));
        assert_eq!(err(build(5, 3, &[(4, 0)])), invalid("queued event before now"));
        assert_eq!(err(build(5, 3, &[(6, 3)])), invalid("queued event seq from the future"));
        assert_eq!(err(build(5, 3, &[(6, 1), (6, 0)])), invalid("queue entries out of order"));
        assert_eq!(err(build(5, 3, &[(6, 1), (6, 1)])), invalid("queue entries out of order"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping the whole queue yields times in nondecreasing order, and
        /// equal-time events preserve insertion order.
        #[test]
        fn pop_order_is_stable(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = DriverQueue::new(SchedulerKind::Heap);
            for (i, &nanos) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(nanos), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((time, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(time >= lt);
                    if time == lt {
                        prop_assert!(idx > lidx, "FIFO violated on tie");
                    }
                }
                last = Some((time, idx));
            }
        }

        /// The queue never loses or duplicates events.
        #[test]
        fn conservation(times in proptest::collection::vec(0u64..100, 0..100)) {
            let mut q = DriverQueue::new(SchedulerKind::Heap);
            for &nanos in &times {
                q.push(SimTime::from_nanos(nanos), nanos);
            }
            let mut popped = Vec::new();
            while let Some((_, v)) = q.pop() {
                popped.push(v);
            }
            let mut expected = times.clone();
            expected.sort_unstable();
            popped.sort_unstable();
            prop_assert_eq!(popped, expected);
        }
    }
}
