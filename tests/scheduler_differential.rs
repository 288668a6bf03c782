//! Tier-1 differential gate for the event queue: under randomised
//! interleavings of push / pop / `pop_nth` / lazy-cancel / tie inspection /
//! snapshot round trips, `DriverQueue` must behave exactly like a sorted
//! `Vec` reference model kept in this file — same timestamps, same
//! payloads, same FIFO order among ties, same tombstone skips. The model
//! is deliberately naive (linear insert into a `(time, seq)`-sorted list),
//! so it is correct by inspection; the end-to-end counterpart is the
//! corpus trace-hash pinning in `tests/scenario_corpus.rs`.

use proptest::prelude::*;
use tcp_muzha::sim::{
    DriverQueue, SchedulerKind, SimDuration, SimRng, SimTime, SnapshotReader, SnapshotWriter,
    Snapshotable, TimerHandle, TimerSlab,
};

/// The reference model: pending entries sorted by `(time, seq)`, where
/// `seq` counts pushes. Index `i` of the tie run at the head is exactly
/// what `pop_nth(i)` must return.
struct Model<E> {
    entries: Vec<(SimTime, u64, E)>,
    next_seq: u64,
    now: SimTime,
}

impl<E: Clone> Model<E> {
    fn new() -> Self {
        Model { entries: Vec::new(), next_seq: 0, now: SimTime::ZERO }
    }

    fn push(&mut self, at: SimTime, event: E) {
        let key = (at, self.next_seq);
        let idx = self.entries.partition_point(|&(t, s, _)| (t, s) < key);
        self.entries.insert(idx, (at, self.next_seq, event));
        self.next_seq += 1;
    }

    fn tie_count(&self) -> usize {
        self.entries.first().map_or(0, |&(head, _, _)| {
            self.entries.iter().take_while(|&&(t, _, _)| t == head).count()
        })
    }

    fn ties(&self) -> Vec<E> {
        self.entries[..self.tie_count()].iter().map(|(_, _, e)| e.clone()).collect()
    }

    fn pop_nth(&mut self, n: usize) -> Option<(SimTime, E)> {
        if n >= self.tie_count() {
            return None;
        }
        let (at, _, event) = self.entries.remove(n);
        self.now = at;
        Some((at, event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.entries.first().map(|&(t, _, _)| t)
    }
}

/// Lazy-cancellation bookkeeping around the popped timer handles.
struct Books {
    slab: TimerSlab,
    live: Vec<TimerHandle>,
    pops: u64,
    stale_skips: u64,
}

impl Books {
    fn new() -> Self {
        Books { slab: TimerSlab::new(), live: Vec::new(), pops: 0, stale_skips: 0 }
    }

    fn schedule(&mut self) -> TimerHandle {
        let handle = self.slab.schedule();
        self.live.push(handle);
        handle
    }

    /// Tombstones the `sel`-th still-live handle, if any is live.
    fn cancel(&mut self, sel: usize) -> bool {
        if self.live.is_empty() {
            return true;
        }
        let handle = self.live.swap_remove(sel % self.live.len());
        self.slab.cancel(handle)
    }

    /// The dispatch choke point's stale check: a tombstoned handle pops
    /// but must not fire.
    fn fire(&mut self, popped: Option<(SimTime, TimerHandle)>) {
        if let Some((_, handle)) = popped {
            self.pops += 1;
            if self.slab.fire(handle) {
                self.live.retain(|h| *h != handle);
            } else {
                self.stale_skips += 1;
            }
        }
    }
}

/// One scripted operation against the queue and the model.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule a fresh timer at `now + offset_ns` (quantised so ties are
    /// frequent — the FIFO tie discipline is the property under test).
    Push { offset_ns: u64 },
    /// Pop the earliest event and compare.
    Pop,
    /// Pop the `n`-th event of the head tie run (possibly out of range,
    /// which must remove nothing).
    PopNth { n: usize },
    /// Tombstone the `sel`-th still-live handle (lazy cancellation: the
    /// queued event stays put and must later pop as a stale skip).
    Cancel { sel: usize },
    /// Encode the queue and continue on the decoded copy.
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..10, 0u64..64).prop_map(|(discriminant, x)| match discriminant {
        // Quantised offsets (weight 3/10): ~1/8 of pushes collide exactly
        // in time, so the FIFO tie discipline is constantly under load.
        0..=2 => Op::Push { offset_ns: (x % 8) * 125_000 },
        // Same-instant pushes build long tie runs for `pop_nth`.
        3 => Op::Push { offset_ns: 0 },
        // Far-future outliers keep a long tail behind the head.
        4 => Op::Push { offset_ns: (1 + x % 4) * 1_000_000_000 },
        5 | 6 => Op::Pop,
        7 => Op::PopNth { n: (x % 5) as usize },
        8 => Op::Cancel { sel: x as usize },
        _ => Op::Snapshot,
    })
}

fn round_trip(queue: &DriverQueue<TimerHandle>) -> DriverQueue<TimerHandle> {
    let mut w = SnapshotWriter::new();
    queue.encode(&mut w);
    let bytes = w.finish();
    let mut r = SnapshotReader::new(&bytes);
    let restored = DriverQueue::decode(&mut r).expect("own snapshot decodes");
    r.finish().expect("decode consumes every byte");
    restored
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Same ops in, same (time, handle, liveness) stream out — and the
    /// timer books balance once everything has drained.
    #[test]
    fn queue_matches_sorted_vec_model(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let mut queue = DriverQueue::new(SchedulerKind::Heap);
        let mut model = Model::new();
        let mut books = Books::new();

        for op in &ops {
            // Tie inspection must agree before every operation.
            prop_assert_eq!(queue.tie_count(), model.tie_count());
            let mut ties = Vec::new();
            queue.for_each_tie(|&h| ties.push(h));
            prop_assert_eq!(ties, model.ties(), "tie runs diverged");
            match *op {
                Op::Push { offset_ns } => {
                    let at = model.now + SimDuration::from_nanos(offset_ns);
                    let handle = books.schedule();
                    queue.push(at, handle);
                    model.push(at, handle);
                }
                Op::Pop => {
                    let popped = queue.pop();
                    prop_assert_eq!(popped, model.pop_nth(0), "pop streams diverged");
                    books.fire(popped);
                }
                Op::PopNth { n } => {
                    let popped = queue.pop_nth(n);
                    prop_assert_eq!(popped, model.pop_nth(n), "pop_nth({}) diverged", n);
                    books.fire(popped);
                }
                Op::Cancel { sel } => prop_assert!(books.cancel(sel)),
                Op::Snapshot => queue = round_trip(&queue),
            }
            prop_assert_eq!(queue.len(), model.entries.len());
            prop_assert_eq!(queue.now(), model.now);
            prop_assert_eq!(queue.peek_time(), model.peek_time());
        }

        // Drain to the end: tail order must agree too.
        loop {
            let popped = queue.pop();
            prop_assert_eq!(popped, model.pop_nth(0), "drain streams diverged");
            if popped.is_none() {
                break;
            }
            books.fire(popped);
        }
        prop_assert!(queue.is_empty());
        // Every scheduled handle was pushed exactly once and popped exactly
        // once; each pop either fired its timer or skipped a tombstone, so
        // the books must balance exactly.
        prop_assert_eq!(books.pops, books.slab.scheduled_count());
        prop_assert_eq!(books.stale_skips, books.slab.cancelled_count());
        prop_assert_eq!(books.slab.live(), 0);
    }

    /// Ties at one timestamp pop in exact insertion order, regardless of
    /// how many other timestamps surround them.
    #[test]
    fn fifo_ties_survive_mixed_traffic(
        seed in 0u64..1000,
        tie_count in 2usize..20,
        noise in 0usize..40,
    ) {
        let mut rng = SimRng::new(seed);
        let mut queue = DriverQueue::new(SchedulerKind::Heap);
        let mut model = Model::new();
        let tie_time = SimTime::ZERO + SimDuration::from_millis(5);
        let mut payload = 0u64;
        for _ in 0..noise {
            let at = SimTime::ZERO + SimDuration::from_nanos(u64::from(rng.below(10_000_000)));
            queue.push(at, payload);
            model.push(at, payload);
            payload += 1;
        }
        let first_tie = payload;
        for _ in 0..tie_count {
            queue.push(tie_time, payload);
            model.push(tie_time, payload);
            payload += 1;
        }
        let mut seen_ties = Vec::new();
        while let Some((t, p)) = queue.pop() {
            prop_assert_eq!(Some((t, p)), model.pop_nth(0));
            if t == tie_time && p >= first_tie {
                seen_ties.push(p);
            }
        }
        prop_assert_eq!(model.pop_nth(0), None);
        let expected: Vec<u64> = (first_tie..first_tie + tie_count as u64).collect();
        prop_assert_eq!(seen_ties, expected, "FIFO tie order violated");
    }
}
