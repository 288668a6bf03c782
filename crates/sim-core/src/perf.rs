//! Run-performance telemetry: deterministic counters describing how much
//! work a simulation run performed.
//!
//! [`RunPerf`] is pure bookkeeping over the *virtual* event stream — it
//! counts events, never timestamps them — so it is itself deterministic:
//! twin runs with the same seed must report identical counter blocks, and
//! the determinism regression suite asserts exactly that. Wall-clock
//! measurement (events per second, batch speed-ups) lives in the harness
//! layer behind its `WallClock` shim; wall time never enters sim state.

/// Counters accumulated by a simulator over one run.
///
/// The per-subsystem split mirrors the event vocabulary of the netstack
/// driver loop: radio events dominate healthy runs, so a shifted ratio
/// (e.g. routing events spiking) is itself a useful diagnostic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunPerf {
    /// Total events dispatched by the driver loop.
    pub events_processed: u64,
    /// Radio pipeline events (reception start/end, transmission done).
    pub phy_events: u64,
    /// MAC-layer timer events (backoff, CTS/ACK timeouts, NAV).
    pub mac_events: u64,
    /// Routing events (AODV timers and jittered flood enqueues).
    pub routing_events: u64,
    /// Transport events (TCP timers, flow starts, delayed-ACK timers).
    pub transport_events: u64,
    /// Mobility position-update ticks.
    pub mobility_events: u64,
    /// Periodic DRAI sampling ticks.
    pub sampling_events: u64,
    /// Scripted fault-injection events.
    pub fault_events: u64,
    /// Timers tombstoned before firing (lazy cancellation: the event stays
    /// queued and is discarded as a stale pop at dispatch).
    pub timers_cancelled: u64,
    /// Timer events popped and discarded because their handle was no longer
    /// live. Stale pops are still classified into their subsystem counter
    /// first — the [`RunPerf::classified_total`] invariant covers them —
    /// so this counter is a strict subset, not an extra class.
    pub timers_stale_popped: u64,
    /// Node position writes applied to the channel (mobility steps plus
    /// scripted teleports). Not an event class: each write happens *inside*
    /// a mobility or fault event already counted above.
    pub position_updates: u64,
    /// Total rx/cs adjacency entries changed by those position writes (the
    /// moved node's own rows; peer rows mirror them). The per-move cost the
    /// spatial grid optimises — and a topology-dynamics measure: high churn
    /// means routes break faster than AODV can repair them.
    pub link_churn: u64,
    /// High-water mark of the pending-event queue (its live length,
    /// sampled before every pop).
    pub peak_event_queue: usize,
    /// High-water mark of any node's interface queue.
    pub peak_ifq_depth: usize,
}

impl RunPerf {
    /// Folds another run's counters into this one (used when aggregating a
    /// multi-seed batch): counts add, peaks take the maximum.
    pub fn merge(&mut self, other: &RunPerf) {
        self.events_processed += other.events_processed;
        self.phy_events += other.phy_events;
        self.mac_events += other.mac_events;
        self.routing_events += other.routing_events;
        self.transport_events += other.transport_events;
        self.mobility_events += other.mobility_events;
        self.sampling_events += other.sampling_events;
        self.fault_events += other.fault_events;
        self.timers_cancelled += other.timers_cancelled;
        self.timers_stale_popped += other.timers_stale_popped;
        self.position_updates += other.position_updates;
        self.link_churn += other.link_churn;
        self.peak_event_queue = self.peak_event_queue.max(other.peak_event_queue);
        self.peak_ifq_depth = self.peak_ifq_depth.max(other.peak_ifq_depth);
    }

    /// Sum of the per-subsystem counters. Equals [`RunPerf::events_processed`]
    /// when every dispatched event was classified — including stale timer
    /// pops, which are classified into their subsystem *before* the driver
    /// discards them ([`RunPerf::timers_stale_popped`] only annotates that
    /// subset; it does not participate in this sum).
    pub fn classified_total(&self) -> u64 {
        self.phy_events
            + self.mac_events
            + self.routing_events
            + self.transport_events
            + self.mobility_events
            + self.sampling_events
            + self.fault_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counts_and_maxes_peaks() {
        let mut a = RunPerf {
            events_processed: 10,
            phy_events: 6,
            mac_events: 2,
            transport_events: 2,
            peak_event_queue: 5,
            peak_ifq_depth: 3,
            ..RunPerf::default()
        };
        let b = RunPerf {
            events_processed: 4,
            phy_events: 4,
            peak_event_queue: 2,
            peak_ifq_depth: 9,
            ..RunPerf::default()
        };
        a.merge(&b);
        assert_eq!(a.events_processed, 14);
        assert_eq!(a.phy_events, 10);
        assert_eq!(a.peak_event_queue, 5);
        assert_eq!(a.peak_ifq_depth, 9);
        assert_eq!(a.classified_total(), 14);
    }

    /// Merging run blocks must be order-insensitive and lossless: `merge`
    /// is associative, commutative, and has the default block as identity,
    /// so a multi-seed batch reports the same totals whatever order its
    /// runs finish in.
    #[test]
    fn merge_is_associative_commutative_with_identity() {
        let blocks = [
            RunPerf {
                events_processed: 7,
                phy_events: 4,
                mac_events: 3,
                timers_cancelled: 2,
                position_updates: 5,
                link_churn: 11,
                peak_event_queue: 9,
                peak_ifq_depth: 1,
                ..RunPerf::default()
            },
            RunPerf {
                events_processed: 3,
                mobility_events: 3,
                position_updates: 3,
                peak_event_queue: 4,
                peak_ifq_depth: 6,
                ..RunPerf::default()
            },
            RunPerf {
                events_processed: 10,
                transport_events: 6,
                sampling_events: 4,
                timers_stale_popped: 2,
                peak_event_queue: 12,
                ..RunPerf::default()
            },
        ];
        let fold = |order: &[usize]| {
            let mut acc = RunPerf::default();
            for &i in order {
                acc.merge(&blocks[i]);
            }
            acc
        };
        let left = fold(&[0, 1, 2]);
        // Associativity: ((a ⊕ b) ⊕ c) == (a ⊕ (b ⊕ c)).
        let mut bc = blocks[1];
        bc.merge(&blocks[2]);
        let mut a_bc = blocks[0];
        a_bc.merge(&bc);
        assert_eq!(left, a_bc);
        // Commutativity over every permutation.
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert_eq!(fold(&order), left);
        }
        // Identity.
        let mut id_then = RunPerf::default();
        id_then.merge(&left);
        assert_eq!(id_then, left);
        // Losslessness: the classification invariant survives the merge.
        assert_eq!(left.classified_total(), left.events_processed);
    }

    #[test]
    fn stale_pops_stay_classified() {
        // A stale MAC timer pop is counted as a mac_event (classification
        // happens before the discard) and annotated in timers_stale_popped;
        // the classified_total invariant must keep holding.
        let mut a = RunPerf {
            events_processed: 5,
            mac_events: 3,
            transport_events: 2,
            timers_cancelled: 2,
            timers_stale_popped: 2,
            ..RunPerf::default()
        };
        assert_eq!(a.classified_total(), a.events_processed);
        assert!(a.timers_stale_popped <= a.classified_total());
        let b = RunPerf { timers_cancelled: 1, timers_stale_popped: 1, ..RunPerf::default() };
        a.merge(&b);
        assert_eq!(a.timers_cancelled, 3);
        assert_eq!(a.timers_stale_popped, 3);
    }
}
