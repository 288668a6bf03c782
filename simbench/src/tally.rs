//! Counters read from a simulator through its public reports, and the
//! simulated outputs the correctness gate compares.

use std::fmt::Write as _;

use netstack::Simulator;
use sim_core::RunPerf;
use tracelog::{Layer, TraceLog, TraceRecord};
use wire::NodeId;

/// Every count the benchmark reports for a stretch of simulation, summed
/// over nodes and flows. Counts are cumulative when read with
/// [`Tally::of`]; [`Tally::since`] turns two readings into the work done
/// between them (peaks stay peaks).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// The simulator's own work counters.
    pub perf: RunPerf,
    /// MAC collisions observed, all nodes.
    pub collisions: u64,
    /// Packets the MAC dropped after its retry limit, all nodes.
    pub mac_drops: u64,
    /// Interface-queue overflow drops, all nodes.
    pub queue_drops: u64,
    /// Data packets dropped by routing, all nodes.
    pub routing_drops: u64,
    /// Route discoveries originated, all nodes.
    pub discoveries: u64,
    /// AODV RREQ packets sent (originated and rebroadcast).
    pub rreq_sent: u64,
    /// AODV RREP packets sent.
    pub rrep_sent: u64,
    /// AODV RERR packets sent.
    pub rerr_sent: u64,
    /// TCP data segments sent, retransmissions included, all flows.
    pub segments_sent: u64,
    /// TCP retransmissions, all flows.
    pub retransmissions: u64,
    /// TCP retransmission timeouts, all flows.
    pub timeouts: u64,
    /// Segments delivered in order to the receivers, all flows.
    pub delivered_segments: u64,
    /// Bytes delivered in order to the receivers, all flows.
    pub delivered_bytes: u64,
    /// Events the invariant checker observed (0 without a checker).
    pub checker_events: u64,
    /// Trace records per [`Layer`], in [`Layer::ALL`] order (only counted
    /// where a trace log was installed).
    pub records: [u64; 5],
    /// Frames put on the air (`PhyTx` records).
    pub phy_tx: u64,
    /// Virtual seconds simulated.
    pub virtual_s: f64,
}

impl Tally {
    /// The simulator's cumulative counters as of now.
    pub fn of(sim: &Simulator) -> Tally {
        let mut t =
            Tally { perf: sim.perf(), virtual_s: sim.now().as_secs_f64(), ..Tally::default() };
        for (i, node) in sim.all_node_summaries().iter().enumerate() {
            t.collisions += node.collisions;
            t.mac_drops += node.mac_drops;
            t.queue_drops += node.queue_drops;
            t.routing_drops += node.routing_drops;
            t.discoveries += node.discoveries;
            let aodv = sim.aodv_stats(NodeId::new(i as u16));
            t.rreq_sent += aodv.rreq_sent;
            t.rrep_sent += aodv.rrep_sent;
            t.rerr_sent += aodv.rerr_sent;
        }
        for flow in sim.all_flow_reports() {
            t.segments_sent += flow.sender.segments_sent;
            t.retransmissions += flow.sender.retransmissions;
            t.timeouts += flow.sender.timeouts;
            t.delivered_segments += flow.delivered_segments;
            t.delivered_bytes += flow.delivered_bytes;
        }
        t.checker_events = sim.checker().map_or(0, faultline::InvariantChecker::events_seen);
        t
    }

    /// The work done between `before` and `self`; peaks keep `self`'s.
    pub fn since(&self, before: &Tally) -> Tally {
        let (a, b) = (&self.perf, &before.perf);
        let perf = RunPerf {
            events_processed: a.events_processed - b.events_processed,
            phy_events: a.phy_events - b.phy_events,
            mac_events: a.mac_events - b.mac_events,
            routing_events: a.routing_events - b.routing_events,
            transport_events: a.transport_events - b.transport_events,
            mobility_events: a.mobility_events - b.mobility_events,
            sampling_events: a.sampling_events - b.sampling_events,
            fault_events: a.fault_events - b.fault_events,
            timers_cancelled: a.timers_cancelled - b.timers_cancelled,
            timers_stale_popped: a.timers_stale_popped - b.timers_stale_popped,
            position_updates: a.position_updates - b.position_updates,
            link_churn: a.link_churn - b.link_churn,
            peak_event_queue: a.peak_event_queue,
            peak_ifq_depth: a.peak_ifq_depth,
        };
        let mut records = [0; 5];
        for (i, r) in records.iter_mut().enumerate() {
            *r = self.records[i] - before.records[i];
        }
        Tally {
            perf,
            collisions: self.collisions - before.collisions,
            mac_drops: self.mac_drops - before.mac_drops,
            queue_drops: self.queue_drops - before.queue_drops,
            routing_drops: self.routing_drops - before.routing_drops,
            discoveries: self.discoveries - before.discoveries,
            rreq_sent: self.rreq_sent - before.rreq_sent,
            rrep_sent: self.rrep_sent - before.rrep_sent,
            rerr_sent: self.rerr_sent - before.rerr_sent,
            segments_sent: self.segments_sent - before.segments_sent,
            retransmissions: self.retransmissions - before.retransmissions,
            timeouts: self.timeouts - before.timeouts,
            delivered_segments: self.delivered_segments - before.delivered_segments,
            delivered_bytes: self.delivered_bytes - before.delivered_bytes,
            checker_events: self.checker_events - before.checker_events,
            records,
            phy_tx: self.phy_tx - before.phy_tx,
            virtual_s: self.virtual_s - before.virtual_s,
        }
    }

    /// Adds `other`'s counts to this one; peaks take the maximum.
    pub fn absorb(&mut self, other: &Tally) {
        self.perf.merge(&other.perf);
        self.collisions += other.collisions;
        self.mac_drops += other.mac_drops;
        self.queue_drops += other.queue_drops;
        self.routing_drops += other.routing_drops;
        self.discoveries += other.discoveries;
        self.rreq_sent += other.rreq_sent;
        self.rrep_sent += other.rrep_sent;
        self.rerr_sent += other.rerr_sent;
        self.segments_sent += other.segments_sent;
        self.retransmissions += other.retransmissions;
        self.timeouts += other.timeouts;
        self.delivered_segments += other.delivered_segments;
        self.delivered_bytes += other.delivered_bytes;
        self.checker_events += other.checker_events;
        for (mine, theirs) in self.records.iter_mut().zip(other.records) {
            *mine += theirs;
        }
        self.phy_tx += other.phy_tx;
        self.virtual_s += other.virtual_s;
    }

    /// Counts a taken trace log's records into this tally.
    pub fn count_log(&mut self, log: &TraceLog) {
        for entry in log.iter() {
            let layer = entry.record.layer();
            if let Some(i) = Layer::ALL.iter().position(|&l| l == layer) {
                self.records[i] += 1;
            }
            if matches!(entry.record, TraceRecord::PhyTx { .. }) {
                self.phy_tx += 1;
            }
        }
    }
}

/// What a finished simulation produced, as the gate sees it.
#[derive(Clone, Debug)]
pub struct Outputs {
    /// The run's trace digest (compared between runs, never pinned).
    pub digest: u64,
    /// The pinned simulated outputs rendered as one line.
    pub pinned: String,
    /// Delivered bytes per flow.
    pub flow_bytes: Vec<u64>,
    /// Data segments sent per flow.
    pub flow_sent: Vec<u64>,
    /// Invariant violations (empty when clean or unchecked).
    pub violations: Vec<String>,
    /// Whether the checker's conservation ledger balanced (true unchecked).
    pub ledger_balanced: bool,
    /// The run's counters.
    pub tally: Tally,
}

impl Outputs {
    /// Reads the outputs of a finished run and seals its checker.
    pub fn collect(sim: &mut Simulator) -> Outputs {
        let tally = Tally::of(sim);
        let flows = sim.all_flow_reports();
        let flow_bytes: Vec<u64> = flows.iter().map(|f| f.delivered_bytes).collect();
        let flow_sent: Vec<u64> = flows.iter().map(|f| f.sender.segments_sent).collect();
        let mut pinned = String::from("flows");
        for (i, f) in flows.iter().enumerate() {
            let sep = if i == 0 { " " } else { "," };
            let s = &f.sender;
            let _ =
                write!(pinned, "{sep}{}/{}/{}", f.delivered_bytes, s.retransmissions, s.timeouts);
        }
        let _ = write!(
            pinned,
            " drops {}/{}/{} disc {} coll {} aodv {}/{}/{} moves {} churn {}",
            tally.queue_drops,
            tally.mac_drops,
            tally.routing_drops,
            tally.discoveries,
            tally.collisions,
            tally.rreq_sent,
            tally.rrep_sent,
            tally.rerr_sent,
            tally.perf.position_updates,
            tally.perf.link_churn,
        );
        let (violations, ledger_balanced) = match sim.take_checker() {
            Some(checker) => {
                let l = checker.ledger();
                (
                    checker.violations().iter().map(|v| v.to_string()).collect(),
                    l.injected == l.delivered + l.dropped + l.fault_dropped + l.in_flight,
                )
            }
            None => (Vec::new(), true),
        };
        Outputs {
            digest: sim.trace_hash(),
            pinned,
            flow_bytes,
            flow_sent,
            violations,
            ledger_balanced,
            tally,
        }
    }
}
