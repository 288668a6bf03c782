//! The runtime cross-layer invariant checker.
//!
//! The simulator feeds the same typed [`TraceRecord`]s it writes to its
//! trace log to an [`InvariantChecker`], whatever the log's filter admits.
//! The checker asserts protocol properties that must hold no matter what a
//! fault scenario does to the network, and records a [`Violation`] when one
//! breaks. Records no invariant reads (receptions, backoffs, route-table
//! changes, enqueues, ACK sends, moves) return before they are counted or
//! trailed, so [`InvariantChecker::events_seen`] counts facts checked.
//!
//! The trail of recent facts is a ring of [`TraceEntry`]s; it is rendered
//! as ns-2 lines ([`tracelog::ns2::line`]) only when a violation prints.

use std::collections::VecDeque;

use sim_core::{DetMap, DetSet, SimDuration, SimTime};
use tracelog::{ns2, PacketKind, TraceEntry, TraceRecord};
use wire::{FlowId, NodeId};

/// Tunable bounds for the checker's sanity invariants.
#[derive(Clone, Copy, Debug)]
pub struct CheckerLimits {
    /// Upper bound on any sender's congestion window, in segments.
    pub max_cwnd_segments: f64,
    /// Upper bound on a single frame's airtime.
    pub max_airtime: SimDuration,
    /// Upper bound on how far a NAV may reach beyond now.
    pub max_nav_ahead: SimDuration,
    /// Smallest legal contention window (802.11b: 31).
    pub cw_min: u32,
    /// Largest legal contention window (802.11b: 1023).
    pub cw_max: u32,
    /// A link failure within this window of data activity on a scripted-down
    /// link obliges the node to emit a RERR.
    pub rerr_window: SimDuration,
    /// How many recent checked records a violation's trail captures.
    pub trail_len: usize,
}

impl Default for CheckerLimits {
    fn default() -> Self {
        CheckerLimits {
            max_cwnd_segments: 1.0e6,
            // Longest legal frame: ~1534 B + MAC overhead at the 1 Mbps
            // basic rate plus PLCP ≈ 13 ms; 20 ms leaves headroom.
            max_airtime: SimDuration::from_millis(20),
            max_nav_ahead: SimDuration::from_millis(50),
            cw_min: 31,
            cw_max: 1023,
            rerr_window: SimDuration::from_millis(1000),
            trail_len: 24,
        }
    }
}

/// A broken invariant, with the trail of checked records that led up to it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Virtual time of the offending record (or of `finish`).
    pub at: SimTime,
    /// Stable invariant identifier (see the DESIGN.md catalogue).
    pub invariant: &'static str,
    /// Human-readable description of what broke.
    pub detail: String,
    /// The most recent checked records up to and including the offending
    /// one, oldest first. `Display` renders them as ns-2 lines.
    pub trail: Vec<TraceEntry>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "[{}] t={:.6}s {}", self.invariant, self.at.as_secs_f64(), self.detail)?;
        for entry in &self.trail {
            writeln!(f, "    {}", ns2::line(entry))?;
        }
        Ok(())
    }
}

/// Final packet-conservation accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerSummary {
    /// Data packets injected at sources.
    pub injected: u64,
    /// Injected packets whose first terminal was delivery at the
    /// destination.
    pub delivered: u64,
    /// Injected packets whose first terminal was a queue/routing drop.
    pub dropped: u64,
    /// Injected packets destroyed by fault injection.
    pub fault_dropped: u64,
    /// Injected packets with no terminal record yet.
    pub in_flight: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UidState {
    InFlight,
    Delivered,
    Dropped,
    FaultDropped,
}

#[derive(Clone, Copy, Debug)]
struct RerrObligation {
    node: NodeId,
    neighbor: NodeId,
    at: SimTime,
}

/// Runtime invariant checker over the simulator's record stream.
///
/// Feed records with [`on_record`](Self::on_record), call
/// [`finish`](Self::finish) once at the end of the run, then inspect
/// [`violations`](Self::violations).
#[derive(Clone, Debug, Default)]
pub struct InvariantChecker {
    limits: CheckerLimits,
    events_seen: u64,
    trail: VecDeque<TraceEntry>,
    violations: Vec<Violation>,
    /// Per-flow high-water mark of the receiver's `rcv_nxt`.
    rcv_nxt: DetMap<FlowId, u64>,
    /// Lifecycle of every injected data packet.
    uids: DetMap<u64, UidState>,
    /// Links currently forced down by the scenario (normalised pairs).
    down_links: DetSet<(NodeId, NodeId)>,
    /// `(node, neighbor)` pairs where the node has observed a link-layer
    /// failure on a scripted-down link; forwarding data there again while
    /// the link stays down is a stale-route bug.
    dead_observed: DetSet<(NodeId, NodeId)>,
    /// Last time a node forwarded *data* to each neighbor.
    last_data_forward: DetMap<(NodeId, NodeId), SimTime>,
    /// Pending obligations: RERR expected from `node` at or after `at`.
    rerr_due: Vec<RerrObligation>,
    /// Times each node emitted a RERR.
    rerr_sent: DetMap<NodeId, SimTime>,
}

fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl InvariantChecker {
    /// A checker with default limits.
    pub fn new() -> Self {
        Self::with_limits(CheckerLimits::default())
    }

    /// A checker with custom limits.
    pub fn with_limits(limits: CheckerLimits) -> Self {
        InvariantChecker { limits, ..InvariantChecker::default() }
    }

    /// Number of records checked so far (records no invariant reads are
    /// not counted).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// The violations recorded so far (in order of detection).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Packet-conservation accounting over all injected data packets.
    pub fn ledger(&self) -> LedgerSummary {
        let mut s = LedgerSummary::default();
        for (_, state) in self.uids.iter() {
            s.injected += 1;
            match state {
                UidState::InFlight => s.in_flight += 1,
                UidState::Delivered => s.delivered += 1,
                UidState::Dropped => s.dropped += 1,
                UidState::FaultDropped => s.fault_dropped += 1,
            }
        }
        s
    }

    fn violate(&mut self, at: SimTime, invariant: &'static str, detail: String) {
        let trail = self.trail.iter().copied().collect();
        self.violations.push(Violation { at, invariant, detail, trail });
    }

    /// Checks one record observed at virtual time `now`.
    pub fn on_record(&mut self, now: SimTime, record: &TraceRecord) {
        if matches!(
            record,
            TraceRecord::PhyRx { .. }
                | TraceRecord::PhyCollision { .. }
                | TraceRecord::PhyLoss { .. }
                | TraceRecord::PhyMove { .. }
                | TraceRecord::MacBackoff { .. }
                | TraceRecord::RtrRecv { .. }
                | TraceRecord::RtrRouteChange { .. }
                | TraceRecord::IfqEnqueue { .. }
                | TraceRecord::IfqMark { .. }
                | TraceRecord::TcpAckTx { .. }
        ) {
            return;
        }
        self.events_seen += 1;
        if self.trail.len() == self.limits.trail_len {
            self.trail.pop_front();
        }
        self.trail.push_back(TraceEntry { at: now, record: *record });
        match *record {
            TraceRecord::TcpSend { node, flow, uid, .. } => {
                if self.uids.insert(uid, UidState::InFlight).is_some() {
                    self.violate(
                        now,
                        "conservation",
                        format!("uid {uid:#x} injected twice (flow {flow} at {node})"),
                    );
                }
            }
            TraceRecord::RtrForward { node, next_hop, kind, uid, route_valid_until, .. } => {
                if kind == PacketKind::Rerr {
                    self.rerr_sent.insert(node, now);
                    self.rerr_due.retain(|o| o.node != node);
                }
                if kind == PacketKind::TcpData && !next_hop.is_broadcast() {
                    match route_valid_until {
                        None => self.violate(
                            now,
                            "aodv-route-fresh",
                            format!(
                                "{node} forwarded data uid {uid:#x} to {next_hop} \
                                 with no valid route entry"
                            ),
                        ),
                        Some(expires) if expires <= now => self.violate(
                            now,
                            "aodv-route-fresh",
                            format!(
                                "{node} forwarded data uid {uid:#x} to {next_hop} on a \
                                 route expired at t={:.6}s",
                                expires.as_secs_f64()
                            ),
                        ),
                        Some(_) => {}
                    }
                    self.last_data_forward.insert((node, next_hop), now);
                    if self.dead_observed.contains(&(node, next_hop))
                        && self.down_links.contains(&link_key(node, next_hop))
                    {
                        self.violate(
                            now,
                            "aodv-dead-link",
                            format!(
                                "{node} forwarded data uid {uid:#x} to {next_hop} over a \
                                 scripted-down link it already saw fail"
                            ),
                        );
                    }
                }
            }
            TraceRecord::TcpRecvData { node, flow, uid, rcv_nxt_after, .. } => {
                if !self.uids.contains_key(&uid) {
                    self.violate(
                        now,
                        "conservation",
                        format!("data uid {uid:#x} delivered at {node} but was never injected"),
                    );
                }
                let prev = self.rcv_nxt.get(&flow).copied().unwrap_or(0);
                if rcv_nxt_after < prev {
                    self.violate(
                        now,
                        "tcp-monotone",
                        format!(
                            "flow {flow}: receiver rcv_nxt went backwards \
                             ({prev} -> {rcv_nxt_after}) at {node}"
                        ),
                    );
                } else {
                    self.rcv_nxt.insert(flow, rcv_nxt_after);
                }
                self.terminate(uid, UidState::Delivered);
            }
            TraceRecord::TcpRecvAck { uid, .. } => self.terminate(uid, UidState::Delivered),
            TraceRecord::IfqDrop { uid, .. } | TraceRecord::RtrDrop { uid, .. } => {
                self.terminate(uid, UidState::Dropped);
            }
            TraceRecord::FaultDrop { uid, .. } => self.terminate(uid, UidState::FaultDropped),
            TraceRecord::MacRetryDrop { node, next_hop, .. } => {
                if self.down_links.contains(&link_key(node, next_hop)) {
                    self.dead_observed.insert((node, next_hop));
                    let active = self
                        .last_data_forward
                        .get(&(node, next_hop))
                        .is_some_and(|&t| now <= t + self.limits.rerr_window);
                    if active {
                        self.rerr_due.push(RerrObligation { node, neighbor: next_hop, at: now });
                    }
                }
            }
            TraceRecord::PhyTx { node, airtime, cw, nav_ahead, .. } => {
                if airtime > self.limits.max_airtime {
                    self.violate(
                        now,
                        "mac-bounds",
                        format!(
                            "{node} sent a frame occupying the medium for {} us \
                             (cap {} us)",
                            airtime.as_micros(),
                            self.limits.max_airtime.as_micros()
                        ),
                    );
                }
                if cw < self.limits.cw_min || cw > self.limits.cw_max {
                    self.violate(
                        now,
                        "mac-bounds",
                        format!(
                            "{node} contention window {cw} outside [{}, {}]",
                            self.limits.cw_min, self.limits.cw_max
                        ),
                    );
                }
                if nav_ahead > self.limits.max_nav_ahead {
                    self.violate(
                        now,
                        "mac-bounds",
                        format!(
                            "{node} NAV reaches {} us past now (cap {} us)",
                            nav_ahead.as_micros(),
                            self.limits.max_nav_ahead.as_micros()
                        ),
                    );
                }
            }
            TraceRecord::TcpCwnd { node, flow, cwnd, ssthresh, phase, .. } => {
                if !cwnd.is_finite() || cwnd <= 0.0 || cwnd > self.limits.max_cwnd_segments {
                    self.violate(
                        now,
                        "tcp-cwnd-sane",
                        format!("flow {flow} ({phase}) at {node}: insane cwnd {cwnd}"),
                    );
                }
                if let Some(ss) = ssthresh {
                    if !ss.is_finite() || ss <= 0.0 {
                        self.violate(
                            now,
                            "tcp-cwnd-sane",
                            format!("flow {flow} ({phase}) at {node}: insane ssthresh {ss}"),
                        );
                    }
                }
            }
            TraceRecord::LinkDown { a, b } => {
                self.down_links.insert(link_key(a, b));
            }
            TraceRecord::LinkUp { a, b } => {
                self.down_links.remove(&link_key(a, b));
                self.dead_observed.remove(&(a, b));
                self.dead_observed.remove(&(b, a));
                self.rerr_due.retain(|o| link_key(o.node, o.neighbor) != link_key(a, b));
            }
            TraceRecord::PhyRx { .. }
            | TraceRecord::PhyCollision { .. }
            | TraceRecord::PhyLoss { .. }
            | TraceRecord::PhyMove { .. }
            | TraceRecord::MacBackoff { .. }
            | TraceRecord::RtrRecv { .. }
            | TraceRecord::RtrRouteChange { .. }
            | TraceRecord::IfqEnqueue { .. }
            | TraceRecord::IfqMark { .. }
            | TraceRecord::TcpAckTx { .. } => {}
        }
    }

    fn terminate(&mut self, uid: u64, to: UidState) {
        // Only packets born in a `TcpSend` record participate in the
        // ledger; routing control and ACK uids pass through untracked.
        // A second terminal is tolerated: a lost MAC-level ACK legitimately
        // duplicates custody (the data arrived, the sender retries), so the
        // first terminal wins and later ones are ignored.
        if let Some(state) = self.uids.get_mut(&uid) {
            if *state == UidState::InFlight {
                *state = to;
            }
        }
    }

    /// Closes the run: evaluates end-of-run obligations. Call exactly once,
    /// after the simulator has finished.
    pub fn finish(&mut self, now: SimTime) {
        let due = std::mem::take(&mut self.rerr_due);
        for o in due {
            let answered = self.rerr_sent.get(&o.node).is_some_and(|&t| t >= o.at);
            if !answered {
                self.violate(
                    now,
                    "aodv-rerr",
                    format!(
                        "{} saw the scripted-down link to {} fail at t={:.6}s while \
                         carrying data but never emitted a RERR",
                        o.node,
                        o.neighbor,
                        o.at.as_secs_f64()
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::FrameKind;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    const FLOW: FlowId = FlowId::new(0);

    fn injected(uid: u64) -> TraceRecord {
        TraceRecord::TcpSend {
            node: n(0),
            flow: FLOW,
            seq: uid,
            uid,
            bytes: 1500,
            retransmit: false,
        }
    }

    fn delivered(uid: u64, rcv_nxt_after: u64) -> TraceRecord {
        TraceRecord::TcpRecvData {
            node: n(3),
            flow: FLOW,
            seq: uid,
            uid,
            avbw: None,
            marked: false,
            rcv_nxt_after,
        }
    }

    fn forward(
        next_hop: NodeId,
        kind: PacketKind,
        uid: u64,
        route_valid_until: Option<SimTime>,
    ) -> TraceRecord {
        TraceRecord::RtrForward {
            node: n(1),
            next_hop,
            kind,
            uid,
            flow: Some(FLOW),
            bytes: 1540,
            ttl: 30,
            origin: false,
            route_valid_until,
        }
    }

    fn data_forward(uid: u64, route_valid_until: Option<SimTime>) -> TraceRecord {
        forward(n(2), PacketKind::TcpData, uid, route_valid_until)
    }

    fn rerr_forward() -> TraceRecord {
        forward(NodeId::BROADCAST, PacketKind::Rerr, 500, None)
    }

    fn retry_drop() -> TraceRecord {
        TraceRecord::MacRetryDrop { node: n(1), next_hop: n(2), uid: 1 }
    }

    fn frame(airtime: SimDuration, cw: u32, nav_ahead: SimDuration) -> TraceRecord {
        TraceRecord::PhyTx {
            node: n(0),
            dst: n(1),
            frame: FrameKind::Data,
            bytes: 1500,
            uid: Some(1),
            airtime,
            cw,
            nav_ahead,
        }
    }

    fn cwnd(cwnd: f64, ssthresh: Option<f64>) -> TraceRecord {
        TraceRecord::TcpCwnd {
            node: n(0),
            flow: FLOW,
            cwnd,
            ssthresh,
            srtt: None,
            rto: None,
            phase: "slow-start",
        }
    }

    fn link_down() -> TraceRecord {
        TraceRecord::LinkDown { a: n(1), b: n(2) }
    }

    #[test]
    fn clean_stream_stays_clean() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &injected(1));
        c.on_record(t(1.1), &data_forward(1, Some(t(4.0))));
        c.on_record(t(1.2), &delivered(1, 1460));
        c.finish(t(2.0));
        assert!(c.is_clean(), "{:?}", c.violations());
        assert_eq!(
            c.ledger(),
            LedgerSummary { injected: 1, delivered: 1, ..LedgerSummary::default() }
        );
    }

    #[test]
    fn receiver_regression_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &injected(1));
        c.on_record(t(1.1), &delivered(1, 2920));
        c.on_record(t(1.2), &injected(2));
        c.on_record(t(1.3), &delivered(2, 1460)); // rcv_nxt went backwards
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].invariant, "tcp-monotone");
        assert!(!c.violations()[0].trail.is_empty());
    }

    #[test]
    fn delivery_from_nowhere_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &delivered(77, 1460));
        assert_eq!(c.violations()[0].invariant, "conservation");
    }

    #[test]
    fn double_injection_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &injected(5));
        c.on_record(t(1.1), &injected(5));
        assert_eq!(c.violations()[0].invariant, "conservation");
    }

    #[test]
    fn forwarding_without_route_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_record(t(2.0), &data_forward(9, None));
        c.on_record(t(3.0), &data_forward(10, Some(t(2.5)))); // already expired
                                                              // Control and broadcast forwards are exempt.
        c.on_record(t(4.0), &forward(NodeId::BROADCAST, PacketKind::Rreq, 11, None));
        c.on_record(t(4.1), &forward(n(2), PacketKind::Rrep, 12, None));
        assert_eq!(c.violations().len(), 2);
        assert!(c.violations().iter().all(|v| v.invariant == "aodv-route-fresh"));
    }

    #[test]
    fn forwarding_on_an_observed_dead_link_is_flagged() {
        let mut c = InvariantChecker::new();
        let fwd = |uid| data_forward(uid, Some(t(100.0)));
        c.on_record(t(1.0), &fwd(1));
        c.on_record(t(5.0), &link_down());
        // First attempt after the break is legitimate — the node cannot
        // know yet.
        c.on_record(t(5.1), &fwd(2));
        assert!(c.is_clean());
        c.on_record(t(5.2), &retry_drop());
        // ...but after the MAC told it, forwarding there again is a bug.
        c.on_record(t(5.3), &fwd(3));
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].invariant, "aodv-dead-link");
        // Once the link heals the route may be reused.
        c.on_record(t(6.0), &TraceRecord::LinkUp { a: n(1), b: n(2) });
        c.on_record(t(6.1), &fwd(4));
        assert_eq!(c.violations().len(), 1);
    }

    #[test]
    fn missing_rerr_is_flagged_at_finish() {
        let mut c = InvariantChecker::new();
        c.on_record(t(4.9), &data_forward(1, Some(t(7.0))));
        c.on_record(t(5.0), &link_down());
        c.on_record(t(5.1), &retry_drop());
        c.finish(t(10.0));
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].invariant, "aodv-rerr");
    }

    #[test]
    fn rerr_discharges_the_obligation() {
        let mut c = InvariantChecker::new();
        c.on_record(t(4.9), &data_forward(1, Some(t(7.0))));
        c.on_record(t(5.0), &link_down());
        c.on_record(t(5.1), &retry_drop());
        c.on_record(t(5.1), &rerr_forward());
        c.finish(t(10.0));
        assert!(c.is_clean(), "{:?}", c.violations());
    }

    #[test]
    fn only_a_rerr_forward_discharges_the_obligation() {
        // The same broadcast forward with any other packet kind leaves the
        // obligation standing; only `kind == Rerr` answers it.
        for (kind, clean) in [(PacketKind::Rerr, true), (PacketKind::Rreq, false)] {
            let mut c = InvariantChecker::new();
            c.on_record(t(4.9), &data_forward(1, Some(t(7.0))));
            c.on_record(t(5.0), &link_down());
            c.on_record(t(5.1), &retry_drop());
            c.on_record(t(5.2), &forward(NodeId::BROADCAST, kind, 500, None));
            c.finish(t(10.0));
            assert_eq!(c.is_clean(), clean, "{kind:?}: {:?}", c.violations());
        }
    }

    #[test]
    fn idle_link_failure_carries_no_rerr_obligation() {
        // A failure on a scripted-down link the node was not actively using
        // for data must not demand a RERR (there may be no route to report).
        let mut c = InvariantChecker::new();
        c.on_record(t(5.0), &link_down());
        c.on_record(t(9.0), &retry_drop());
        c.finish(t(10.0));
        assert!(c.is_clean());
    }

    #[test]
    fn mac_bounds_are_enforced() {
        let mut c = InvariantChecker::new();
        c.on_record(
            t(1.0),
            &frame(SimDuration::from_millis(25), 2048, SimDuration::from_millis(60)),
        );
        assert_eq!(c.violations().len(), 3);
        assert!(c.violations().iter().all(|v| v.invariant == "mac-bounds"));
        // A legal frame is quiet.
        c.on_record(t(1.1), &frame(SimDuration::from_micros(6328), 31, SimDuration::ZERO));
        assert_eq!(c.violations().len(), 3);
    }

    #[test]
    fn cwnd_sanity_is_enforced() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &cwnd(2.5, Some(64.0)));
        assert!(c.is_clean());
        c.on_record(t(1.1), &cwnd(f64::NAN, None));
        c.on_record(t(1.2), &cwnd(0.0, None));
        c.on_record(t(1.3), &cwnd(4.0, Some(f64::INFINITY)));
        assert_eq!(c.violations().len(), 3);
        assert!(c.violations().iter().all(|v| v.invariant == "tcp-cwnd-sane"));
    }

    #[test]
    fn nan_cwnd_trips_the_sanity_check_and_names_the_phase() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &cwnd(f64::NAN, Some(32.0)));
        assert_eq!(c.violations().len(), 1);
        let v = &c.violations()[0];
        assert_eq!(v.invariant, "tcp-cwnd-sane");
        assert!(v.detail.contains("(slow-start)") && v.detail.contains("NaN"), "{}", v.detail);
    }

    #[test]
    fn ledger_tracks_every_terminal_kind() {
        let mut c = InvariantChecker::new();
        for uid in 1..=5 {
            c.on_record(t(1.0), &injected(uid));
        }
        c.on_record(t(2.0), &delivered(1, 1460));
        c.on_record(t(2.1), &TraceRecord::IfqDrop { node: n(1), uid: 2, flow: None, early: false });
        c.on_record(t(2.2), &TraceRecord::FaultDrop { node: n(1), uid: 3 });
        c.on_record(
            t(2.3),
            &TraceRecord::RtrDrop { node: n(1), kind: PacketKind::TcpData, uid: 4, flow: None },
        );
        // Untracked uid: ignored by the ledger.
        c.on_record(
            t(2.4),
            &TraceRecord::RtrDrop { node: n(1), kind: PacketKind::Rreq, uid: 999, flow: None },
        );
        let s = c.ledger();
        assert_eq!(
            s,
            LedgerSummary { injected: 5, delivered: 1, dropped: 2, fault_dropped: 1, in_flight: 1 }
        );
        assert_eq!(s.injected, s.delivered + s.dropped + s.fault_dropped + s.in_flight);
    }

    #[test]
    fn duplicate_terminal_is_tolerated_first_wins() {
        // Lost MAC ACK: the data was delivered, the retrying relay later
        // drops its copy. Not a protocol violation.
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &injected(1));
        c.on_record(t(2.0), &delivered(1, 1460));
        c.on_record(
            t(2.5),
            &TraceRecord::RtrDrop { node: n(1), kind: PacketKind::TcpData, uid: 1, flow: None },
        );
        assert!(c.is_clean());
        assert_eq!(c.ledger().delivered, 1);
        assert_eq!(c.ledger().dropped, 0);
    }

    #[test]
    fn records_without_a_rule_are_neither_counted_nor_trailed() {
        let limits = CheckerLimits { trail_len: 4, ..CheckerLimits::default() };
        let mut c = InvariantChecker::with_limits(limits);
        c.on_record(t(1.0), &injected(1));
        let ignored = [
            TraceRecord::PhyRx {
                node: n(1),
                from: n(0),
                frame: FrameKind::Data,
                bytes: 1500,
                uid: Some(1),
            },
            TraceRecord::PhyCollision { node: n(1), from: n(0), frame: FrameKind::Rts, uid: None },
            TraceRecord::PhyLoss { node: n(1), from: n(0), frame: FrameKind::Data, uid: Some(1) },
            TraceRecord::PhyMove { node: n(1), x: 1.0, y: 2.0 },
            TraceRecord::MacBackoff { node: n(1), slots: 3, cw: 31 },
            TraceRecord::RtrRecv {
                node: n(1),
                kind: PacketKind::TcpData,
                uid: 1,
                flow: Some(FLOW),
                bytes: 1540,
            },
            TraceRecord::RtrRouteChange {
                node: n(1),
                dst: n(3),
                next_hop: None,
                hops: 2,
                valid: false,
            },
            TraceRecord::IfqEnqueue {
                node: n(1),
                uid: 1,
                flow: Some(FLOW),
                depth: 1,
                avbw: None,
                marked: false,
            },
            TraceRecord::IfqMark { node: n(1), uid: 1, flow: Some(FLOW) },
            TraceRecord::TcpAckTx { node: n(3), flow: FLOW, ack: 1460, uid: 2, mrai: None },
        ];
        for record in &ignored {
            c.on_record(t(1.5), record);
        }
        assert_eq!(c.events_seen(), 1);
        c.on_record(t(2.0), &injected(1)); // double injection: trail shows both sends
        let v = &c.violations()[0];
        assert_eq!(v.trail.len(), 2, "{v}");
        assert!(v.trail.iter().all(|e| matches!(e.record, TraceRecord::TcpSend { .. })));
    }

    #[test]
    fn trail_is_bounded_and_recent() {
        let limits = CheckerLimits { trail_len: 4, ..CheckerLimits::default() };
        let mut c = InvariantChecker::with_limits(limits);
        for uid in 0..50 {
            c.on_record(t(1.0 + uid as f64), &injected(uid));
        }
        c.on_record(t(60.0), &delivered(1000, 1460));
        let v = &c.violations()[0];
        assert_eq!(v.trail.len(), 4);
        let last = v.trail.last().map(ns2::line).unwrap_or_default();
        assert!(last.starts_with("r 60.000000000 _n3_ AGT --- 1000 tcp"), "{last}");
        assert!(v.to_string().contains("conservation"));
    }

    #[test]
    fn violation_display_renders_the_trail_as_ns2_lines() {
        let mut c = InvariantChecker::new();
        c.on_record(t(1.0), &injected(7));
        c.on_record(t(1.5), &injected(7));
        let text = c.violations()[0].to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].starts_with("[conservation] t=1.500000s"), "{text}");
        assert_eq!(lines[1], "    s 1.000000000 _n0_ AGT --- 7 tcp 1500 [f0 seq 7]");
        assert_eq!(lines[2], "    s 1.500000000 _n0_ AGT --- 7 tcp 1500 [f0 seq 7]");
    }
}
