//! Sender bookkeeping shared by every TCP variant.

use sim_core::stats::TimeSeries;
use sim_core::{DetMap, SimDuration, SimTime};

use crate::{RttEstimator, TcpConfig, TcpOutput, TcpStats, TcpTimer};

/// Sequence, timing and timer bookkeeping common to all sender variants.
///
/// Variants own one `SendState` and layer their congestion control on top.
/// Sequence numbers are in segments; `una` is the lowest unacknowledged
/// segment, `nxt` the next fresh segment to transmit.
#[derive(Debug)]
pub struct SendState {
    /// Lowest unacknowledged segment.
    pub una: u64,
    /// Next fresh (never sent) segment.
    pub nxt: u64,
    /// Consecutive duplicate ACK count.
    pub dupacks: u32,
    /// RTT estimation and RTO computation.
    pub rtt: RttEstimator,
    /// Counters.
    pub stats: TcpStats,
    cfg: TcpConfig,
    high_water: u64,
    consecutive_timeouts: u32,
    /// Send times of candidate RTT-sample segments (Karn: entries are
    /// removed when a segment is retransmitted).
    send_times: DetMap<u64, SimTime>,
    armed_timer: Option<TcpTimer>,
    next_timer_id: u64,
    cancelled_timers: u64,
    cwnd_trace: TimeSeries,
    last_traced_cwnd: f64,
}

impl SendState {
    /// Creates fresh state for one flow.
    pub fn new(cfg: TcpConfig) -> Self {
        cfg.validate();
        SendState {
            una: 0,
            nxt: 0,
            dupacks: 0,
            rtt: RttEstimator::new(cfg.initial_rto, cfg.min_rto, cfg.max_rto),
            stats: TcpStats::default(),
            cfg,
            high_water: 0,
            consecutive_timeouts: 0,
            send_times: DetMap::new(),
            armed_timer: None,
            next_timer_id: 0,
            cancelled_timers: 0,
            cwnd_trace: TimeSeries::new(),
            last_traced_cwnd: f64::NAN,
        }
    }

    /// The configuration this sender runs with.
    pub fn cfg(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Segments currently in flight.
    pub fn flight(&self) -> u64 {
        self.nxt.saturating_sub(self.una)
    }

    /// The usable window in segments: `min(cwnd, advertised)` with a floor
    /// of one segment.
    pub fn usable_window(&self, cwnd: f64) -> u64 {
        let c = cwnd.floor().max(1.0) as u64;
        c.min(u64::from(self.cfg.advertised_window))
    }

    /// Whether a fresh segment fits in the window.
    pub fn can_send_fresh(&self, cwnd: f64) -> bool {
        self.flight() < self.usable_window(cwnd)
    }

    /// Records the transmission of segment `seq` at `now` and returns
    /// whether it was a retransmission (i.e. `seq` had been sent before).
    ///
    /// Retransmissions are excluded from RTT sampling (Karn's algorithm)
    /// and counted in the retransmission statistic.
    pub fn register_send(&mut self, seq: u64, now: SimTime) -> bool {
        let retransmit = seq < self.high_water;
        self.high_water = self.high_water.max(seq + 1);
        self.stats.segments_sent += 1;
        if retransmit {
            self.stats.retransmissions += 1;
            self.send_times.remove(&seq);
        } else {
            self.send_times.insert(seq, now);
        }
        retransmit
    }

    /// One past the highest segment ever transmitted.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Advances `una` for a cumulative ACK and returns an RTT sample from
    /// the newest acknowledged, never-retransmitted segment (if any).
    ///
    /// Returns `None` if the ACK does not advance `una`.
    pub fn advance_una(&mut self, ack: u64, now: SimTime) -> Option<SimDuration> {
        if ack <= self.una {
            return None;
        }
        let mut sample: Option<SimDuration> = None;
        for seq in self.una..ack.min(self.nxt) {
            if let Some(sent) = self.send_times.remove(&seq) {
                sample = Some(now.saturating_since(sent));
            }
        }
        self.una = ack;
        self.stats.acked_segments = self.stats.acked_segments.max(ack);
        self.dupacks = 0;
        self.consecutive_timeouts = 0;
        if let Some(rtt) = sample {
            self.rtt.sample(rtt);
        }
        sample
    }

    /// Records a duplicate ACK and returns the new count.
    pub fn register_dupack(&mut self) -> u32 {
        self.dupacks += 1;
        self.stats.dupacks += 1;
        self.dupacks
    }

    /// Arms (or re-arms) the retransmission timer to fire one RTO from now,
    /// pushing the `SetTimer` output. Re-arming tombstones the previously
    /// armed id: its queued event will pop stale.
    pub fn arm_timer(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        let id = TcpTimer(self.next_timer_id);
        self.next_timer_id += 1;
        if self.armed_timer.replace(id).is_some() {
            self.cancelled_timers += 1;
        }
        out.push(TcpOutput::SetTimer { id, at: now + self.rtt.rto() });
    }

    /// Arms the timer only if none is pending.
    pub fn ensure_timer(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        if self.armed_timer.is_none() {
            self.arm_timer(now, out);
        }
    }

    /// Cancels the pending timer (future firings of old ids are stale).
    pub fn cancel_timer(&mut self) {
        if self.armed_timer.take().is_some() {
            self.cancelled_timers += 1;
        }
    }

    /// Whether `id` is the currently armed retransmission timer. The driver
    /// consults this at its dispatch choke point to discard stale timer
    /// pops without entering the sender.
    pub fn timer_is_live(&self, id: TcpTimer) -> bool {
        self.armed_timer == Some(id)
    }

    /// Number of timers tombstoned before firing (cancellations plus
    /// re-arms that superseded a pending id).
    pub fn timers_cancelled(&self) -> u64 {
        self.cancelled_timers
    }

    /// Whether `id` is the currently armed timer; consumes it if so.
    pub fn take_timer_if_current(&mut self, id: TcpTimer) -> bool {
        if self.armed_timer == Some(id) {
            self.armed_timer = None;
            true
        } else {
            false
        }
    }

    /// Invalidates all pending RTT samples (after a timeout, every
    /// outstanding segment is ambiguous).
    pub fn clear_rtt_candidates(&mut self) {
        self.send_times.clear();
    }

    /// Records a retransmission timeout: applies exponential RTO backoff
    /// unless the fixed-RTO heuristic (paper §3.1 \[40\]) is enabled and this
    /// is at least the second consecutive timeout — consecutive timeouts
    /// are read as a route loss, so the timer is held to probe promptly
    /// once the route returns.
    pub fn note_timeout(&mut self) {
        self.consecutive_timeouts += 1;
        if self.cfg.fixed_rto && self.consecutive_timeouts >= 2 {
            return;
        }
        self.rtt.back_off();
    }

    /// Consecutive timeouts without an intervening new ACK (diagnostics).
    pub fn consecutive_timeouts(&self) -> u32 {
        self.consecutive_timeouts
    }

    /// Records the congestion window for the trace (skips no-op changes).
    /// A window turning NaN, or recovering from NaN, always counts as a
    /// change: the float distance to or from NaN never exceeds epsilon.
    pub fn trace_cwnd(&mut self, now: SimTime, cwnd: f64) {
        if (cwnd - self.last_traced_cwnd).abs() > f64::EPSILON
            || cwnd.is_nan() != self.last_traced_cwnd.is_nan()
            || self.cwnd_trace.is_empty()
        {
            self.cwnd_trace.record(now, cwnd);
            self.last_traced_cwnd = cwnd;
        }
    }

    /// The recorded congestion-window trace.
    pub fn cwnd_trace(&self) -> &TimeSeries {
        &self.cwnd_trace
    }
}

impl sim_core::Snapshotable for SendState {
    fn encode(&self, w: &mut sim_core::SnapshotWriter) {
        w.put_u64(self.una);
        w.put_u64(self.nxt);
        w.put_u32(self.dupacks);
        w.put(&self.rtt);
        w.put(&self.stats);
        w.put(&self.cfg);
        w.put_u64(self.high_water);
        w.put_u32(self.consecutive_timeouts);
        w.put(&self.send_times);
        w.put(&self.armed_timer);
        w.put_u64(self.next_timer_id);
        w.put_u64(self.cancelled_timers);
        w.put(&self.cwnd_trace);
        w.put_f64(self.last_traced_cwnd);
    }

    fn decode(r: &mut sim_core::SnapshotReader<'_>) -> Result<Self, sim_core::SnapError> {
        let s = SendState {
            una: r.take_u64()?,
            nxt: r.take_u64()?,
            dupacks: r.take_u32()?,
            rtt: r.get()?,
            stats: r.get()?,
            cfg: r.get()?,
            high_water: r.take_u64()?,
            consecutive_timeouts: r.take_u32()?,
            send_times: r.get()?,
            armed_timer: r.get()?,
            next_timer_id: r.take_u64()?,
            cancelled_timers: r.take_u64()?,
            cwnd_trace: r.get()?,
            last_traced_cwnd: r.take_f64()?,
        };
        if s.una > s.nxt {
            return Err(sim_core::SnapError::Invalid("send state una past nxt"));
        }
        if s.nxt > s.high_water {
            return Err(sim_core::SnapError::Invalid("send state nxt past high water"));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st() -> SendState {
        SendState::new(TcpConfig::default())
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn window_accounting() {
        let mut s = st();
        assert_eq!(s.flight(), 0);
        assert!(s.can_send_fresh(1.0));
        assert!(!s.register_send(0, t(0)));
        s.nxt = 1;
        assert_eq!(s.flight(), 1);
        assert!(!s.can_send_fresh(1.0));
        assert!(s.can_send_fresh(2.0));
        // Advertised window caps cwnd.
        let s2 = SendState::new(TcpConfig { advertised_window: 4, ..TcpConfig::default() });
        assert_eq!(s2.usable_window(100.0), 4);
        // Fractional cwnd floors, with a 1-segment minimum.
        assert_eq!(s.usable_window(2.9), 2);
        assert_eq!(s.usable_window(0.2), 1);
    }

    #[test]
    fn cumulative_ack_advances_and_samples() {
        let mut s = st();
        for seq in 0..3 {
            s.register_send(seq, t(seq * 10));
        }
        s.nxt = 3;
        let sample = s.advance_una(3, t(100));
        // Newest acked segment (2) was sent at t=20 → RTT 80 ms.
        assert_eq!(sample, Some(SimDuration::from_millis(80)));
        assert_eq!(s.una, 3);
        assert_eq!(s.stats.acked_segments, 3);
    }

    #[test]
    fn old_ack_ignored() {
        let mut s = st();
        s.register_send(0, t(0));
        s.nxt = 1;
        assert!(s.advance_una(1, t(10)).is_some());
        assert!(s.advance_una(1, t(20)).is_none());
        assert!(s.advance_una(0, t(20)).is_none());
    }

    #[test]
    fn karn_excludes_retransmissions() {
        let mut s = st();
        assert!(!s.register_send(0, t(0)));
        s.nxt = 1;
        assert!(s.register_send(0, t(50))); // retransmission invalidates the sample
        let sample = s.advance_una(1, t(100));
        assert_eq!(sample, None);
        assert_eq!(s.stats.retransmissions, 1);
        assert_eq!(s.stats.segments_sent, 2);
    }

    #[test]
    fn dupack_counter_resets_on_new_ack() {
        let mut s = st();
        s.register_send(0, t(0));
        s.register_send(1, t(1));
        s.nxt = 2;
        assert_eq!(s.register_dupack(), 1);
        assert_eq!(s.register_dupack(), 2);
        let _ = s.advance_una(1, t(10));
        assert_eq!(s.dupacks, 0);
        assert_eq!(s.stats.dupacks, 2);
    }

    #[test]
    fn timer_lifecycle() {
        let mut s = st();
        let mut out = Vec::new();
        s.ensure_timer(t(0), &mut out);
        assert_eq!(out.len(), 1);
        let id = match out[0] {
            TcpOutput::SetTimer { id, .. } => id,
            _ => unreachable!(),
        };
        // ensure_timer is idempotent while armed.
        s.ensure_timer(t(1), &mut out);
        assert_eq!(out.len(), 1);
        assert!(s.take_timer_if_current(id));
        assert!(!s.take_timer_if_current(id), "consumed timers are stale");
        // Cancel invalidates.
        s.arm_timer(t(2), &mut out);
        let id2 = match out[1] {
            TcpOutput::SetTimer { id, .. } => id,
            _ => unreachable!(),
        };
        assert!(s.timer_is_live(id2));
        s.cancel_timer();
        assert!(!s.take_timer_if_current(id2));
        assert!(!s.timer_is_live(id2));
        assert_eq!(s.timers_cancelled(), 1);
        // Re-arming over a pending timer tombstones the old id.
        s.arm_timer(t(3), &mut out);
        s.arm_timer(t(4), &mut out);
        assert_eq!(s.timers_cancelled(), 2);
    }

    #[test]
    fn cwnd_trace_dedups() {
        let mut s = st();
        s.trace_cwnd(t(0), 1.0);
        s.trace_cwnd(t(1), 1.0);
        s.trace_cwnd(t(2), 2.0);
        assert_eq!(s.cwnd_trace().len(), 2);
    }

    #[test]
    fn cwnd_trace_records_a_window_turning_nan() {
        let mut s = st();
        s.trace_cwnd(t(0), 2.0);
        s.trace_cwnd(t(1), f64::NAN);
        assert_eq!(s.cwnd_trace().len(), 2, "NaN after 2.0 is a new sample");
        s.trace_cwnd(t(2), f64::NAN);
        assert_eq!(s.cwnd_trace().len(), 2, "a second NaN is no change");
        s.trace_cwnd(t(3), 2.0);
        s.trace_cwnd(t(4), 2.0 + f64::EPSILON / 2.0);
        assert_eq!(s.cwnd_trace().len(), 3, "recovery records, finite dedup unchanged");
        assert!(s.cwnd_trace().samples()[1].1.is_nan());
    }
}

#[cfg(test)]
mod fixed_rto_tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn standard_backoff_keeps_doubling() {
        let mut s = SendState::new(TcpConfig::default());
        s.rtt.sample(SimDuration::from_millis(100)); // RTO 300 ms
        s.note_timeout();
        s.note_timeout();
        s.note_timeout();
        assert_eq!(s.rtt.rto(), SimDuration::from_millis(2_400));
        assert_eq!(s.consecutive_timeouts(), 3);
    }

    #[test]
    fn fixed_rto_freezes_after_second_consecutive_timeout() {
        let cfg = TcpConfig { fixed_rto: true, ..TcpConfig::default() };
        let mut s = SendState::new(cfg);
        s.rtt.sample(SimDuration::from_millis(100)); // RTO 300 ms
        s.note_timeout(); // first timeout still doubles (could be congestion)
        assert_eq!(s.rtt.rto(), SimDuration::from_millis(600));
        s.note_timeout(); // consecutive: route loss — hold
        s.note_timeout();
        assert_eq!(s.rtt.rto(), SimDuration::from_millis(600), "RTO frozen");
        // A new ACK ends the episode; backoff resumes normally after it.
        s.register_send(0, t(0));
        s.nxt = 1;
        let _ = s.advance_una(1, t(10));
        assert_eq!(s.consecutive_timeouts(), 0);
        s.note_timeout();
        assert!(s.rtt.rto() > SimDuration::from_millis(200));
    }
}
