//! The discrete-event simulator: per-node stack assembly and the driver
//! loop executing layer state-machine outputs.

use sim_core::{DetMap, DetSet, RunPerf, TraceHash};

use aodv::{Aodv, AodvOutput, AodvTimer};
use faultline::{FaultEvent, InvariantChecker, ScenarioScript, TimedFault};
use mac80211::{Mac, MacOutput, MediumView};
use muzha::{MuzhaSender, RouterAgent};
use phy::{Channel, GeState, GilbertElliott, PhyState, Position, RxOutcome, TxId};
use sim_core::{DriverQueue, SimRng, SimTime, TieClass, TieKind, TieOrder};
use tcp::{
    DoorSender, RenoSender, SackSender, TcpOutput, TcpReceiver, TcpTimer, Transport, VegasSender,
    VenoSender, WestwoodSender,
};
use topo::{MobilitySpec, WaypointLeg};
use tracelog::{PacketKind, TraceLog, TraceRecord};
use wire::{
    FlowId, FrameKind, MacFrame, NodeId, Packet, Payload, TcpSegment, TcpSegmentKind, UidGen,
};

use crate::config::QueueDiscipline;
use crate::{
    BusyTracker, DropTailQueue, FlowReport, FlowSpec, NodeSummary, RedOutcome, RedQueue, SimConfig,
    TcpVariant,
};

/// Events driving the simulation.
#[derive(Debug)]
enum Event {
    /// A signal starts impinging on `node` with relative received `power`.
    RxStart { node: NodeId, tx_id: TxId, end: SimTime, decodable: bool, power: f64 },
    /// The signal ends; `frame` is what was on the air.
    RxEnd { node: NodeId, tx_id: TxId, frame: MacFrame, in_rx_range: bool },
    /// `node`'s own transmission left the air.
    TxDone { node: NodeId },
    /// MAC timer.
    MacTimer { node: NodeId, id: mac80211::TimerId },
    /// AODV discovery timer.
    AodvTimer { node: NodeId, id: AodvTimer },
    /// TCP retransmission timer for `flow` at `node`.
    TcpTimer { node: NodeId, flow: FlowId, id: TcpTimer },
    /// An FTP source starts.
    FlowStart { flow: FlowId },
    /// A jittered broadcast enqueue (AODV flood desynchronisation). The
    /// packet is boxed: this rare variant would otherwise set the size of
    /// every queued event.
    JitteredEnqueue { node: NodeId, packet: Box<Packet>, next_hop: NodeId },
    /// Periodic position update for a moving node.
    MobilityTick { node: NodeId },
    /// Delayed-ACK release timer at a flow's receiver.
    DelAckTimer { node: NodeId, flow: FlowId, id: tcp::DelAckTimer },
    /// Periodic DRAI sampling tick.
    Sample,
    /// A scripted fault fires (index into the loaded scenario fault list).
    Fault { index: usize },
}

// Every queued event pays for the largest variant; keep the hot-path
// layout from silently growing back.
const _: () = assert!(std::mem::size_of::<Event>() <= 48);

/// Folds one dispatched event into the running trace digest. Every variant
/// contributes a distinct tag plus its scheduling-relevant fields, so any
/// reordering or content change between two same-seed runs flips the digest.
fn fold_event(hash: &mut TraceHash, now: SimTime, event: &Event) {
    hash.write_u64(now.as_nanos());
    match event {
        Event::RxStart { node, tx_id, end, decodable, power } => {
            hash.write_u64(1)
                .write_u64(node.index() as u64)
                .write_u64(tx_id.0)
                .write_u64(end.as_nanos())
                .write_u64(u64::from(*decodable))
                .write_f64(*power);
        }
        Event::RxEnd { node, tx_id, frame, in_rx_range } => {
            hash.write_u64(2)
                .write_u64(node.index() as u64)
                .write_u64(tx_id.0)
                .write_u64(frame.src.index() as u64)
                .write_u64(frame.dst.index() as u64)
                .write_u64(u64::from(*in_rx_range));
        }
        Event::TxDone { node } => {
            hash.write_u64(3).write_u64(node.index() as u64);
        }
        Event::MacTimer { node, .. } => {
            hash.write_u64(4).write_u64(node.index() as u64);
        }
        Event::AodvTimer { node, .. } => {
            hash.write_u64(5).write_u64(node.index() as u64);
        }
        Event::TcpTimer { node, flow, .. } => {
            hash.write_u64(6).write_u64(node.index() as u64).write_u64(flow.index() as u64);
        }
        Event::FlowStart { flow } => {
            hash.write_u64(7).write_u64(flow.index() as u64);
        }
        Event::JitteredEnqueue { node, next_hop, .. } => {
            hash.write_u64(8).write_u64(node.index() as u64).write_u64(next_hop.index() as u64);
        }
        Event::MobilityTick { node } => {
            hash.write_u64(9).write_u64(node.index() as u64);
        }
        Event::DelAckTimer { node, flow, .. } => {
            hash.write_u64(10).write_u64(node.index() as u64).write_u64(flow.index() as u64);
        }
        Event::Sample => {
            hash.write_u64(11);
        }
        Event::Fault { index } => {
            hash.write_u64(12).write_u64(*index as u64);
        }
    }
}

/// Folds one dispatched event into the run's work counters, classifying it
/// by owning subsystem. Every variant is counted exactly once, so
/// [`RunPerf::classified_total`] always equals `events_processed`.
fn account_event(perf: &mut RunPerf, event: &Event) {
    perf.events_processed += 1;
    match event {
        Event::RxStart { .. } | Event::RxEnd { .. } | Event::TxDone { .. } => {
            perf.phy_events += 1;
        }
        Event::MacTimer { .. } => perf.mac_events += 1,
        Event::AodvTimer { .. } | Event::JitteredEnqueue { .. } => perf.routing_events += 1,
        Event::TcpTimer { .. } | Event::FlowStart { .. } | Event::DelAckTimer { .. } => {
            perf.transport_events += 1;
        }
        Event::MobilityTick { .. } => perf.mobility_events += 1,
        Event::Sample => perf.sampling_events += 1,
        Event::Fault { .. } => perf.fault_events += 1,
    }
}

/// Classifies one pending event into the scheduling fingerprint the
/// tie-order hook shows the model-checking explorer. The mapping must stay
/// *sound* for the explorer's independence relation: any variant that can
/// transmit, draw the shared RNG stream (`transmit`'s loss draw, broadcast
/// jitter, waypoint picks) or touch cross-node state must NOT claim the
/// commuting [`TieKind::RxListen`] class. Only `RxStart` qualifies today:
/// its dispatch merely notes the arriving signal in the owning node's
/// PHY/MAC state.
fn tie_class(event: &Event) -> TieClass {
    match event {
        Event::RxStart { node, .. } => TieClass::node(node.index() as u32, TieKind::RxListen),
        Event::RxEnd { node, .. }
        | Event::TxDone { node }
        | Event::MacTimer { node, .. }
        | Event::AodvTimer { node, .. }
        | Event::TcpTimer { node, .. }
        | Event::JitteredEnqueue { node, .. }
        | Event::DelAckTimer { node, .. } => TieClass::node(node.index() as u32, TieKind::NodeWork),
        Event::MobilityTick { node } => TieClass::node(node.index() as u32, TieKind::ChannelWrite),
        Event::FlowStart { .. } | Event::Sample | Event::Fault { .. } => TieClass::global(),
    }
}

/// Scenario-driven liveness of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeStatus {
    /// Normal operation.
    Up,
    /// Frozen by [`FaultEvent::Pause`]: state kept, work deferred.
    Paused,
    /// Crashed by [`FaultEvent::Kill`]: state flushed, events discarded.
    Killed,
}

struct SenderEndpoint {
    dst: NodeId,
    transport: Box<dyn Transport>,
    /// Samples of `transport.cwnd_trace()` already observed as
    /// [`TraceRecord::TcpCwnd`] records.
    traced_cwnd: usize,
}

struct ReceiverEndpoint {
    receiver: TcpReceiver,
}

/// The node's interface queue under either discipline.
#[derive(Debug)]
enum Ifq {
    DropTail(DropTailQueue),
    Red(RedQueue),
}

/// What the interface queue did with an arriving packet, in the vocabulary
/// the trace log needs (mark and early-drop provenance preserved).
enum IfqPush {
    /// Stored; `marked` is true when RED ECN-marked the packet on the way
    /// in (drop-tail never marks).
    Stored { marked: bool },
    /// Shed; the packet returned may differ from the arrival (RED's
    /// priority path evicts stored data to protect routing control).
    Dropped { packet: Packet, early: bool },
}

impl Ifq {
    /// Enqueues a packet. `now` feeds RED's idle-time aging; drop-tail
    /// ignores it.
    fn push(
        &mut self,
        packet: Packet,
        next_hop: NodeId,
        priority: bool,
        now: SimTime,
        rng: &mut SimRng,
    ) -> IfqPush {
        match self {
            Ifq::DropTail(q) => match q.push(packet, next_hop, priority) {
                None => IfqPush::Stored { marked: false },
                Some(packet) => IfqPush::Dropped { packet, early: false },
            },
            Ifq::Red(q) => match q.push(packet, next_hop, priority, now, rng) {
                RedOutcome::Enqueued => IfqPush::Stored { marked: false },
                RedOutcome::EnqueuedMarked => IfqPush::Stored { marked: true },
                RedOutcome::Dropped { packet, early } => IfqPush::Dropped { packet, early },
            },
        }
    }

    fn pop(&mut self, now: SimTime) -> Option<(Packet, NodeId)> {
        match self {
            Ifq::DropTail(q) => q.pop(),
            Ifq::Red(q) => q.pop(now),
        }
    }

    fn len(&self) -> usize {
        match self {
            Ifq::DropTail(q) => q.len(),
            Ifq::Red(q) => q.len(),
        }
    }

    fn stats(&self) -> crate::queue::QueueStats {
        match self {
            Ifq::DropTail(q) => q.stats(),
            Ifq::Red(q) => q.stats(),
        }
    }
}

struct Node {
    phy: PhyState,
    /// MAC stats snapshot at the previous DRAI sample (for retry deltas).
    last_mac_stats: mac80211::MacStats,
    mac: Mac,
    aodv: Aodv,
    ifq: Ifq,
    router: RouterAgent,
    uid: UidGen,
    busy: BusyTracker,
    senders: DetMap<FlowId, SenderEndpoint>,
    receivers: DetMap<FlowId, ReceiverEndpoint>,
    routing_drops: u64,
}

/// The simulator: a set of nodes on a shared radio channel plus the global
/// event loop.
///
/// # Example
///
/// ```
/// use netstack::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
/// use sim_core::SimTime;
///
/// let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
/// let (src, dst) = topology::chain_flow(2);
/// let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
/// sim.run_until(SimTime::from_secs_f64(2.0));
/// let report = sim.flow_report(flow);
/// assert!(report.delivered_segments > 0);
/// ```
pub struct Simulator {
    cfg: SimConfig,
    channel: Channel,
    nodes: Vec<Node>,
    events: DriverQueue<Event>,
    rng: SimRng,
    now: SimTime,
    next_tx_id: u64,
    flows: Vec<FlowSpec>,
    movements: DetMap<NodeId, Movement>,
    trace_hash: TraceHash,
    /// The trace log and the invariant checker, both fed the one record
    /// stream from the choke points.
    observers: Observers,
    /// Tie-order hook for the model-checking explorer: when installed,
    /// same-instant ties inside its window are broken by its decision
    /// vector instead of FIFO. `None` costs one branch per pop.
    tie_order: Option<TieOrder>,
    /// Every scripted fault loaded so far, addressed by [`Event::Fault`].
    scripted_faults: Vec<TimedFault>,
    /// Per-node scenario liveness.
    node_status: Vec<NodeStatus>,
    /// Per-node events deferred while the node is paused.
    deferred: Vec<Vec<Event>>,
    /// Active Gilbert–Elliott bursty-loss episode, if any.
    ge_episode: Option<GilbertElliott>,
    /// Per-receiver channel state during a Gilbert–Elliott episode.
    ge_states: Vec<GeState>,
    /// Nodes whose interface queue currently blackholes every enqueue.
    blackholes: DetSet<NodeId>,
    /// Scripted interface-queue capacity clamps.
    saturated: DetMap<NodeId, usize>,
    /// Links currently forced down by the scenario (normalised pairs).
    scripted_down: DetSet<(NodeId, NodeId)>,
    /// Deterministic work counters for this run (virtual events only).
    perf: RunPerf,
}

/// The simulator's observers, both fed the one record stream from its
/// choke points. Pure: neither feeds anything back into the run, so a run
/// dispatches the same events with or without them.
#[derive(Default)]
struct Observers {
    /// Structured trace log or flight recorder.
    log: Option<TraceLog>,
    /// Runtime invariant checker. It sees every record, whatever the log's
    /// filter admits.
    checker: Option<InvariantChecker>,
}

impl Observers {
    /// Records into the log first, then feeds the checker, so a
    /// flight-recorder dump ends at the record that tripped an invariant.
    fn observe_at(&mut self, at: SimTime, record: TraceRecord) {
        if let Some(log) = &mut self.log {
            log.record(at, record);
        }
        self.check(at, &record);
    }

    /// Feeds the checker alone. A flight-recorder log dumps its window the
    /// moment an invariant trips, capturing the lead-up to the failure.
    fn check(&mut self, at: SimTime, record: &TraceRecord) {
        let Some(checker) = &mut self.checker else { return };
        let before = checker.violations().len();
        checker.on_record(at, record);
        if checker.violations().len() > before {
            if let Some(log) = self.log.as_mut().filter(|log| log.is_flight_recorder()) {
                let reason = checker.violations().last().map(ToString::to_string);
                log.dump(at, reason.as_deref().unwrap_or("?"));
            }
        }
    }
}

/// An active movement: the node heads toward `target` at `speed_mps`; when
/// it arrives, `plan` picks the next waypoint (or the movement ends).
#[derive(Clone, Debug)]
struct Movement {
    target: phy::Position,
    speed_mps: f64,
    plan: MobilityPlan,
}

/// What a node does when it reaches its current waypoint.
#[derive(Clone, Debug)]
enum MobilityPlan {
    /// Stop: the movement was a one-off [`Simulator::move_node`].
    OneShot,
    /// Draw the next waypoint from the random-waypoint model.
    Waypoint(RandomWaypoint),
    /// Follow a scripted leg list; `next` indexes the leg to start after
    /// the current one completes (past-the-end means the script is done).
    Script { legs: Vec<WaypointLeg>, next: usize },
}

/// Parameters of the classic random-waypoint mobility model.
#[derive(Clone, Copy, Debug)]
pub struct RandomWaypoint {
    /// Nodes roam inside `[0, width] × [0, height]` metres.
    pub width_m: f64,
    /// Area height in metres.
    pub height_m: f64,
    /// Uniformly drawn speed range in m/s.
    pub min_speed_mps: f64,
    /// Maximum speed in m/s.
    pub max_speed_mps: f64,
    /// Minimum pause at each waypoint before heading to the next.
    pub min_pause: sim_core::SimDuration,
    /// Maximum pause at each waypoint. When equal to `min_pause` the pause
    /// is fixed and no random draw is made for it.
    pub max_pause: sim_core::SimDuration,
}

impl RandomWaypoint {
    /// A plan roaming the whole `width × height` area without pausing,
    /// with the given uniform speed range.
    pub fn roaming(width_m: f64, height_m: f64, min_speed_mps: f64, max_speed_mps: f64) -> Self {
        RandomWaypoint {
            width_m,
            height_m,
            min_speed_mps,
            max_speed_mps,
            min_pause: sim_core::SimDuration::ZERO,
            max_pause: sim_core::SimDuration::ZERO,
        }
    }
}

/// How often moving nodes' positions are refreshed.
const MOBILITY_TICK: sim_core::SimDuration = sim_core::SimDuration::from_millis(100);

/// Builds the sender implementation a flow spec asks for. Shared by
/// [`Simulator::add_flow`] and snapshot restore, which must reconstruct the
/// exact same variant before handing it the serialized state.
fn make_transport(flow: FlowId, spec: &FlowSpec) -> Box<dyn Transport> {
    match spec.variant {
        TcpVariant::Tahoe => Box::new(RenoSender::tahoe(flow, spec.tcp)),
        TcpVariant::Reno => Box::new(RenoSender::reno(flow, spec.tcp)),
        TcpVariant::NewReno => Box::new(RenoSender::new_reno(flow, spec.tcp)),
        TcpVariant::Sack => Box::new(SackSender::new(flow, spec.tcp)),
        TcpVariant::Vegas => Box::new(VegasSender::new(flow, spec.tcp, spec.vegas)),
        TcpVariant::Veno => Box::new(VenoSender::new(flow, spec.tcp)),
        TcpVariant::Westwood => Box::new(WestwoodSender::new(flow, spec.tcp)),
        TcpVariant::Door => Box::new(DoorSender::new(flow, spec.tcp)),
        TcpVariant::Muzha => {
            Box::new(MuzhaSender::with_cadence(flow, spec.tcp, spec.muzha_cadence))
        }
    }
}

impl Simulator {
    /// Creates a simulator with one node per position.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent or `positions` is empty.
    pub fn new(positions: Vec<Position>, cfg: SimConfig) -> Self {
        cfg.validate();
        assert!(!positions.is_empty(), "need at least one node");
        let mut rng = SimRng::new(cfg.seed);
        let channel = Channel::with_index(positions, cfg.radio, cfg.phy_index);
        let nodes = (0..channel.node_count())
            .map(|i| {
                let id = NodeId::new(i as u16);
                Node {
                    phy: PhyState::new(),
                    last_mac_stats: mac80211::MacStats::default(),
                    mac: Mac::new(id, cfg.mac, rng.fork()),
                    aodv: Aodv::new(id, cfg.aodv, UidGen::new(id)),
                    ifq: match cfg.queue {
                        QueueDiscipline::DropTail => {
                            Ifq::DropTail(DropTailQueue::new(cfg.ifq_capacity))
                        }
                        QueueDiscipline::Red(red) => Ifq::Red(RedQueue::new(crate::RedConfig {
                            capacity: cfg.ifq_capacity,
                            ..red
                        })),
                    },
                    router: RouterAgent::new(cfg.drai),
                    // Transport packets use a separate uid stream so MAC
                    // dedup never confuses them with routing packets.
                    uid: UidGen::with_stream(id, 1),
                    busy: BusyTracker::new(SimTime::ZERO),
                    senders: DetMap::new(),
                    receivers: DetMap::new(),
                    routing_drops: 0,
                }
            })
            .collect();
        let mut events = DriverQueue::new(cfg.scheduler);
        events.push(SimTime::ZERO + cfg.sample_interval, Event::Sample);
        let node_count = channel.node_count();
        let mut sim = Simulator {
            cfg,
            channel,
            nodes,
            events,
            rng,
            now: SimTime::ZERO,
            next_tx_id: 0,
            flows: Vec::new(),
            movements: DetMap::new(),
            trace_hash: TraceHash::new(),
            observers: Observers::default(),
            tie_order: None,
            scripted_faults: Vec::new(),
            node_status: vec![NodeStatus::Up; node_count],
            deferred: (0..node_count).map(|_| Vec::new()).collect(),
            ge_episode: None,
            ge_states: vec![GeState::new(); node_count],
            blackholes: DetSet::new(),
            saturated: DetMap::new(),
            scripted_down: DetSet::new(),
            perf: RunPerf::default(),
        };
        // Kick off HELLO beaconing if the AODV config asks for it.
        if cfg.aodv.hello_interval.is_some() {
            for i in 0..sim.nodes.len() {
                let node = NodeId::new(i as u16);
                let outs = sim.nodes[i].aodv.start_hello(SimTime::ZERO);
                sim.process_aodv_outputs(node, outs);
            }
        }
        sim
    }

    /// Creates a simulator whose node placement and mobility come entirely
    /// from the config: positions are regenerated from `cfg.topology` and
    /// `cfg.seed`, and `cfg.mobility` (if not static) is applied to every
    /// node over the topology's bounding area. Fully deterministic in the
    /// config — scenario scripts never need to serialise positions.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent.
    pub fn from_config(cfg: SimConfig) -> Self {
        let positions = cfg.topology.build(cfg.radio.tx_range_m, cfg.seed);
        let mut sim = Simulator::new(positions, cfg);
        if let MobilitySpec::Waypoint { min_speed_mps, max_speed_mps, pause } = cfg.mobility {
            let (width_m, height_m) = cfg.topology.extent();
            let plan = RandomWaypoint {
                width_m,
                height_m,
                min_speed_mps,
                max_speed_mps,
                min_pause: pause,
                max_pause: pause,
            };
            for i in 0..sim.node_count() {
                sim.set_random_waypoint(NodeId::new(i as u16), plan);
            }
        }
        sim
    }

    /// Registers a flow; its FTP source starts at `spec.start`.
    ///
    /// # Panics
    ///
    /// Panics if src or dst is out of range or src equals dst.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(spec.src.index() < self.nodes.len(), "flow src out of range");
        assert!(spec.dst.index() < self.nodes.len(), "flow dst out of range");
        assert_ne!(spec.src, spec.dst, "flow endpoints must differ");
        let flow = FlowId::new(self.flows.len() as u32);
        let transport = make_transport(flow, &spec);
        self.nodes[spec.src.index()]
            .senders
            .insert(flow, SenderEndpoint { dst: spec.dst, transport, traced_cwnd: 0 });
        let sack = spec.variant == TcpVariant::Sack;
        let receiver = if spec.delayed_ack {
            TcpReceiver::with_delayed_ack(flow, sack)
        } else {
            TcpReceiver::new(flow, sack)
        };
        self.nodes[spec.dst.index()].receivers.insert(flow, ReceiverEndpoint { receiver });
        self.events.push(spec.start.max(self.now), Event::FlowStart { flow });
        self.flows.push(spec);
        flow
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Running digest of every event dispatched so far (order- and
    /// content-sensitive). Two simulators built from the same topology,
    /// config and seed must report identical digests after identical
    /// `run_until` calls — the runtime twin of the `simlint` static policy.
    /// Compare digests with [`sim_core::twin_run`].
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash.digest()
    }

    // ------------------------------------------------------------------
    // Fault injection & invariant checking (crates/faultline)
    // ------------------------------------------------------------------

    /// Loads a fault scenario: every timed fault is scheduled on the
    /// ordinary event queue at its scripted virtual time (past times fire
    /// immediately), so twin runs with the same seed and script stay
    /// bit-identical. Same-time faults keep script order. The script's
    /// `seed` / `duration` headers are advisory metadata for harnesses —
    /// they do not reconfigure an already-built simulator.
    pub fn load_scenario(&mut self, script: &ScenarioScript) {
        for timed in &script.events {
            let index = self.scripted_faults.len();
            self.scripted_faults.push(timed.clone());
            self.events.push(timed.at.max(self.now), Event::Fault { index });
        }
    }

    /// Installs a runtime invariant checker fed every trace record from
    /// this simulator's choke points, whatever an installed log's filter
    /// admits. Replaces any previous checker.
    pub fn install_checker(&mut self, checker: InvariantChecker) {
        self.observers.checker = Some(checker);
    }

    /// Installs a tie-order hook: same-instant scheduler ties inside the
    /// hook's window are broken by its decision vector instead of FIFO
    /// (see [`TieOrder`]). With an empty vector the hook is behaviourally
    /// inert — it records the tie groups it saw but every choice stays at
    /// the FIFO head, reproducing the plain run bit for bit. Replaces any
    /// previous hook.
    pub fn install_tie_order(&mut self, order: TieOrder) {
        self.tie_order = Some(order);
    }

    /// Removes and returns the tie-order hook with its recorded choice log.
    pub fn take_tie_order(&mut self) -> Option<TieOrder> {
        self.tie_order.take()
    }

    // ------------------------------------------------------------------
    // Structured tracing (crates/tracelog)
    // ------------------------------------------------------------------

    /// Installs a structured trace log fed from the simulator's choke
    /// points. Recording is a pure observation: twin runs with and without
    /// a log installed dispatch byte-identical event streams. Replaces any
    /// previously installed log.
    pub fn install_trace_log(&mut self, log: TraceLog) {
        self.observers.log = Some(log);
    }

    /// Removes and returns the trace log, if one is installed.
    pub fn take_trace_log(&mut self) -> Option<TraceLog> {
        self.observers.log.take()
    }

    /// A borrow of the installed trace log, if any.
    pub fn trace_log(&self) -> Option<&TraceLog> {
        self.observers.log.as_ref()
    }

    /// Whether a trace log or a checker is installed: the one guard in
    /// front of building a record that costs more than a copy.
    #[inline]
    fn observing(&self) -> bool {
        self.observers.log.is_some() || self.observers.checker.is_some()
    }

    /// Observes one record at the current virtual time.
    #[inline]
    fn observe(&mut self, record: TraceRecord) {
        self.observers.observe_at(self.now, record);
    }

    /// Removes the checker, sealing it with [`InvariantChecker::finish`] at
    /// the current virtual time, and returns it for inspection.
    pub fn take_checker(&mut self) -> Option<InvariantChecker> {
        let mut checker = self.observers.checker.take()?;
        checker.finish(self.now);
        Some(checker)
    }

    /// A borrow of the installed checker *without* sealing it. Checkpoint
    /// harnesses clone this alongside [`Self::snapshot`] — observers are not
    /// part of the snapshot, so a resumed run re-installs the clone to carry
    /// the checker's ledger across the restore boundary.
    pub fn checker(&self) -> Option<&InvariantChecker> {
        self.observers.checker.as_ref()
    }

    /// A node's AODV counters (discoveries, RREQ/RREP/RERR sent, drops).
    pub fn aodv_stats(&self, node: NodeId) -> aodv::AodvStats {
        self.nodes[node.index()].aodv.stats()
    }

    /// Filters an event through the scenario's node liveness: events owned
    /// by a killed node are discarded (packets inside them become fault
    /// drops), and most events owned by a paused node are deferred for
    /// replay at resume time. Receptions at a paused node are discarded —
    /// its radio is off.
    fn gate_event(&mut self, event: Event) -> Option<Event> {
        if self.scripted_faults.is_empty() {
            return Some(event);
        }
        let node = match &event {
            Event::RxStart { node, .. }
            | Event::RxEnd { node, .. }
            | Event::TxDone { node }
            | Event::MacTimer { node, .. }
            | Event::AodvTimer { node, .. }
            | Event::TcpTimer { node, .. }
            | Event::JitteredEnqueue { node, .. }
            | Event::MobilityTick { node }
            | Event::DelAckTimer { node, .. } => *node,
            Event::FlowStart { flow } => self.flows[flow.index()].src,
            Event::Sample | Event::Fault { .. } => return Some(event),
        };
        match self.node_status[node.index()] {
            NodeStatus::Up => Some(event),
            NodeStatus::Killed => match event {
                // The physical node keeps moving even while crashed.
                Event::MobilityTick { .. } => Some(event),
                Event::JitteredEnqueue { packet, .. } => {
                    self.observe(TraceRecord::FaultDrop { node, uid: packet.uid });
                    None
                }
                _ => None,
            },
            NodeStatus::Paused => match event {
                Event::RxStart { .. } | Event::RxEnd { .. } => None,
                _ => {
                    self.deferred[node.index()].push(event);
                    None
                }
            },
        }
    }

    /// Applies scripted fault `index` at the current virtual time.
    fn apply_fault(&mut self, index: usize) {
        let Some(fault) = self.scripted_faults.get(index).map(|t| t.fault.clone()) else {
            return;
        };
        match fault {
            FaultEvent::LinkDown { a, b } => self.script_link(a, b, false),
            FaultEvent::LinkUp { a, b } => self.script_link(a, b, true),
            FaultEvent::Kill { node } => self.kill_node(node),
            FaultEvent::Revive { node } => self.revive_node(node),
            FaultEvent::Pause { node } => {
                if self.node_status[node.index()] == NodeStatus::Up {
                    self.node_status[node.index()] = NodeStatus::Paused;
                    self.channel.set_node_enabled(node, false);
                }
            }
            FaultEvent::Resume { node } => {
                if self.node_status[node.index()] == NodeStatus::Paused {
                    self.node_status[node.index()] = NodeStatus::Up;
                    self.channel.set_node_enabled(node, true);
                    let backlog = std::mem::take(&mut self.deferred[node.index()]);
                    let now = self.now;
                    for deferred in backlog {
                        self.events.push(now, deferred);
                    }
                }
            }
            FaultEvent::GeStart(ge) => {
                self.ge_episode = Some(ge);
                // Every receiver starts the episode in the good state.
                self.ge_states = vec![GeState::new(); self.nodes.len()];
            }
            FaultEvent::GeStop => self.ge_episode = None,
            FaultEvent::Blackhole { node } => {
                self.blackholes.insert(node);
            }
            FaultEvent::BlackholeOff { node } => {
                self.blackholes.remove(&node);
            }
            FaultEvent::Saturate { node, capacity } => {
                self.saturated.insert(node, capacity);
            }
            FaultEvent::SaturateOff { node } => {
                self.saturated.remove(&node);
            }
            FaultEvent::Partition { left, right } => {
                for &a in &left {
                    for &b in &right {
                        if a != b {
                            self.script_link(a, b, false);
                        }
                    }
                }
            }
            FaultEvent::Heal => {
                let blocked: Vec<(NodeId, NodeId)> = self.scripted_down.iter().copied().collect();
                for (a, b) in blocked {
                    self.script_link(a, b, true);
                }
            }
        }
    }

    /// Blocks or releases one scripted link, keeping the channel and the
    /// bookkeeping set in sync, and observes the change. No-op if the link
    /// already is in the requested state.
    fn script_link(&mut self, a: NodeId, b: NodeId, up: bool) {
        let key = if a <= b { (a, b) } else { (b, a) };
        if up {
            if self.scripted_down.remove(&key) {
                self.channel.set_link_blocked(a, b, false);
                self.observe(TraceRecord::LinkUp { a, b });
            }
        } else if self.scripted_down.insert(key) {
            self.channel.set_link_blocked(a, b, true);
            self.observe(TraceRecord::LinkDown { a, b });
        }
    }

    /// Crashes a node: radio off, every packet in its custody (interface
    /// queue, MAC, AODV discovery buffers, deferred work) becomes a fault
    /// drop, and its routing state is wiped. Identity — in particular the
    /// packet uid streams — survives, so MAC deduplication at the
    /// neighbours keeps working across a revive.
    fn kill_node(&mut self, node: NodeId) {
        if self.node_status[node.index()] == NodeStatus::Killed {
            return;
        }
        self.node_status[node.index()] = NodeStatus::Killed;
        self.channel.set_node_enabled(node, false);
        let mut orphans: Vec<u64> = Vec::new();
        {
            let now = self.now;
            let n = &mut self.nodes[node.index()];
            while let Some((packet, _)) = n.ifq.pop(now) {
                orphans.push(packet.uid);
            }
            if let Some(packet) = n.mac.abort() {
                orphans.push(packet.uid);
            }
            for packet in n.aodv.reset_routes() {
                orphans.push(packet.uid);
            }
        }
        for deferred in std::mem::take(&mut self.deferred[node.index()]) {
            if let Event::JitteredEnqueue { packet, .. } = deferred {
                orphans.push(packet.uid);
            }
        }
        for uid in orphans {
            self.observe(TraceRecord::FaultDrop { node, uid });
        }
    }

    /// Powers a killed node back up with empty routing state.
    fn revive_node(&mut self, node: NodeId) {
        if self.node_status[node.index()] != NodeStatus::Killed {
            return;
        }
        self.node_status[node.index()] = NodeStatus::Up;
        self.channel.set_node_enabled(node, true);
        if self.cfg.aodv.hello_interval.is_some() {
            let now = self.now;
            let outs = self.nodes[node.index()].aodv.start_hello(now);
            self.process_aodv_outputs(node, outs);
        }
    }

    /// Pops the next event through the tie-order hook: when one is
    /// installed, the tie at the queue head falls inside its window and
    /// more than one event is pending at that instant, the hook picks which
    /// tied event dispatches first. Everywhere else this is a plain FIFO
    /// pop, so an absent hook costs one branch per event.
    fn pop_event(&mut self) -> Option<(SimTime, Event)> {
        if let Some(order) = &mut self.tie_order {
            if let Some(t) = self.events.peek_time() {
                if order.covers(t) {
                    let ties = self.events.tie_count();
                    if ties > 1 {
                        let mut group = Vec::with_capacity(ties);
                        self.events.for_each_tie(|e| group.push(tie_class(e)));
                        let chosen = order.choose(t, group);
                        return self.events.pop_nth(chosen);
                    }
                }
            }
        }
        self.events.pop()
    }

    /// Runs the event loop until virtual time `end`.
    pub fn run_until(&mut self, end: SimTime) {
        while let Some(t) = self.events.peek_time() {
            if t > end {
                break;
            }
            let qlen = self.events.len();
            let (now, event) = self.pop_event().expect("peeked event vanished");
            self.now = now;
            fold_event(&mut self.trace_hash, now, &event);
            account_event(&mut self.perf, &event);
            self.perf.peak_event_queue = self.perf.peak_event_queue.max(qlen);
            self.dispatch(event);
        }
        self.now = end.max(self.now);
    }

    /// This run's deterministic work counters so far. Timer cancellations
    /// are aggregated on demand from every layer's own tombstone counter.
    pub fn perf(&self) -> RunPerf {
        let mut perf = self.perf;
        for n in &self.nodes {
            perf.timers_cancelled += n.mac.timers_cancelled() + n.aodv.timers_cancelled();
            for ep in n.senders.values() {
                perf.timers_cancelled += ep.transport.timers_cancelled();
            }
            for ep in n.receivers.values() {
                perf.timers_cancelled += ep.receiver.timers_cancelled();
            }
        }
        perf
    }

    /// Report for one flow.
    ///
    /// # Panics
    ///
    /// Panics if `flow` was never added.
    pub fn flow_report(&self, flow: FlowId) -> FlowReport {
        let spec = self.flows[flow.index()];
        let sender = &self.nodes[spec.src.index()].senders[&flow];
        let receiver = &self.nodes[spec.dst.index()].receivers[&flow];
        FlowReport {
            flow,
            variant: spec.variant,
            src: spec.src,
            dst: spec.dst,
            start: spec.start,
            sender: sender.transport.stats(),
            srtt: sender.transport.srtt(),
            delivered_segments: receiver.receiver.rcv_nxt(),
            delivered_bytes: receiver.receiver.delivered_bytes(),
            cwnd_trace: sender.transport.cwnd_trace().clone(),
            delivery_trace: receiver.receiver.delivery_trace().clone(),
        }
    }

    /// Reports for all flows, in registration order.
    pub fn all_flow_reports(&self) -> Vec<FlowReport> {
        (0..self.flows.len()).map(|i| self.flow_report(FlowId::new(i as u32))).collect()
    }

    /// Everything the run produced in one bundle: all flow reports, all
    /// node summaries and the work counters.
    pub fn run_report(&self) -> crate::RunReport {
        crate::RunReport {
            flows: self.all_flow_reports(),
            nodes: self.all_node_summaries(),
            perf: self.perf(),
        }
    }

    /// Per-node drop/discovery summary.
    pub fn node_summary(&self, node: NodeId) -> NodeSummary {
        let n = &self.nodes[node.index()];
        NodeSummary {
            queue_drops: n.ifq.stats().dropped,
            mac_drops: n.mac.stats().drops,
            routing_drops: n.routing_drops,
            discoveries: n.aodv.stats().discoveries,
            collisions: n.mac.stats().rx_collisions,
        }
    }

    /// Summaries for every node.
    pub fn all_node_summaries(&self) -> Vec<NodeSummary> {
        (0..self.nodes.len()).map(|i| self.node_summary(NodeId::new(i as u16))).collect()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Moves a node to a new position (mobility hook). Takes effect for
    /// all transmissions that *start* after the call; signals already on
    /// the air are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_position(&mut self, node: NodeId, position: phy::Position) {
        self.apply_position(node, position);
    }

    /// Writes a node's position through to the channel, accounting the
    /// neighbor-row churn and logging the move. Every position change —
    /// scripted teleport or mobility-tick step — funnels through here so
    /// the perf counters and the trace log see identical motion regardless
    /// of which index the channel uses.
    fn apply_position(&mut self, node: NodeId, position: phy::Position) {
        let churn = self.channel.set_position(node, position);
        self.perf.position_updates += 1;
        self.perf.link_churn += churn as u64;
        self.observe(TraceRecord::PhyMove { node, x: position.x, y: position.y });
    }

    /// Starts moving `node` in a straight line toward `target` at
    /// `speed_mps`, updating its position every 100 ms of virtual time.
    /// Replaces any movement in progress for the node.
    ///
    /// # Panics
    ///
    /// Panics if `speed_mps` is not positive.
    pub fn move_node(&mut self, node: NodeId, target: phy::Position, speed_mps: f64) {
        assert!(speed_mps > 0.0, "speed must be positive");
        let fresh = self
            .movements
            .insert(node, Movement { target, speed_mps, plan: MobilityPlan::OneShot });
        if fresh.is_none() {
            self.events.push(self.now + MOBILITY_TICK, Event::MobilityTick { node });
        }
    }

    /// Puts `node` under the random-waypoint mobility model: it repeatedly
    /// picks a uniform point in the area, moves there at a uniformly drawn
    /// speed, pauses for a uniformly drawn time, and repeats. Replaces any
    /// movement in progress.
    ///
    /// # Panics
    ///
    /// Panics if the area, the speed range or the pause range is
    /// degenerate.
    pub fn set_random_waypoint(&mut self, node: NodeId, plan: RandomWaypoint) {
        assert!(plan.width_m > 0.0 && plan.height_m > 0.0, "area must be positive");
        assert!(
            plan.min_speed_mps > 0.0 && plan.min_speed_mps <= plan.max_speed_mps,
            "speed range must be positive and ordered"
        );
        assert!(plan.min_pause <= plan.max_pause, "pause range must be ordered");
        let (target, speed) = self.draw_waypoint(&plan);
        let fresh = self.movements.insert(
            node,
            Movement { target, speed_mps: speed, plan: MobilityPlan::Waypoint(plan) },
        );
        if fresh.is_none() {
            self.events.push(self.now + MOBILITY_TICK, Event::MobilityTick { node });
        }
    }

    /// Puts `node` on a scripted waypoint tour: it visits each leg's target
    /// at the leg's speed, pausing for the leg's pause after arriving, and
    /// stops after the last leg. Replaces any movement in progress. Unlike
    /// [`Simulator::set_random_waypoint`] this consumes no randomness, so a
    /// script replays identically regardless of what else the run does.
    ///
    /// # Panics
    ///
    /// Panics if `legs` is empty or any leg's speed is not positive.
    pub fn set_waypoint_script(&mut self, node: NodeId, legs: Vec<WaypointLeg>) {
        for leg in &legs {
            assert!(leg.speed_mps > 0.0, "every leg speed must be positive");
        }
        let Some(first) = legs.first().copied() else {
            panic!("a waypoint script needs at least one leg");
        };
        let fresh = self.movements.insert(
            node,
            Movement {
                target: first.target,
                speed_mps: first.speed_mps,
                plan: MobilityPlan::Script { legs, next: 1 },
            },
        );
        if fresh.is_none() {
            self.events.push(self.now + MOBILITY_TICK, Event::MobilityTick { node });
        }
    }

    /// Stops any movement in progress for `node`.
    pub fn stop_node(&mut self, node: NodeId) {
        self.movements.remove(&node);
    }

    fn draw_waypoint(&mut self, plan: &RandomWaypoint) -> (phy::Position, f64) {
        let x = self.rng.unit_f64() * plan.width_m;
        let y = self.rng.unit_f64() * plan.height_m;
        let speed =
            plan.min_speed_mps + self.rng.unit_f64() * (plan.max_speed_mps - plan.min_speed_mps);
        (phy::Position::new(x, y), speed)
    }

    /// Draws a pause from the plan's range. A degenerate range consumes no
    /// randomness, so plans without pauses leave the RNG stream exactly as
    /// it was before pauses existed.
    fn draw_pause(&mut self, plan: &RandomWaypoint) -> sim_core::SimDuration {
        if plan.max_pause <= plan.min_pause {
            return plan.min_pause;
        }
        let span = (plan.max_pause - plan.min_pause).as_secs_f64();
        plan.min_pause + sim_core::SimDuration::from_secs_f64(self.rng.unit_f64() * span)
    }

    fn mobility_tick(&mut self, node: NodeId) {
        let Some(movement) = self.movements.get(&node).cloned() else { return };
        let here = self.channel.position(node);
        let distance = here.distance_to(movement.target);
        let step = movement.speed_mps * MOBILITY_TICK.as_secs_f64();
        if distance <= step {
            // Arrived: snap to the waypoint, then let the plan decide what
            // happens next (pauses delay the next tick rather than adding a
            // dedicated event class).
            self.apply_position(node, movement.target);
            match movement.plan {
                MobilityPlan::OneShot => {
                    self.movements.remove(&node);
                }
                MobilityPlan::Waypoint(plan) => {
                    let (target, speed) = self.draw_waypoint(&plan);
                    let pause = self.draw_pause(&plan);
                    self.movements.insert(
                        node,
                        Movement { target, speed_mps: speed, plan: MobilityPlan::Waypoint(plan) },
                    );
                    self.events
                        .push(self.now + pause + MOBILITY_TICK, Event::MobilityTick { node });
                }
                MobilityPlan::Script { legs, next } => {
                    // The pause belongs to the leg that just finished: the
                    // one before `next`.
                    let pause = legs[next - 1].pause;
                    if next < legs.len() {
                        let leg = legs[next];
                        self.movements.insert(
                            node,
                            Movement {
                                target: leg.target,
                                speed_mps: leg.speed_mps,
                                plan: MobilityPlan::Script { legs, next: next + 1 },
                            },
                        );
                        self.events
                            .push(self.now + pause + MOBILITY_TICK, Event::MobilityTick { node });
                    } else {
                        self.movements.remove(&node);
                    }
                }
            }
        } else {
            let frac = step / distance;
            let next = phy::Position::new(
                here.x + (movement.target.x - here.x) * frac,
                here.y + (movement.target.y - here.y) * frac,
            );
            self.apply_position(node, next);
            self.events.push(self.now + MOBILITY_TICK, Event::MobilityTick { node });
        }
    }

    /// A node's current position.
    pub fn position(&self, node: NodeId) -> phy::Position {
        self.channel.position(node)
    }

    /// Diagnostic view of a node's DRAI inputs:
    /// `(smoothed queue, smoothed utilisation, smoothed retry ratio, DRAI)`.
    pub fn router_diag(&self, node: NodeId) -> (f64, f64, f64, wire::Drai) {
        let d = self.nodes[node.index()].router.drai();
        (d.smoothed_queue(), d.smoothed_utilisation(), d.smoothed_retry_ratio(), d.current())
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn medium(&self, node: NodeId) -> MediumView {
        MediumView { busy: self.nodes[node.index()].phy.carrier_busy(self.now) }
    }

    fn dispatch(&mut self, event: Event) {
        let Some(event) = self.gate_event(event) else { return };
        match event {
            Event::RxStart { node, tx_id, end, decodable, power } => {
                let now = self.now;
                let n = &mut self.nodes[node.index()];
                n.phy.on_rx_start(tx_id, now, end, decodable, power);
                n.busy.note(now, end);
                n.mac.on_medium_busy(now);
            }
            Event::RxEnd { node, tx_id, frame, in_rx_range } => {
                let now = self.now;
                let outcome = self.nodes[node.index()].phy.on_rx_end(tx_id, now);
                if self.observing() {
                    let uid = frame.packet().map(|p| p.uid);
                    match outcome {
                        RxOutcome::Decoded => self.observe(TraceRecord::PhyRx {
                            node,
                            from: frame.src,
                            frame: frame.kind(),
                            bytes: frame.size_bytes(),
                            uid,
                        }),
                        RxOutcome::CollisionLost => self.observe(TraceRecord::PhyCollision {
                            node,
                            from: frame.src,
                            frame: frame.kind(),
                            uid,
                        }),
                        // In-range but undecodable means the channel error
                        // model corrupted it; out-of-range carrier sense is
                        // not a loss and stays untraced.
                        RxOutcome::NotDecodable if in_rx_range => {
                            self.observe(TraceRecord::PhyLoss {
                                node,
                                from: frame.src,
                                frame: frame.kind(),
                                uid,
                            });
                        }
                        RxOutcome::NotDecodable => {}
                    }
                }
                let medium = self.medium(node);
                let mut outputs = Vec::new();
                {
                    let n = &mut self.nodes[node.index()];
                    match outcome {
                        RxOutcome::Decoded => {
                            outputs.extend(n.mac.on_frame_decoded(frame, now, medium));
                        }
                        RxOutcome::CollisionLost => n.mac.on_rx_corrupted(now),
                        RxOutcome::NotDecodable => {
                            // Any sensed-but-undecodable signal (carrier-
                            // sense-only neighbours, random loss) triggers
                            // the EIFS rule, exactly as in ns-2 — this is
                            // what protects the CTS/ACK response windows of
                            // exchanges two hops away.
                            let _ = in_rx_range;
                            n.mac.on_rx_corrupted(now);
                        }
                    }
                    outputs.extend(n.mac.on_medium_maybe_idle(now, medium));
                }
                self.process_mac_outputs(node, outputs);
            }
            Event::TxDone { node } => {
                let now = self.now;
                let medium = self.medium(node);
                let outputs = self.nodes[node.index()].mac.on_tx_done(now, medium);
                self.process_mac_outputs(node, outputs);
            }
            Event::MacTimer { node, id } => {
                // Lazy cancellation: a tombstoned timer's queued event still
                // pops, but is discarded here instead of entering the MAC.
                if !self.nodes[node.index()].mac.timer_is_live(id) {
                    self.perf.timers_stale_popped += 1;
                    return;
                }
                let now = self.now;
                let medium = self.medium(node);
                let outputs = self.nodes[node.index()].mac.on_timer(id, now, medium);
                self.process_mac_outputs(node, outputs);
            }
            Event::AodvTimer { node, id } => {
                if !self.nodes[node.index()].aodv.timer_is_live(id) {
                    self.perf.timers_stale_popped += 1;
                    return;
                }
                let now = self.now;
                let outputs = self.nodes[node.index()].aodv.on_timer(id, now);
                self.process_aodv_outputs(node, outputs);
            }
            Event::TcpTimer { node, flow, id } => {
                let now = self.now;
                let spec = self.flows[flow.index()];
                if spec.elfn
                    && spec.src == node
                    && !self.nodes[node.index()].aodv.has_route(spec.dst, now)
                {
                    // ELFN freeze: the route is down, so firing the
                    // retransmission timer would only compound the RTO
                    // backoff. Probe for a route and re-check shortly.
                    let outs = self.nodes[node.index()].aodv.ensure_route(spec.dst, now);
                    self.process_aodv_outputs(node, outs);
                    self.events.push(
                        now + sim_core::SimDuration::from_millis(100),
                        Event::TcpTimer { node, flow, id },
                    );
                    return;
                }
                // The staleness check must come after the ELFN freeze above:
                // a frozen timer is still the armed one and keeps re-probing.
                let stale = self.nodes[node.index()]
                    .senders
                    .get(&flow)
                    .is_some_and(|ep| !ep.transport.timer_is_live(id));
                if stale {
                    self.perf.timers_stale_popped += 1;
                }
                let outputs = match self.nodes[node.index()].senders.get_mut(&flow) {
                    Some(ep) if !stale => ep.transport.on_timer(id, now),
                    _ => Vec::new(),
                };
                // Even a discarded pop flows through here so the checker's
                // cwnd bookkeeping sees the same event stream as before.
                self.process_tcp_outputs(node, flow, outputs);
            }
            Event::JitteredEnqueue { node, packet, next_hop } => {
                self.enqueue_ifq(node, *packet, next_hop);
            }
            Event::MobilityTick { node } => self.mobility_tick(node),
            Event::DelAckTimer { node, flow, id } => {
                let stale = self.nodes[node.index()]
                    .receivers
                    .get(&flow)
                    .is_some_and(|ep| !ep.receiver.delack_is_live(id));
                if stale {
                    self.perf.timers_stale_popped += 1;
                    return;
                }
                let (ack, src) = {
                    let spec = self.flows[flow.index()];
                    let n = &mut self.nodes[node.index()];
                    match n.receivers.get_mut(&flow) {
                        Some(ep) => (ep.receiver.on_delack_timer(id), spec.src),
                        None => (None, spec.src),
                    }
                };
                if let Some(segment) = ack {
                    let uid = self.nodes[node.index()].uid.next();
                    if let TcpSegmentKind::Ack { ack, mrai, .. } = &segment.kind {
                        self.observe(TraceRecord::TcpAckTx {
                            node,
                            flow,
                            ack: *ack,
                            uid,
                            mrai: *mrai,
                        });
                    }
                    let packet = ack_packet(uid, node, src, segment);
                    self.route_local(node, packet);
                }
            }
            Event::FlowStart { flow } => {
                let now = self.now;
                let spec = self.flows[flow.index()];
                let outputs = self.nodes[spec.src.index()]
                    .senders
                    .get_mut(&flow)
                    .expect("flow sender missing")
                    .transport
                    .open(now);
                self.process_tcp_outputs(spec.src, flow, outputs);
            }
            Event::Sample => {
                let now = self.now;
                for n in &mut self.nodes {
                    let util = n.busy.sample(now);
                    n.router.drai_mut().observe_utilisation(util);
                    let len = n.ifq.len();
                    n.router.drai_mut().observe_queue(len, now);
                    // Retry ratio over this window: failed handshakes per
                    // transmission attempt.
                    let cur = n.mac.stats();
                    let prev = n.last_mac_stats;
                    let attempts = (cur.rts_sent + cur.data_sent)
                        .saturating_sub(prev.rts_sent + prev.data_sent);
                    let failures = (cur.cts_timeouts + cur.ack_timeouts)
                        .saturating_sub(prev.cts_timeouts + prev.ack_timeouts);
                    if attempts > 0 {
                        n.router.drai_mut().observe_retry_ratio(failures as f64 / attempts as f64);
                    }
                    n.last_mac_stats = cur;
                }
                self.events.push(now + self.cfg.sample_interval, Event::Sample);
            }
            Event::Fault { index } => self.apply_fault(index),
        }
    }

    // ------------------------------------------------------------------
    // Output processing
    // ------------------------------------------------------------------

    fn process_mac_outputs(&mut self, node: NodeId, outputs: impl IntoIterator<Item = MacOutput>) {
        for output in outputs {
            match output {
                MacOutput::Transmit { frame, airtime } => self.transmit(node, frame, airtime),
                MacOutput::SetTimer { id, at } => {
                    self.events.push(at, Event::MacTimer { node, id });
                }
                MacOutput::Deliver { packet, from } => {
                    let now = self.now;
                    if self.observing() {
                        self.observe(TraceRecord::RtrRecv {
                            node,
                            kind: PacketKind::of(&packet),
                            uid: packet.uid,
                            flow: packet.tcp().map(|s| s.flow),
                            bytes: packet.size_bytes(),
                        });
                    }
                    let outs = self.nodes[node.index()].aodv.on_packet_received(packet, from, now);
                    self.process_aodv_outputs(node, outs);
                }
                MacOutput::TxSuccess { .. } => {
                    // Forwarding succeeded; nothing further to do (stats are
                    // tracked inside the MAC).
                }
                MacOutput::TxFailed { packet, next_hop } => {
                    let now = self.now;
                    self.observe(TraceRecord::MacRetryDrop { node, next_hop, uid: packet.uid });
                    let outs = self.nodes[node.index()].aodv.on_link_failure(packet, next_hop, now);
                    self.process_aodv_outputs(node, outs);
                }
                MacOutput::Backoff { slots, cw } => {
                    self.observe(TraceRecord::MacBackoff { node, slots, cw });
                }
                MacOutput::ReadyForNext => self.try_feed_mac(node),
            }
        }
    }

    fn process_aodv_outputs(
        &mut self,
        node: NodeId,
        outputs: impl IntoIterator<Item = AodvOutput>,
    ) {
        for output in outputs {
            match output {
                AodvOutput::Forward { packet, next_hop } => {
                    if self.observing() {
                        let kind = PacketKind::of(&packet);
                        let route_valid_until = if kind == PacketKind::TcpData
                            && !next_hop.is_broadcast()
                        {
                            self.nodes[node.index()].aodv.route_valid_until(packet.dst, self.now)
                        } else {
                            None
                        };
                        self.observe(TraceRecord::RtrForward {
                            node,
                            next_hop,
                            kind,
                            uid: packet.uid,
                            flow: packet.tcp().map(|s| s.flow),
                            bytes: packet.size_bytes(),
                            ttl: packet.ttl,
                            origin: packet.src == node,
                            route_valid_until,
                        });
                    }
                    if next_hop.is_broadcast() {
                        // ns-2's AODV jitters every flood (re)broadcast by
                        // up to 10 ms; without it all neighbours of a
                        // broadcaster fire after exactly DIFS and collide
                        // deterministically.
                        let jitter =
                            sim_core::SimDuration::from_micros(u64::from(self.rng.below(10_000)));
                        self.events.push(
                            self.now + jitter,
                            Event::JitteredEnqueue { node, packet: Box::new(packet), next_hop },
                        );
                    } else {
                        self.enqueue_ifq(node, packet, next_hop);
                    }
                }
                AodvOutput::DeliverLocal(packet) => self.deliver_transport(node, packet),
                AodvOutput::SetTimer { id, at } => {
                    self.events.push(at, Event::AodvTimer { node, id });
                }
                AodvOutput::Dropped { packet, .. } => {
                    self.nodes[node.index()].routing_drops += 1;
                    self.observe(TraceRecord::RtrDrop {
                        node,
                        kind: PacketKind::of(&packet),
                        uid: packet.uid,
                        flow: packet.tcp().map(|s| s.flow),
                    });
                }
                AodvOutput::RouteChange { dst, next_hop, hop_count, valid } => {
                    self.observe(TraceRecord::RtrRouteChange {
                        node,
                        dst,
                        next_hop,
                        hops: u32::from(hop_count),
                        valid,
                    });
                }
            }
        }
    }

    fn process_tcp_outputs(&mut self, node: NodeId, flow: FlowId, outputs: Vec<TcpOutput>) {
        for output in outputs {
            match output {
                TcpOutput::SendSegment(segment) => {
                    let (dst, uid) = {
                        let n = &mut self.nodes[node.index()];
                        let dst = n.senders.get(&flow).map(|ep| ep.dst).expect("unknown flow");
                        (dst, n.uid.next())
                    };
                    if self.observing() {
                        let record = match &segment.kind {
                            TcpSegmentKind::Data { seq, retransmit, .. } => TraceRecord::TcpSend {
                                node,
                                flow,
                                seq: *seq,
                                uid,
                                bytes: segment.size_bytes(),
                                retransmit: *retransmit,
                            },
                            TcpSegmentKind::Ack { ack, mrai, .. } => {
                                TraceRecord::TcpAckTx { node, flow, ack: *ack, uid, mrai: *mrai }
                            }
                        };
                        self.observe(record);
                    }
                    let packet = Packet::new(uid, node, dst, Payload::Tcp(segment));
                    self.route_local(node, packet);
                }
                TcpOutput::SetTimer { id, at } => {
                    self.events.push(at, Event::TcpTimer { node, flow, id });
                }
            }
        }
        self.audit_cwnd(node, flow);
    }

    /// The end-of-call congestion audit. It observes the samples the sender
    /// appended to its cwnd trace during the last transport call, one
    /// [`TraceRecord::TcpCwnd`] per sample at the sample's own virtual
    /// time, so the log mirrors the trace exactly. It then hands the
    /// checker alone one more `TcpCwnd` carrying the sender's current
    /// state: logging that one would add a line per transport call. The
    /// companion state (ssthresh, srtt, rto, phase) is the sender's current
    /// value — exact for the common case of one sample per call.
    fn audit_cwnd(&mut self, node: NodeId, flow: FlowId) {
        if !self.observing() {
            return;
        }
        let now = self.now;
        let Some(ep) = self.nodes[node.index()].senders.get_mut(&flow) else { return };
        let sender = &ep.transport;
        let (ssthresh, srtt, rto, phase) =
            (sender.ssthresh(), sender.srtt(), sender.rto(), sender.phase());
        let state = |cwnd| TraceRecord::TcpCwnd { node, flow, cwnd, ssthresh, srtt, rto, phase };
        let samples = sender.cwnd_trace().samples();
        for &(at, cwnd) in samples.get(ep.traced_cwnd..).unwrap_or_default() {
            self.observers.observe_at(at, state(cwnd));
        }
        ep.traced_cwnd = ep.traced_cwnd.max(samples.len());
        self.observers.check(now, &state(sender.cwnd()));
    }

    /// Routes a locally-originated packet through AODV.
    fn route_local(&mut self, node: NodeId, packet: Packet) {
        let now = self.now;
        let outs = self.nodes[node.index()].aodv.route_packet(packet, now);
        self.process_aodv_outputs(node, outs);
    }

    /// Enqueues a packet on the node's IFQ, applying the Muzha router agent
    /// (DRAI fold + congestion marking) on the way in.
    fn enqueue_ifq(&mut self, node: NodeId, mut packet: Packet, next_hop: NodeId) {
        let now = self.now;
        if self.blackholes.contains(&node) {
            // A scripted blackhole eats the packet with no feedback at all;
            // the checker accounts it as a fault drop, not congestion.
            self.observe(TraceRecord::FaultDrop { node, uid: packet.uid });
            return;
        }
        if let Some(cap) = self.saturated.get(&node).copied() {
            if self.nodes[node.index()].ifq.len() >= cap {
                let uid = packet.uid;
                let flow = packet.tcp().map(|s| s.flow);
                self.nodes[node.index()].router.drai_mut().note_congestion_drop(now);
                self.observe(TraceRecord::IfqDrop { node, uid, flow, early: false });
                self.try_feed_mac(node);
                return;
            }
        }
        let (outcome, uid, flow, avbw, marked, depth) = {
            let rng = &mut self.rng;
            let n = &mut self.nodes[node.index()];
            n.router.process_packet(&mut packet, now);
            let priority = packet.is_control();
            let uid = packet.uid;
            let flow = packet.tcp().map(|s| s.flow);
            let avbw = packet.tcp().and_then(|s| s.avbw());
            let marked = packet.tcp().is_some_and(|s| s.congestion_marked());
            let outcome = n.ifq.push(packet, next_hop, priority, now, rng);
            if matches!(outcome, IfqPush::Dropped { .. }) {
                // Congestion drop: future packets get marked (paper §4.7).
                n.router.drai_mut().note_congestion_drop(now);
            }
            let len = n.ifq.len();
            n.router.drai_mut().observe_queue(len, now);
            (outcome, uid, flow, avbw, marked, len)
        };
        self.perf.peak_ifq_depth = self.perf.peak_ifq_depth.max(depth);
        match outcome {
            IfqPush::Stored { marked: red_marked } => {
                if self.observing() {
                    self.observe(TraceRecord::IfqEnqueue {
                        node,
                        uid,
                        flow,
                        depth: depth as u32,
                        avbw,
                        marked: marked || red_marked,
                    });
                    if red_marked {
                        self.observe(TraceRecord::IfqMark { node, uid, flow });
                    }
                }
            }
            IfqPush::Dropped { packet: shed, early } => {
                // The shed packet can differ from the arrival (priority
                // eviction), so trace its own identity.
                let uid = shed.uid;
                let flow = shed.tcp().map(|s| s.flow);
                self.observe(TraceRecord::IfqDrop { node, uid, flow, early });
            }
        }
        self.try_feed_mac(node);
    }

    /// Moves the head-of-line packet into an idle MAC.
    fn try_feed_mac(&mut self, node: NodeId) {
        let now = self.now;
        let medium = self.medium(node);
        let outputs = {
            let n = &mut self.nodes[node.index()];
            if !n.mac.is_idle() {
                return;
            }
            let Some((packet, next_hop)) = n.ifq.pop(now) else { return };
            let len = n.ifq.len();
            n.router.drai_mut().observe_queue(len, now);
            n.mac.start_packet(packet, next_hop, now, medium)
        };
        self.process_mac_outputs(node, outputs);
    }

    /// Puts a frame on the air: marks the PHY, schedules receptions at
    /// every node in carrier-sense range, and the sender's TxDone.
    fn transmit(&mut self, sender: NodeId, frame: MacFrame, airtime: sim_core::SimDuration) {
        let now = self.now;
        if self.observing() {
            let mac = &self.nodes[sender.index()].mac;
            self.observe(TraceRecord::PhyTx {
                node: sender,
                dst: frame.dst,
                frame: frame.kind(),
                bytes: frame.size_bytes(),
                uid: frame.packet().map(|p| p.uid),
                airtime,
                cw: mac.current_cw(),
                nav_ahead: mac.nav_ahead(now),
            });
        }
        let end = now + airtime;
        self.nodes[sender.index()].phy.begin_transmit(now, end);
        self.nodes[sender.index()].busy.note(now, end);
        let tx_id = TxId(self.next_tx_id);
        self.next_tx_id += 1;
        let loss_p = self.cfg.radio.per_frame_loss;
        // Collect receivers first (channel borrows self.channel only).
        let neighbours: Vec<NodeId> = self.channel.cs_neighbors(sender).to_vec();
        // All arrivals go into the queue as one batch: the same seqs and pop
        // order as 2×N single pushes, at one heap entry per transmission.
        let mut arrivals = Vec::with_capacity(2 * neighbours.len());
        for nb in neighbours {
            let distance = self.channel.distance(sender, nb);
            let prop = phy::RadioParams::propagation_delay(distance);
            let in_rx_range = self.channel.in_rx_range(sender, nb);
            // Random channel loss applies to data frames only.
            let corrupted =
                in_rx_range && frame.kind() == FrameKind::Data && self.frame_lost(nb, loss_p);
            let decodable = in_rx_range && !corrupted;
            let power = self.cfg.radio.rx_power(distance);
            let rx_start = now + prop;
            let rx_end = rx_start + airtime;
            arrivals.push((
                rx_start,
                Event::RxStart { node: nb, tx_id, end: rx_end, decodable, power },
            ));
            arrivals.push((
                rx_end,
                Event::RxEnd { node: nb, tx_id, frame: frame.clone(), in_rx_range },
            ));
        }
        self.events.push_batch(arrivals);
        self.events.push(end, Event::TxDone { node: sender });
    }

    /// Whether the channel corrupts a data frame heading to `nb`: the
    /// scripted Gilbert–Elliott episode when one is active, otherwise the
    /// configured flat Bernoulli loss. The flat path draws from the RNG
    /// exactly as it did before fault injection existed, so fault-free
    /// runs stay bit-identical with older seeds.
    fn frame_lost(&mut self, nb: NodeId, loss_p: f64) -> bool {
        match self.ge_episode {
            Some(ge) => self.ge_states[nb.index()].frame_lost(&ge, &mut self.rng),
            None => loss_p > 0.0 && self.rng.chance(loss_p),
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("flows", &self.flows.len())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

/// Builds an ACK packet travelling from the receiver back to the sender.
fn ack_packet(uid: u64, from: NodeId, to: NodeId, segment: TcpSegment) -> Packet {
    Packet::new(uid, from, to, Payload::Tcp(segment))
}

impl Simulator {
    /// Hands a packet that reached its final destination to the transport
    /// layer (data → receiver → ACK back; ACK → sender).
    fn deliver_transport(&mut self, node: NodeId, packet: Packet) {
        let now = self.now;
        let uid = packet.uid;
        let Some(segment) = packet.tcp() else { return };
        let flow = segment.flow;
        if let TcpSegmentKind::Data { seq, avbw, marked, .. } = segment.kind {
            let delayed = self.flows[flow.index()].delayed_ack;
            let (ack_segment, timer, rcv_nxt_after) = {
                let n = &mut self.nodes[node.index()];
                let Some(ep) = n.receivers.get_mut(&flow) else { return };
                if delayed {
                    let out = ep.receiver.on_data_segment_delack(segment, now);
                    (out.ack, out.set_timer, ep.receiver.rcv_nxt())
                } else {
                    let ack = ep.receiver.on_data_segment(segment, now);
                    let nxt = ep.receiver.rcv_nxt();
                    (Some(ack), None, nxt)
                }
            };
            // Recorded after the receiver absorbed the segment, so it can
            // carry `rcv_nxt_after`; nothing is observed in between.
            self.observe(TraceRecord::TcpRecvData {
                node,
                flow,
                seq,
                uid,
                avbw,
                marked,
                rcv_nxt_after,
            });
            if let Some((id, at)) = timer {
                self.events.push(at, Event::DelAckTimer { node, flow, id });
            }
            if let Some(segment) = ack_segment {
                let uid = self.nodes[node.index()].uid.next();
                if let TcpSegmentKind::Ack { ack, mrai, .. } = &segment.kind {
                    self.observe(TraceRecord::TcpAckTx { node, flow, ack: *ack, uid, mrai: *mrai });
                }
                let ack = ack_packet(uid, node, packet.src, segment);
                self.route_local(node, ack);
            }
        } else if let TcpSegmentKind::Ack { ack, mrai, .. } = segment.kind {
            self.observe(TraceRecord::TcpRecvAck { node, flow, ack, uid, mrai });
            let outputs = {
                let n = &mut self.nodes[node.index()];
                match n.senders.get_mut(&flow) {
                    Some(ep) => ep.transport.on_ack_segment(segment, now),
                    None => Vec::new(),
                }
            };
            self.process_tcp_outputs(node, flow, outputs);
        }
    }
}

// ----------------------------------------------------------------------
// Snapshot / restore (DESIGN.md §11)
// ----------------------------------------------------------------------

impl sim_core::Snapshotable for Event {
    fn encode(&self, w: &mut sim_core::SnapshotWriter) {
        // Tags match the `fold_event` numbering so the format and the trace
        // digest stay aligned when a variant is added.
        match self {
            Event::RxStart { node, tx_id, end, decodable, power } => {
                w.put_u8(1);
                w.put(node);
                w.put(tx_id);
                w.put(end);
                w.put_bool(*decodable);
                w.put_f64(*power);
            }
            Event::RxEnd { node, tx_id, frame, in_rx_range } => {
                w.put_u8(2);
                w.put(node);
                w.put(tx_id);
                w.put(frame);
                w.put_bool(*in_rx_range);
            }
            Event::TxDone { node } => {
                w.put_u8(3);
                w.put(node);
            }
            Event::MacTimer { node, id } => {
                w.put_u8(4);
                w.put(node);
                w.put(id);
            }
            Event::AodvTimer { node, id } => {
                w.put_u8(5);
                w.put(node);
                w.put(id);
            }
            Event::TcpTimer { node, flow, id } => {
                w.put_u8(6);
                w.put(node);
                w.put(flow);
                w.put(id);
            }
            Event::FlowStart { flow } => {
                w.put_u8(7);
                w.put(flow);
            }
            Event::JitteredEnqueue { node, packet, next_hop } => {
                w.put_u8(8);
                w.put(node);
                w.put(&**packet);
                w.put(next_hop);
            }
            Event::MobilityTick { node } => {
                w.put_u8(9);
                w.put(node);
            }
            Event::DelAckTimer { node, flow, id } => {
                w.put_u8(10);
                w.put(node);
                w.put(flow);
                w.put(id);
            }
            Event::Sample => w.put_u8(11),
            Event::Fault { index } => {
                w.put_u8(12);
                w.put_usize(*index);
            }
        }
    }

    fn decode(r: &mut sim_core::SnapshotReader<'_>) -> Result<Self, sim_core::SnapError> {
        Ok(match r.take_u8()? {
            1 => Event::RxStart {
                node: r.get()?,
                tx_id: r.get()?,
                end: r.get()?,
                decodable: r.take_bool()?,
                power: r.take_f64()?,
            },
            2 => Event::RxEnd {
                node: r.get()?,
                tx_id: r.get()?,
                frame: r.get()?,
                in_rx_range: r.take_bool()?,
            },
            3 => Event::TxDone { node: r.get()? },
            4 => Event::MacTimer { node: r.get()?, id: r.get()? },
            5 => Event::AodvTimer { node: r.get()?, id: r.get()? },
            6 => Event::TcpTimer { node: r.get()?, flow: r.get()?, id: r.get()? },
            7 => Event::FlowStart { flow: r.get()? },
            8 => Event::JitteredEnqueue {
                node: r.get()?,
                packet: Box::new(r.get()?),
                next_hop: r.get()?,
            },
            9 => Event::MobilityTick { node: r.get()? },
            10 => Event::DelAckTimer { node: r.get()?, flow: r.get()?, id: r.get()? },
            11 => Event::Sample,
            12 => Event::Fault { index: r.take_usize()? },
            _ => return Err(sim_core::SnapError::Invalid("event tag")),
        })
    }
}

impl sim_core::Snapshotable for NodeStatus {
    fn encode(&self, w: &mut sim_core::SnapshotWriter) {
        w.put_u8(match self {
            NodeStatus::Up => 0,
            NodeStatus::Paused => 1,
            NodeStatus::Killed => 2,
        });
    }

    fn decode(r: &mut sim_core::SnapshotReader<'_>) -> Result<Self, sim_core::SnapError> {
        match r.take_u8()? {
            0 => Ok(NodeStatus::Up),
            1 => Ok(NodeStatus::Paused),
            2 => Ok(NodeStatus::Killed),
            _ => Err(sim_core::SnapError::Invalid("node status tag")),
        }
    }
}

impl sim_core::Snapshotable for RandomWaypoint {
    fn encode(&self, w: &mut sim_core::SnapshotWriter) {
        w.put_f64(self.width_m);
        w.put_f64(self.height_m);
        w.put_f64(self.min_speed_mps);
        w.put_f64(self.max_speed_mps);
        w.put(&self.min_pause);
        w.put(&self.max_pause);
    }

    fn decode(r: &mut sim_core::SnapshotReader<'_>) -> Result<Self, sim_core::SnapError> {
        let plan = RandomWaypoint {
            width_m: r.take_f64()?,
            height_m: r.take_f64()?,
            min_speed_mps: r.take_f64()?,
            max_speed_mps: r.take_f64()?,
            min_pause: r.get()?,
            max_pause: r.get()?,
        };
        let ok = plan.width_m > 0.0
            && plan.height_m > 0.0
            && plan.min_speed_mps > 0.0
            && plan.min_speed_mps <= plan.max_speed_mps
            && plan.min_pause <= plan.max_pause;
        if !ok {
            return Err(sim_core::SnapError::Invalid("random waypoint plan"));
        }
        Ok(plan)
    }
}

impl sim_core::Snapshotable for MobilityPlan {
    fn encode(&self, w: &mut sim_core::SnapshotWriter) {
        match self {
            MobilityPlan::OneShot => w.put_u8(0),
            MobilityPlan::Waypoint(plan) => {
                w.put_u8(1);
                w.put(plan);
            }
            MobilityPlan::Script { legs, next } => {
                w.put_u8(2);
                w.put_usize(legs.len());
                for leg in legs {
                    w.put(leg);
                }
                w.put_usize(*next);
            }
        }
    }

    fn decode(r: &mut sim_core::SnapshotReader<'_>) -> Result<Self, sim_core::SnapError> {
        match r.take_u8()? {
            0 => Ok(MobilityPlan::OneShot),
            1 => Ok(MobilityPlan::Waypoint(r.get()?)),
            2 => {
                let count = r.take_usize()?;
                if count == 0 {
                    return Err(sim_core::SnapError::Invalid("empty waypoint script"));
                }
                let mut legs = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    legs.push(r.get::<WaypointLeg>()?);
                }
                let next = r.take_usize()?;
                // A live script is always travelling toward `legs[next-1]`,
                // so the resume index sits in 1..=len.
                if next == 0 || next > legs.len() {
                    return Err(sim_core::SnapError::Invalid("waypoint script index"));
                }
                Ok(MobilityPlan::Script { legs, next })
            }
            _ => Err(sim_core::SnapError::Invalid("mobility plan tag")),
        }
    }
}

impl sim_core::Snapshotable for Movement {
    fn encode(&self, w: &mut sim_core::SnapshotWriter) {
        w.put(&self.target);
        w.put_f64(self.speed_mps);
        w.put(&self.plan);
    }

    fn decode(r: &mut sim_core::SnapshotReader<'_>) -> Result<Self, sim_core::SnapError> {
        let m = Movement { target: r.get()?, speed_mps: r.take_f64()?, plan: r.get()? };
        if m.speed_mps.is_nan() || m.speed_mps <= 0.0 {
            return Err(sim_core::SnapError::Invalid("movement speed"));
        }
        Ok(m)
    }
}

impl Node {
    fn encode_state(&self, w: &mut sim_core::SnapshotWriter) {
        w.put(&self.phy);
        w.put(&self.last_mac_stats);
        self.mac.encode_state(w);
        self.aodv.encode_state(w);
        match &self.ifq {
            Ifq::DropTail(q) => {
                w.put_u8(0);
                w.put(q);
            }
            Ifq::Red(q) => {
                w.put_u8(1);
                w.put(q);
            }
        }
        self.router.encode_state(w);
        w.put(&self.uid);
        w.put(&self.busy);
        w.put_usize(self.senders.len());
        for (flow, ep) in self.senders.iter() {
            w.put(flow);
            w.put(&ep.dst);
            w.put_usize(ep.traced_cwnd);
            ep.transport.encode_state(w);
        }
        w.put_usize(self.receivers.len());
        for (flow, ep) in self.receivers.iter() {
            w.put(flow);
            ep.receiver.encode_state(w);
        }
        w.put_u64(self.routing_drops);
    }

    /// Decodes one node's state. `flows` is the already-decoded flow table:
    /// each serialized sender names its flow, whose spec determines which
    /// transport variant to rebuild before restoring its state into it.
    /// `index` is the node's own position, used to reject snapshots whose
    /// endpoints landed on the wrong node.
    fn decode_state(
        r: &mut sim_core::SnapshotReader<'_>,
        flows: &[FlowSpec],
        index: usize,
    ) -> Result<Node, sim_core::SnapError> {
        let phy = r.get()?;
        let last_mac_stats = r.get()?;
        let mac = Mac::decode_state(r)?;
        let aodv = Aodv::decode_state(r)?;
        let ifq = match r.take_u8()? {
            0 => Ifq::DropTail(r.get()?),
            1 => Ifq::Red(r.get()?),
            _ => return Err(sim_core::SnapError::Invalid("ifq discipline tag")),
        };
        let router = RouterAgent::decode_state(r)?;
        let uid = r.get()?;
        let busy = r.get()?;
        let mut senders = DetMap::new();
        for _ in 0..r.take_usize()? {
            let flow: FlowId = r.get()?;
            let dst: NodeId = r.get()?;
            let traced_cwnd = r.take_usize()?;
            let spec =
                flows.get(flow.index()).ok_or(sim_core::SnapError::Invalid("sender flow id"))?;
            if spec.src.index() != index || spec.dst != dst {
                return Err(sim_core::SnapError::Invalid("sender endpoint mismatch"));
            }
            let mut transport = make_transport(flow, spec);
            transport.restore_state(r)?;
            senders.insert(flow, SenderEndpoint { dst, transport, traced_cwnd });
        }
        let mut receivers = DetMap::new();
        for _ in 0..r.take_usize()? {
            let flow: FlowId = r.get()?;
            let spec =
                flows.get(flow.index()).ok_or(sim_core::SnapError::Invalid("receiver flow id"))?;
            if spec.dst.index() != index {
                return Err(sim_core::SnapError::Invalid("receiver endpoint mismatch"));
            }
            receivers.insert(flow, ReceiverEndpoint { receiver: TcpReceiver::decode_state(r)? });
        }
        let routing_drops = r.take_u64()?;
        Ok(Node {
            phy,
            last_mac_stats,
            mac,
            aodv,
            ifq,
            router,
            uid,
            busy,
            senders,
            receivers,
            routing_drops,
        })
    }
}

impl Simulator {
    /// Fingerprint of the run's immutable configuration: the `Debug`
    /// rendering of [`SimConfig`] plus the node count, folded through the
    /// trace hash. Snapshots embed it because the configuration itself is
    /// *not* serialized — [`Self::restore`] targets a simulator rebuilt with
    /// the same config, and refuses bytes taken under a different one.
    fn cfg_fingerprint(&self) -> u64 {
        let mut h = TraceHash::new();
        h.write_str(&format!("{:?}", self.cfg)).write_u64(self.nodes.len() as u64);
        h.digest()
    }

    /// Serializes the complete mutable simulation state — event queue, RNG,
    /// trace-hash accumulator, every layer of every node, flow transports,
    /// mobility, fault state and work counters — into the versioned snapshot
    /// format. Observers (trace log, checker, tie-order hook) are
    /// not part of the simulation state and are not captured.
    ///
    /// A restore of these bytes into a freshly built simulator with the same
    /// topology, config and flow set continues the run bit-identically: same
    /// trace hash, same perf counters, same trace records.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = sim_core::SnapshotWriter::with_header();
        w.put_u64(self.cfg_fingerprint());
        w.put(&self.now);
        w.put_u64(self.next_tx_id);
        w.put(&self.rng);
        w.put(&self.trace_hash);
        w.put(&self.flows);
        w.put(&self.events);
        w.put(&self.channel);
        w.put_usize(self.nodes.len());
        for node in &self.nodes {
            node.encode_state(&mut w);
        }
        w.put(&self.movements);
        w.put(&self.scripted_faults);
        w.put(&self.node_status);
        w.put(&self.deferred);
        w.put(&self.ge_episode);
        w.put(&self.ge_states);
        w.put(&self.blackholes);
        w.put(&self.saturated);
        w.put(&self.scripted_down);
        w.put(&self.perf);
        w.finish()
    }

    /// Restores state captured by [`Self::snapshot`] into this simulator.
    ///
    /// The simulator must have been built with the same [`SimConfig`] and
    /// node count as the one that produced the bytes (checked via the
    /// embedded fingerprint). Everything mutable is overwritten; installed
    /// observers (trace log, checker, tie-order hook) are left as
    /// they are. All decoding completes before any state is touched, so a
    /// failed restore leaves the simulator unchanged.
    ///
    /// # Errors
    ///
    /// Any [`sim_core::SnapError`]: truncated or trailing bytes, a foreign
    /// or version-bumped header, out-of-domain fields, or a configuration
    /// fingerprint mismatch.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), sim_core::SnapError> {
        let mut r = sim_core::SnapshotReader::with_header(bytes)?;
        let fingerprint = r.take_u64()?;
        let own = self.cfg_fingerprint();
        if fingerprint != own {
            return Err(sim_core::SnapError::Mismatch(format!(
                "snapshot config fingerprint {fingerprint:#018x} != simulator's {own:#018x}"
            )));
        }
        let now: SimTime = r.get()?;
        let next_tx_id = r.take_u64()?;
        let rng: SimRng = r.get()?;
        let trace_hash: TraceHash = r.get()?;
        let flows: Vec<FlowSpec> = r.get()?;
        let events: DriverQueue<Event> = r.get()?;
        let channel: Channel = r.get()?;
        let node_count = r.take_usize()?;
        if node_count != self.nodes.len() || channel.node_count() != node_count {
            return Err(sim_core::SnapError::Invalid("node count mismatch"));
        }
        for spec in &flows {
            if spec.src.index() >= node_count || spec.dst.index() >= node_count {
                return Err(sim_core::SnapError::Invalid("flow endpoint out of range"));
            }
        }
        let mut nodes = Vec::with_capacity(node_count);
        for i in 0..node_count {
            nodes.push(Node::decode_state(&mut r, &flows, i)?);
        }
        let movements: DetMap<NodeId, Movement> = r.get()?;
        let scripted_faults: Vec<TimedFault> = r.get()?;
        let node_status: Vec<NodeStatus> = r.get()?;
        let deferred: Vec<Vec<Event>> = r.get()?;
        let ge_episode: Option<GilbertElliott> = r.get()?;
        let ge_states: Vec<GeState> = r.get()?;
        if node_status.len() != node_count
            || deferred.len() != node_count
            || ge_states.len() != node_count
        {
            return Err(sim_core::SnapError::Invalid("per-node vector length"));
        }
        let blackholes: DetSet<NodeId> = r.get()?;
        let saturated: DetMap<NodeId, usize> = r.get()?;
        let scripted_down: DetSet<(NodeId, NodeId)> = r.get()?;
        let perf: RunPerf = r.get()?;
        r.finish()?;
        self.now = now;
        self.next_tx_id = next_tx_id;
        self.rng = rng;
        self.trace_hash = trace_hash;
        self.flows = flows;
        self.events = events;
        self.channel = channel;
        self.nodes = nodes;
        self.movements = movements;
        self.scripted_faults = scripted_faults;
        self.node_status = node_status;
        self.deferred = deferred;
        self.ge_episode = ge_episode;
        self.ge_states = ge_states;
        self.blackholes = blackholes;
        self.saturated = saturated;
        self.scripted_down = scripted_down;
        self.perf = perf;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn run_chain(hops: usize, variant: TcpVariant, duration: f64) -> (FlowReport, Simulator) {
        let mut sim = Simulator::new(topology::chain(hops), SimConfig::default());
        let (src, dst) = topology::chain_flow(hops);
        let flow = sim.add_flow(FlowSpec::new(src, dst, variant));
        sim.run_until(secs(duration));
        (sim.flow_report(flow), sim)
    }

    /// An installed tie-order hook with an empty decision vector must be a
    /// pure observer: same trace hash and delivery count as the plain run,
    /// while its choice log proves ties were actually seen and left at FIFO.
    #[test]
    fn empty_tie_order_is_behaviourally_inert() {
        let run = |hook: bool| {
            let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
            let (src, dst) = topology::chain_flow(4);
            let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
            if hook {
                sim.install_tie_order(TieOrder::default());
            }
            sim.run_until(secs(3.0));
            let choices = sim.take_tie_order().map(TieOrder::into_choices);
            (sim.trace_hash(), sim.flow_report(flow).delivered_segments, choices)
        };
        let (plain_hash, plain_delivered, _) = run(false);
        let (hook_hash, hook_delivered, choices) = run(true);
        assert_eq!(plain_hash, hook_hash, "recording tie choices must not perturb the run");
        assert_eq!(plain_delivered, hook_delivered);
        let choices = choices.expect("hook was installed");
        assert!(!choices.is_empty(), "a 4-hop chain run surely has same-instant ties");
        assert!(choices.iter().all(|c| c.chosen == 0), "empty vector must stay FIFO");
        assert!(choices.iter().all(|c| c.group.len() >= 2), "groups of one are not choices");
    }

    /// Prescribing a non-FIFO tie break on a conflicting tie changes the
    /// dispatched event stream — the hash moves, proving the decision
    /// vector actually steers the scheduler.
    #[test]
    fn tie_order_decisions_steer_the_run() {
        let run = |decisions: Vec<usize>| {
            let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
            let (src, dst) = topology::chain_flow(4);
            sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
            sim.install_tie_order(TieOrder::new(decisions));
            sim.run_until(secs(3.0));
            let order = sim.take_tie_order().expect("hook was installed");
            (sim.trace_hash(), order.into_choices())
        };
        let (fifo_hash, choices) = run(Vec::new());
        // Find the first tie group with a conflicting alternative and flip it.
        let target = choices
            .iter()
            .position(|c| c.group.len() >= 2)
            .expect("no tie groups in a 3 s chain run");
        let mut decisions = vec![0; target];
        decisions.push(1);
        let (flipped_hash, flipped_choices) = run(decisions.clone());
        assert_eq!(flipped_choices[target].chosen, 1, "prescription must be honoured");
        assert_ne!(fifo_hash, flipped_hash, "a permuted tie must change the event stream");
        // Replay determinism: the same vector reproduces the same run.
        let (replay_hash, _) = run(decisions);
        assert_eq!(flipped_hash, replay_hash, "same decision vector, same trace");
    }

    #[test]
    fn one_hop_newreno_delivers_data() {
        let (report, _sim) = run_chain(1, TcpVariant::NewReno, 3.0);
        assert!(
            report.delivered_segments > 100,
            "1-hop chain should move plenty of data, got {}",
            report.delivered_segments
        );
    }

    #[test]
    fn four_hop_chain_all_variants_make_progress() {
        for variant in TcpVariant::ALL {
            let (report, _sim) = run_chain(4, variant, 3.0);
            assert!(
                report.delivered_segments > 10,
                "{variant}: only {} segments over 4 hops",
                report.delivered_segments
            );
        }
    }

    #[test]
    fn throughput_decreases_with_hops() {
        let (short, _) = run_chain(2, TcpVariant::NewReno, 5.0);
        let (long, _) = run_chain(8, TcpVariant::NewReno, 5.0);
        assert!(
            short.delivered_bytes > long.delivered_bytes,
            "2-hop ({}) should beat 8-hop ({})",
            short.delivered_bytes,
            long.delivered_bytes
        );
    }

    #[test]
    fn timer_tombstones_are_counted() {
        let (_, sim) = run_chain(4, TcpVariant::NewReno, 3.0);
        let perf = sim.perf();
        // Every ACK re-arms the retransmission timer, tombstoning the old
        // one, and the MAC cancels response timers on every handshake.
        assert!(perf.timers_cancelled > 0, "expected lazy cancellations, got none");
        assert!(
            perf.timers_stale_popped <= perf.timers_cancelled,
            "stale pops ({}) cannot exceed cancellations ({})",
            perf.timers_stale_popped,
            perf.timers_cancelled
        );
        // Stale pops are classified before being discarded.
        assert_eq!(perf.classified_total(), perf.events_processed);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run_chain(4, TcpVariant::Muzha, 3.0);
        let (b, _) = run_chain(4, TcpVariant::Muzha, 3.0);
        assert_eq!(a.delivered_segments, b.delivered_segments);
        assert_eq!(a.sender.segments_sent, b.sender.segments_sent);
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let cfg = SimConfig { seed, ..SimConfig::default() };
            let mut sim = Simulator::new(topology::chain(4), cfg);
            let (src, dst) = topology::chain_flow(4);
            let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
            sim.run_until(secs(3.0));
            sim.flow_report(flow).sender.segments_sent
        };
        // Not guaranteed in general, but overwhelmingly likely; fixed seeds
        // keep this deterministic.
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn muzha_cwnd_trace_recorded() {
        let (report, _) = run_chain(4, TcpVariant::Muzha, 3.0);
        assert!(report.cwnd_trace.len() > 2, "cwnd should have moved");
        assert!(report.delivery_trace.len() > 2);
    }

    #[test]
    fn random_loss_still_delivers() {
        let radio = phy::RadioParams { per_frame_loss: 0.02, ..Default::default() };
        let cfg = SimConfig::default().with_radio(radio);
        let mut sim = Simulator::new(topology::chain(4), cfg);
        let (src, dst) = topology::chain_flow(4);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim.run_until(secs(5.0));
        let report = sim.flow_report(flow);
        assert!(report.delivered_segments > 10, "got {}", report.delivered_segments);
    }

    #[test]
    fn two_flows_on_cross_topology() {
        let mut sim = Simulator::new(topology::cross(4), SimConfig::default());
        let (hs, hd) = topology::cross_horizontal_flow(4);
        let (vs, vd) = topology::cross_vertical_flow(4);
        let f1 = sim.add_flow(FlowSpec::new(hs, hd, TcpVariant::NewReno));
        let f2 = sim.add_flow(FlowSpec::new(vs, vd, TcpVariant::Muzha));
        sim.run_until(secs(5.0));
        let r1 = sim.flow_report(f1);
        let r2 = sim.flow_report(f2);
        assert!(r1.delivered_segments > 5, "NewReno starved: {}", r1.delivered_segments);
        assert!(r2.delivered_segments > 5, "Muzha starved: {}", r2.delivered_segments);
    }

    #[test]
    fn delayed_flow_start() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let (src, dst) = topology::chain_flow(2);
        let flow =
            sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno).starting_at(secs(2.0)));
        sim.run_until(secs(1.5));
        assert_eq!(sim.flow_report(flow).delivered_segments, 0, "not started yet");
        sim.run_until(secs(4.0));
        assert!(sim.flow_report(flow).delivered_segments > 0);
    }

    #[test]
    fn node_summaries_available() {
        let (_, sim) = run_chain(4, TcpVariant::NewReno, 3.0);
        let summaries = sim.all_node_summaries();
        assert_eq!(summaries.len(), 5);
        let total_disc: u64 = summaries.iter().map(|s| s.discoveries).sum();
        assert!(total_disc >= 1, "at least the initial route discovery");
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_flow_rejected() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        sim.add_flow(FlowSpec::new(NodeId::new(0), NodeId::new(0), TcpVariant::Reno));
    }

    fn faulted_chain(
        hops: usize,
        script: &ScenarioScript,
        duration: f64,
    ) -> (FlowReport, InvariantChecker, u64) {
        let mut sim = Simulator::new(topology::chain(hops), SimConfig::default());
        let (src, dst) = topology::chain_flow(hops);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim.load_scenario(script);
        sim.install_checker(InvariantChecker::new());
        sim.run_until(secs(duration));
        let checker = sim.take_checker().unwrap();
        (sim.flow_report(flow), checker, sim.trace_hash())
    }

    #[test]
    fn scripted_link_break_twin_runs_bit_identical() {
        let script = ScenarioScript::new("break")
            .at(2.0, FaultEvent::LinkDown { a: NodeId::new(1), b: NodeId::new(2) })
            .at(4.0, FaultEvent::Heal);
        let (ra, ca, ha) = faulted_chain(4, &script, 8.0);
        let (rb, cb, hb) = faulted_chain(4, &script, 8.0);
        assert_eq!(ha, hb, "same seed + script must give identical trace hashes");
        assert_eq!(ra.delivered_segments, rb.delivered_segments);
        assert!(ca.is_clean(), "{:?}", ca.violations());
        assert!(cb.is_clean());
        assert!(ra.delivered_segments > 10, "flow should recover after heal");
    }

    #[test]
    fn kill_and_revive_relay_stalls_then_recovers() {
        let script = ScenarioScript::new("crash")
            .at(2.0, FaultEvent::Kill { node: NodeId::new(1) })
            .at(5.0, FaultEvent::Revive { node: NodeId::new(1) });
        let (report, checker, _) = faulted_chain(2, &script, 10.0);
        assert!(checker.is_clean(), "{:?}", checker.violations());
        assert!(report.delivered_segments > 10, "flow must resume after revive");
        // Everything injected is accounted for: delivered, dropped
        // somewhere, destroyed by the kill, or genuinely still in flight.
        let ledger = checker.ledger();
        assert_eq!(
            ledger.injected,
            ledger.delivered + ledger.dropped + ledger.fault_dropped + ledger.in_flight
        );
    }

    #[test]
    fn blackhole_window_shows_up_as_fault_drops() {
        let script = ScenarioScript::new("blackhole")
            .at(2.0, FaultEvent::Blackhole { node: NodeId::new(1) })
            .at(4.0, FaultEvent::BlackholeOff { node: NodeId::new(1) });
        let (report, checker, _) = faulted_chain(2, &script, 8.0);
        assert!(checker.is_clean(), "{:?}", checker.violations());
        assert!(checker.ledger().fault_dropped > 0, "blackhole ate nothing?");
        assert!(report.delivered_segments > 10, "flow must survive the window");
    }

    #[test]
    fn ge_episode_hurts_throughput_and_stays_deterministic() {
        let ge = GilbertElliott::new(0.05, 0.3, 0.0, 0.9).unwrap();
        let script = ScenarioScript::new("bursts")
            .at(1.0, FaultEvent::GeStart(ge))
            .at(4.0, FaultEvent::GeStop);
        let (bursty_a, ca, ha) = faulted_chain(4, &script, 5.0);
        let (bursty_b, _, hb) = faulted_chain(4, &script, 5.0);
        let (clean, _, _) = faulted_chain(4, &ScenarioScript::new("idle"), 5.0);
        assert_eq!(ha, hb);
        assert_eq!(bursty_a.delivered_segments, bursty_b.delivered_segments);
        assert!(ca.is_clean(), "{:?}", ca.violations());
        assert!(
            bursty_a.delivered_segments < clean.delivered_segments,
            "bursty loss ({}) should undercut the clean run ({})",
            bursty_a.delivered_segments,
            clean.delivered_segments
        );
        assert!(bursty_a.delivered_segments > 0, "some data must still get through");
    }

    #[test]
    fn saturate_clamps_the_queue() {
        let script = ScenarioScript::new("squeeze")
            .at(1.0, FaultEvent::Saturate { node: NodeId::new(1), capacity: 1 })
            .at(4.0, FaultEvent::SaturateOff { node: NodeId::new(1) });
        let (report, checker, _) = faulted_chain(2, &script, 8.0);
        assert!(checker.is_clean(), "{:?}", checker.violations());
        assert!(checker.ledger().dropped > 0, "a 1-slot queue must shed load");
        assert!(report.delivered_segments > 10);
    }

    #[test]
    fn pause_defers_and_resume_replays() {
        let script = ScenarioScript::new("freeze")
            .at(2.0, FaultEvent::Pause { node: NodeId::new(1) })
            .at(4.0, FaultEvent::Resume { node: NodeId::new(1) });
        let (report, checker, _) = faulted_chain(2, &script, 10.0);
        assert!(checker.is_clean(), "{:?}", checker.violations());
        assert!(report.delivered_segments > 10, "flow must resume after unfreeze");
    }

    #[test]
    fn fault_free_scenario_matches_plain_run_hash() {
        // Loading an empty scenario and a checker must not perturb the
        // event stream at all.
        let (plain, _) = run_chain(4, TcpVariant::Muzha, 3.0);
        let (instrumented, checker, _) = {
            let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
            let (src, dst) = topology::chain_flow(4);
            let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
            sim.install_checker(InvariantChecker::new());
            sim.run_until(secs(3.0));
            let checker = sim.take_checker().unwrap();
            (sim.flow_report(flow), checker, sim.trace_hash())
        };
        assert_eq!(plain.delivered_segments, instrumented.delivered_segments);
        assert_eq!(plain.sender.segments_sent, instrumented.sender.segments_sent);
        assert!(checker.is_clean(), "{:?}", checker.violations());
        assert!(checker.events_seen() > 100);
    }

    #[test]
    fn run_until_is_monotone() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        sim.run_until(secs(1.0));
        assert_eq!(sim.now(), secs(1.0));
        sim.run_until(secs(0.5)); // no-op, must not go backwards
        assert_eq!(sim.now(), secs(1.0));
    }

    #[test]
    fn advertised_window_caps_flight_everywhere() {
        let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
        let (src, dst) = topology::chain_flow(4);
        let f_small = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno).with_window(4));
        sim.run_until(secs(5.0));
        let small = sim.flow_report(f_small);
        // With window 4 the cwnd trace must never exceed... cwnd may exceed
        // awnd numerically for Reno, but flight is capped; at least verify
        // data flowed.
        assert!(small.delivered_segments > 10);
    }
}

#[cfg(test)]
mod tracelog_tests {
    use super::*;
    use crate::topology;
    use tracelog::{Layer, TraceFilter};

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn traced_chain(hops: usize, variant: TcpVariant, duration: f64) -> (TraceLog, u64) {
        let mut sim = Simulator::new(topology::chain(hops), SimConfig::default());
        let (src, dst) = topology::chain_flow(hops);
        let _ = sim.add_flow(FlowSpec::new(src, dst, variant));
        sim.install_trace_log(TraceLog::new());
        sim.run_until(secs(duration));
        let log = sim.take_trace_log().expect("log installed");
        (log, sim.trace_hash())
    }

    #[test]
    fn tracing_is_a_pure_observer() {
        // Same seed, with and without a log: identical event streams.
        let mut plain = Simulator::new(topology::chain(4), SimConfig::default());
        let (src, dst) = topology::chain_flow(4);
        let flow = plain.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        plain.run_until(secs(3.0));
        let (log, traced_hash) = traced_chain(4, TcpVariant::Muzha, 3.0);
        assert_eq!(plain.trace_hash(), traced_hash, "recording must not perturb the run");
        assert!(log.len() > 100, "a 3 s run must produce plenty of records");
        assert!(plain.flow_report(flow).delivered_segments > 0);
    }

    #[test]
    fn twin_runs_produce_identical_record_streams() {
        let (a, ha) = traced_chain(4, TcpVariant::NewReno, 3.0);
        let (b, hb) = traced_chain(4, TcpVariant::NewReno, 3.0);
        assert_eq!(ha, hb);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y), "record streams must match");
    }

    #[test]
    fn every_layer_shows_up_in_a_muzha_run() {
        let (log, _) = traced_chain(4, TcpVariant::Muzha, 3.0);
        for layer in Layer::ALL {
            assert!(
                log.iter().any(|e| e.record.layer() == layer),
                "no {layer:?} records in a 3 s multi-hop run"
            );
        }
        // Muzha data carries AVBW-S stamps through the queues.
        assert!(log
            .iter()
            .any(|e| matches!(e.record, TraceRecord::IfqEnqueue { avbw: Some(_), .. })));
        // Window snapshots mirror the transport's own trace.
        assert!(log.iter().any(|e| matches!(e.record, TraceRecord::TcpCwnd { .. })));
    }

    #[test]
    fn filter_restricts_what_is_kept() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let (src, dst) = topology::chain_flow(2);
        let _ = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim.install_trace_log(TraceLog::with_filter(TraceFilter::all().layer(Layer::Agt)));
        sim.run_until(secs(2.0));
        let log = sim.take_trace_log().expect("log installed");
        assert!(!log.is_empty(), "transport records expected");
        assert!(log.iter().all(|e| e.record.layer() == Layer::Agt));
        assert!(log.seen() > log.kept(), "non-AGT records were filtered out");
    }

    #[test]
    fn cwnd_records_mirror_the_transport_trace_exactly() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let (src, dst) = topology::chain_flow(2);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim.install_trace_log(TraceLog::new());
        sim.run_until(secs(3.0));
        let log = sim.take_trace_log().expect("log installed");
        let report = sim.flow_report(flow);
        let from_log: Vec<(SimTime, f64)> = log
            .iter()
            .filter_map(|e| match e.record {
                TraceRecord::TcpCwnd { cwnd, .. } => Some((e.at, cwnd)),
                _ => None,
            })
            .collect();
        assert_eq!(from_log, report.cwnd_trace.samples().to_vec());
    }

    #[test]
    fn flight_recorder_dumps_exactly_the_last_n_on_violation() {
        // An absurdly tight cwnd limit guarantees a violation as soon as
        // the window grows past two segments.
        let limits = faultline::CheckerLimits {
            max_cwnd_segments: 2.0,
            ..faultline::CheckerLimits::default()
        };
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let (src, dst) = topology::chain_flow(2);
        let _ = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim.install_checker(InvariantChecker::with_limits(limits));
        sim.install_trace_log(TraceLog::flight_recorder(16));
        sim.run_until(secs(3.0));
        let checker = sim.take_checker().expect("checker installed");
        assert!(!checker.is_clean(), "the tight limit must trip");
        let log = sim.take_trace_log().expect("log installed");
        let dumps = log.dumps();
        assert!(!dumps.is_empty(), "violation must trigger a dump");
        let first = &dumps[0];
        assert!(first.entries.len() <= 16, "dump window bounded by capacity");
        assert!(!first.reason.is_empty(), "dump carries the violation text");
        // The dumped window is exactly the ring content at dump time: the
        // last ≤16 records seen before the violation.
        assert!(!first.entries.is_empty());
    }

    #[test]
    fn disabled_log_leaves_no_trace_state() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        assert!(sim.trace_log().is_none());
        assert!(sim.take_trace_log().is_none());
    }
}

#[cfg(test)]
mod mobility_tests {
    use super::*;
    use crate::topology;
    use phy::Position;
    use topo::TopologySpec;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn linear_motion_reaches_target_and_stops() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(2);
        // 100 m away at 20 m/s: arrives at t = 5 s.
        let start = sim.position(node);
        let target = Position::new(start.x + 100.0, start.y);
        sim.move_node(node, target, 20.0);
        sim.run_until(secs(2.5));
        let mid = sim.position(node);
        assert!(mid.x > start.x && mid.x < target.x, "mid-flight at {mid}");
        sim.run_until(secs(6.0));
        assert_eq!(sim.position(node), target);
        // No further drift after arrival.
        sim.run_until(secs(10.0));
        assert_eq!(sim.position(node), target);
    }

    #[test]
    fn movement_speed_is_respected() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(0);
        let start = sim.position(node);
        sim.move_node(node, Position::new(start.x + 1000.0, 0.0), 10.0);
        sim.run_until(secs(10.0));
        let moved = sim.position(node).distance_to(start);
        assert!((moved - 100.0).abs() < 2.0, "10 m/s for 10 s ≈ 100 m, got {moved}");
    }

    #[test]
    fn random_waypoint_stays_in_area() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(1);
        sim.set_random_waypoint(node, RandomWaypoint::roaming(500.0, 500.0, 50.0, 100.0));
        for step in 1..=60 {
            sim.run_until(secs(step as f64));
            let p = sim.position(node);
            assert!(
                (-1.0..=501.0).contains(&p.x) && (-1.0..=501.0).contains(&p.y),
                "escaped the area: {p}"
            );
        }
        // It actually moved.
        assert_ne!(sim.position(node), Position::new(250.0, 0.0));
        sim.stop_node(node);
        let frozen = sim.position(node);
        sim.run_until(secs(65.0));
        assert_eq!(sim.position(node), frozen);
    }

    #[test]
    fn replacing_a_movement_does_not_double_tick() {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(0);
        sim.move_node(node, Position::new(1000.0, 0.0), 10.0);
        // Redirect mid-flight; speed unchanged, so distance covered in a
        // fixed time must not exceed speed × time (a double tick chain
        // would move the node twice per tick).
        sim.run_until(secs(1.0));
        sim.move_node(node, Position::new(0.0, 1000.0), 10.0);
        let at_redirect = sim.position(node);
        sim.run_until(secs(6.0));
        let moved = sim.position(node).distance_to(at_redirect);
        assert!(moved <= 51.0, "5 s at 10 m/s must cover ≤ 50 m, got {moved}");
    }

    #[test]
    fn scripted_waypoints_visit_each_leg_and_stop() {
        use topo::WaypointLeg;
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(0);
        let a = Position::new(100.0, 0.0);
        let b = Position::new(100.0, 100.0);
        sim.set_waypoint_script(
            node,
            vec![
                WaypointLeg::to(a, 50.0).pausing(sim_core::SimDuration::from_secs_f64(1.0)),
                WaypointLeg::to(b, 50.0),
            ],
        );
        sim.run_until(secs(2.5));
        assert_eq!(sim.position(node), a, "arrived (~2 s at 50 m/s) and pausing at leg 1");
        sim.run_until(secs(6.0));
        assert_eq!(sim.position(node), b, "second leg reached");
        // Script exhausted: the node stays put.
        sim.run_until(secs(10.0));
        assert_eq!(sim.position(node), b);
    }

    #[test]
    fn scripted_pause_delays_the_next_leg() {
        use topo::WaypointLeg;
        let mut paused = Simulator::new(topology::chain(2), SimConfig::default());
        let mut eager = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(0);
        let a = Position::new(100.0, 0.0);
        let b = Position::new(100.0, 100.0);
        paused.set_waypoint_script(
            node,
            vec![
                WaypointLeg::to(a, 50.0).pausing(sim_core::SimDuration::from_secs_f64(3.0)),
                WaypointLeg::to(b, 50.0),
            ],
        );
        eager.set_waypoint_script(node, vec![WaypointLeg::to(a, 50.0), WaypointLeg::to(b, 50.0)]);
        // At t = 3 s the eager twin is already on (or done with) leg 2,
        // while the paused twin is still sitting at leg 1's waypoint.
        paused.run_until(secs(3.0));
        eager.run_until(secs(3.0));
        assert_eq!(paused.position(node), a, "pausing at the first waypoint");
        assert!(eager.position(node).y > 0.0, "no pause: second leg under way");
        // Both finish eventually.
        paused.run_until(secs(12.0));
        assert_eq!(paused.position(node), b);
    }

    #[test]
    fn waypoint_pause_draw_preserves_zero_pause_stream() {
        // A plan whose pause range is degenerate must consume exactly the
        // randomness the pre-pause model did: same seed, same trajectory.
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let node = NodeId::new(1);
        sim.set_random_waypoint(
            node,
            RandomWaypoint {
                min_pause: sim_core::SimDuration::from_secs_f64(1.0),
                max_pause: sim_core::SimDuration::from_secs_f64(1.0),
                ..RandomWaypoint::roaming(500.0, 500.0, 50.0, 100.0)
            },
        );
        let mut twin = Simulator::new(topology::chain(2), SimConfig::default());
        twin.set_random_waypoint(node, RandomWaypoint::roaming(500.0, 500.0, 50.0, 100.0));
        sim.run_until(secs(30.0));
        twin.run_until(secs(30.0));
        // Same waypoint sequence (same RNG draws), different timing.
        assert!(sim.position(node).x >= 0.0 && twin.position(node).x >= 0.0);
    }

    #[test]
    fn from_config_builds_topology_and_applies_mobility() {
        let cfg = SimConfig {
            topology: TopologySpec::Grid { rows: 3, cols: 3 },
            mobility: MobilitySpec::Waypoint {
                min_speed_mps: 5.0,
                max_speed_mps: 10.0,
                pause: sim_core::SimDuration::ZERO,
            },
            ..SimConfig::default()
        };
        let mut sim = Simulator::from_config(cfg);
        assert_eq!(sim.node_count(), 9);
        let before: Vec<Position> = (0..9).map(|i| sim.position(NodeId::new(i as u16))).collect();
        sim.run_until(secs(5.0));
        let moved = (0..9).any(|i| sim.position(NodeId::new(i as u16)) != before[i]);
        assert!(moved, "waypoint mobility moves nodes");
        // Deterministic in the config.
        let mut twin = Simulator::from_config(cfg);
        twin.run_until(secs(5.0));
        assert_eq!(sim.trace_hash(), twin.trace_hash());
    }

    #[test]
    fn from_config_static_matches_explicit_positions() {
        let cfg = SimConfig { topology: TopologySpec::Chain { hops: 4 }, ..SimConfig::default() };
        let mut a = Simulator::from_config(cfg);
        let mut b = Simulator::new(topology::chain(4), cfg);
        let (src, dst) = topology::chain_flow(4);
        let fa = a.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        let fb = b.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        a.run_until(secs(5.0));
        b.run_until(secs(5.0));
        assert_eq!(a.trace_hash(), b.trace_hash(), "config-built chain is the explicit chain");
        assert_eq!(a.flow_report(fa).delivered_segments, b.flow_report(fb).delivered_segments);
    }

    #[test]
    fn mobile_relay_flow_survives_with_rediscovery() {
        // 5-node chain; the flow runs 0 -> 4. Node 2 wanders slowly around
        // its home; AODV re-discovers through node positions as needed.
        let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
        let (src, dst) = topology::chain_flow(4);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim.run_until(secs(3.0));
        // Drift node 2 100 m north and back; connectivity is preserved
        // (neighbours at 250 m spacing, range 250 m... moving north breaks
        // 1-2 and 2-3 links at ~? sqrt(250^2+100^2)=269>250: breaks!) so
        // the route must fail and recover.
        let home = sim.position(NodeId::new(2));
        sim.move_node(NodeId::new(2), Position::new(home.x, 100.0), 25.0);
        sim.run_until(secs(8.0));
        sim.move_node(NodeId::new(2), home, 25.0);
        sim.run_until(secs(20.0));
        let r = sim.flow_report(flow);
        let tail = r.delivered_in_window(secs(15.0), secs(20.0));
        assert!(tail > 5, "flow must recover after the relay returns, got {tail}");
    }
}

#[cfg(test)]
mod red_integration_tests {
    use super::*;
    use crate::topology;
    use crate::{QueueDiscipline, RedConfig};

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn red_discipline_carries_traffic() {
        let cfg =
            SimConfig { queue: QueueDiscipline::Red(RedConfig::default()), ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(4), cfg);
        let (src, dst) = topology::chain_flow(4);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim.run_until(secs(5.0));
        assert!(sim.flow_report(flow).delivered_segments > 20);
    }

    #[test]
    fn red_ecn_marks_reach_a_muzha_sender() {
        // An aggressive RED (tiny thresholds, heavy averaging) on every
        // node: Muzha's data is ECN-marked in the queue, so its dup-ACK
        // discrimination sees "congestion" even without Muzha's own
        // marking (queue thresholds here are far below the DRAI mark_at).
        let red = RedConfig {
            min_threshold: 0.0,
            max_threshold: 1.0,
            queue_weight: 0.9,
            ecn: true,
            ..RedConfig::default()
        };
        let cfg = SimConfig { queue: QueueDiscipline::Red(red), ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(2), cfg);
        let (src, dst) = topology::chain_flow(2);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim.run_until(secs(5.0));
        // Flow still works end to end with ECN marking in the path.
        assert!(sim.flow_report(flow).delivered_segments > 20);
        let marked: u64 = (0..sim.node_count())
            .map(|i| match &sim.nodes[i].ifq {
                Ifq::Red(q) => q.early_marks(),
                Ifq::DropTail(_) => 0,
            })
            .sum();
        assert!(marked > 0, "aggressive RED must have marked something");
    }

    #[test]
    fn red_without_ecn_drops_early() {
        let red = RedConfig {
            min_threshold: 0.0,
            max_threshold: 2.0,
            queue_weight: 0.9,
            ecn: false,
            ..RedConfig::default()
        };
        let cfg = SimConfig { queue: QueueDiscipline::Red(red), ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(2), cfg);
        let (src, dst) = topology::chain_flow(2);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim.run_until(secs(10.0));
        let report = sim.flow_report(flow);
        assert!(report.delivered_segments > 10, "flow survives RED drops");
        let early: u64 = (0..sim.node_count())
            .map(|i| match &sim.nodes[i].ifq {
                Ifq::Red(q) => q.early_drops(),
                Ifq::DropTail(_) => 0,
            })
            .sum();
        assert!(early > 0, "early drops expected with tiny thresholds");
    }
}

#[cfg(test)]
mod elfn_tests {
    use super::*;
    use crate::topology;
    use phy::Position;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// Runs the mobile-relay outage scenario and reports (delivered in the
    /// post-recovery tail, sender timeouts).
    fn outage_run(elfn: bool) -> (u64, u64) {
        let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
        let (src, dst) = topology::chain_flow(4);
        let mut spec = FlowSpec::new(src, dst, TcpVariant::NewReno);
        if elfn {
            spec = spec.with_elfn();
        }
        let flow = sim.add_flow(spec);
        sim.run_until(secs(3.0));
        // 12-second outage: long enough for several unassisted RTO doublings.
        let home = sim.position(NodeId::new(2));
        sim.set_position(NodeId::new(2), Position::new(10_000.0, 10_000.0));
        sim.run_until(secs(15.0));
        sim.set_position(NodeId::new(2), home);
        sim.run_until(secs(30.0));
        let r = sim.flow_report(flow);
        (r.delivered_in_window(secs(15.0), secs(30.0)), r.sender.timeouts)
    }

    #[test]
    fn elfn_recovers_faster_after_an_outage() {
        let (plain_tail, plain_timeouts) = outage_run(false);
        let (elfn_tail, elfn_timeouts) = outage_run(true);
        // The frozen timer means strictly fewer blind timeouts during the
        // outage (the unassisted sender keeps firing into the void)...
        assert!(
            elfn_timeouts < plain_timeouts,
            "ELFN timeouts {elfn_timeouts} vs plain {plain_timeouts}"
        );
        // ...and the flow resumes with comparable vigour once the route
        // heals (exact counts differ run to run as recovery timing shifts
        // the contention pattern).
        assert!(elfn_tail > 20, "ELFN flow must resume, got {elfn_tail}");
        assert!(
            elfn_tail * 2 > plain_tail,
            "ELFN tail {elfn_tail} unreasonably below plain {plain_tail}"
        );
    }

    #[test]
    fn elfn_is_inert_on_a_stable_route() {
        let run = |elfn: bool| {
            let mut sim = Simulator::new(topology::chain(3), SimConfig::default());
            let (src, dst) = topology::chain_flow(3);
            let mut spec = FlowSpec::new(src, dst, TcpVariant::Muzha);
            if elfn {
                spec = spec.with_elfn();
            }
            let flow = sim.add_flow(spec);
            sim.run_until(secs(10.0));
            sim.flow_report(flow).delivered_segments
        };
        let plain = run(false);
        let with = run(true);
        let diff = plain.abs_diff(with);
        // Identical routes throughout: ELFN may only shift the initial
        // discovery timing slightly.
        assert!(diff * 20 <= plain, "ELFN changed a stable run too much: {plain} vs {with}");
    }
}

#[cfg(test)]
mod delack_integration_tests {
    use super::*;
    use crate::topology;

    #[test]
    fn delayed_ack_flow_works_and_halves_ack_traffic() {
        let run = |delayed: bool| {
            let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
            let (src, dst) = topology::chain_flow(4);
            let mut spec = FlowSpec::new(src, dst, TcpVariant::NewReno);
            if delayed {
                spec = spec.with_delayed_ack();
            }
            let flow = sim.add_flow(spec);
            sim.run_until(SimTime::from_secs_f64(10.0));
            let r = sim.flow_report(flow);
            let acks = sim.nodes[dst.index()].receivers[&flow].receiver.stats().acks_sent;
            (r.delivered_segments, acks)
        };
        let (plain_segs, plain_acks) = run(false);
        let (delack_segs, delack_acks) = run(true);
        assert!(delack_segs > 50, "delayed-ACK flow must carry data: {delack_segs}");
        // Immediate mode: one ACK per received segment. Delayed: roughly half.
        assert!(plain_acks >= plain_segs);
        assert!(
            (delack_acks as f64) < 0.75 * delack_segs as f64,
            "delack {delack_acks} ACKs for {delack_segs} segments"
        );
    }

    #[test]
    fn delayed_ack_with_muzha_keeps_feedback_loop() {
        let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
        let (src, dst) = topology::chain_flow(4);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha).with_delayed_ack());
        sim.run_until(SimTime::from_secs_f64(10.0));
        let r = sim.flow_report(flow);
        assert!(r.delivered_segments > 50, "{}", r.delivered_segments);
        // MRAI feedback still drove the window above its initial value.
        assert!(r.cwnd_trace.samples().iter().any(|&(_, w)| w > 2.0));
    }
}

#[cfg(test)]
mod hello_integration_tests {
    use super::*;
    use crate::topology;
    use sim_core::SimDuration;

    #[test]
    fn hello_beacons_detect_a_vanished_neighbour() {
        let aodv = aodv::AodvConfig {
            hello_interval: Some(SimDuration::from_millis(500)),
            allowed_hello_loss: 2,
            ..aodv::AodvConfig::default()
        };
        let cfg = SimConfig { aodv, ..SimConfig::default() };
        let mut sim = Simulator::new(topology::chain(3), cfg);
        let (src, dst) = topology::chain_flow(3);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim.run_until(SimTime::from_secs_f64(3.0));
        assert!(sim.flow_report(flow).delivered_segments > 20, "beacons must not break traffic");
        // Vanish node 1; with no data in flight the MAC gives no feedback,
        // so only HELLO loss can tear the route down.
        sim.set_position(NodeId::new(1), phy::Position::new(50_000.0, 0.0));
        sim.run_until(SimTime::from_secs_f64(6.0));
        assert!(
            !sim.nodes[0].aodv.has_route(NodeId::new(1), sim.now())
                || !sim.nodes[0].aodv.has_route(dst, sim.now()),
            "silent neighbour should have been invalidated somewhere"
        );
    }
}
