//! The two simulation workloads: the paper's 8-hop chain and the 1000-node
//! roaming city. Both are built from a `SimConfig` alone, so one code path
//! serves both.

use faultline::InvariantChecker;
use harness::WallClock;
use netstack::{
    FlowSpec, MobilitySpec, RandomWaypoint, SimConfig, Simulator, TcpVariant, TopologySpec,
};
use phy::{Channel, Position};
use sim_core::{DriverQueue, SimDuration, SimRng, SimTime};
use tracelog::{TraceLog, TraceRecord};
use wire::NodeId;

use crate::spans::Spans;
use crate::tally::{Outputs, Tally};

/// Hops of the paper's chain (Fig. 5.1).
const CHAIN_HOPS: u16 = 8;
/// Chain seeds per repetition.
pub const CHAIN_SEEDS: u64 = 3;
/// Virtual horizon of each chain seed.
const CHAIN_HORIZON: SimDuration = SimDuration::from_secs(100);
/// Traced-run slice on the chain.
const CHAIN_SLICE: SimDuration = SimDuration::from_secs(1);

/// Cities per repetition. One city's work varies by about 17% (standard
/// deviation over seeds) because flooding and route repair depend on the
/// trajectory; summing several keeps the repetition's work steady.
pub const CITY_SEEDS: u64 = 6;
/// City size, flows and horizon.
const CITY_NODES: u16 = 1000;
const CITY_FLOWS: usize = 10;
const CITY_HORIZON: SimDuration = SimDuration::from_secs(10);
/// Traced-run slice in the city.
const CITY_SLICE: SimDuration = SimDuration::from_millis(100);

/// Hold-model operations timed per traced workload.
const HOLD_OPS: usize = 2_000_000;

/// One simulation input: a config, its flows and how far to run it.
#[derive(Clone, Debug)]
pub struct SimCase {
    /// The config; topology, mobility and seed included.
    pub cfg: SimConfig,
    /// Muzha flows as (source, destination).
    pub flows: Vec<(NodeId, NodeId)>,
    /// Whether the invariant checker is installed.
    pub checked: bool,
    /// Where the run stops.
    pub horizon: SimTime,
    /// Virtual-time slice of the traced run, in nanoseconds.
    pub slice_ns: u64,
}

/// The paper's chain: 8 hops, one Muzha flow end to end, nothing moving,
/// no checker; one case per derived seed.
pub fn chain_cases(seeds: &[u64]) -> Vec<SimCase> {
    seeds
        .iter()
        .map(|&seed| SimCase {
            cfg: SimConfig {
                seed,
                topology: TopologySpec::Chain { hops: CHAIN_HOPS },
                ..SimConfig::default()
            },
            flows: vec![(NodeId::new(0), NodeId::new(CHAIN_HOPS))],
            checked: false,
            horizon: SimTime::ZERO + CHAIN_HORIZON,
            slice_ns: CHAIN_SLICE.as_nanos(),
        })
        .collect()
}

/// The roaming city: 1000 nodes in a dense random disc, random waypoint at
/// 1–20 m/s without pause, ten Muzha flows between index-spread endpoints,
/// invariant checker installed; one city per derived seed.
pub fn city_cases(seeds: &[u64]) -> Vec<SimCase> {
    let n = usize::from(CITY_NODES);
    let flows: Vec<(NodeId, NodeId)> = (0..CITY_FLOWS)
        .map(|k| {
            let a = k * n / CITY_FLOWS;
            let b = (a + n / 2) % n;
            (NodeId::new(a as u16), NodeId::new(b as u16))
        })
        .collect();
    seeds
        .iter()
        .map(|&seed| SimCase {
            cfg: SimConfig {
                seed,
                topology: TopologySpec::random_disc_dense(CITY_NODES, 250.0),
                mobility: MobilitySpec::DEFAULT_WAYPOINT,
                ..SimConfig::default()
            },
            flows: flows.clone(),
            checked: true,
            horizon: SimTime::ZERO + CITY_HORIZON,
            slice_ns: CITY_SLICE.as_nanos(),
        })
        .collect()
}

/// Host time of one untraced run and what it produced.
#[derive(Debug)]
pub struct Timed {
    /// Seconds from the first setup call until the first event could run.
    pub setup_s: f64,
    /// Seconds `run_until` took to reach the horizon.
    pub run_s: f64,
    /// The run's outputs.
    pub out: Outputs,
}

impl SimCase {
    /// The user's path: the whole simulator from the config in one call,
    /// then the checker and the flows.
    fn build(&self) -> Simulator {
        let mut sim = Simulator::from_config(self.cfg);
        if self.checked {
            sim.install_checker(InvariantChecker::new());
        }
        for &(src, dst) in &self.flows {
            sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        }
        sim
    }

    /// [`Simulator::from_config`] split in two, so the traced run can time
    /// topology generation apart from construction. The traced digest must
    /// equal the untraced one, which keeps this split honest.
    fn build_split(&self, spans: &mut Spans) -> (Simulator, Vec<Position>) {
        let cfg = self.cfg;
        let (positions, _) =
            spans.time("topo.build", |_| cfg.topology.build(cfg.radio.tx_range_m, cfg.seed));
        let (sim, _) = spans.time("netstack.new", |_| {
            let mut sim = Simulator::new(positions.clone(), cfg);
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
            if self.checked {
                sim.install_checker(InvariantChecker::new());
            }
            for &(src, dst) in &self.flows {
                sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
            }
            sim
        });
        (sim, positions)
    }

    /// Builds and runs the case with nothing observing it.
    pub fn run_untraced(&self) -> Timed {
        let clock = WallClock::start();
        let mut sim = self.build();
        let setup_s = clock.elapsed_secs();
        let clock = WallClock::start();
        sim.run_until(self.horizon);
        let run_s = clock.elapsed_secs();
        Timed { setup_s, run_s, out: Outputs::collect(&mut sim) }
    }
}

/// Slice ends from one slice after zero up to and including `horizon_ns`,
/// in integer nanoseconds so the last slice lands exactly on the horizon.
pub fn slice_ends(horizon_ns: u64, slice_ns: u64) -> Vec<u64> {
    assert!(slice_ns > 0, "a slice must advance virtual time");
    let mut ends: Vec<u64> = (1..).map(|k| k * slice_ns).take_while(|&e| e < horizon_ns).collect();
    ends.push(horizon_ns);
    ends
}

/// Snapshot, restore and move-replay work accumulated by traced runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Costs {
    /// Snapshots taken.
    pub snapshots: u64,
    /// Their summed size in bytes.
    pub snapshot_bytes: u64,
    /// Summed seconds in `Simulator::snapshot`.
    pub encode_s: f64,
    /// Restores done.
    pub restores: u64,
    /// Summed seconds in `Simulator::restore`.
    pub restore_s: f64,
    /// Recorded moves replayed on a bare `Channel`.
    pub moves: u64,
    /// Summed seconds in those `Channel::set_position` calls.
    pub move_s: f64,
}

/// A traced run of one case.
#[derive(Debug)]
pub struct Traced {
    /// The run's outputs; the tally includes the trace-record counts.
    pub out: Outputs,
    /// Seconds spent in the sliced run, log handling included.
    pub run_s: f64,
}

/// Runs `case` in integer-nanosecond slices with a fresh trace log per
/// slice, one span per slice carrying that slice's counter deltas and
/// record counts. Then times a snapshot of the final state, its restore
/// into a config twin, and replays the run's recorded moves on a bare
/// channel, adding those figures to `costs`.
pub fn run_traced(case: &SimCase, spans: &mut Spans, costs: &mut Costs) -> Result<Traced, String> {
    let setup = spans.open("setup");
    let (mut sim, positions) = case.build_split(spans);
    spans.close(setup);

    let run = spans.open("run");
    let mut records = Tally::default();
    let mut recorded_moves: Vec<(NodeId, Position)> = Vec::new();
    let ends = slice_ends(case.horizon.as_nanos(), case.slice_ns);
    for &end in &ends {
        let before = sim.perf();
        let id = spans.open("slice");
        sim.install_trace_log(TraceLog::new());
        spans.time("netstack.run_until", |_| sim.run_until(SimTime::from_nanos(end)));
        let log = sim.take_trace_log().ok_or("the slice's trace log vanished")?;
        let mut slice = Tally::default();
        slice.count_log(&log);
        for entry in log.iter() {
            if let TraceRecord::PhyMove { node, x, y } = entry.record {
                recorded_moves.push((node, Position::new(x, y)));
            }
        }
        drop(log);
        spans.close(id);
        records.absorb(&slice);
        let after = sim.perf();
        spans.attr(id, "end_ns", end);
        spans.attr(id, "events", after.events_processed - before.events_processed);
        spans.attr(id, "phy_events", after.phy_events - before.phy_events);
        spans.attr(id, "mac_events", after.mac_events - before.mac_events);
        spans.attr(id, "routing_events", after.routing_events - before.routing_events);
        spans.attr(id, "transport_events", after.transport_events - before.transport_events);
        spans.attr(id, "mobility_events", after.mobility_events - before.mobility_events);
        spans.attr(id, "stale_pops", after.timers_stale_popped - before.timers_stale_popped);
        for (&layer, count) in tracelog::Layer::ALL.iter().zip(slice.records) {
            spans.attr(id, layer_key(layer), count);
        }
    }
    let run_s = spans.close(run);
    if sim.now() != case.horizon {
        return Err(format!(
            "sliced run ended at {} ns, horizon is {} ns",
            sim.now().as_nanos(),
            case.horizon.as_nanos()
        ));
    }

    let (bytes, encode_s) = spans.time("sim-core.snapshot", |_| sim.snapshot());
    let mut twin = case.build();
    let (restored, restore_s) = spans.time("sim-core.restore", |_| twin.restore(&bytes));
    restored.map_err(|e| format!("snapshot does not restore into its config twin: {e:?}"))?;
    if twin.trace_hash() != sim.trace_hash() || twin.perf() != sim.perf() {
        return Err("restored twin disagrees with the snapshotted run".to_string());
    }
    costs.snapshots += 1;
    costs.snapshot_bytes += bytes.len() as u64;
    costs.encode_s += encode_s;
    costs.restores += 1;
    costs.restore_s += restore_s;

    let (mut out, _) = spans.time("report", |_| Outputs::collect(&mut sim));
    out.tally.records = records.records;
    out.tally.phy_tx = records.phy_tx;

    if !recorded_moves.is_empty() {
        let mut channel = Channel::with_index(positions, case.cfg.radio, case.cfg.phy_index);
        let (churn, secs) = spans.time("phy.move", |_| {
            recorded_moves
                .iter()
                .map(|&(node, p)| channel.set_position(node, p) as u64)
                .sum::<u64>()
        });
        if churn != out.tally.perf.link_churn {
            return Err(format!(
                "move replay churned {churn} links, the run {}",
                out.tally.perf.link_churn
            ));
        }
        costs.moves += recorded_moves.len() as u64;
        costs.move_s += secs;
    }
    Ok(Traced { out, run_s })
}

/// The trace-record attribute name of a layer.
fn layer_key(layer: tracelog::Layer) -> &'static str {
    match layer {
        tracelog::Layer::Phy => "records_phy",
        tracelog::Layer::Mac => "records_mac",
        tracelog::Layer::Rtr => "records_rtr",
        tracelog::Layer::Ifq => "records_ifq",
        tracelog::Layer::Agt => "records_agt",
    }
}

/// Nanoseconds per pop+push of a `DriverQueue` held at `size` entries,
/// with uniform increments of up to 1 ms drawn from `seed`.
pub fn hold_ns(spans: &mut Spans, kind: sim_core::SchedulerKind, size: usize, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed);
    let mut queue = DriverQueue::new(kind);
    for i in 0..size.max(1) {
        queue.push(SimTime::from_nanos(u64::from(rng.below(1_000_000))), i as u64);
    }
    let (_, secs) = spans.time("sim-core.hold", |_| {
        for i in 0..HOLD_OPS {
            let (now, _) = queue.pop().expect("the hold model keeps the queue full");
            queue.push(now + SimDuration::from_nanos(u64::from(rng.below(1_000_000))), i as u64);
        }
    });
    secs * 1e9 / HOLD_OPS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_end_exactly_on_the_horizon() {
        let ends = slice_ends(CITY_HORIZON.as_nanos(), CITY_SLICE.as_nanos());
        assert_eq!(ends.len(), 100, "0.1 s slices over 10 s");
        assert_eq!(ends.last(), Some(&10_000_000_000));
        assert!(ends.windows(2).all(|w| w[1] - w[0] == 100_000_000));
        assert_eq!(slice_ends(2_500, 1_000), vec![1_000, 2_000, 2_500]);
        assert_eq!(slice_ends(3_000, 1_000), vec![1_000, 2_000, 3_000]);
    }

    /// The self-test the traced run rests on: slicing and trace logs are
    /// pure observers, so a short traced chain reproduces the untraced
    /// run's digest, counters and simulated outputs, ending on the horizon.
    #[test]
    fn traced_run_reproduces_the_untraced_run() {
        let mut case = chain_cases(&[5]).remove(0);
        case.horizon = SimTime::ZERO + SimDuration::from_millis(5_500);
        case.slice_ns = 700_000_000;
        let plain = case.run_untraced();
        let mut spans = Spans::new();
        let traced = run_traced(&case, &mut spans, &mut Costs::default())
            .expect("traced run passes its own checks");
        assert_eq!(traced.out.digest, plain.out.digest);
        assert_eq!(traced.out.pinned, plain.out.pinned);
        assert_eq!(traced.out.tally.perf, plain.out.tally.perf);
        assert!(traced.out.tally.phy_tx > 0, "the log saw frames on the air");
        assert_eq!(spans.durations("netstack.run_until").len(), 8);
    }
}
