//! The checkpointed model-checking workload: `harness::mc` exploring the
//! corpus scenario `chain-break.scn` — a 4-hop chain whose middle link
//! goes down at 4.0 s and comes back at 9.0 s — over a fixed tie window
//! around the link-down and a fixed branch budget.
//!
//! The benchmark seed places the fault pair: both faults move by the same
//! offset of up to ±5 ms, which keeps the link-down inside the window. The
//! simulator seed stays the scenario's own. Reseeding the simulator instead
//! would change what each branch replays by up to 14× between seeds (after
//! the break the flow either recovers before the 15 s horizon or stays in
//! retransmission backoff), while the placement offset changes the tie
//! groups the explorer sees and keeps the replayed work within 0.1%.

use faultline::mc::{self, BranchOutcome, McConfig, McVerdict};
use faultline::{InvariantChecker, ScenarioScript};
use harness::WallClock;
use sim_core::{SimTime, TieOrder};
use tracelog::TraceLog;

use crate::simwork::Costs;
use crate::spans::Spans;
use crate::tally::Tally;

/// The explored scenario, read and parsed as part of set-up.
const SCRIPT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/scenarios/chain-break.scn");
/// Tie window around the scripted 4.0 s link-down, in nanoseconds.
const WINDOW_NS: (u64, u64) = (3_980_000_000, 4_030_000_000);
/// Branch budget of one exploration.
const BRANCHES: usize = 300;
/// Largest fault-placement offset either way, in nanoseconds.
const MAX_SHIFT_NS: u64 = 5_000_000;

/// Hops of the corpus-convention chain `harness::mc` builds.
const CORPUS_HOPS: usize = 4;

/// The parsed scenario, the explorer's bounds and the fault placements.
struct Plan {
    script: ScenarioScript,
    cfg: McConfig,
    placed: Vec<ScenarioScript>,
}

impl Plan {
    /// Reads the scenario, shifts its faults by the offset `seed` picks and
    /// lays out the placements.
    fn load(seed: u64) -> Result<Plan, String> {
        let text = std::fs::read_to_string(SCRIPT).map_err(|e| format!("{SCRIPT}: {e}"))?;
        let mut script = ScenarioScript::parse(&text)?;
        let offset = seed % (2 * MAX_SHIFT_NS + 1);
        for timed in &mut script.events {
            timed.at = SimTime::from_nanos(timed.at.as_nanos() + offset - MAX_SHIFT_NS);
        }
        let cfg = McConfig {
            tie_window: Some((SimTime::from_nanos(WINDOW_NS.0), SimTime::from_nanos(WINDOW_NS.1))),
            max_branches: BRANCHES,
            ..McConfig::default()
        };
        let placed = mc::placements(&script, &cfg);
        Ok(Plan { script, cfg, placed })
    }

    fn window_start(&self) -> SimTime {
        SimTime::from_nanos(WINDOW_NS.0)
    }
}

/// One timed exploration.
#[derive(Debug)]
pub struct McRun {
    /// Seconds to parse, place and checkpoint every placement.
    pub setup_s: f64,
    /// Seconds the exploration took.
    pub run_s: f64,
    /// The explorer's verdict.
    pub verdict: McVerdict,
    /// Events replayed after restores, summed over branches.
    pub suffix_events: u64,
}

/// Explores with `harness::mc`'s checkpoint resume — the same calls
/// `explore_scenario_resumed` makes, split so set-up is timed apart.
pub fn run_untraced(seed: u64) -> Result<McRun, String> {
    let clock = WallClock::start();
    let plan = Plan::load(seed)?;
    let start = plan.window_start();
    let checkpoints: Vec<harness::mc::Checkpoint> =
        plan.placed.iter().map(|p| harness::mc::checkpoint_before(p, start)).collect();
    let setup_s = clock.elapsed_secs();

    let clock = WallClock::start();
    let mut suffix_events = 0;
    let verdict = mc::explore(&plan.script.name, plan.placed.len(), &plan.cfg, |p, decisions| {
        let (outcome, replayed) =
            harness::mc::run_branch_resumed(&plan.placed[p], &plan.cfg, &checkpoints[p], decisions);
        suffix_events += replayed;
        outcome
    });
    let run_s = clock.elapsed_secs();
    Ok(McRun { setup_s, run_s, verdict, suffix_events })
}

/// A traced exploration.
#[derive(Debug)]
pub struct McTraced {
    /// The explorer's verdict (must equal the untraced one).
    pub verdict: McVerdict,
    /// Prefix work once per placement plus every branch's suffix work.
    pub tally: Tally,
    /// Events replayed after restores, summed over branches.
    pub suffix_events: u64,
    /// Seconds the exploration took, tracing included.
    pub run_s: f64,
    /// Problems a branch met that the verdict cannot show.
    pub errors: Vec<String>,
}

/// One placement's shared prefix, ready to resume from.
struct Resume {
    bytes: Vec<u8>,
    checker: InvariantChecker,
    at: Tally,
}

/// Explores with spans: one per checkpoint and one per branch, with the
/// restore and the suffix run as children. Checkpoint and branch follow
/// `harness::mc::checkpoint_before` / `run_branch_resumed` call for call,
/// through the public simulator API, so they can be timed piecewise and a
/// trace log can count each suffix's records.
pub fn run_traced(seed: u64, spans: &mut Spans, costs: &mut Costs) -> Result<McTraced, String> {
    let setup = spans.open("setup");
    let (plan, _) = spans.time("faultline.parse", |_| Plan::load(seed));
    let plan = plan?;
    let start = plan.window_start();
    let mut tally = Tally::default();
    let mut resumes = Vec::new();
    for placement in &plan.placed {
        let id = spans.open("harness.mc.checkpoint");
        let (mut sim, _) = spans.time("netstack.new", |_| harness::mc::corpus_sim(placement));
        sim.install_checker(InvariantChecker::new());
        sim.install_trace_log(TraceLog::new());
        let stop = SimTime::from_nanos(start.as_nanos().saturating_sub(1));
        spans.time("netstack.run_until", |_| sim.run_until(stop));
        let log = sim.take_trace_log().ok_or("the prefix trace log vanished")?;
        let checker = sim.checker().cloned().ok_or("the prefix checker vanished")?;
        let (bytes, encode_s) = spans.time("sim-core.snapshot", |_| sim.snapshot());
        spans.close(id);
        costs.snapshots += 1;
        costs.snapshot_bytes += bytes.len() as u64;
        costs.encode_s += encode_s;
        let at = Tally::of(&sim);
        let mut prefix = at;
        prefix.count_log(&log);
        tally.absorb(&prefix);
        resumes.push(Resume { bytes, checker, at });
    }
    spans.close(setup);

    let run = spans.open("run");
    let mut suffix_events = 0;
    let mut errors = Vec::new();
    let verdict = mc::explore(&plan.script.name, plan.placed.len(), &plan.cfg, |p, decisions| {
        let placement = &plan.placed[p];
        let resume = &resumes[p];
        let id = spans.open("harness.mc.branch");
        spans.time("topo.build", |_| std::hint::black_box(netstack::topology::chain(CORPUS_HOPS)));
        let (mut sim, _) = spans.time("netstack.new", |_| harness::mc::corpus_sim(placement));
        let (restored, restore_s) = spans.time("sim-core.restore", |_| sim.restore(&resume.bytes));
        costs.restores += 1;
        costs.restore_s += restore_s;
        let mut violations = Vec::new();
        if let Err(e) = restored {
            violations.push(format!("checkpoint does not restore: {e:?}"));
        }
        sim.install_checker(resume.checker.clone());
        let mut order = TieOrder::new(decisions.to_vec());
        if let Some((from, to)) = plan.cfg.tie_window {
            order = order.with_window(from, to);
        }
        sim.install_tie_order(order);
        sim.install_trace_log(TraceLog::new());
        let horizon = SimTime::ZERO + harness::mc::corpus_duration(placement);
        spans.time("netstack.suffix", |_| sim.run_until(horizon));
        let mut after = Tally::of(&sim);
        if let Some(log) = sim.take_trace_log() {
            after.count_log(&log);
        }
        if let Some(checker) = sim.take_checker() {
            violations.extend(checker.violations().iter().map(|v| v.to_string()));
            let l = checker.ledger();
            if l.injected != l.delivered + l.dropped + l.fault_dropped + l.in_flight {
                errors.push(format!("branch {decisions:?}: conservation ledger out of balance"));
            }
        }
        let order = sim.take_tie_order().unwrap_or_else(|| TieOrder::new(Vec::new()));
        if order.diverged() {
            violations.push("replay-divergence: a decision exceeded its tie group".to_string());
        }
        let suffix = after.since(&resume.at);
        suffix_events += suffix.perf.events_processed;
        tally.absorb(&suffix);
        spans.close(id);
        BranchOutcome { trace_hash: sim.trace_hash(), choices: order.into_choices(), violations }
    });
    let run_s = spans.close(run);
    Ok(McTraced { verdict, tally, suffix_events, run_s, errors })
}
