//! End-to-end and per-layer benchmark of the TCP Muzha simulator.
//!
//! ```sh
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     [--workload chain8_muzha|city1000_waypoint|mc_chain_break|all] \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload's inputs derive from `--seed`. With `--trace 0` the
//! workload repeats its fixed simulated work as often as fits in
//! `--seconds` (at least once) and reports the end-to-end metrics as medians
//! over those repetitions, calibrated for host speed (see `calib`). With
//! `--trace 1` it runs the work once untraced and once traced, and reports
//! the per-layer metrics; the spans are written to `simbench/out/`.
//! Everything runs serially on one thread.
//! The last line of standard output is one JSON object per workload; see
//! `simbench/README.md` for what each metric means.

mod calib;
mod gate;
mod mcwork;
mod simwork;
mod spans;
mod tally;

use std::fmt::Write as _;

use harness::WallClock;
use sim_core::SimRng;

use gate::{Expect, Gate};
use simwork::{Costs, SimCase};
use spans::Spans;
use tally::{Outputs, Tally};

/// Where the traced runs write their spans.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Chain,
    City,
    Mc,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Chain, Workload::City, Workload::Mc];

    fn name(self) -> &'static str {
        match self {
            Workload::Chain => "chain8_muzha",
            Workload::City => "city1000_waypoint",
            Workload::Mc => "mc_chain_break",
        }
    }

    /// The workload's simulation cases (none for model checking).
    fn cases(self, seed: u64) -> Vec<SimCase> {
        match self {
            Workload::Chain => {
                let seeds: Vec<u64> =
                    (0..simwork::CHAIN_SEEDS).map(|i| derive_seed(seed, 0x100 + i)).collect();
                simwork::chain_cases(&seeds)
            }
            Workload::City => {
                let seeds: Vec<u64> =
                    (0..simwork::CITY_SEEDS).map(|i| derive_seed(seed, 0x200 + i)).collect();
                simwork::city_cases(&seeds)
            }
            Workload::Mc => Vec::new(),
        }
    }

    /// What the gate requires of the workload's simulation runs.
    fn expect(self, seed: u64) -> Expect {
        match self {
            Workload::Chain => Expect::chain(seed),
            // Model checking has no simulation cases; this is never asked.
            Workload::City | Workload::Mc => Expect::city(seed),
        }
    }
}

/// A simulator seed for input stream `stream` of benchmark seed `seed`.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    SimRng::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: gate::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                args.workloads = vec![w.ok_or_else(|| format!("unknown workload {value:?}"))?];
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", fingerprint());
    for (i, &w) in args.workloads.iter().enumerate() {
        if i > 0 {
            reset_peak_rss();
        }
        let mut gate = Gate::default();
        let metrics = if args.trace {
            traced(w, args.seed, &mut gate)
        } else {
            untraced(w, args.seed, args.seconds, &mut gate)
        };
        print_result(w, &gate, &metrics);
    }
}

/// The host the numbers came from.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!("host: nproc {} | cpu {cpu} | profile {profile}", harness::effective_jobs(0))
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mb(gate: &mut Gate) -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status").ok().and_then(|status| {
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse::<f64>().ok()
    });
    kb.map_or_else(
        || {
            gate.error("cannot read VmHWM from /proc/self/status".to_string());
            0.0
        },
        |kb| kb / 1024.0,
    )
}

/// Resets `VmHWM` so the next workload's peak is its own.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("simbench: cannot reset the peak RSS ({e}); later peaks include earlier ones");
    }
}

/// The middle value, or the mean of the middle two (0 for no values).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile (0 for no values).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The end-to-end metrics: the workload's fixed work repeated for
/// `seconds`, medians over the repetitions, in reference-host seconds
/// (see [`calib`]); the raw host seconds are printed beside them.
fn untraced(w: Workload, seed: u64, seconds: f64, gate: &mut Gate) -> Vec<Metric> {
    let clock = WallClock::start();
    let (mut setups, mut runs, mut raw_runs) = (Vec::new(), Vec::new(), Vec::new());
    let cases = w.cases(seed);
    let mut first: Vec<Option<Outputs>> = vec![None; cases.len()];
    let mut first_verdict = None;
    let mut events = 0;
    let mut speed = calib::Speed::start();
    // Repeat while another repetition, at the mean pace so far, still
    // ends within `seconds`; always at least one.
    while runs.is_empty() || clock.elapsed_secs() * (1.0 + 1.0 / runs.len() as f64) <= seconds {
        let (mut setup_s, mut run_s, mut raw_s) = (0.0, 0.0, 0.0);
        events = 0;
        if w == Workload::Mc {
            match mcwork::run_untraced(derive_seed(seed, 0x300)) {
                Ok(run) => {
                    let f = speed.factor();
                    setup_s = run.setup_s * f;
                    run_s = run.run_s * f;
                    raw_s = run.run_s;
                    events = run.suffix_events;
                    gate.mc_run(
                        w.name(),
                        &run.verdict,
                        first_verdict.as_ref(),
                        seed == gate::DEFAULT_SEED,
                    );
                    first_verdict.get_or_insert(run.verdict);
                }
                Err(e) => {
                    gate.error(e);
                    break;
                }
            }
        }
        for (i, case) in cases.iter().enumerate() {
            let t = case.run_untraced();
            let f = speed.factor();
            setup_s += t.setup_s * f;
            run_s += t.run_s * f;
            raw_s += t.run_s;
            events += t.out.tally.perf.events_processed;
            gate.sim_run(w.name(), i, &t.out, first[i].as_ref(), w.expect(seed));
            first[i].get_or_insert(t.out);
        }
        setups.push(setup_s);
        runs.push(run_s);
        raw_runs.push(raw_s);
    }
    println!(
        "{}: {} repetitions of {events} events (mc: suffix events), run_s {runs:?}, \
         raw host run_s {raw_runs:?} (median {}), peak_rss_mb {}",
        w.name(),
        runs.len(),
        median(&raw_runs),
        peak_rss_mb(gate)
    );
    vec![metric("run_s", median(&runs), "s"), metric("setup_s", median(&setups), "s")]
}

/// The per-layer metrics: one untraced run as the reference, then one
/// traced run that must reproduce it.
fn traced(w: Workload, seed: u64, gate: &mut Gate) -> Vec<Metric> {
    let mut spans = Spans::new();
    let mut costs = Costs::default();
    let mut total = Tally::default();
    let (untraced_s, traced_s, rss_mb);
    let mut mc = McFigures::default();
    if w == Workload::Mc {
        let mc_seed = derive_seed(seed, 0x300);
        let plain = match mcwork::run_untraced(mc_seed) {
            Ok(run) => run,
            Err(e) => {
                gate.error(e);
                return Vec::new();
            }
        };
        gate.mc_run(w.name(), &plain.verdict, None, seed == gate::DEFAULT_SEED);
        rss_mb = peak_rss_mb(gate);
        let run = match mcwork::run_traced(mc_seed, &mut spans, &mut costs) {
            Ok(run) => run,
            Err(e) => {
                gate.error(e);
                return Vec::new();
            }
        };
        gate.mc_run("mc_chain_break traced", &run.verdict, Some(&plain.verdict), false);
        if run.suffix_events != plain.suffix_events {
            gate.error(format!(
                "traced exploration replayed {} suffix events, untraced {}",
                run.suffix_events, plain.suffix_events
            ));
        }
        for e in run.errors {
            gate.error(e);
        }
        total = run.tally;
        untraced_s = plain.run_s;
        traced_s = run.run_s;
        mc = McFigures {
            branches: run.verdict.branches_explored as f64,
            pruned: run.verdict.branches_pruned as f64,
            suffix_events: run.suffix_events as f64,
            branch_ms: spans.durations("harness.mc.branch").iter().map(|s| s * 1e3).collect(),
        };
    } else {
        let cases = w.cases(seed);
        let plain: Vec<simwork::Timed> = cases.iter().map(SimCase::run_untraced).collect();
        rss_mb = peak_rss_mb(gate);
        let mut sliced_s = 0.0;
        for (i, (case, plain)) in cases.iter().zip(&plain).enumerate() {
            gate.sim_run(w.name(), i, &plain.out, None, w.expect(seed));
            match simwork::run_traced(case, &mut spans, &mut costs) {
                Ok(t) => {
                    sliced_s += t.run_s;
                    gate.sim_run("traced", i, &t.out, Some(&plain.out), w.expect(seed));
                    total.absorb(&t.out.tally);
                }
                Err(e) => gate.error(format!("{} case {i}: {e}", w.name())),
            }
        }
        untraced_s = plain.iter().map(|p| p.run_s).sum::<f64>();
        traced_s = sliced_s;
    }
    let hold = simwork::hold_ns(
        &mut spans,
        netstack::SimConfig::default().scheduler,
        total.perf.peak_event_queue,
        seed,
    );
    write_spans(w, seed, &spans, gate);
    for (name, t) in spans.totals() {
        println!("span {name}: {} x, total {:.6} s, self {:.6} s", t.count, t.total_s, t.self_s);
    }
    let run_until_s: f64 = spans
        .durations("netstack.run_until")
        .iter()
        .chain(spans.durations("netstack.suffix").iter())
        .sum();
    let mut metrics =
        layer_metrics(&total, &costs, &spans, hold, run_until_s, traced_s / untraced_s, &mc);
    metrics.push(metric("process.peak_rss_mb", rss_mb, "MB"));
    metrics
}

/// Model-checking figures (all 0 on the simulation workloads).
#[derive(Debug, Default)]
struct McFigures {
    branches: f64,
    pruned: f64,
    suffix_events: f64,
    branch_ms: Vec<f64>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn layer_metrics(
    t: &Tally,
    costs: &Costs,
    spans: &Spans,
    hold_ns: f64,
    run_until_s: f64,
    overhead: f64,
    mc: &McFigures,
) -> Vec<Metric> {
    let p = &t.perf;
    let records = |i: usize| t.records[i] as f64;
    let phy_tx = t.phy_tx as f64;
    vec![
        metric("sim-core.events", p.events_processed as f64, "count"),
        metric("sim-core.ns_per_event", ratio(run_until_s * 1e9, p.events_processed as f64), "ns"),
        metric("sim-core.queue_peak", p.peak_event_queue as f64, "count"),
        metric("sim-core.stale_pops", p.timers_stale_popped as f64, "count"),
        metric("sim-core.hold_ns", hold_ns, "ns"),
        metric(
            "sim-core.snapshot_bytes",
            ratio(costs.snapshot_bytes as f64, costs.snapshots as f64),
            "B",
        ),
        metric("sim-core.snapshot_encode_s", ratio(costs.encode_s, costs.snapshots as f64), "s"),
        metric("sim-core.restore_s", ratio(costs.restore_s, costs.restores as f64), "s"),
        metric("phy.events", p.phy_events as f64, "count"),
        metric("phy.rx_per_tx", ratio(p.phy_events as f64 - phy_tx, 2.0 * phy_tx), "count"),
        metric("phy.move_ns", ratio(costs.move_s * 1e9, costs.moves as f64), "ns"),
        metric("phy.position_updates", p.position_updates as f64, "count"),
        metric("phy.link_churn", p.link_churn as f64, "count"),
        metric("topo.build_s", median(&spans.durations("topo.build")), "s"),
        metric("netstack.new_s", median(&spans.durations("netstack.new")), "s"),
        metric("netstack.ifq_peak", p.peak_ifq_depth as f64, "count"),
        metric("netstack.queue_drops", t.queue_drops as f64, "count"),
        metric("mac80211.events", p.mac_events as f64, "count"),
        metric("mac80211.collisions", t.collisions as f64, "count"),
        metric("mac80211.retry_drops", t.mac_drops as f64, "count"),
        metric("aodv.events", p.routing_events as f64, "count"),
        metric("aodv.rreq_sent", t.rreq_sent as f64, "count"),
        metric("aodv.rerr_sent", t.rerr_sent as f64, "count"),
        metric("tcp.events", p.transport_events as f64, "count"),
        metric(
            "tcp.goodput_kbps",
            ratio(t.delivered_bytes as f64 * 8.0 / 1e3, t.virtual_s),
            "kbit/s",
        ),
        metric("tcp.retransmissions", t.retransmissions as f64, "count"),
        metric("tcp.timeouts", t.timeouts as f64, "count"),
        metric(
            "tcp.delivery_ratio",
            ratio(t.delivered_segments as f64, t.segments_sent as f64),
            "ratio",
        ),
        metric("muzha.drai_samples", p.sampling_events as f64, "count"),
        metric("faultline.events_seen", t.checker_events as f64, "count"),
        metric("faultline.mc.branches", mc.branches, "count"),
        metric("faultline.mc.pruned", mc.pruned, "count"),
        metric("harness.mc.suffix_events", mc.suffix_events, "count"),
        metric("harness.mc.branch_ms.p50", quantile(&mc.branch_ms, 0.5), "ms"),
        metric("harness.mc.branch_ms.p95", quantile(&mc.branch_ms, 0.95), "ms"),
        metric("tracelog.records.phy", records(0), "count"),
        metric("tracelog.records.mac", records(1), "count"),
        metric("tracelog.records.rtr", records(2), "count"),
        metric("tracelog.records.ifq", records(3), "count"),
        metric("tracelog.records.agt", records(4), "count"),
        metric("trace.overhead_ratio", overhead, "ratio"),
    ]
}

fn write_spans(w: Workload, seed: u64, spans: &Spans, gate: &mut Gate) {
    let path = format!("{OUT_DIR}/{}-seed{seed}.spans.json", w.name());
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, spans.to_json(w.name(), seed)));
    match written {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => gate.error(format!("cannot write {path}: {e}")),
    }
}

/// Prints every metric by name and unit, the failures, and the JSON line.
fn print_result(w: Workload, gate: &Gate, metrics: &[Metric]) {
    for e in &gate.errors {
        println!("FAIL {}: {e}", w.name());
    }
    for m in metrics {
        println!("{} {} = {} {}", w.name(), m.name, m.value, m.unit);
    }
    println!(
        "{} failed_share = {} ({} of {} runs)",
        w.name(),
        ratio(gate.failed as f64, gate.attempted as f64),
        gate.failed,
        gate.attempted
    );
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.correct(),
        gate.attempted.max(1),
        gate.failed.max(u64::from(gate.attempted == 0))
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_gate(seed: u64) -> Gate {
        let mut gate = Gate::default();
        for (i, case) in Workload::Chain.cases(seed).iter().enumerate() {
            let first = case.run_untraced();
            gate.sim_run("chain", i, &first.out, None, Workload::Chain.expect(seed));
            let again = case.run_untraced();
            gate.sim_run("chain", i, &again.out, Some(&first.out), Workload::Chain.expect(seed));
        }
        gate
    }

    #[test]
    fn chain_matches_its_pins_at_the_default_seed() {
        let gate = chain_gate(gate::DEFAULT_SEED);
        assert!(gate.correct(), "{:?}", gate.errors);
        assert_eq!(gate.attempted, 2 * simwork::CHAIN_SEEDS);
    }

    #[test]
    fn chain_passes_the_gate_at_the_held_out_seed() {
        let gate = chain_gate(gate::HELD_OUT_SEED);
        assert!(gate.correct(), "{:?}", gate.errors);
    }

    #[test]
    fn seeds_derive_distinct_inputs() {
        let a: Vec<u64> = Workload::City.cases(1).iter().map(|c| c.cfg.seed).collect();
        let b: Vec<u64> = Workload::City.cases(2).iter().map(|c| c.cfg.seed).collect();
        assert_eq!(a.len() as u64, simwork::CITY_SEEDS);
        assert!(a.iter().all(|s| !b.contains(s)));
        assert_eq!(a, Workload::City.cases(1).iter().map(|c| c.cfg.seed).collect::<Vec<_>>());
    }

    #[test]
    fn quantiles_use_nearest_rank_and_median_averages_the_middle() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.95), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
