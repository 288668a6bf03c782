//! Model-checker CLI: exhaustively explores the bounded interleavings of a
//! `.scn` scenario script under the runtime invariant checker and emits a
//! machine-readable verdict.
//!
//! ```sh
//! cargo run --release -p harness --bin mc -- --script PATH.scn \
//!     [--tie-window START:END] [--max-branches N] [--max-depth N] \
//!     [--shift-window SECS] [--shift-steps N] [--report PATH] [--quiet]
//! ```
//!
//! The run follows the scenario-corpus convention: a 4-hop chain, one
//! NewReno flow end to end, the script's seed and duration. `--tie-window`
//! bounds which same-instant ties become choice points (virtual seconds,
//! e.g. `3.9:4.5`); without it every tie in the run branches, which is
//! rarely tractable. `--shift-window`/`--shift-steps` additionally explore
//! fault placements shifted on a grid of that half-width. `--report PATH`
//! writes the canonical branch log (byte-identical across runs of the same
//! exploration — CI diffs it to pin determinism).
//!
//! `--resume` (requires `--tie-window`) switches to checkpointed branch
//! resume: the shared prefix before the window runs once per placement, is
//! snapshotted, and every branch restores the snapshot and replays only
//! its suffix. Verdicts are bit-identical to full replay; the saved event
//! count is reported on stderr.
//!
//! The verdict block goes to stdout. On a violation the counter-example's
//! decision vector and a flight-recorder dump of the lead-up window are
//! printed, and the exit code is 2; a truncated (non-exhaustive) clean
//! search exits 3; a proof exits 0. A missing or malformed flag also
//! exits 2, after a one-line message on stderr and before any search.

use faultline::mc::McConfig;
use faultline::ScenarioScript;
use harness::cli::Args;
use harness::mc::{explore_scenario, explore_scenario_resumed, flight_recorder_dump};
use sim_core::SimTime;

fn main() {
    let args = Args::from_env();
    let script_path = args.required("--script");
    let text =
        std::fs::read_to_string(&script_path).unwrap_or_else(|e| panic!("read {script_path}: {e}"));
    let script =
        ScenarioScript::parse(&text).unwrap_or_else(|e| panic!("parse {script_path}: {e}"));

    let mut cfg =
        McConfig { tie_window: args.parsed("--tie-window", parse_window), ..McConfig::default() };
    if let Some(n) = args.number("--max-branches") {
        cfg.max_branches = n;
    }
    if let Some(n) = args.number("--max-depth") {
        cfg.max_depth = n;
    }
    if let Some(secs) = args.number("--shift-window") {
        cfg.shift_window_ns = sim_core::SimDuration::from_secs_f64(secs).as_nanos();
    }
    if let Some(n) = args.number("--shift-steps") {
        cfg.shift_steps = n;
    }
    let report = args.value("--report");
    let quiet = args.has("--quiet");
    let resume = args.has("--resume");
    assert!(
        !resume || cfg.tie_window.is_some(),
        "--resume needs --tie-window: the checkpoint sits at the window start"
    );

    if !quiet {
        eprintln!(
            "exploring {} (window {:?}, max {} branches, depth {}, {} placement step(s){})...",
            script.name,
            cfg.tie_window,
            cfg.max_branches,
            cfg.max_depth,
            cfg.shift_steps,
            if resume { ", checkpointed" } else { "" }
        );
    }
    let verdict = if resume {
        let (verdict, stats) = explore_scenario_resumed(&script, &cfg);
        if !quiet {
            eprintln!(
                "checkpoint resume: {} events dispatched ({} prefix + {} replayed) vs {} for full replay",
                stats.resumed_events(),
                stats.prefix_events,
                stats.replayed_events,
                stats.full_replay_events
            );
        }
        verdict
    } else {
        explore_scenario(&script, &cfg)
    };
    if !quiet {
        eprintln!(
            "{}: {} branches explored, {} pruned, {} choice points deep",
            verdict.status(),
            verdict.branches_explored,
            verdict.branches_pruned,
            verdict.max_choice_points
        );
    }

    print!("{}", verdict.render());
    if verdict.counter_example.is_some() {
        if let Some(dump) = flight_recorder_dump(&script, &cfg, &verdict) {
            print!("{dump}");
        }
    }
    if let Some(path) = report {
        std::fs::write(&path, verdict.render_log()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        if !quiet {
            eprintln!("branch log ({} branches) written to {path}", verdict.log.len());
        }
    }

    std::process::exit(match (verdict.counter_example.is_some(), verdict.truncated) {
        (true, _) => 2,
        (false, true) => 3,
        (false, false) => 0,
    });
}

/// Parses a `START:END` window in virtual seconds.
fn parse_window(text: &str) -> Result<(SimTime, SimTime), String> {
    let (start, end) =
        text.split_once(':').ok_or_else(|| format!("wants START:END seconds, got {text:?}"))?;
    let secs = |v: &str| v.parse::<f64>().map_err(|_| format!("{v:?} is not a number of seconds"));
    let (start, end) = (secs(start)?, secs(end)?);
    if start.is_nan() || end.is_nan() || start > end {
        return Err(format!("start {start} must not exceed end {end}"));
    }
    Ok((SimTime::from_secs_f64(start), SimTime::from_secs_f64(end)))
}
