//! Snapshot/resume CLI over the corpus-convention simulation (4-hop chain,
//! one NewReno flow, the script's seed and duration).
//!
//! ```sh
//! # One checkpoint at virtual time T:
//! cargo run --release -p harness --bin checkpoint -- snapshot \
//!     --script PATH.scn --at SECS --out run.snap
//!
//! # Periodic checkpoints every N virtual seconds until the duration:
//! cargo run --release -p harness --bin checkpoint -- snapshot \
//!     --script PATH.scn --checkpoint-every SECS --out-dir DIR
//!
//! # Resume a checkpoint and run to the script's duration (or --until):
//! cargo run --release -p harness --bin checkpoint -- resume \
//!     --script PATH.scn --from run.snap [--until SECS]
//! ```
//!
//! A resumed run is bit-identical to the straight run — same `trace_hash`,
//! same perf counters (the twin test `tests/snapshot_twin.rs` pins this
//! over the whole corpus). Both subcommands print the final trace hash so
//! straight and resumed legs can be compared from the shell. Exit codes:
//! 0 on success, 1 on usage errors, 2 when a flag lacks its value or a
//! number does not parse, or when a snapshot fails to restore.

use std::fs;

use faultline::ScenarioScript;
use harness::cli::Args;
use harness::mc::{corpus_duration, corpus_sim};
use sim_core::{SimDuration, SimTime};

fn main() {
    let args = Args::from_env();
    let Some(mode) = args.first() else {
        usage("missing subcommand");
    };
    let script_path = args.value("--script").unwrap_or_else(|| usage("--script is required"));
    let text = fs::read_to_string(&script_path)
        .unwrap_or_else(|e| fail(&format!("read {script_path}: {e}")));
    let script =
        ScenarioScript::parse(&text).unwrap_or_else(|e| fail(&format!("parse {script_path}: {e}")));
    let duration = corpus_duration(&script);

    match mode {
        "snapshot" => snapshot(&script, duration, &args),
        "resume" => resume(&script, duration, &args),
        other => usage(&format!("unknown subcommand {other:?} (want snapshot or resume)")),
    }
}

/// `snapshot`: run to `--at` and write one snapshot, or sweep
/// `--checkpoint-every` writing one file per checkpoint instant.
fn snapshot(script: &ScenarioScript, duration: SimDuration, args: &Args) {
    let mut sim = corpus_sim(script);
    if let Some(every) = args.number::<f64>("--checkpoint-every") {
        if every.is_nan() || every <= 0.0 {
            usage("--checkpoint-every must be positive");
        }
        let out_dir = args
            .value("--out-dir")
            .unwrap_or_else(|| usage("--out-dir is required with --checkpoint-every"));
        fs::create_dir_all(&out_dir).unwrap_or_else(|e| fail(&format!("mkdir {out_dir}: {e}")));
        let step = SimDuration::from_secs_f64(every);
        let mut at = SimTime::ZERO + step;
        let mut written = 0usize;
        while at < SimTime::ZERO + duration {
            sim.run_until(at);
            let path = format!("{out_dir}/{}-t{:.3}.snap", script.name, at.as_secs_f64());
            fs::write(&path, sim.snapshot())
                .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            println!(
                "checkpoint {path}: t={} events={} hash={:#018x}",
                at,
                sim.perf().events_processed,
                sim.trace_hash()
            );
            written += 1;
            at += step;
        }
        sim.run_until(SimTime::ZERO + duration);
        println!(
            "{} checkpoint(s) in {out_dir}; final t={} hash={:#018x}",
            written,
            sim.now(),
            sim.trace_hash()
        );
    } else {
        let at: f64 = args
            .number("--at")
            .unwrap_or_else(|| usage("snapshot wants --at SECS or --checkpoint-every SECS"));
        let out = args.value("--out").unwrap_or_else(|| usage("--out PATH is required"));
        sim.run_until(SimTime::from_secs_f64(at));
        let bytes = sim.snapshot();
        fs::write(&out, &bytes).unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
        println!(
            "snapshot {out}: {} bytes, t={} events={} hash={:#018x}",
            bytes.len(),
            sim.now(),
            sim.perf().events_processed,
            sim.trace_hash()
        );
    }
}

/// `resume`: restore `--from` into a freshly built convention simulator and
/// run to the script's duration (or `--until`).
fn resume(script: &ScenarioScript, duration: SimDuration, args: &Args) {
    let from = args.value("--from").unwrap_or_else(|| usage("resume wants --from PATH"));
    let bytes = fs::read(&from).unwrap_or_else(|e| fail(&format!("read {from}: {e}")));
    let end = match args.number("--until") {
        Some(secs) => SimTime::from_secs_f64(secs),
        None => SimTime::ZERO + duration,
    };
    let mut sim = corpus_sim(script);
    if let Err(e) = sim.restore(&bytes) {
        eprintln!("cannot resume {from}: {e}");
        std::process::exit(2);
    }
    let resumed_from = sim.now();
    let baseline = sim.perf().events_processed;
    sim.run_until(end);
    let perf = sim.perf();
    println!(
        "resumed {from} at t={resumed_from}, ran to t={}: events={} (+{} after resume) hash={:#018x}",
        sim.now(),
        perf.events_processed,
        perf.events_processed - baseline,
        sim.trace_hash()
    );
}

fn usage(msg: &str) -> ! {
    eprintln!("checkpoint: {msg}");
    eprintln!(
        "usage: checkpoint snapshot --script PATH.scn (--at SECS --out PATH | --checkpoint-every SECS --out-dir DIR)"
    );
    eprintln!("       checkpoint resume --script PATH.scn --from PATH [--until SECS]");
    std::process::exit(1);
}

fn fail(msg: &str) -> ! {
    eprintln!("checkpoint: {msg}");
    std::process::exit(1);
}
