//! Calibration driver: runs reduced versions of every experiment and
//! prints the key paper-shape checks. Used during development; the full
//! regeneration lives in the bench crate and examples.
//!
//! ```sh
//! cargo run --release -p harness --bin calibrate -- \
//!     [sweep|coexist|cwnd|dynamics|all] [--jobs N] [--trace PATH] [--pcap PATH]
//! ```
//!
//! `--trace PATH` / `--pcap PATH` additionally capture the representative
//! 4-hop Muzha run through the trace subsystem (`crates/tracelog`) and
//! write it as ns-2 trace lines / a pcap file.

use harness::cli::Args;
use harness::experiments::{
    coexistence, cwnd_traces, throughput_dynamics_batch, throughput_vs_hops, CoexistKind,
    SweepMetric,
};
use harness::tracecap::{self, TraceFormat};
use harness::ExperimentConfig;
use netstack::{SimConfig, TcpVariant};
use sim_core::{SimDuration, SimTime};
use tracelog::{TraceEntry, TraceFilter};

/// Flags that consume the following argument (so it is not the positional
/// experiment selector).
const VALUE_FLAGS: [&str; 3] = ["--jobs", "--trace", "--pcap"];

fn main() {
    let args = Args::from_env();
    let which = args.positionals(&VALUE_FLAGS).first().copied().unwrap_or("all");
    let jobs: usize = args.number("--jobs").unwrap_or(1);
    let trace_path = args.value("--trace");
    let pcap_path = args.value("--pcap");

    if which == "sweep" || which == "all" {
        let cfg = ExperimentConfig {
            seeds: vec![11, 23, 37, 53, 71],
            duration: SimDuration::from_secs(30),
            base: SimConfig::default(),
            jobs,
        };
        let sweep = throughput_vs_hops(&[4, 8, 16, 24, 32], &[4, 8, 32], &TcpVariant::PAPER, &cfg);
        for w in [4u32, 8, 32] {
            println!("== Throughput (kbps) vs hops, window_={w} (Fig 5.8-5.10) ==");
            println!("{}", sweep.render(w, SweepMetric::ThroughputKbps));
            println!("== Retransmissions vs hops, window_={w} (Fig 5.11-5.13) ==");
            println!("{}", sweep.render(w, SweepMetric::Retransmissions));
        }
    }

    if which == "coexist" || which == "all" {
        let cfg = ExperimentConfig {
            seeds: vec![11, 23, 37, 53, 71],
            duration: SimDuration::from_secs(50),
            base: SimConfig::default(),
            jobs,
        };
        let pairs = [
            CoexistKind { horizontal: TcpVariant::NewReno, vertical: TcpVariant::Vegas },
            CoexistKind { horizontal: TcpVariant::NewReno, vertical: TcpVariant::Muzha },
        ];
        let result = coexistence(&[4, 6, 8], &pairs, &cfg);
        println!("== Coexistence on cross topology (Figs 5.16-5.18) ==");
        println!("{}", result.render());
    }

    if which == "cwnd" || which == "all" {
        for hops in [4usize, 8, 16] {
            let traces = cwnd_traces(
                hops,
                &TcpVariant::PAPER,
                SimDuration::from_secs(10),
                SimConfig::default(),
            );
            println!("== cwnd summary, {hops}-hop chain (Figs 5.2-5.7) ==");
            for t in traces {
                let mean = t.mean_cwnd(SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(10.0));
                let sd = t.cwnd_std_dev(SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(10.0));
                println!("  {:>8}: mean cwnd {:5.2}  std {:5.2}", t.variant.name(), mean, sd);
            }
        }
    }

    if which == "dynamics" || which == "all" {
        println!("== Throughput dynamics tail fairness (Figs 5.19-5.22) ==");
        let results = throughput_dynamics_batch(
            &TcpVariant::PAPER,
            SimDuration::from_secs(30),
            SimDuration::from_secs(1),
            SimConfig::default(),
            jobs,
        );
        for result in &results {
            println!(
                "  {:>8}: fairness(last 10s of 3-flow phase) = {:.3}",
                result.variant.name(),
                result.tail_fairness(10)
            );
        }
    }

    if trace_path.is_some() || pcap_path.is_some() {
        println!("== Trace capture (4-hop Muzha chain, 10 s) ==");
        let (log, _) = tracecap::capture_chain(
            4,
            TcpVariant::Muzha,
            SimDuration::from_secs(10),
            SimConfig::default(),
            TraceFilter::all(),
        );
        let entries: Vec<TraceEntry> = log.iter().copied().collect();
        if let Some(path) = trace_path {
            std::fs::write(&path, tracecap::render(&entries, TraceFormat::Ns2))
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("  wrote {} ns-2 trace lines to {path}", entries.len());
        }
        if let Some(path) = pcap_path {
            std::fs::write(&path, tracecap::render(&entries, TraceFormat::Pcap))
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("  wrote {} pcap records to {path}", entries.len());
        }
    }
}
