//! Trace capture CLI: runs a single-flow chain scenario with the trace
//! subsystem enabled and emits the capture as ns-2 trace lines, a pcap
//! file, or CSV.
//!
//! ```sh
//! cargo run --release -p harness --bin trace -- \
//!     [--hops N] [--variant NAME] [--secs S] [--seed S] [--quick] \
//!     [--topology SPEC] [--mobility SPEC] \
//!     [--format ns2|pcap|csv] [--follow-flow F] [--last N] [--out PATH]
//! ```
//!
//! Defaults: a 4-hop chain, one Muzha flow, 10 virtual seconds, ns-2
//! format on stdout. `--quick` shortens the run to 2 s (used by the CI
//! smoke job). `--follow-flow F` keeps only records attributable to flow
//! `F`; `--last N` keeps only the final `N` records. `--out` writes to a
//! file instead of stdout; pcap output is binary and requires it.
//!
//! `--topology SPEC` (e.g. `grid:4x4`, `random-disc:40`,
//! `city-blocks:4x4@16`) swaps the chain for a generated topology, with
//! one flow between the two most-separated nodes; `--mobility SPEC`
//! (`static`, `waypoint`, `waypoint:1-20@30`) sets every node roaming.

use harness::cli::Args;
use harness::tracecap::{self, TraceFormat};
use netstack::{MobilitySpec, SimConfig, TcpVariant, TopologySpec};
use sim_core::SimDuration;
use tracelog::{TraceEntry, TraceFilter};
use wire::FlowId;

fn main() {
    let args = Args::from_env();
    let quick = args.has("--quick");

    let hops: usize = args.number("--hops").unwrap_or(4);
    let variant = args.parsed("--variant", tracecap::parse_variant).unwrap_or(TcpVariant::Muzha);
    let secs: u64 = args.number("--secs").unwrap_or(if quick { 2 } else { 10 });
    let seed: Option<u64> = args.number("--seed");
    let format = args
        .parsed("--format", |v| {
            TraceFormat::parse(v).ok_or_else(|| format!("unknown format {v:?}; want ns2|pcap|csv"))
        })
        .unwrap_or(TraceFormat::Ns2);
    let follow: Option<FlowId> = args.number("--follow-flow").map(FlowId::new);
    let last: Option<usize> = args.number("--last");
    let out = args.value("--out");
    let topology = args.parsed("--topology", TopologySpec::parse);
    let mobility = args.parsed("--mobility", MobilitySpec::parse);

    let mut cfg = SimConfig::default();
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    let mut filter = TraceFilter::all();
    if let Some(flow) = follow {
        filter = filter.flow(flow);
    }

    let (log, flow) = if let Some(spec) = topology {
        cfg.topology = spec;
        cfg.mobility = mobility.unwrap_or_default();
        eprintln!(
            "capturing {spec} topology ({} nodes, {} mobility), {} flow, {secs} s virtual...",
            spec.node_count(),
            cfg.mobility,
            variant.name()
        );
        tracecap::capture_topology(variant, SimDuration::from_secs(secs), cfg, filter)
    } else {
        assert!(mobility.is_none(), "--mobility needs --topology");
        eprintln!("capturing {hops}-hop chain, {} flow, {secs} s virtual...", variant.name());
        tracecap::capture_chain(hops, variant, SimDuration::from_secs(secs), cfg, filter)
    };
    eprintln!("flow {flow}: {} records seen, {} kept", log.seen(), log.kept());

    let entries: Vec<TraceEntry> = tracecap::tail(log.iter().copied().collect(), last);
    let bytes = tracecap::render(&entries, format);

    match out {
        Some(path) => {
            std::fs::write(&path, &bytes).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {} records ({} bytes) to {path}", entries.len(), bytes.len());
        }
        None => {
            assert!(
                !format.is_binary(),
                "pcap output is binary; pass --out PATH instead of writing to stdout"
            );
            // Tolerate a closed pipe (`trace ... | head`) instead of
            // panicking mid-write.
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(&bytes);
        }
    }
}
