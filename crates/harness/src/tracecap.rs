//! Shared capture plumbing for the trace sinks.
//!
//! Runs a scenario with a [`TraceLog`] installed and renders the captured
//! entries in one of the supported formats (ns-2 trace lines, a pcap
//! capture, or structured CSV). Everything here returns in-memory strings
//! or byte vectors — file I/O stays in the binaries, on the wall-clock
//! side of the determinism boundary.

use std::fmt::Write as _;

use netstack::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use sim_core::{SimDuration, SimTime};
use tracelog::{ns2, pcap, TraceEntry, TraceFilter, TraceLog};
use wire::{FlowId, NodeId};

/// Output format of a rendered capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// ns-2-style wireless trace lines (see [`tracelog::ns2`]).
    Ns2,
    /// A libpcap capture with `DLT_USER0` records (see [`tracelog::pcap`]).
    Pcap,
    /// Structured CSV: one row per record, common columns only.
    Csv,
}

impl TraceFormat {
    /// Parses a format name as given on a command line.
    pub fn parse(name: &str) -> Option<TraceFormat> {
        match name {
            "ns2" => Some(TraceFormat::Ns2),
            "pcap" => Some(TraceFormat::Pcap),
            "csv" => Some(TraceFormat::Csv),
            _ => None,
        }
    }

    /// Conventional file extension for the format.
    pub fn extension(self) -> &'static str {
        match self {
            TraceFormat::Ns2 => "tr",
            TraceFormat::Pcap => "pcap",
            TraceFormat::Csv => "csv",
        }
    }

    /// Whether the rendered bytes are binary (unsafe to print to a tty).
    pub fn is_binary(self) -> bool {
        matches!(self, TraceFormat::Pcap)
    }
}

/// Looks a [`TcpVariant`] up by its display name, case-insensitively.
///
/// # Errors
///
/// A message listing the known names when `name` matches none.
pub fn parse_variant(name: &str) -> Result<TcpVariant, String> {
    TcpVariant::ALL
        .into_iter()
        .find(|v| v.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown variant {name:?}; known: {:?}", TcpVariant::ALL))
}

/// Runs a single-flow `hops`-hop chain with a trace log installed and
/// returns the captured log together with the flow id.
pub fn capture_chain(
    hops: usize,
    variant: TcpVariant,
    duration: SimDuration,
    cfg: SimConfig,
    filter: TraceFilter,
) -> (TraceLog, FlowId) {
    let mut sim = Simulator::new(topology::chain(hops), cfg);
    let (src, dst) = topology::chain_flow(hops);
    let flow = sim.add_flow(FlowSpec::new(src, dst, variant));
    sim.install_trace_log(TraceLog::with_filter(filter));
    sim.run_until(SimTime::ZERO + duration);
    let log = sim.take_trace_log().expect("log installed above");
    (log, flow)
}

/// The pair of nodes with the greatest initial separation (first such pair
/// in row-major scan order — deterministic). A natural flow for arbitrary
/// generated topologies: the longest line the routing layer must sustain.
pub fn farthest_pair(sim: &Simulator) -> (NodeId, NodeId) {
    let n = sim.node_count();
    assert!(n >= 2, "a flow needs two nodes");
    let (mut best, mut best_sq) = ((NodeId::new(0), NodeId::new(1)), -1.0);
    for i in 0..n {
        let pi = sim.position(NodeId::new(i as u16));
        for j in (i + 1)..n {
            let d = pi.distance_sq_to(sim.position(NodeId::new(j as u16)));
            if d > best_sq {
                best_sq = d;
                best = (NodeId::new(i as u16), NodeId::new(j as u16));
            }
        }
    }
    best
}

/// Runs whatever topology and mobility model `cfg` describes (see
/// [`netstack::TopologySpec`] / [`netstack::MobilitySpec`]) with a trace
/// log installed, driving one flow between the two most-separated nodes,
/// and returns the captured log with the flow id.
pub fn capture_topology(
    variant: TcpVariant,
    duration: SimDuration,
    cfg: SimConfig,
    filter: TraceFilter,
) -> (TraceLog, FlowId) {
    let mut sim = Simulator::from_config(cfg);
    let (src, dst) = farthest_pair(&sim);
    let flow = sim.add_flow(FlowSpec::new(src, dst, variant));
    sim.install_trace_log(TraceLog::with_filter(filter));
    sim.run_until(SimTime::ZERO + duration);
    let log = sim.take_trace_log().expect("log installed above");
    (log, flow)
}

/// Renders entries as CSV with the common per-record columns:
/// `time_s,op,node,layer,uid,flow`. Uids and flows absent from a record
/// render as `-`; no field ever needs quoting.
pub fn csv<'a>(entries: impl IntoIterator<Item = &'a TraceEntry>) -> String {
    let mut out = String::from("time_s,op,node,layer,uid,flow\n");
    for entry in entries {
        let rec = &entry.record;
        let nanos = entry.at.as_nanos();
        let _ = write!(
            out,
            "{}.{:09},{},{},{},",
            nanos / 1_000_000_000,
            nanos % 1_000_000_000,
            rec.direction().ns2_op(),
            rec.node(),
            rec.layer().ns2_tag(),
        );
        match rec.uid() {
            Some(uid) => {
                let _ = write!(out, "{uid},");
            }
            None => out.push_str("-,"),
        }
        match rec.flow() {
            Some(flow) => {
                let _ = writeln!(out, "{flow}");
            }
            None => out.push_str("-\n"),
        }
    }
    out
}

/// Renders entries in the requested format. `Ns2` and `Csv` are UTF-8
/// text; `Pcap` is binary.
pub fn render(entries: &[TraceEntry], format: TraceFormat) -> Vec<u8> {
    match format {
        TraceFormat::Ns2 => ns2::render(entries.iter()).into_bytes(),
        TraceFormat::Pcap => pcap::write(entries.iter()),
        TraceFormat::Csv => csv(entries.iter()).into_bytes(),
    }
}

/// Keeps only the final `last` entries when a limit is given.
pub fn tail(mut entries: Vec<TraceEntry>, last: Option<usize>) -> Vec<TraceEntry> {
    if let Some(n) = last {
        if entries.len() > n {
            entries.drain(..entries.len() - n);
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelog::Layer;

    fn short_capture() -> Vec<TraceEntry> {
        let (log, _) = capture_chain(
            2,
            TcpVariant::NewReno,
            SimDuration::from_secs(1),
            SimConfig::default(),
            TraceFilter::all(),
        );
        log.iter().copied().collect()
    }

    #[test]
    fn capture_reaches_every_layer() {
        let entries = short_capture();
        for layer in [Layer::Phy, Layer::Mac, Layer::Rtr, Layer::Ifq, Layer::Agt] {
            assert!(
                entries.iter().any(|e| e.record.layer() == layer),
                "no {layer:?} records in a 1 s chain run"
            );
        }
    }

    #[test]
    fn csv_is_rectangular_and_unquoted() {
        let entries = short_capture();
        let text = csv(entries.iter());
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("time_s,op,node,layer,uid,flow"));
        for line in lines {
            assert_eq!(line.split(',').count(), 6, "bad row: {line}");
            assert!(!line.contains('"'));
        }
        assert_eq!(text.lines().count(), entries.len() + 1);
    }

    #[test]
    fn pcap_render_self_parses() {
        let entries = short_capture();
        let bytes = render(&entries, TraceFormat::Pcap);
        let parsed = pcap::parse(&bytes).expect("own capture parses");
        assert_eq!(parsed.packets.len(), entries.len());
        assert_eq!(parsed.link_type, pcap::DLT_USER0);
    }

    #[test]
    fn tail_keeps_the_last_n() {
        let entries = short_capture();
        assert!(entries.len() > 10);
        let kept = tail(entries.clone(), Some(10));
        assert_eq!(kept.len(), 10);
        assert_eq!(kept.last(), entries.last());
        assert_eq!(tail(entries.clone(), None).len(), entries.len());
        assert_eq!(tail(entries.clone(), Some(usize::MAX)).len(), entries.len());
    }

    #[test]
    fn format_parsing() {
        assert_eq!(TraceFormat::parse("ns2"), Some(TraceFormat::Ns2));
        assert_eq!(TraceFormat::parse("pcap"), Some(TraceFormat::Pcap));
        assert_eq!(TraceFormat::parse("csv"), Some(TraceFormat::Csv));
        assert_eq!(TraceFormat::parse("json"), None);
        assert!(TraceFormat::Pcap.is_binary() && !TraceFormat::Ns2.is_binary());
        assert_eq!(parse_variant("muzha"), Ok(TcpVariant::Muzha));
        assert_eq!(parse_variant("newreno"), Ok(TcpVariant::NewReno));
        assert!(parse_variant("bogus").is_err());
    }
}
