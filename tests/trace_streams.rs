//! Tier-1 gate for the trace subsystem (`crates/tracelog`): captured
//! streams must be byte-identical across twin runs and across batch worker
//! counts, the pcap sink must self-parse, the rendered ns-2 stream must
//! match a checked-in golden fixture, the flight recorder must dump
//! exactly its ring on an injected invariant violation, and no observer
//! setup may change a run or what the checker concludes.

use tcp_muzha::experiments::cwnd_traces_batch;
use tcp_muzha::faultline::{CheckerLimits, InvariantChecker, LedgerSummary, ScenarioScript};
use tcp_muzha::mc::{corpus_duration, corpus_sim};
use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::sim::{SimDuration, SimTime};
use tcp_muzha::tracecap;
use tcp_muzha::tracelog::{ns2, pcap, Layer, TraceEntry, TraceFilter, TraceLog, TraceRecord};

/// The same corpus `tests/scenario_corpus.rs` runs clean; here every
/// script must also produce a byte-identical trace stream on a twin run.
const CORPUS: [(&str, &str); 8] = [
    ("chain-break", include_str!("scenarios/chain-break.scn")),
    ("relay-crash", include_str!("scenarios/relay-crash.scn")),
    ("bursty-channel", include_str!("scenarios/bursty-channel.scn")),
    ("blackhole-window", include_str!("scenarios/blackhole-window.scn")),
    ("partition-heal", include_str!("scenarios/partition-heal.scn")),
    ("pause-resume", include_str!("scenarios/pause-resume.scn")),
    ("queue-squeeze", include_str!("scenarios/queue-squeeze.scn")),
    ("storm", include_str!("scenarios/storm.scn")),
];

/// Corpus convention (see `tests/scenario_corpus.rs`): 4-hop chain, one
/// NewReno flow, the script's seed and duration — here with a full trace
/// log installed.
fn run_traced_scenario(script: &ScenarioScript) -> TraceLog {
    let seed = script.seed.expect("corpus scripts declare a seed");
    let duration = script.duration.expect("corpus scripts declare a duration");
    let cfg = SimConfig { seed, ..SimConfig::default() };
    let mut sim = Simulator::new(topology::chain(4), cfg);
    let (src, dst) = topology::chain_flow(4);
    sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
    sim.load_scenario(script);
    sim.install_trace_log(TraceLog::new());
    sim.run_until(SimTime::ZERO + duration);
    sim.take_trace_log().expect("log was installed")
}

#[test]
fn corpus_twin_runs_produce_byte_identical_trace_streams() {
    for (name, text) in CORPUS {
        let script = ScenarioScript::parse(text)
            .unwrap_or_else(|e| panic!("scenario {name} failed to parse: {e}"));
        let a = run_traced_scenario(&script);
        let b = run_traced_scenario(&script);
        assert!(!a.is_empty(), "{name}: the traced run recorded nothing");
        let stream_a = ns2::render(a.iter());
        let stream_b = ns2::render(b.iter());
        assert_eq!(stream_a, stream_b, "{name}: twin runs must render byte-identical ns-2 streams");
        // The binary sink must agree too — same entries, same bytes.
        assert_eq!(
            pcap::write(a.iter()),
            pcap::write(b.iter()),
            "{name}: twin runs must render byte-identical pcap captures"
        );
    }
}

#[test]
fn batch_worker_count_does_not_change_traces() {
    // `cwnd_traces_batch` runs every (hops, variant) combo through the
    // trace subsystem; fanning across workers must not change a single
    // sample.
    let variants = [TcpVariant::NewReno, TcpVariant::Muzha];
    let serial =
        cwnd_traces_batch(&[2, 3], &variants, SimDuration::from_secs(2), SimConfig::default(), 1);
    let parallel =
        cwnd_traces_batch(&[2, 3], &variants, SimDuration::from_secs(2), SimConfig::default(), 4);
    assert_eq!(serial.len(), parallel.len());
    for (row_s, row_p) in serial.iter().zip(&parallel) {
        for (s, p) in row_s.iter().zip(row_p) {
            assert_eq!(s.variant, p.variant);
            assert_eq!(
                s.trace.samples(),
                p.trace.samples(),
                "{}-hop {}: --jobs changed the cwnd trace",
                s.hops,
                s.variant
            );
        }
    }
}

/// Lines of golden fixture coverage: enough to cross route discovery,
/// slow-start, and steady data flow on the 2-hop chain.
const GOLDEN_LINES: usize = 250;

fn golden_capture() -> Vec<TraceEntry> {
    let (log, _) = tracecap::capture_chain(
        2,
        TcpVariant::NewReno,
        SimDuration::from_secs(1),
        SimConfig::default(),
        TraceFilter::all(),
    );
    log.snapshot()
}

#[test]
fn two_hop_newreno_stream_matches_golden_fixture() {
    // The first GOLDEN_LINES ns-2 lines of a canonical 2-hop NewReno run,
    // checked in at tests/fixtures/trace_newreno_2hop.tr. Any change to
    // packet timing, uid assignment, or trace formatting shows up here as
    // a reviewable fixture diff (regenerate with:
    // `cargo run -p harness --bin trace -- --hops 2 --variant newreno \
    //    --secs 1 | head -n 250`).
    let entries = golden_capture();
    assert!(entries.len() >= GOLDEN_LINES, "run too short for the fixture");
    let rendered = ns2::render(entries[..GOLDEN_LINES].iter());
    let golden = include_str!("fixtures/trace_newreno_2hop.tr");
    assert_eq!(
        rendered, golden,
        "ns-2 stream diverged from tests/fixtures/trace_newreno_2hop.tr \
         (if intentional, regenerate the fixture)"
    );
}

#[test]
fn pcap_capture_self_parses_and_mirrors_the_entries() {
    let entries = golden_capture();
    let bytes = pcap::write(entries.iter());
    let parsed = pcap::parse(&bytes).expect("own capture must self-parse");
    assert_eq!(parsed.link_type, pcap::DLT_USER0);
    assert_eq!(parsed.packets.len(), entries.len());
    for pair in parsed.packets.windows(2) {
        assert!(pair[0].ts_nanos <= pair[1].ts_nanos, "capture timestamps must be monotone");
    }
    for (packet, entry) in parsed.packets.iter().zip(&entries) {
        assert_eq!(packet.ts_nanos, entry.at.as_nanos());
        assert_eq!(packet.node, entry.record.node().index() as u16);
        assert_eq!(packet.direction, entry.record.direction().code());
        assert_eq!(packet.layer, entry.record.layer().code());
        assert_eq!(packet.data, ns2::line(entry).into_bytes());
    }
}

#[test]
fn flight_recorder_dump_is_the_tail_of_the_full_stream() {
    const CAP: usize = 24;
    // An absurdly low cwnd ceiling guarantees a violation early in any
    // normal transfer.
    let limits = CheckerLimits { max_cwnd_segments: 2.0, ..CheckerLimits::default() };
    let run = |log: TraceLog| {
        let mut sim = Simulator::new(topology::chain(2), SimConfig::default());
        let (src, dst) = topology::chain_flow(2);
        sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim.install_checker(InvariantChecker::with_limits(limits));
        sim.install_trace_log(log);
        sim.run_until(SimTime::from_secs_f64(3.0));
        sim.take_trace_log().expect("log was installed")
    };
    let full = run(TraceLog::new());
    let recorder = run(TraceLog::flight_recorder(CAP));

    let dumps = recorder.dumps();
    assert!(!dumps.is_empty(), "the injected violation must trigger a dump");
    let dump = &dumps[0];
    assert_eq!(dump.entries.len(), CAP, "the dump must hold exactly the ring");
    assert!(!dump.reason.is_empty(), "the dump must carry the violation text");

    // Both runs are deterministic twins, so the dump must be a contiguous
    // window of the full stream ending at the violation point.
    let full_lines: Vec<String> = full.iter().map(ns2::line).collect();
    let dump_lines: Vec<String> = dump.entries.iter().map(ns2::line).collect();
    let found = full_lines.windows(CAP).any(|w| w == dump_lines.as_slice());
    assert!(found, "dump is not a contiguous window of the full trace stream");
    // The log is fed before the checker, so the window ends at the cwnd
    // sample that tripped the ceiling.
    let last = dump.entries.last().map(|e| e.record);
    assert!(matches!(last, Some(TraceRecord::TcpCwnd { .. })), "dump ends at {last:?}");
}

/// What one observer setup saw: the run's trace hash, the sealed checker's
/// findings, and the log's ns-2 stream.
struct Observed {
    hash: u64,
    checker: Option<(u64, LedgerSummary, Vec<String>)>,
    stream: Option<String>,
}

fn observe_corpus_run(script: &ScenarioScript, checker: bool, log: Option<TraceLog>) -> Observed {
    let mut sim = corpus_sim(script);
    if checker {
        sim.install_checker(InvariantChecker::new());
    }
    if let Some(log) = log {
        sim.install_trace_log(log);
    }
    sim.run_until(SimTime::ZERO + corpus_duration(script));
    let checker = sim.take_checker().map(|c| {
        let violations = c.violations().iter().map(ToString::to_string).collect();
        (c.events_seen(), c.ledger(), violations)
    });
    let stream = sim.take_trace_log().map(|log| ns2::render(log.iter()));
    Observed { hash: sim.trace_hash(), checker, stream }
}

fn corpus_script(name: &str) -> ScenarioScript {
    let (_, text) = CORPUS.iter().find(|(n, _)| *n == name).expect("corpus script");
    ScenarioScript::parse(text).expect("corpus script parses")
}

#[test]
fn observer_setups_agree_on_the_run_and_the_checker_ignores_the_log_filter() {
    for name in ["relay-crash", "chain-break", "blackhole-window"] {
        let script = corpus_script(name);
        let agt_only = || TraceLog::with_filter(TraceFilter::all().layer(Layer::Agt));
        let bare = observe_corpus_run(&script, false, None);
        let checked = observe_corpus_run(&script, true, None);
        let filtered = observe_corpus_run(&script, true, Some(agt_only()));
        let full = observe_corpus_run(&script, true, Some(TraceLog::new()));
        for other in [&checked, &filtered, &full] {
            assert_eq!(bare.hash, other.hash, "{name}: an observer changed the run");
        }
        let verdict = checked.checker.as_ref().expect("checker installed");
        assert_eq!(filtered.checker.as_ref(), Some(verdict), "{name}: the log filter leaked");
        assert_eq!(full.checker.as_ref(), Some(verdict), "{name}: a full log changed the checker");
        assert!(verdict.2.is_empty(), "{name}: {:?}", verdict.2);

        let full_stream = full.stream.expect("log installed");
        let filtered_stream = filtered.stream.expect("log installed");
        let agt_lines: Vec<&str> = full_stream.lines().filter(|l| l.contains(" AGT ")).collect();
        assert_eq!(filtered_stream.lines().collect::<Vec<_>>(), agt_lines, "{name}");
        let count = |needle: &str| full_stream.lines().filter(|l| l.contains(needle)).count();
        // Every fault-dropped data packet has its own FaultDrop line.
        assert!(count(" [FLT]") as u64 >= verdict.1.fault_dropped, "{name}");
        if name == "chain-break" {
            assert_eq!(count(" link 0 [-- n3 down]"), 1, "{name}: one scripted link-down");
            assert_eq!(count(" link 0 [-- n3 up]"), 1, "{name}: one scripted link-up");
        }
        if name == "blackhole-window" {
            assert!(count(" [FLT]") > 0, "{name}: the blackhole ate nothing");
        }
    }
}
