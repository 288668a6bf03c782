//! The snapshot/restore honesty gate: for every script in the scenario
//! corpus, a run snapshotted at a
//! pseudo-random mid-run instant T and resumed in a *fresh* simulator must
//! be indistinguishable from the straight run — equal `trace_hash`, equal
//! `RunPerf`, and a byte-identical ns-2 trace stream for the resumed
//! suffix. Any layer state the snapshot forgot to carry (a stale timer
//! slot, an un-reset RTO backoff, a dangling DOOR recovery point) shows up
//! here as a hash divergence.

use tcp_muzha::faultline::ScenarioScript;
use tcp_muzha::net::{
    topology, FlowSpec, MobilitySpec, SimConfig, Simulator, TcpVariant, TopologySpec,
};
use tcp_muzha::sim::{SimTime, SnapError, TraceHash, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use tcp_muzha::tracecap;
use tracelog::{ns2, TraceEntry, TraceLog};

/// The corpus, embedded like `tests/scenario_corpus.rs` embeds it.
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

/// Corpus-convention simulator: 4-hop chain, one NewReno flow end to end,
/// the script's seed. The scenario is *not* loaded — the straight leg
/// loads it, the resumed leg gets it via `restore`.
fn build_sim(script: &ScenarioScript) -> Simulator {
    let seed = script.seed.expect("corpus scripts declare a seed");
    let cfg = SimConfig { seed, ..SimConfig::default() };
    let mut sim = Simulator::new(topology::chain(4), cfg);
    let (src, dst) = topology::chain_flow(4);
    sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
    sim
}

/// A deterministic pseudo-random snapshot instant in the middle 80% of the
/// run, derived from the scenario name so every corpus entry gets a
/// different T and reruns are reproducible.
fn snapshot_instant(name: &str, duration_ns: u64) -> SimTime {
    let mut h = TraceHash::new();
    h.write_str(name);
    let lo = duration_ns / 10;
    let span = duration_ns - 2 * lo;
    SimTime::from_nanos(lo + h.digest() % span.max(1))
}

/// ns-2 rendering of the log entries strictly after `t` (the straight
/// run's resumable suffix).
fn suffix_stream(log: &TraceLog, t: SimTime) -> String {
    let entries: Vec<TraceEntry> = log.iter().filter(|e| e.at > t).copied().collect();
    ns2::render(entries.iter())
}

#[test]
fn snapshot_then_resume_is_bit_identical_across_the_corpus() {
    for (name, text) in CORPUS {
        let script = ScenarioScript::parse(text)
            .unwrap_or_else(|e| panic!("scenario {name} failed to parse: {e}"));
        let duration = script.duration.expect("corpus scripts declare a duration");
        let end = SimTime::ZERO + duration;
        let t = snapshot_instant(name, duration.as_nanos());

        // Straight leg: run to T, snapshot (a pure observation), then
        // run on to the end of the scripted duration.
        let mut straight = build_sim(&script);
        straight.load_scenario(&script);
        straight.install_trace_log(TraceLog::new());
        straight.run_until(t);
        let bytes = straight.snapshot();
        straight.run_until(end);
        let straight_log = straight.take_trace_log().expect("log was installed");

        // Resumed leg: a fresh simulator (scenario never loaded — the
        // snapshot carries the scripted faults) restored from T.
        let mut resumed = build_sim(&script);
        resumed.restore(&bytes).unwrap_or_else(|e| panic!("{name}: restore at {t} failed: {e}"));
        resumed.install_trace_log(TraceLog::new());
        resumed.run_until(end);
        let resumed_log = resumed.take_trace_log().expect("log was installed");

        assert_eq!(
            straight.trace_hash(),
            resumed.trace_hash(),
            "{name}: trace hash diverged after resume at {t}"
        );
        assert_eq!(straight.perf(), resumed.perf(), "{name}: RunPerf diverged after resume at {t}");
        let straight_suffix = suffix_stream(&straight_log, t);
        let resumed_stream = ns2::render(resumed_log.iter());
        assert!(
            !resumed_stream.is_empty(),
            "{name}: the resumed suffix traced nothing — T {t} too late?"
        );
        assert_eq!(
            straight_suffix, resumed_stream,
            "{name}: ns-2 trace streams diverged after resume at {t}"
        );
    }
}

/// Taking a snapshot must not perturb the run: the straight leg above
/// calls `snapshot()` mid-run, so pin that a run *without* the mid-run
/// snapshot produces the same hash.
#[test]
fn taking_a_snapshot_is_a_pure_observation() {
    let (name, text) = CORPUS[0];
    let script = ScenarioScript::parse(text).expect("corpus parses");
    let duration = script.duration.expect("corpus scripts declare a duration");
    let end = SimTime::ZERO + duration;
    let t = snapshot_instant(name, duration.as_nanos());

    let mut plain = build_sim(&script);
    plain.load_scenario(&script);
    plain.run_until(end);

    let mut observed = build_sim(&script);
    observed.load_scenario(&script);
    observed.run_until(t);
    let _bytes = observed.snapshot();
    observed.run_until(end);

    assert_eq!(plain.trace_hash(), observed.trace_hash(), "snapshot() perturbed the run");
    assert_eq!(plain.perf(), observed.perf());
}

/// Mobility state rides the snapshot too: a generated random-waypoint
/// topology (`Simulator::from_config`, every node roaming) snapshotted
/// mid-flight — motion plans in progress, pause timers pending, the
/// spatial grid index mid-churn — and resumed in a fresh simulator must
/// replay bit-identically to the straight run.
#[test]
fn mobile_run_resumes_bit_identically() {
    let end = SimTime::from_secs_f64(5.0);
    let t = SimTime::from_secs_f64(2.0);
    let cfg = SimConfig {
        seed: 0x0B11_E77E,
        topology: TopologySpec::random_disc_dense(16, 250.0),
        mobility: MobilitySpec::DEFAULT_WAYPOINT,
        ..SimConfig::default()
    };
    let build = || {
        let mut sim = Simulator::from_config(cfg);
        let (src, dst) = tracecap::farthest_pair(&sim);
        sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim
    };

    let mut straight = build();
    straight.run_until(t);
    assert!(
        straight.perf().position_updates > 0,
        "no motion before the snapshot instant — T too early?"
    );
    let bytes = straight.snapshot();
    straight.run_until(end);

    let mut resumed = build();
    resumed.restore(&bytes).unwrap_or_else(|e| panic!("mobile restore at {t} failed: {e}"));
    resumed.run_until(end);

    assert_eq!(
        straight.trace_hash(),
        resumed.trace_hash(),
        "mobile trace hash diverged after resume at {t}"
    );
    assert_eq!(straight.perf(), resumed.perf(), "mobile RunPerf diverged after resume at {t}");
}

/// A snapshot refuses to restore into a simulator built under a different
/// configuration or topology — the fingerprint gate.
#[test]
fn restore_rejects_a_config_mismatch() {
    let script = ScenarioScript::parse(CORPUS[0].1).expect("corpus parses");
    let mut sim = build_sim(&script);
    sim.load_scenario(&script);
    sim.run_until(SimTime::from_secs_f64(0.5));
    let bytes = sim.snapshot();

    // Different seed ⇒ different fingerprint.
    let mut reseeded = script.clone();
    reseeded.seed = Some(4242);
    let mut other = build_sim(&reseeded);
    let err = other.restore(&bytes).expect_err("a reseeded twin must be rejected");
    assert!(matches!(err, SnapError::Mismatch(_)), "expected a fingerprint mismatch, got {err}");

    // A failed restore leaves the target untouched: it still runs from 0.
    other.load_scenario(&reseeded);
    other.run_until(SimTime::from_secs_f64(0.5));
    assert!(other.perf().events_processed > 0);
}

/// A snapshot whose header names an older format version is refused before
/// any field is decoded: an error value, never a panic or a misread.
#[test]
fn restore_rejects_an_older_snapshot_version() {
    let script = ScenarioScript::parse(CORPUS[0].1).expect("corpus parses");
    let mut sim = build_sim(&script);
    sim.run_until(SimTime::from_secs_f64(0.5));
    let mut bytes = sim.snapshot();
    assert_eq!(&bytes[..SNAPSHOT_MAGIC.len()], SNAPSHOT_MAGIC.as_slice());
    let old = SNAPSHOT_VERSION - 1;
    assert_eq!(old, 2, "the previous format is version 2");
    bytes[SNAPSHOT_MAGIC.len()..SNAPSHOT_MAGIC.len() + 2].copy_from_slice(&old.to_le_bytes());

    let mut fresh = build_sim(&script);
    assert_eq!(fresh.restore(&bytes), Err(SnapError::UnsupportedVersion(2)));
    // The refused restore left the target untouched.
    assert_eq!(fresh.perf().events_processed, 0);
}
