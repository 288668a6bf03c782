//! The scenario corpus runner: every script in `tests/scenarios/` runs on
//! the reference topology under the runtime invariant checker, twice, and
//! must (a) parse, (b) produce bit-identical twin runs (same seed + script
//! ⇒ same `trace_hash`), and (c) finish with zero invariant violations.
//!
//! A final test feeds the checker an intentionally-buggy event stream to
//! prove the harness *can* fail — a checker that never fires is worthless.

use tcp_muzha::faultline::mc::{self, BranchOutcome, McConfig};
use tcp_muzha::faultline::{InvariantChecker, LedgerSummary, ScenarioScript};
use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::sim::{
    DriverQueue, SchedulerKind, SimDuration, SimTime, TieClass, TieKind, TieOrder, TraceHash,
};
use tcp_muzha::tracelog::{PacketKind, TraceRecord};
use tcp_muzha::wire::{FlowId, NodeId};

/// The corpus, embedded so the test binary is self-contained and the run
/// order is deterministic.
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

/// Corpus convention: every scenario runs on the 4-hop chain (nodes 0..=4)
/// with one NewReno flow end to end, the script's seed, and the script's
/// duration.
fn run_scenario(script: &ScenarioScript) -> (u64, u64, LedgerSummary, Vec<String>) {
    let seed = script.seed.expect("corpus scripts declare a seed");
    let duration = script.duration.expect("corpus scripts declare a duration");
    let cfg = SimConfig { seed, ..SimConfig::default() };
    let mut sim = Simulator::new(topology::chain(4), cfg);
    let (src, dst) = topology::chain_flow(4);
    let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
    sim.load_scenario(script);
    sim.install_checker(InvariantChecker::new());
    sim.run_until(SimTime::ZERO + duration);
    let checker = sim.take_checker().expect("checker was installed");
    let violations = checker.violations().iter().map(|v| v.to_string()).collect();
    (sim.trace_hash(), sim.flow_report(flow).delivered_segments, checker.ledger(), violations)
}

#[test]
fn corpus_parses_and_is_well_formed() {
    for (name, text) in CORPUS {
        let script = ScenarioScript::parse(text)
            .unwrap_or_else(|e| panic!("scenario {name} failed to parse: {e}"));
        assert_eq!(script.name, name, "file name and `name` header must agree");
        assert!(script.seed.is_some(), "{name}: corpus scripts must pin a seed");
        assert!(script.duration.is_some(), "{name}: corpus scripts must pin a duration");
        assert!(!script.events.is_empty(), "{name}: corpus scripts must inject something");
        assert!(
            script.duration
                > script.events.iter().map(|e| Some(e.at - SimTime::ZERO)).max().flatten(),
            "{name}: every fault must fire within the run"
        );
    }
}

#[test]
fn corpus_runs_clean_and_twin_runs_are_bit_identical() {
    for (name, text) in CORPUS {
        let script = ScenarioScript::parse(text)
            .unwrap_or_else(|e| panic!("scenario {name} failed to parse: {e}"));
        let (hash_a, delivered_a, ledger_a, violations_a) = run_scenario(&script);
        let (hash_b, delivered_b, _, _) = run_scenario(&script);
        assert_eq!(
            hash_a, hash_b,
            "{name}: twin runs with the same seed + script must be bit-identical"
        );
        assert_eq!(delivered_a, delivered_b, "{name}: twin delivery counts diverged");
        assert!(
            violations_a.is_empty(),
            "{name}: invariant violations:\n{}",
            violations_a.join("\n")
        );
        assert!(delivered_a > 0, "{name}: the flow delivered nothing at all");
        assert_eq!(
            ledger_a.injected,
            ledger_a.delivered + ledger_a.dropped + ledger_a.fault_dropped + ledger_a.in_flight,
            "{name}: conservation ledger does not balance: {ledger_a:?}"
        );
    }
}

/// Scenario seeds are not decorative: two corpus entries differing only in
/// seed must produce different traces.
#[test]
fn corpus_seeds_matter() {
    let script = ScenarioScript::parse(include_str!("scenarios/chain-break.scn")).unwrap();
    let mut reseeded = script.clone();
    reseeded.seed = Some(999);
    let (a, ..) = run_scenario(&script);
    let (b, ..) = run_scenario(&reseeded);
    assert_ne!(a, b, "changing the seed must change the trace hash");
}

/// The intentionally-buggy fixture: a fabricated record stream with a
/// receiver sequence regression, a delivery that was never injected, and a
/// forward over a route that expired. The checker must flag all three —
/// proving a clean corpus means something.
#[test]
fn checker_flags_an_intentionally_buggy_stream() {
    let t = SimTime::from_secs_f64;
    let flow = FlowId::new(0);
    let send = |uid| TraceRecord::TcpSend {
        node: NodeId::new(0),
        flow,
        seq: uid,
        uid,
        bytes: 1500,
        retransmit: false,
    };
    let recv = |uid, rcv_nxt_after| TraceRecord::TcpRecvData {
        node: NodeId::new(4),
        flow,
        seq: uid,
        uid,
        avbw: None,
        marked: false,
        rcv_nxt_after,
    };
    let mut checker = InvariantChecker::new();
    checker.on_record(t(1.0), &send(1));
    checker.on_record(t(1.1), &recv(1, 10));
    // Bug 1: rcv_nxt goes backwards.
    checker.on_record(t(1.2), &send(2));
    checker.on_record(t(1.3), &recv(2, 5));
    // Bug 2: a data packet materialises out of thin air.
    checker.on_record(t(2.0), &recv(999, 11));
    // Bug 3: forwarding data on an expired route.
    checker.on_record(
        t(3.0),
        &TraceRecord::RtrForward {
            node: NodeId::new(1),
            next_hop: NodeId::new(2),
            kind: PacketKind::TcpData,
            uid: 3,
            flow: Some(flow),
            bytes: 1540,
            ttl: 30,
            origin: false,
            route_valid_until: Some(t(2.5)),
        },
    );
    checker.finish(t(4.0));
    let invariants: Vec<&str> = checker.violations().iter().map(|v| v.invariant).collect();
    assert!(invariants.contains(&"tcp-monotone"), "missing regression flag: {invariants:?}");
    assert!(invariants.contains(&"conservation"), "missing conservation flag: {invariants:?}");
    assert!(invariants.contains(&"aodv-route-fresh"), "missing route flag: {invariants:?}");
    // Violations carry the recent record trail for diagnosis.
    assert!(checker.violations().iter().all(|v| !v.trail.is_empty()));
}

/// `SimDuration` is re-exported through the facade for scenario tooling.
#[test]
fn scenario_duration_roundtrips_through_facade_types() {
    let script = ScenarioScript::parse("duration 2.5\nat 1 heal\n").unwrap();
    assert_eq!(script.duration, Some(SimDuration::from_secs_f64(2.5)));
}

// ---------------------------------------------------------------------------
// The planted ordering bug (tests/fixtures/mc-ordering-bug.scn).
// ---------------------------------------------------------------------------

/// The timer toy behind the fixture: one retransmit-timer slot held the way
/// the stack held it before the generation-token guard (PR 5) — `armed`
/// stores the token of the live timer, a `Fire` pop consumes it, an
/// `AckRearm` cancels the live timer and arms a fresh token one second out.
#[derive(Clone, Copy, Debug)]
enum TimerToyEvent {
    /// A queued timer pop carrying the token it was armed with.
    Fire { token: u32 },
    /// The ACK that cancels the live timer and re-arms token `next`.
    AckRearm { next: u32 },
}

/// Replays the fixture's tie under `decisions`. With `guarded` false, the
/// `Fire` handler checks only that *a* timer is armed — the pre-PR 5 bug.
/// With it true, the handler demands an exact token match (the id-match
/// guard the real stack carries in `netstack`'s timer wheel).
///
/// The invariant: the re-armed retransmit obligation (token 2) must
/// eventually fire. In FIFO order the stale `Fire{1}` runs before the ACK,
/// legitimately consumes token 1, and the bug is invisible; only the
/// flipped permutation — ACK first, then the now-stale `Fire{1}` — makes
/// the unguarded handler swallow token 2's arming and drop the obligation.
fn run_timer_toy(
    script: &ScenarioScript,
    guarded: bool,
    seed: u64,
    decisions: &[usize],
) -> BranchOutcome {
    let at = script.events.first().expect("fixture pins the tie instant").at;
    let mut q = DriverQueue::new(SchedulerKind::Heap);
    q.push(at, TimerToyEvent::Fire { token: 1 }); // queued before the ACK ⇒ FIFO runs it first
    q.push(at, TimerToyEvent::AckRearm { next: 2 });
    let mut order = TieOrder::new(decisions.to_vec());
    let mut armed = Some(1u32);
    let mut fired: Vec<u32> = Vec::new();
    let mut trace = TraceHash::new();
    trace.write_u64(seed);
    loop {
        // The same choke point as `Simulator::pop_event`: both events are
        // same-node work, so nothing here is prunable.
        let popped = if q.tie_count() > 1 {
            let group = vec![TieClass::node(0, TieKind::NodeWork); q.tie_count()];
            let chosen = order.choose(q.peek_time().expect("tie implies a head"), group);
            q.pop_nth(chosen)
        } else {
            q.pop()
        };
        let Some((now, ev)) = popped else { break };
        match ev {
            TimerToyEvent::Fire { token } => {
                let hit = if guarded { armed == Some(token) } else { armed.is_some() };
                trace.write_u64(u64::from(token));
                if hit {
                    armed = None;
                    fired.push(token);
                }
            }
            TimerToyEvent::AckRearm { next } => {
                trace.write_u64(u64::from(next) << 32);
                armed = Some(next);
                q.push(now + SimDuration::from_secs(1), TimerToyEvent::Fire { token: next });
            }
        }
    }
    let mut violations = Vec::new();
    if !fired.contains(&2) {
        violations.push("timer-guard: re-armed retransmit obligation never fired".to_string());
    }
    BranchOutcome { trace_hash: trace.digest(), choices: order.into_choices(), violations }
}

/// The ISSUE's acceptance scenario for the explorer: 8-seed FIFO sampling
/// (the corpus runner's whole arsenal before this PR) passes the buggy
/// handler every time, the explorer catches it in two branches, and the
/// guarded handler — the shape the real stack uses — is *proved* clean over
/// the same space.
#[test]
fn explorer_catches_the_planted_timer_guard_bug() {
    let script = ScenarioScript::parse(include_str!("fixtures/mc-ordering-bug.scn"))
        .expect("fixture parses");
    assert_eq!(script.name, "mc-ordering-bug");

    // Seed sampling never flips same-instant FIFO order, so every seed
    // takes the clean path and the bug stays invisible.
    for seed in 1..=8 {
        let fifo = run_timer_toy(&script, false, seed, &[]);
        assert!(fifo.violations.is_empty(), "seed {seed} sampling must miss the bug");
    }

    // The explorer flips the tie and finds the counter-example immediately.
    let cfg = McConfig::default();
    let buggy = mc::explore(&script.name, 1, &cfg, |_, d| {
        run_timer_toy(&script, false, script.seed.unwrap_or(1), d)
    });
    assert_eq!(buggy.status(), "VIOLATION");
    let ce = buggy.counter_example.expect("the flipped tie must violate");
    assert_eq!(ce.decisions, vec![1], "ACK-before-stale-fire is the losing order");
    assert!(ce.violations.iter().any(|v| v.contains("timer-guard")), "{:?}", ce.violations);

    // With the id-match guard the same exploration is a proof: both orders
    // of the tie keep the obligation alive.
    let guarded = mc::explore(&script.name, 1, &cfg, |_, d| {
        run_timer_toy(&script, true, script.seed.unwrap_or(1), d)
    });
    assert!(guarded.proved(), "got {}", guarded.status());
    assert_eq!(guarded.branches_explored, 2, "one tie of two conflicting events ⇒ two branches");
}
