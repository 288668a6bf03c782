//! `simlint` — the workspace determinism & panic-safety analyzer.
//!
//! Every figure the TCP Muzha reproduction regenerates (cwnd traces,
//! chain-sweep goodput, fairness indices) is only trustworthy if the seeded
//! discrete-event simulator is bit-for-bit deterministic and does not panic
//! mid-run. This crate is a std-only static-analysis pass over the
//! workspace source tree enforcing the written policy in `DESIGN.md`.
//!
//! v2 architecture (no rustc/syn dependency — the build environment is
//! offline):
//!
//! 1. **Lexer** ([`lexer`]) — each file is tokenized once (raw strings at
//!    any hash depth, nested block comments, char literals vs. lifetimes),
//!    with `#[cfg(test)]` items resolved to their exact brace extent.
//! 2. **Token rules** — `nondet`, `hash-collections`, `panic-unwrap`,
//!    `nan-compare`, `binary-heap`, plus `cast-truncate` (narrowing `as`
//!    on time/seq/uid arithmetic), `float-order` (comparators ordering raw
//!    floats), and `timer-clear` (raw timer-slot clears bypassing the
//!    TimerSlab id-match contract).
//! 3. **Cross-file rules** — `event-accounting` (every `netstack::sim::Event`
//!    variant has a distinct fold tag, a `RunPerf` classification arm, and a
//!    dispatch arm) and `trace-coverage` (every `TraceRecord` variant is
//!    producible from a simulator choke point and consumed by every sink).
//! 4. **Allowlist ratchet** — remaining true positives are budgeted
//!    per-(rule, path) in `simlint.allow`; budgets only move down, and
//!    stale budgets fail the tier-1 gate.
//!
//! The analyzer runs as `cargo run -p simlint` and as a tier-1 test in the
//! root crate (`tests/simlint_policy.rs`), so `cargo test` fails on any new
//! violation. Output formats: human text, JSON, and SARIF 2.1.0.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;

mod crossfile;
mod rules;
mod sarif;

pub use sarif::render_sarif;

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// The policy rules the analyzer enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Wall-clock time, OS entropy, or thread-local RNG anywhere.
    Nondeterminism,
    /// `HashMap`/`HashSet` in a simulation-state crate.
    HashCollections,
    /// `.unwrap()`, `.expect(...)` or literal-index slicing in protocol code.
    PanicUnwrap,
    /// NaN-unsafe `f64` ordering in simulation crates.
    NanCompare,
    /// `std::collections::BinaryHeap` outside `crates/sim-core/src/`.
    AdHocHeap,
    /// Narrowing `as` cast on time/seq/uid arithmetic in sim-state code.
    CastTruncate,
    /// Comparator methods ordering raw floats outside the stats module.
    FloatOrder,
    /// Raw timer-slot clears bypassing the TimerSlab id-match contract.
    TimerClear,
    /// `std::thread` use outside the licensed wall-clock measurement crates.
    ThreadSpawn,
    /// An `Event` variant missing its fold tag, `RunPerf` arm, or dispatch arm.
    EventAccounting,
    /// A `TraceRecord` variant no choke point produces or a sink drops.
    TraceCoverage,
}

impl Rule {
    /// The stable machine-readable rule name (used in `simlint.allow`).
    pub fn name(self) -> &'static str {
        match self {
            Rule::Nondeterminism => "nondet",
            Rule::HashCollections => "hash-collections",
            Rule::PanicUnwrap => "panic-unwrap",
            Rule::NanCompare => "nan-compare",
            Rule::AdHocHeap => "binary-heap",
            Rule::CastTruncate => "cast-truncate",
            Rule::FloatOrder => "float-order",
            Rule::TimerClear => "timer-clear",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::EventAccounting => "event-accounting",
            Rule::TraceCoverage => "trace-coverage",
        }
    }

    /// Parses a rule name as spelled in the allowlist.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// All rules, in reporting order.
    pub const ALL: [Rule; 11] = [
        Rule::Nondeterminism,
        Rule::HashCollections,
        Rule::PanicUnwrap,
        Rule::NanCompare,
        Rule::AdHocHeap,
        Rule::CastTruncate,
        Rule::FloatOrder,
        Rule::TimerClear,
        Rule::ThreadSpawn,
        Rule::EventAccounting,
        Rule::TraceCoverage,
    ];

    /// One-line summary (SARIF `shortDescription`, `--explain` header).
    pub fn summary(self) -> &'static str {
        match self {
            Rule::Nondeterminism => "wall-clock time, OS entropy, or thread-local RNG",
            Rule::HashCollections => "HashMap/HashSet in a simulation-state crate",
            Rule::PanicUnwrap => "unwrap/expect/literal indexing in protocol code",
            Rule::NanCompare => "NaN-unsafe partial_cmp in float comparators",
            Rule::AdHocHeap => "BinaryHeap outside the scheduler's home crate",
            Rule::CastTruncate => "narrowing `as` cast on time/seq/uid arithmetic",
            Rule::FloatOrder => "comparator method ordering raw floats",
            Rule::TimerClear => "raw timer-slot clear bypassing the id-match contract",
            Rule::ThreadSpawn => "std::thread use outside the licensed parallel drivers",
            Rule::EventAccounting => "Event variant not folded, classified, and dispatched",
            Rule::TraceCoverage => "TraceRecord variant unproduced or dropped by a sink",
        }
    }

    /// Why the rule exists, tied to the reproduction's invariants. This is
    /// the same prose DESIGN.md §5a cites, and what `--explain` prints.
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::Nondeterminism => {
                "Twin-run determinism (same seed, same trace hash) is the foundation \
                 every regenerated figure rests on. Wall-clock reads and unseeded \
                 entropy are invisible inputs: they cannot be replayed, so a single \
                 Instant/SystemTime/thread_rng touching simulation state silently \
                 voids the reproduction. All time must flow from sim_core::SimTime, \
                 all randomness from sim_core::SimRng. The measurement crates \
                 (harness, bench) are licensed for Instant only: wall-clock numbers \
                 are their product and never feed back into simulator state."
            }
            Rule::HashCollections => {
                "HashMap/HashSet iterate in per-process randomized order. If such a \
                 collection feeds the event loop (neighbor sets, flow tables), two \
                 same-seed runs can process ties in different orders and diverge. \
                 Sim-state crates use sim_core::DetMap/DetSet or BTreeMap/BTreeSet."
            }
            Rule::PanicUnwrap => {
                "A panic mid-run discards the whole simulation, and protocol code is \
                 exactly where malformed-but-possible states (empty queues, missing \
                 routes, half-open flows) concentrate. Each unwrap/expect/literal \
                 index in sim-state code must either be rewritten to handle its None/\
                 Err arm or carry an explicit budget in simlint.allow."
            }
            Rule::NanCompare => {
                "partial_cmp returns None for NaN; comparators built on it (usually \
                 via .unwrap()) panic or — worse — order inconsistently across \
                 platforms. f64::total_cmp is total and IEEE-defined, so orderings \
                 stay identical everywhere."
            }
            Rule::AdHocHeap => {
                "std::collections::BinaryHeap breaks ties arbitrarily. The event \
                 queue in crates/sim-core (sim_core::DriverQueue) keys its heap on \
                 (time, seq) to get the FIFO tie discipline the trace-hash contract \
                 depends on; any ad-hoc heap elsewhere would bypass it and \
                 reintroduce ordering nondeterminism."
            }
            Rule::CastTruncate => {
                "`as` silently truncates. On time (nanos), sequence, ack, and uid \
                 arithmetic that is not a rounding error but a correctness cliff: a \
                 wrapped timestamp reorders a trace, a wrapped seq corrupts \
                 acknowledgment accounting. Narrowing conversions on such values \
                 must go through try_from with explicit overflow handling."
            }
            Rule::FloatOrder => {
                "Sorting or min/max-ing raw floats with handwritten comparators is \
                 where NaN and platform rounding sneak into event ordering. Outside \
                 the statistics module (whose inputs are post-run observations), \
                 comparators must use f64::total_cmp or order on integer keys."
            }
            Rule::TimerClear => {
                "PR 5's lazy timer tombstones mean a popped timer event may be stale. \
                 The contract: a slot is cleared only behind an id-match guard \
                 (`if self.x_timer == Some(id)`) or cancelled via `.take()` + \
                 TimerSlab::cancel. A raw `self.x_timer = None` leaves the slab \
                 entry live, so a reused slot can receive a stale fire."
            }
            Rule::ThreadSpawn => {
                "Threads are where nondeterminism re-enters a deterministic \
                 simulator: anything computed on a worker thread and merged in \
                 completion order (instead of a fixed order) varies run to run. \
                 Parallelism is confined to the wall-clock measurement crates, \
                 whose batch runner executes independent whole runs and merges \
                 them in submission order. Everywhere else, std::thread is \
                 banned; new parallel code must route through harness::run_batch \
                 so the merge discipline stays in one reviewed place."
            }
            Rule::EventAccounting => {
                "Every netstack::sim::Event variant must appear in fold_event (with a \
                 distinct integer tag), account_event (incrementing a subsystem \
                 counter), and dispatch. These are three separate match statements \
                 the compiler checks only for exhaustiveness-with-wildcards; this \
                 rule closes them statically, so classified_total() == \
                 events_processed and trace-hash coverage can never be broken by an \
                 unhandled new variant — previously that only failed at runtime."
            }
            Rule::TraceCoverage => {
                "The trace subsystem is the reproduction's evidence. Every \
                 TraceRecord variant must be producible from at least one simulator \
                 choke point and consumed by every sink: the ns-2 sink matches by \
                 name (checked directly), while pcap/csv consume through the \
                 layer/node/flow/uid/direction accessors — so those matches and \
                 Layer::ALL must stay wildcard-free and complete."
            }
        }
    }

    /// An example finding, as `--explain` prints it.
    pub fn example(self) -> &'static str {
        match self {
            Rule::Nondeterminism => {
                "crates/aodv/src/engine.rs:41: [nondet] `Instant` is wall-clock time: \
                 virtual time must come from sim_core::SimTime\n    let t0 = \
                 Instant::now();"
            }
            Rule::HashCollections => {
                "crates/netstack/src/sim.rs:12: [hash-collections] `HashMap` iteration \
                 order can perturb event ordering\n    use std::collections::HashMap;"
            }
            Rule::PanicUnwrap => {
                "crates/tcp/src/sender.rs:88: [panic-unwrap] `.unwrap()` in protocol \
                 code\n    let seg = self.inflight.front().unwrap();"
            }
            Rule::NanCompare => {
                "crates/netstack/src/red.rs:60: [nan-compare] `partial_cmp` on floats \
                 is None for NaN\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());"
            }
            Rule::AdHocHeap => {
                "crates/aodv/src/table.rs:7: [binary-heap] `BinaryHeap` breaks ties \
                 arbitrarily\n    use std::collections::BinaryHeap;"
            }
            Rule::CastTruncate => {
                "crates/tracelog/src/pcap.rs:38: [cast-truncate] `as u32` on `nanos` \
                 can silently truncate time/seq/uid arithmetic\n    \
                 out.extend_from_slice(&((nanos / 1_000_000_000) as u32).to_le_bytes());"
            }
            Rule::FloatOrder => {
                "crates/netstack/src/sim.rs:710: [float-order] `.sort_by` comparator \
                 orders raw floats\n    \
                 powers.sort_by(|a, b| a.partial_cmp(b).unwrap());"
            }
            Rule::TimerClear => {
                "crates/mac80211/src/dcf.rs:412: [timer-clear] raw timer-slot clear: \
                 `attempt_timer` is set to None without an id-match guard\n    \
                 self.attempt_timer = None;"
            }
            Rule::ThreadSpawn => {
                "crates/aodv/src/engine.rs:92: [thread-spawn] `std::thread` outside \
                 the licensed parallel drivers\n    std::thread::spawn(move || \
                 rebuild_table(routes));"
            }
            Rule::EventAccounting => {
                "crates/netstack/src/sim.rs:54: [event-accounting] `Event::Fault` has \
                 no arm in `account_event` — `RunPerf::classified_total()` would fall \
                 behind `events_processed`\n    Fault { index: usize },"
            }
            Rule::TraceCoverage => {
                "crates/tracelog/src/record.rs:313: [trace-coverage] \
                 `TraceRecord::IfqMark` is not rendered by `ns2::line`\n    \
                 IfqMark {"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Crates whose in-memory state participates in event ordering: a stray
/// hash-ordered iteration there can silently reorder events between runs.
pub const SIM_STATE_CRATES: [&str; 10] = [
    "sim-core",
    "netstack",
    "aodv",
    "mac80211",
    "tcp",
    "wire",
    "core",
    "faultline",
    "tracelog",
    "topo",
];

/// Crates licensed to read the wall clock (`std::time::Instant`): the
/// measurement layer, whose events/sec and speed-up numbers *are*
/// wall-clock quantities. Everything they time is simulator *output*;
/// nothing flows back into simulator state, so determinism is unharmed.
pub const WALLCLOCK_CRATES: [&str; 2] = ["harness", "bench"];

/// Whether `rel_path` (workspace-relative, forward slashes) belongs to a
/// crate licensed to use `Instant`.
pub fn wallclock_licensed(rel_path: &str) -> bool {
    let mut parts = rel_path.split('/');
    parts.next() == Some("crates")
        && parts.next().is_some_and(|krate| WALLCLOCK_CRATES.contains(&krate))
}

/// Whether `rel_path` may use `std::collections::BinaryHeap`. Only the
/// scheduler's home (`crates/sim-core/src/`) is licensed: `BinaryHeap`
/// breaks ties arbitrarily, so any ad-hoc priority queue elsewhere risks
/// reintroducing the event-ordering nondeterminism the event queue's
/// `(time, seq)` key and FIFO tie discipline rule out. Everything else
/// must schedule through `sim_core::DriverQueue`.
pub fn binaryheap_licensed(rel_path: &str) -> bool {
    rel_path.starts_with("crates/sim-core/src/")
}

/// Whether `rel_path` may touch `std::thread`. Only the wall-clock
/// measurement crates are licensed (whole-run batch parallelism, results
/// merged in submission order). Everything else must route parallel work
/// through the harness batch runner, keeping the deterministic-merge
/// discipline in one reviewed place.
pub fn thread_licensed(rel_path: &str) -> bool {
    wallclock_licensed(rel_path)
}

/// Whether `rel_path` may order raw floats with handwritten comparators.
/// Only the statistics module is licensed: its floats are post-run
/// observations (percentiles, fairness indices) that never feed back into
/// event ordering, and it guards NaN at its own boundary.
pub fn floatorder_licensed(rel_path: &str) -> bool {
    rel_path == "crates/sim-core/src/stats.rs"
}

/// One rule hit at one source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Human-readable explanation with the policy-compliant alternative.
    pub message: String,
    /// Concrete fix-it hint (what to write instead).
    pub fixit: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

// ---------------------------------------------------------------------------
// Per-file scanning
// ---------------------------------------------------------------------------

/// Where a file sits in the workspace, deciding which rules apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileScope {
    /// Inside `crates/<sim-state crate>/src/`.
    pub sim_state: bool,
    /// Non-src target (tests/, benches/, examples/) or root tests.
    pub test_tree: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel_path: &str) -> FileScope {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => {
            let krate = parts.next().unwrap_or("");
            let tree = parts.next().unwrap_or("");
            FileScope {
                sim_state: tree == "src" && SIM_STATE_CRATES.contains(&krate),
                test_tree: tree == "tests" || tree == "benches",
            }
        }
        Some("src") => FileScope { sim_state: false, test_tree: false },
        Some("tests") | Some("examples") | Some("benches") => {
            FileScope { sim_state: false, test_tree: true }
        }
        _ => FileScope { sim_state: false, test_tree: false },
    }
}

/// Scans one file's text with the per-file token rules; `rel_path` decides
/// rule applicability. (Cross-file rules need the whole tree — see
/// [`scan_workspace`].)
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let scope = classify(rel_path);
    let lexed = lexer::lex(source);
    rules::scan_file(rel_path, scope, &lexed)
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Scans every `.rs` file under `root` (skipping `target/`, dot-dirs, and
/// `fixtures/` data trees) with the per-file token rules, then runs the
/// cross-file rules over the whole lexed tree. Findings are pre-allowlist,
/// sorted by (path, line, rule).
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut lexed_files = std::collections::BTreeMap::new();
    let mut findings = Vec::new();
    for rel in files {
        let text = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let lexed = lexer::lex(&text);
        findings.extend(rules::scan_file(&rel_str, classify(&rel_str), &lexed));
        lexed_files.insert(rel_str, lexed);
    }
    findings.extend(crossfile::scan(&lexed_files));
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures/` holds data trees (including the intentionally-bad
            // simlint fixture workspace) — never part of the real scan.
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

/// One allowance: up to `max` findings of `rule` under `path`.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// The rule being allowed.
    pub rule: Rule,
    /// Exact workspace-relative path, or a prefix ending in `/*`.
    pub path: String,
    /// Maximum tolerated findings (the ratchet).
    pub max: usize,
    /// Why the allowance exists (required).
    pub note: String,
}

impl AllowEntry {
    fn matches(&self, path: &str) -> bool {
        match self.path.strip_suffix("/*") {
            Some(prefix) => path.starts_with(prefix),
            None => path == self.path,
        }
    }
}

/// The parsed `simlint.allow` file.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the allowlist format: one entry per line,
    /// `<rule> <path> <max> <justification…>`; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let mut fields = line.split_whitespace();
            let rule = fields
                .next()
                .and_then(Rule::from_name)
                .ok_or_else(|| format!("allowlist line {lineno}: unknown rule"))?;
            let path = fields
                .next()
                .ok_or_else(|| format!("allowlist line {lineno}: missing path"))?
                .to_string();
            let max: usize = fields
                .next()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("allowlist line {lineno}: missing/invalid max count"))?;
            let note = fields.collect::<Vec<_>>().join(" ");
            if note.is_empty() {
                return Err(format!(
                    "allowlist line {lineno}: a justification is required \
                     (why is this allowance sound?)"
                ));
            }
            entries.push(AllowEntry { rule, path, max, note });
        }
        Ok(Allowlist { entries })
    }

    /// Loads and parses an allowlist file; a missing file is an empty list.
    pub fn load(path: &Path) -> Result<Allowlist, String> {
        match fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Allowlist::default()),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Result of applying the allowlist to a scan.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Findings not covered by any allowance — these fail the build.
    pub violations: Vec<Finding>,
    /// Per-(rule, path) groups that exceeded their allowance:
    /// `(rule, path, found, allowed)`.
    pub over_budget: Vec<(Rule, String, usize, usize)>,
    /// Ratchet opportunities: allowances larger than the current count, or
    /// matching nothing at all. Informational — tighten `simlint.allow`.
    pub stale: Vec<String>,
    /// Every finding, allowlisted or not (for `--format json`/`sarif`).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Whether the workspace passes the policy.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.over_budget.is_empty()
    }
}

/// Applies `allowlist` to `findings`, producing the pass/fail report.
pub fn apply_allowlist(findings: Vec<Finding>, allowlist: &Allowlist) -> Report {
    use std::collections::BTreeMap;
    let mut report = Report { findings: findings.clone(), ..Report::default() };

    // Group findings by (rule, path); each group consumes the first
    // allowlist entry that matches.
    let mut groups: BTreeMap<(Rule, String), Vec<Finding>> = BTreeMap::new();
    for f in findings {
        groups.entry((f.rule, f.path.clone())).or_default().push(f);
    }

    let mut consumed: Vec<(usize, usize)> = Vec::new(); // (entry idx, count used)
    for ((rule, path), group) in groups {
        let entry =
            allowlist.entries.iter().enumerate().find(|(_, e)| e.rule == rule && e.matches(&path));
        match entry {
            None => report.violations.extend(group),
            Some((idx, e)) => {
                if group.len() > e.max {
                    report.over_budget.push((rule, path.clone(), group.len(), e.max));
                    report.violations.extend(group.into_iter().skip(e.max));
                } else {
                    consumed.push((idx, group.len()));
                }
            }
        }
    }

    // Ratchet hints: per-entry totals below the allowance.
    for (idx, entry) in allowlist.entries.iter().enumerate() {
        let used: usize = consumed.iter().filter(|(i, _)| *i == idx).map(|(_, n)| n).sum();
        let touched = consumed.iter().any(|(i, _)| *i == idx)
            || report.over_budget.iter().any(|(r, p, _, _)| *r == entry.rule && entry.matches(p));
        if !touched {
            report.stale.push(format!(
                "allowance `{} {} {}` matches no findings — delete it",
                entry.rule, entry.path, entry.max
            ));
        } else if used < entry.max {
            report.stale.push(format!(
                "allowance `{} {} {}` only needs {used} — ratchet it down",
                entry.rule, entry.path, entry.max
            ));
        }
    }
    report
}

/// Scans `root` and applies the allowlist at `allowlist_path` (if present).
pub fn check_workspace(root: &Path, allowlist_path: &Path) -> Result<Report, String> {
    let allowlist = Allowlist::load(allowlist_path)?;
    let findings = scan_workspace(root).map_err(|e| format!("scan failed: {e}"))?;
    Ok(apply_allowlist(findings, &allowlist))
}

// ---------------------------------------------------------------------------
// Output formatting
// ---------------------------------------------------------------------------

/// Renders the report as human-readable text.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!("{v}\n    {}\n", v.snippet));
        if !v.fixit.is_empty() {
            out.push_str(&format!("    fix: {}\n", v.fixit));
        }
    }
    for (rule, path, found, allowed) in &report.over_budget {
        out.push_str(&format!(
            "{path}: [{rule}] {found} findings exceed the allowance of {allowed} — \
             the ratchet only turns down\n"
        ));
    }
    for s in &report.stale {
        out.push_str(&format!("note: {s}\n"));
    }
    let status = if report.is_clean() { "clean" } else { "FAILED" };
    out.push_str(&format!(
        "simlint: {status} ({} findings, {} violations)\n",
        report.findings.len(),
        report.violations.len()
    ));
    out
}

/// Renders the report as machine-readable JSON (hand-rolled; std-only).
pub fn render_json(report: &Report) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    fn finding_json(f: &Finding) -> String {
        format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"snippet\":\"{}\",\
             \"message\":\"{}\",\"fixit\":\"{}\"}}",
            f.rule,
            esc(&f.path),
            f.line,
            esc(&f.snippet),
            esc(&f.message),
            esc(&f.fixit)
        )
    }
    let findings: Vec<String> = report.findings.iter().map(finding_json).collect();
    let violations: Vec<String> = report.violations.iter().map(finding_json).collect();
    let stale: Vec<String> = report.stale.iter().map(|s| format!("\"{}\"", esc(s))).collect();
    format!(
        "{{\"clean\":{},\"findings\":[{}],\"violations\":[{}],\"stale\":[{}]}}",
        report.is_clean(),
        findings.join(","),
        violations.join(","),
        stale.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM_PATH: &str = "crates/netstack/src/sim.rs";
    const TOOL_PATH: &str = "crates/harness/src/runner.rs";

    fn rules_at(path: &str, src: &str) -> Vec<Rule> {
        scan_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn nondet_rule_fires_everywhere() {
        for src in [
            "let t = std::time::SystemTime::now();",
            "let mut rng = rand::thread_rng();",
            "let rng = SmallRng::from_entropy();",
            "let x: f64 = rand::random();",
            "let s = RandomState::new();",
        ] {
            assert!(rules_at(TOOL_PATH, src).contains(&Rule::Nondeterminism), "should flag: {src}");
            assert!(
                rules_at("tests/end_to_end.rs", src).contains(&Rule::Nondeterminism),
                "test trees are also covered: {src}"
            );
        }
        // Instant is banned outside the licensed measurement crates — as a
        // bare identifier too (field types, fn signatures), which the v1
        // line needles (`Instant::now`) missed.
        assert!(rules_at(SIM_PATH, "let t = Instant::now();").contains(&Rule::Nondeterminism));
        assert!(rules_at(SIM_PATH, "struct S { started: Instant }").contains(&Rule::Nondeterminism));
        assert!(rules_at("tests/end_to_end.rs", "let t = Instant::now();")
            .contains(&Rule::Nondeterminism));
    }

    #[test]
    fn instant_licensed_only_in_measurement_crates() {
        for src in ["let t = Instant::now();", "use std::time::Instant;"] {
            // Licensed: the harness WallClock shim and the bench crate.
            assert!(rules_at("crates/harness/src/wallclock.rs", src).is_empty(), "{src}");
            assert!(rules_at("crates/harness/src/bin/bench.rs", src).is_empty(), "{src}");
            assert!(rules_at("crates/bench/src/lib.rs", src).is_empty(), "{src}");
            // Still banned in every sim-state crate and in root trees.
            assert!(rules_at(SIM_PATH, src).contains(&Rule::Nondeterminism), "{src}");
            assert!(rules_at("crates/sim-core/src/time.rs", src).contains(&Rule::Nondeterminism));
            assert!(rules_at("tests/determinism.rs", src).contains(&Rule::Nondeterminism));
            assert!(rules_at("src/lib.rs", src).contains(&Rule::Nondeterminism));
        }
        // SystemTime has no licence anywhere, measurement crates included.
        assert!(rules_at("crates/harness/src/wallclock.rs", "SystemTime::now()")
            .contains(&Rule::Nondeterminism));
        assert!(rules_at("crates/bench/src/lib.rs", "SystemTime::now()")
            .contains(&Rule::Nondeterminism));
    }

    #[test]
    fn nondet_rule_ignores_comments_and_strings() {
        assert!(rules_at(SIM_PATH, "// Instant::now is forbidden here").is_empty());
        assert!(rules_at(SIM_PATH, "let msg = \"thread_rng is banned\";").is_empty());
        assert!(rules_at(SIM_PATH, "/* SystemTime::now()\n spans lines */ let x = 1;").is_empty());
    }

    #[test]
    fn hash_rule_scoped_to_sim_state_crates() {
        let src = "use std::collections::HashMap;";
        assert!(rules_at(SIM_PATH, src).contains(&Rule::HashCollections));
        assert!(rules_at("crates/tcp/src/common.rs", src).contains(&Rule::HashCollections));
        // Tool crates may hash (they don't feed the event loop).
        assert!(!rules_at(TOOL_PATH, src).contains(&Rule::HashCollections));
        assert!(!rules_at("crates/simlint/src/lib.rs", src).contains(&Rule::HashCollections));
        // Token boundaries: a DetMap named like one is fine.
        assert!(rules_at(SIM_PATH, "struct MyHashMapLike;").is_empty());
    }

    #[test]
    fn hash_rule_skips_test_modules() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests { use std::collections::HashSet; }";
        assert!(!rules_at(SIM_PATH, src).contains(&Rule::HashCollections));
    }

    #[test]
    fn cfg_test_extent_is_brace_scoped_not_to_eof() {
        // v1 classified everything after the first #[cfg(test)] marker as
        // test code; the lexer tracks the real brace extent, so live code
        // *after* a test module is scanned again.
        let src = "#[cfg(test)]\nmod tests { fn t() {} }\nfn live() { x.unwrap(); }";
        assert!(rules_at(SIM_PATH, src).contains(&Rule::PanicUnwrap));
    }

    #[test]
    fn panic_rule_counts_unwrap_expect_and_literal_indexing() {
        let rules = rules_at(
            SIM_PATH,
            "let a = x.unwrap();\nlet b = y.expect(\"msg\");\nlet c = xs[0];\nlet d = ys[i];",
        );
        assert_eq!(rules.iter().filter(|r| **r == Rule::PanicUnwrap).count(), 3);
        // Out of scope for tool crates and test code.
        assert!(!rules_at(TOOL_PATH, "x.unwrap();").contains(&Rule::PanicUnwrap));
        let test_src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }";
        assert!(!rules_at(SIM_PATH, test_src).contains(&Rule::PanicUnwrap));
        // `unwrap_or` is a different identifier, not a panic site.
        assert!(!rules_at(SIM_PATH, "x.unwrap_or(0);").contains(&Rule::PanicUnwrap));
        // Multi-line chains fire too (the v1 line scanner saw them; the
        // token stream must as well).
        assert!(rules_at(SIM_PATH, "let v = map\n    .get(&k)\n    .unwrap();")
            .contains(&Rule::PanicUnwrap));
    }

    #[test]
    fn literal_indexing_is_not_array_type_syntax() {
        assert!(rules_at(SIM_PATH, "let s: [u64; 4] = seed;").is_empty());
        assert!(rules_at(SIM_PATH, "let z = [0u8; 16];").is_empty());
        assert_eq!(rules_at(SIM_PATH, "let x = parts[1] + parts[2];").len(), 2);
    }

    #[test]
    fn nan_rule_flags_partial_cmp_call_sites_only() {
        assert!(rules_at(SIM_PATH, "v.sort_by(|a, b| a.partial_cmp(b).unwrap());")
            .contains(&Rule::NanCompare));
        // The *definition* of PartialOrd::partial_cmp is not a call site.
        assert!(!rules_at(
            SIM_PATH,
            "fn partial_cmp(&self, other: &Self) -> Option<Ordering> { Some(self.cmp(other)) }"
        )
        .contains(&Rule::NanCompare));
    }

    #[test]
    fn binaryheap_rule_licensed_only_in_sim_core() {
        let src = "use std::collections::BinaryHeap;";
        // Licensed home: the scheduler implementations themselves.
        assert!(rules_at("crates/sim-core/src/event.rs", src).is_empty());
        // Banned everywhere else, test trees and test modules included.
        assert!(rules_at(SIM_PATH, src).contains(&Rule::AdHocHeap));
        assert!(rules_at(TOOL_PATH, src).contains(&Rule::AdHocHeap));
        assert!(rules_at("tests/end_to_end.rs", src).contains(&Rule::AdHocHeap));
        let test_src = "#[cfg(test)]\nmod tests { use std::collections::BinaryHeap; }";
        assert!(rules_at(SIM_PATH, test_src).contains(&Rule::AdHocHeap));
        // Token boundaries and stripped prose don't fire.
        assert!(rules_at(SIM_PATH, "struct NotABinaryHeapAtAll;").is_empty());
        assert!(rules_at(SIM_PATH, "// BinaryHeap is banned here").is_empty());
        // A named allowance would still parse, so the ratchet could budget
        // a future exception explicitly rather than by edit-war.
        assert_eq!(Rule::from_name("binary-heap"), Some(Rule::AdHocHeap));
    }

    #[test]
    fn cast_truncate_flags_sensitive_narrowing_only() {
        // Time/seq/uid arithmetic narrowing fires…
        assert!(rules_at(SIM_PATH, "let s = (nanos / 1_000_000_000) as u32;")
            .contains(&Rule::CastTruncate));
        assert!(rules_at(SIM_PATH, "let s = t.as_nanos() as u32;").contains(&Rule::CastTruncate));
        assert!(rules_at(SIM_PATH, "hdr.seq = seq as u16;").contains(&Rule::CastTruncate));
        // …but widening, insensitive identifiers, and literals don't.
        assert!(!rules_at(SIM_PATH, "let n = nanos as u64;").contains(&Rule::CastTruncate));
        assert!(!rules_at(SIM_PATH, "let b = (header + len) as u32;").contains(&Rule::CastTruncate));
        assert!(!rules_at(SIM_PATH, "let x = 1_000 as u32;").contains(&Rule::CastTruncate));
        // `timer`/`airtime`-style substrings are not the `time` segment.
        assert!(!rules_at(SIM_PATH, "let t = timer_count as u32;").contains(&Rule::CastTruncate));
        // Out of scope for tool crates and test modules.
        assert!(!rules_at(TOOL_PATH, "let s = nanos as u32;").contains(&Rule::CastTruncate));
        let test_src = "#[cfg(test)]\nmod tests { fn t() { let s = nanos as u32; } }";
        assert!(!rules_at(SIM_PATH, test_src).contains(&Rule::CastTruncate));
    }

    #[test]
    fn float_order_requires_float_evidence_and_no_total_cmp() {
        assert!(
            rules_at(SIM_PATH, "xs.sort_by(|a: &f64, b| cmp(a, b));").contains(&Rule::FloatOrder)
        );
        assert!(rules_at(SIM_PATH, "xs.min_by(|a, b| a.partial_cmp(b).unwrap());")
            .contains(&Rule::FloatOrder));
        // total_cmp is the sanctioned comparator.
        assert!(
            !rules_at(SIM_PATH, "xs.sort_by(|a, b| a.total_cmp(b));").contains(&Rule::FloatOrder)
        );
        // Integer comparators are not float ordering.
        assert!(!rules_at(SIM_PATH, "xs.sort_by(|a, b| a.seq.cmp(&b.seq));")
            .contains(&Rule::FloatOrder));
        // The statistics module is licensed (post-run observations only).
        assert!(!rules_at("crates/sim-core/src/stats.rs", "xs.sort_by(|a: &f64, b| cmp(a, b));")
            .contains(&Rule::FloatOrder));
    }

    #[test]
    fn timer_clear_requires_id_match_guard() {
        // A raw clear fires.
        let raw = "impl D { fn reset(&mut self) { self.attempt_timer = None; } }";
        assert!(rules_at(SIM_PATH, raw).contains(&Rule::TimerClear));
        // The id-match guard pattern is the contract — no finding.
        let guarded = "impl D { fn on_timer(&mut self, id: TimerHandle) {\n\
                       if self.attempt_timer == Some(id) { self.attempt_timer = None; } } }";
        assert!(!rules_at(SIM_PATH, guarded).contains(&Rule::TimerClear));
        // Re-arming a timer is not a clear.
        assert!(!rules_at(SIM_PATH, "fn f(&mut self) { self.attempt_timer = Some(h); }")
            .contains(&Rule::TimerClear));
        // Out of scope outside sim-state code.
        assert!(!rules_at(TOOL_PATH, raw).contains(&Rule::TimerClear));
    }

    #[test]
    fn allowlist_budgets_ratchet() {
        let findings = scan_source(SIM_PATH, "a.unwrap();\nb.unwrap();");
        let allow =
            Allowlist::parse("panic-unwrap crates/netstack/src/sim.rs 2 event-loop invariants")
                .unwrap();
        let report = apply_allowlist(findings.clone(), &allow);
        assert!(report.is_clean(), "{:?}", report.violations);

        let tight =
            Allowlist::parse("panic-unwrap crates/netstack/src/sim.rs 1 ratcheted").unwrap();
        let report = apply_allowlist(findings.clone(), &tight);
        assert!(!report.is_clean());
        assert_eq!(report.over_budget.len(), 1);

        let loose = Allowlist::parse("panic-unwrap crates/netstack/src/sim.rs 5 stale").unwrap();
        let report = apply_allowlist(findings, &loose);
        assert!(report.is_clean());
        assert!(!report.stale.is_empty(), "over-allowance should suggest ratcheting");
    }

    #[test]
    fn allowlist_glob_prefix_matches() {
        let entry = AllowEntry {
            rule: Rule::PanicUnwrap,
            path: "crates/tcp/src/*".into(),
            max: 1,
            note: "x".into(),
        };
        assert!(entry.matches("crates/tcp/src/common.rs"));
        assert!(!entry.matches("crates/aodv/src/table.rs"));
    }

    #[test]
    fn allowlist_requires_justification() {
        assert!(Allowlist::parse("panic-unwrap crates/x.rs 3").is_err());
        assert!(Allowlist::parse("panic-unwrap crates/x.rs 3 because reasons").is_ok());
        assert!(Allowlist::parse("bogus-rule crates/x.rs 3 note").is_err());
        assert!(Allowlist::parse("# just a comment\n\n").unwrap().entries.is_empty());
    }

    #[test]
    fn new_rules_parse_in_the_allowlist() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule), "{rule} must round-trip");
            assert!(!rule.summary().is_empty());
            assert!(!rule.rationale().is_empty());
            assert!(!rule.example().is_empty());
        }
        assert!(Allowlist::parse("cast-truncate crates/x.rs 1 pcap header seconds").is_ok());
        assert!(Allowlist::parse("event-accounting crates/netstack/src/sim.rs 1 migration").is_ok());
    }

    #[test]
    fn unlisted_findings_are_violations() {
        let findings = scan_source(SIM_PATH, "let mut rng = rand::thread_rng();");
        let report = apply_allowlist(findings, &Allowlist::default());
        assert_eq!(report.violations.len(), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn json_output_is_wellformed_enough() {
        let findings = scan_source(SIM_PATH, "let x = map.get(&k).unwrap(); // \"quote\"");
        let report = apply_allowlist(findings, &Allowlist::default());
        let json = render_json(&report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rule\":\"panic-unwrap\""));
        assert!(json.contains("\"fixit\":\""));
        assert!(json.contains("\"clean\":false"));
    }

    #[test]
    fn sarif_output_is_wellformed_enough() {
        let findings = scan_source(SIM_PATH, "let x = map.get(&k).unwrap();");
        let report = apply_allowlist(findings, &Allowlist::default());
        let sarif = render_sarif(&report);
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"name\":\"simlint\""));
        assert!(sarif.contains("\"ruleId\":\"panic-unwrap\""));
        assert!(sarif.contains("\"level\":\"error\""));
        assert!(sarif.contains("\"startLine\":1"));
        // Budgeted findings downgrade to notes.
        let allow = Allowlist::parse("panic-unwrap crates/netstack/src/sim.rs 1 budgeted").unwrap();
        let findings = scan_source(SIM_PATH, "let x = map.get(&k).unwrap();");
        let sarif = render_sarif(&apply_allowlist(findings, &allow));
        assert!(sarif.contains("\"level\":\"note\""));
        assert!(!sarif.contains("\"level\":\"error\""));
    }

    #[test]
    fn raw_strings_and_char_literals_are_stripped() {
        let src = "let s = r#\"thread_rng inside raw\"#; let c = '\"'; let l: &'static str = x;";
        assert!(rules_at(SIM_PATH, src).is_empty());
    }
}
