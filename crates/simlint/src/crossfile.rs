//! Cross-file closure rules: workspace-wide consistency properties the Rust
//! compiler cannot enforce, because they tie *separate* match statements —
//! and separate files — to one enum.
//!
//! Two rule families:
//!
//! * **`event-accounting`** — every `netstack::sim::Event` variant must (1)
//!   fold a distinct integer tag into the trace hash in `fold_event`, (2)
//!   increment a subsystem counter in `account_event` (so
//!   `RunPerf::classified_total() == events_processed` holds by
//!   construction, not just at runtime), and (3) have a `dispatch` arm.
//!   Wildcard arms in `fold_event`/`account_event` are themselves findings:
//!   a `_ =>` would swallow the next variant silently and defeat the check.
//!
//! * **`trace-coverage`** — every `tracelog::TraceRecord` variant must be
//!   constructed from at least one simulator choke point
//!   (`crates/netstack/src/`, live code) and consumed by the by-name ns-2
//!   sink (`tracelog::ns2::line`). The pcap and csv sinks consume records
//!   through the `layer`/`node`/`flow`/`uid`/`direction` accessors, so
//!   those accessors (and `ns2::line`) must stay wildcard-free, and
//!   `Layer::ALL` must name every `Layer` variant — that is what keeps the
//!   accessor-generic sinks total. The invariant checker
//!   (`faultline::InvariantChecker::on_record`) reads the same records, so
//!   this rule also guarantees that every checker input is produced by a
//!   choke point and rendered in a violation's trail, with no extra check.
//!
//! Both families parse enum bodies and fn-body spans out of the token
//! streams; they are anchored to the files named below and quietly skip a
//! tree that doesn't contain them (which is how the intentionally-bad
//! fixture workspace under `tests/fixtures/` gets checked with the same
//! code).

use std::collections::BTreeMap;

use crate::lexer::{Lexed, TokKind, Token};
use crate::{Finding, Rule};

/// Home of `enum Event`, `fold_event`, `account_event`, and `dispatch`.
const EVENT_FILE: &str = "crates/netstack/src/sim.rs";
/// Home of `enum TraceRecord`, `enum Layer`, and the record accessors.
const RECORD_FILE: &str = "crates/tracelog/src/record.rs";
/// Home of the by-name ns-2 sink (`fn line`).
const NS2_FILE: &str = "crates/tracelog/src/ns2.rs";
/// Directory holding the simulator choke points that may produce records.
const PRODUCER_DIR: &str = "crates/netstack/src/";

/// Runs both cross-file families over the lexed workspace.
pub(crate) fn scan(files: &BTreeMap<String, Lexed>) -> Vec<Finding> {
    let mut findings = Vec::new();
    event_accounting(files, &mut findings);
    trace_coverage(files, &mut findings);
    findings
}

// ---------------------------------------------------------------------------
// event-accounting
// ---------------------------------------------------------------------------

fn event_accounting(files: &BTreeMap<String, Lexed>, findings: &mut Vec<Finding>) {
    let Some(sim) = files.get(EVENT_FILE) else { return };
    let push = |findings: &mut Vec<Finding>, line: usize, message: String, fixit: String| {
        findings.push(Finding {
            rule: Rule::EventAccounting,
            path: EVENT_FILE.to_string(),
            line,
            snippet: sim.snippet(line),
            message,
            fixit,
        });
    };

    let Some(variants) = enum_variants(sim, "Event") else {
        push(
            findings,
            1,
            "`enum Event` not found — the event-accounting closure checks have lost \
             their anchor"
                .to_string(),
            "keep the event taxonomy in crates/netstack/src/sim.rs, or retarget the \
             checks in crates/simlint/src/crossfile.rs"
                .to_string(),
        );
        return;
    };

    let mut spans = BTreeMap::new();
    for name in ["fold_event", "account_event", "dispatch"] {
        match fn_body_span(&sim.tokens, name) {
            Some(span) => {
                spans.insert(name, span);
            }
            None => push(
                findings,
                1,
                format!("`fn {name}` not found — every Event variant must flow through it"),
                "restore the function (or retarget crates/simlint/src/crossfile.rs if it \
                 moved)"
                    .to_string(),
            ),
        }
    }

    // Per-variant closure: a fold arm with a distinct tag, a counted
    // account arm, a dispatch arm.
    let mut tags: BTreeMap<u64, String> = BTreeMap::new();
    for (variant, v_line) in &variants {
        if let Some(&(start, end)) = spans.get("fold_event") {
            match variant_arm(&sim.tokens, start, end, "Event", variant) {
                None => push(
                    findings,
                    *v_line,
                    format!(
                        "`Event::{variant}` has no arm in `fold_event` — the trace hash \
                         would silently ignore it and same-digest runs could diverge"
                    ),
                    format!(
                        "add an arm folding a fresh distinct tag: \
                         `Event::{variant} {{ .. }} => {{ hash.write_u64(<next tag>); }}`"
                    ),
                ),
                Some((arm_start, arm_end)) => {
                    match first_literal_tag(&sim.tokens[arm_start..arm_end]) {
                        None => push(
                            findings,
                            *v_line,
                            format!(
                                "`Event::{variant}`'s fold arm writes no literal tag — \
                                 without one, two variants with equal fields hash \
                                 identically"
                            ),
                            "make `hash.write_u64(<literal>)` the arm's first write".to_string(),
                        ),
                        Some(tag) => {
                            if let Some(prev) = tags.insert(tag, variant.clone()) {
                                push(
                                    findings,
                                    *v_line,
                                    format!(
                                        "fold tag {tag} is reused by `Event::{variant}` \
                                         (already used by `Event::{prev}`) — tags must \
                                         be pairwise distinct"
                                    ),
                                    "assign the next unused integer tag".to_string(),
                                );
                            }
                        }
                    }
                }
            }
        }
        if let Some(&(start, end)) = spans.get("account_event") {
            match variant_arm(&sim.tokens, start, end, "Event", variant) {
                None => push(
                    findings,
                    *v_line,
                    format!(
                        "`Event::{variant}` has no arm in `account_event` — \
                         `RunPerf::classified_total()` would fall behind \
                         `events_processed`"
                    ),
                    format!(
                        "add `Event::{variant} {{ .. }} => perf.<subsystem>_events += 1` \
                         for the owning subsystem"
                    ),
                ),
                Some((arm_start, arm_end)) => {
                    let body = &sim.tokens[arm_start..arm_end];
                    let increments =
                        body.windows(2).any(|w| w[0].is_punct('+') && w[1].is_punct('='));
                    if !increments {
                        push(
                            findings,
                            *v_line,
                            format!(
                                "`Event::{variant}`'s arm in `account_event` increments \
                                 nothing — the event would be processed but never \
                                 classified"
                            ),
                            "increment exactly one `perf.<subsystem>_events` counter in \
                             the arm"
                                .to_string(),
                        );
                    }
                }
            }
        }
        if let Some(&(start, end)) = spans.get("dispatch") {
            if variant_arm(&sim.tokens, start, end, "Event", variant).is_none() {
                push(
                    findings,
                    *v_line,
                    format!(
                        "`Event::{variant}` has no `dispatch` arm — the event would be \
                         scheduled but never handled"
                    ),
                    format!("add a `Event::{variant} {{ .. }} => ...` arm to `dispatch`"),
                );
            }
        }
    }

    // Wildcard arms in the two flat accounting fns defeat the closure check
    // (dispatch legitimately contains nested matches, so it is exempt; a
    // missing variant there is caught by the per-variant check above).
    for name in ["fold_event", "account_event"] {
        if let Some(&(start, end)) = spans.get(name) {
            if let Some(t) = wildcard_arm(&sim.tokens[start..end]) {
                push(
                    findings,
                    t,
                    format!(
                        "wildcard arm in `{name}` — a `_ =>` would silently swallow the \
                         next Event variant and defeat the static closure check"
                    ),
                    "enumerate every variant explicitly".to_string(),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// trace-coverage
// ---------------------------------------------------------------------------

fn trace_coverage(files: &BTreeMap<String, Lexed>, findings: &mut Vec<Finding>) {
    let Some(rec) = files.get(RECORD_FILE) else { return };
    let push = |findings: &mut Vec<Finding>,
                path: &str,
                snippet: String,
                line: usize,
                message: String,
                fixit: String| {
        findings.push(Finding {
            rule: Rule::TraceCoverage,
            path: path.to_string(),
            line,
            snippet,
            message,
            fixit,
        });
    };

    let Some(variants) = enum_variants(rec, "TraceRecord") else {
        push(
            findings,
            RECORD_FILE,
            rec.snippet(1),
            1,
            "`enum TraceRecord` not found — the trace-coverage checks have lost their \
             anchor"
                .to_string(),
            "keep the record catalogue in crates/tracelog/src/record.rs, or retarget \
             crates/simlint/src/crossfile.rs"
                .to_string(),
        );
        return;
    };

    // (a) Every variant is producible from at least one simulator choke
    // point, in live (non-test) code.
    for (variant, v_line) in &variants {
        let produced = files.iter().any(|(path, lexed)| {
            path.starts_with(PRODUCER_DIR)
                && lexed.tokens.windows(4).any(|w| {
                    w[0].is_ident("TraceRecord")
                        && w[1].is_punct(':')
                        && w[2].is_punct(':')
                        && w[3].is_ident(variant)
                        && !w[3].in_test
                })
        });
        if !produced {
            push(
                findings,
                RECORD_FILE,
                rec.snippet(*v_line),
                *v_line,
                format!(
                    "`TraceRecord::{variant}` is never constructed under \
                     {PRODUCER_DIR} — a record no choke point can produce is dead \
                     taxonomy"
                ),
                "record it from the owning simulator choke point, or delete the variant"
                    .to_string(),
            );
        }
    }

    // (b) The by-name ns-2 sink consumes every variant.
    match files.get(NS2_FILE) {
        None => push(
            findings,
            RECORD_FILE,
            rec.snippet(1),
            1,
            format!("`{NS2_FILE}` not found — the by-name trace sink is gone"),
            "restore the ns-2 sink (crates/tracelog/src/ns2.rs)".to_string(),
        ),
        Some(ns2) => match fn_body_span(&ns2.tokens, "line") {
            None => push(
                findings,
                NS2_FILE,
                ns2.snippet(1),
                1,
                "`fn line` not found — the by-name trace sink is gone".to_string(),
                "restore tracelog::ns2::line".to_string(),
            ),
            Some((start, end)) => {
                let span = &ns2.tokens[start..end];
                for (variant, v_line) in &variants {
                    let consumed = span.windows(4).any(|w| {
                        w[0].is_ident("TraceRecord")
                            && w[1].is_punct(':')
                            && w[2].is_punct(':')
                            && w[3].is_ident(variant)
                    });
                    if !consumed {
                        push(
                            findings,
                            RECORD_FILE,
                            rec.snippet(*v_line),
                            *v_line,
                            format!(
                                "`TraceRecord::{variant}` is not rendered by \
                                 `ns2::line` — the by-name sink would drop it on the \
                                 floor"
                            ),
                            "add a match arm for the variant in tracelog::ns2::line".to_string(),
                        );
                    }
                }
                if let Some(line) = wildcard_arm(span) {
                    push(
                        findings,
                        NS2_FILE,
                        ns2.snippet(line),
                        line,
                        "wildcard arm in `ns2::line` — a `_ =>` would silently swallow \
                         new TraceRecord variants instead of forcing a rendering \
                         decision"
                            .to_string(),
                        "enumerate every variant explicitly".to_string(),
                    );
                }
            }
        },
    }

    // (c) The accessor-generic sinks (pcap, csv) stay total because the
    // accessors match every variant by name; a wildcard would break that.
    for accessor in ["layer", "node", "flow", "uid", "direction"] {
        if let Some((start, end)) = fn_body_span(&rec.tokens, accessor) {
            if let Some(line) = wildcard_arm(&rec.tokens[start..end]) {
                push(
                    findings,
                    RECORD_FILE,
                    rec.snippet(line),
                    line,
                    format!(
                        "wildcard arm in accessor `TraceRecord::{accessor}` — the \
                         accessor-generic sinks (pcap, csv) rely on these matches \
                         staying exhaustive by name"
                    ),
                    "enumerate every variant explicitly".to_string(),
                );
            }
        }
    }

    // (d) `Layer::ALL` names every Layer variant (the compiler checks the
    // array *length* via the type, but nothing stops a variant from being
    // listed twice while another is missing).
    if let Some(layers) = enum_variants(rec, "Layer") {
        if let Some((all_start, all_end)) = const_all_span(&rec.tokens) {
            let span = &rec.tokens[all_start..all_end];
            for (layer, l_line) in &layers {
                if !span.iter().any(|t| t.is_ident(layer)) {
                    push(
                        findings,
                        RECORD_FILE,
                        rec.snippet(*l_line),
                        *l_line,
                        format!(
                            "`Layer::{layer}` is missing from `Layer::ALL` — filters \
                             and pcap round-trips iterate ALL and would never see it"
                        ),
                        "list every Layer variant exactly once in Layer::ALL".to_string(),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Token-stream parsing helpers
// ---------------------------------------------------------------------------

/// The variants of `enum <name>` as `(variant, line)`, or None if the enum
/// is not in this file.
fn enum_variants(lexed: &Lexed, name: &str) -> Option<Vec<(String, usize)>> {
    let toks = &lexed.tokens;
    let open = toks
        .windows(3)
        .position(|w| w[0].is_ident("enum") && w[1].is_ident(name) && w[2].is_punct('{'))?
        + 2;
    let close = matching_close(toks, open, '{', '}')?;
    let mut variants = Vec::new();
    let mut depth = 0usize;
    let mut expecting = true;
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 {
            if t.is_punct('#') {
                // Skip the `#[...]` attribute group.
                if let Some(j) = toks[i..close].iter().position(|u| u.is_punct(']')) {
                    i += j;
                }
            } else if t.is_punct(',') {
                expecting = true;
            } else if expecting && t.kind == TokKind::Ident {
                variants.push((t.text.clone(), t.line));
                expecting = false;
            }
        }
        i += 1;
    }
    Some(variants)
}

/// The body token span `(open_brace+1, close_brace)` of `fn <name>`, or
/// None (not defined here, or body-less).
fn fn_body_span(toks: &[Token], name: &str) -> Option<(usize, usize)> {
    for i in 0..toks.len() {
        if !(toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.is_ident(name))) {
            continue;
        }
        let mut depth = 0usize;
        let mut j = i + 2;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(';') {
                break;
            } else if depth == 0 && t.is_punct('{') {
                let close = matching_close(toks, j, '{', '}')?;
                return Some((j + 1, close));
            }
            j += 1;
        }
    }
    None
}

/// The body span of the match arm for `Enum::Variant` within `[start, end)`:
/// from just past its `=>` to the arm's end (matching `}` for block bodies,
/// the `,` at arm depth otherwise). Grouped arms (`A | B => …`) resolve to
/// the shared body for each grouped variant.
fn variant_arm(
    toks: &[Token],
    start: usize,
    end: usize,
    enum_name: &str,
    variant: &str,
) -> Option<(usize, usize)> {
    let mention = (start..end.saturating_sub(3)).find(|&i| {
        toks[i].is_ident(enum_name)
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident(variant)
    })?;
    // Scan forward to the arm's `=>`.
    let mut i = mention + 4;
    while i + 1 < end {
        if toks[i].is_punct('=') && toks[i + 1].is_punct('>') {
            let body_start = i + 2;
            if body_start < end && toks[body_start].is_punct('{') {
                let close = matching_close(toks, body_start, '{', '}')?;
                return Some((body_start + 1, close.min(end)));
            }
            // Expression body: runs to the `,` at depth 0 (or the end).
            let mut depth = 0usize;
            let mut j = body_start;
            while j < end {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                } else if depth == 0 && t.is_punct(',') {
                    return Some((body_start, j));
                }
                j += 1;
            }
            return Some((body_start, end));
        }
        i += 1;
    }
    None
}

/// The first integer literal written via `write_u64(<literal>)` in an arm
/// body — the variant's fold tag.
fn first_literal_tag(span: &[Token]) -> Option<u64> {
    span.windows(3)
        .find(|w| w[0].is_ident("write_u64") && w[1].is_punct('(') && w[2].kind == TokKind::Num)
        .and_then(|w| w[2].text.replace('_', "").parse().ok())
}

/// The line of the first bare `_ =>` arm in `span`, if any.
fn wildcard_arm(span: &[Token]) -> Option<usize> {
    span.windows(3)
        .find(|w| w[0].is_ident("_") && w[1].is_punct('=') && w[2].is_punct('>'))
        .map(|w| w[0].line)
}

/// The bracket-group span of `const ALL: … = [ … ];` — the value list, not
/// the `[Layer; N]` type.
fn const_all_span(toks: &[Token]) -> Option<(usize, usize)> {
    let all = toks.windows(2).position(|w| w[0].is_ident("ALL") && w[1].is_punct(':'))?;
    let mut i = all + 2;
    while i + 1 < toks.len() {
        if toks[i].is_punct('=') && toks[i + 1].is_punct('[') {
            let close = matching_close(toks, i + 1, '[', ']')?;
            return Some((i + 2, close));
        }
        if toks[i].is_punct('[') {
            // The `[Layer; N]` type annotation: its `;` must not read as
            // the declaration's end.
            i = matching_close(toks, i, '[', ']')? + 1;
            continue;
        }
        if toks[i].is_punct(';') {
            return None;
        }
        i += 1;
    }
    None
}

fn matching_close(toks: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}
