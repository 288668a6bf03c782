//! Per-file token rules.
//!
//! Each rule walks the token stream produced by [`crate::lexer`] and matches
//! structural patterns (`.` `unwrap` `(` `)`, `Ident[Num]`, …) instead of
//! line substrings, so prose, string literals, and look-alike identifiers
//! can no longer fire a rule, and multi-token patterns no longer depend on
//! how a statement happens to wrap across lines.

use crate::lexer::{Lexed, TokKind, Token};
use crate::{
    binaryheap_licensed, floatorder_licensed, thread_licensed, wallclock_licensed, FileScope,
    Finding, Rule,
};

/// Integer types an `as` cast can silently truncate into.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier segments that mark a value as time/sequence/uid arithmetic —
/// exactly the quantities whose silent truncation corrupts traces and
/// acknowledgment accounting rather than just a statistic.
const SENSITIVE_SEGMENTS: [&str; 9] =
    ["time", "times", "nanos", "seq", "seqs", "uid", "uids", "ack", "acks"];

/// Comparator-taking methods whose argument ordering floats NaN-unsafely.
const ORDERING_METHODS: [&str; 5] =
    ["sort_by", "sort_unstable_by", "min_by", "max_by", "binary_search_by"];

/// Runs every per-file rule over one lexed file.
pub(crate) fn scan_file(rel_path: &str, scope: FileScope, lexed: &Lexed) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &lexed.tokens;
    let fn_spans = fn_body_spans(toks);

    let push =
        |findings: &mut Vec<Finding>, rule: Rule, line: usize, message: String, fixit: String| {
            findings.push(Finding {
                rule,
                path: rel_path.to_string(),
                line,
                snippet: lexed.snippet(line),
                message,
                fixit,
            });
        };

    for i in 0..toks.len() {
        let t = &toks[i];

        // --- nondet: everywhere, test code included (a flaky test is as
        // corrosive to replication as a flaky run). `Instant` alone is
        // licensed in the measurement crates.
        if t.kind == TokKind::Ident {
            let nondet = match t.text.as_str() {
                "Instant" if !wallclock_licensed(rel_path) => Some(
                    "`Instant` is wall-clock time: virtual time must come from sim_core::SimTime",
                ),
                "SystemTime" => Some("`SystemTime` is nondeterministic: use sim_core::SimTime"),
                "thread_rng" => Some("`thread_rng` is unseeded: draw from sim_core::SimRng"),
                "from_entropy" => {
                    Some("`from_entropy` seeding breaks replay: seed SimRng explicitly")
                }
                "RandomState" => {
                    Some("`RandomState` is per-process hash seeding: use DetMap/BTreeMap instead")
                }
                "random"
                    if i >= 3
                        && toks[i - 1].is_punct(':')
                        && toks[i - 2].is_punct(':')
                        && toks[i - 3].is_ident("rand") =>
                {
                    Some("`rand::random` is ambient randomness: draw from sim_core::SimRng")
                }
                _ => None,
            };
            if let Some(msg) = nondet {
                push(
                    &mut findings,
                    Rule::Nondeterminism,
                    t.line,
                    msg.to_string(),
                    "thread seeded randomness/virtual time through the Sim state instead \
                     (SimRng / SimTime); wall-clock timing belongs in crates/harness behind \
                     WallClock"
                        .to_string(),
                );
            }
        }

        // --- hash-collections: sim-state crates, live code only.
        if scope.sim_state
            && !t.in_test
            && t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
        {
            push(
                &mut findings,
                Rule::HashCollections,
                t.line,
                format!(
                    "`{}` iteration order can perturb event ordering; use \
                     sim_core::DetMap/DetSet or BTreeMap/BTreeSet",
                    t.text
                ),
                format!("replace `{}` with sim_core::DetMap/DetSet (or BTreeMap/BTreeSet)", t.text),
            );
        }

        if scope.sim_state && !t.in_test {
            // --- panic-unwrap: `.unwrap()`, `.expect(`, literal indexing.
            if t.is_punct('.') {
                if ident_at(toks, i + 1, "unwrap")
                    && punct_at(toks, i + 2, '(')
                    && punct_at(toks, i + 3, ')')
                {
                    push(
                        &mut findings,
                        Rule::PanicUnwrap,
                        toks[i + 1].line,
                        "`.unwrap()` in protocol code; handle the None/Err arm or justify \
                         it in simlint.allow"
                            .to_string(),
                        "handle the None/Err arm (match / unwrap_or / ok_or) or budget the \
                         call in simlint.allow with a justification"
                            .to_string(),
                    );
                }
                if ident_at(toks, i + 1, "expect") && punct_at(toks, i + 2, '(') {
                    push(
                        &mut findings,
                        Rule::PanicUnwrap,
                        toks[i + 1].line,
                        "`.expect(...)` in protocol code; handle the None/Err arm or justify \
                         it in simlint.allow"
                            .to_string(),
                        "handle the None/Err arm (match / unwrap_or / ok_or) or budget the \
                         call in simlint.allow with a justification"
                            .to_string(),
                    );
                }
            }
            if t.is_punct('[')
                && i > 0
                && indexable_before(&toks[i - 1])
                && toks.get(i + 1).is_some_and(is_plain_int)
                && punct_at(toks, i + 2, ']')
            {
                push(
                    &mut findings,
                    Rule::PanicUnwrap,
                    t.line,
                    "literal-index slicing can panic on short slices; prefer \
                     .first()/.get(n) or destructuring"
                        .to_string(),
                    "use .get(n) / .first() / slice destructuring and handle the None arm"
                        .to_string(),
                );
            }

            // --- nan-compare: `.partial_cmp(` call sites (never the
            // PartialOrd definition, which is not preceded by `.`).
            if t.is_punct('.') && ident_at(toks, i + 1, "partial_cmp") && punct_at(toks, i + 2, '(')
            {
                push(
                    &mut findings,
                    Rule::NanCompare,
                    toks[i + 1].line,
                    "`partial_cmp` on floats is None for NaN; comparators must use \
                     f64::total_cmp"
                        .to_string(),
                    "compare with f64::total_cmp (or order on an integer key) so NaN \
                     cannot poison the ordering"
                        .to_string(),
                );
            }

            // --- cast-truncate: `<time/seq/uid expr> as <narrow int>`.
            if t.is_ident("as") {
                if let Some(ty) = toks
                    .get(i + 1)
                    .filter(|n| n.kind == TokKind::Ident && NARROW_INTS.contains(&n.text.as_str()))
                {
                    let idents = cast_operand_idents(toks, i);
                    if let Some(sensitive) = idents.iter().find(|id| has_sensitive_segment(id)) {
                        push(
                            &mut findings,
                            Rule::CastTruncate,
                            t.line,
                            format!(
                                "`as {}` on `{sensitive}` can silently truncate \
                                 time/seq/uid arithmetic",
                                ty.text
                            ),
                            format!(
                                "use {}::try_from(...) and handle the overflow explicitly \
                                 (saturate or propagate) instead of `as`",
                                ty.text
                            ),
                        );
                    }
                }
            }

            // --- float-order: comparator methods ordering raw floats.
            if t.is_punct('.') && !floatorder_licensed(rel_path) {
                if let Some(m) = toks.get(i + 1).filter(|n| {
                    n.kind == TokKind::Ident && ORDERING_METHODS.contains(&n.text.as_str())
                }) {
                    if punct_at(toks, i + 2, '(') {
                        if let Some(close) = matching_close(toks, i + 2, '(', ')') {
                            let span = &toks[i + 3..close];
                            let floaty = span.iter().any(|s| {
                                s.is_ident("f64")
                                    || s.is_ident("f32")
                                    || s.is_ident("partial_cmp")
                                    || (s.kind == TokKind::Num && s.text.contains('.'))
                            });
                            let total = span.iter().any(|s| s.is_ident("total_cmp"));
                            if floaty && !total {
                                push(
                                    &mut findings,
                                    Rule::FloatOrder,
                                    m.line,
                                    format!(
                                        "`.{}` comparator orders raw floats; NaN or \
                                         platform rounding would make the order \
                                         run-dependent — use f64::total_cmp",
                                        m.text
                                    ),
                                    "write the comparator with f64::total_cmp, or sort on \
                                     an integer key; float statistics belong in \
                                     sim_core::stats"
                                        .to_string(),
                                );
                            }
                        }
                    }
                }
            }

            // --- timer-clear: `self.<x>_timer = None` without a preceding
            // id-match guard in the same fn body (the PR 5 tombstone
            // contract: cancel via `.take()` + TimerSlab::cancel, or clear
            // only behind `if self.x == Some(id)`).
            if t.kind == TokKind::Ident
                && t.text.ends_with("timer")
                && i > 0
                && toks[i - 1].is_punct('.')
                && punct_at(toks, i + 1, '=')
                && !punct_at(toks, i + 2, '=')
                && ident_at(toks, i + 2, "None")
            {
                let guarded = enclosing_span(&fn_spans, i).is_some_and(|(start, _)| {
                    toks[start..i].windows(4).any(|w| {
                        w[0].is_ident(&t.text)
                            && w[1].is_punct('=')
                            && w[2].is_punct('=')
                            && w[3].is_ident("Some")
                    })
                });
                if !guarded {
                    push(
                        &mut findings,
                        Rule::TimerClear,
                        t.line,
                        format!(
                            "raw timer-slot clear: `{}` is set to None without an \
                             id-match guard, so a stale TimerSlab entry can fire into \
                             a reused slot",
                            t.text
                        ),
                        format!(
                            "guard the clear (`if self.{0} == Some(id) {{ self.{0} = \
                             None; }}`) or cancel via `self.{0}.take()` + \
                             TimerSlab::cancel",
                            t.text
                        ),
                    );
                }
            }
        }

        // --- binary-heap: everywhere outside the scheduler's home crate,
        // test code included (a heap-ordered test oracle with arbitrary
        // tie-breaking would validate the wrong ordering contract).
        if t.kind == TokKind::Ident && t.text == "BinaryHeap" && !binaryheap_licensed(rel_path) {
            push(
                &mut findings,
                Rule::AdHocHeap,
                t.line,
                "`BinaryHeap` breaks ties arbitrarily; schedule through \
                 sim_core::DriverQueue"
                    .to_string(),
                "schedule through sim_core::DriverQueue, whose (time, seq) key pops \
                 ties in FIFO order"
                    .to_string(),
            );
        }

        // --- thread-spawn: everywhere outside the licensed measurement
        // crates, test code included (a test that spawns threads and merges
        // in completion order is flaky by construction). Matching `thread ::`
        // catches `std::thread::spawn`, `thread::scope`, and
        // `use std::thread::...` alike.
        if t.is_ident("thread")
            && punct_at(toks, i + 1, ':')
            && punct_at(toks, i + 2, ':')
            && !thread_licensed(rel_path)
        {
            push(
                &mut findings,
                Rule::ThreadSpawn,
                t.line,
                "`std::thread` outside the licensed measurement crates".to_string(),
                "route parallel work through the harness batch runner \
                 (harness::run_batch); raw thread spawns merge in completion order \
                 and break replay"
                    .to_string(),
            );
        }
    }

    findings
}

fn ident_at(toks: &[Token], i: usize, name: &str) -> bool {
    toks.get(i).is_some_and(|t| t.is_ident(name))
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

/// Whether `t` can be the expression a `[index]` postfixes (an identifier,
/// a number, or a closing `)` — not `:`/`=`/`#`, which start array types,
/// array literals, and attributes).
fn indexable_before(t: &Token) -> bool {
    t.kind == TokKind::Ident || t.kind == TokKind::Num || t.is_punct(')')
}

/// Whether a numeric literal is a plain integer (digits and underscores
/// only — `[0u8; 16]`-style suffixed repeats don't index).
fn is_plain_int(t: &Token) -> bool {
    t.kind == TokKind::Num
        && !t.text.is_empty()
        && t.text.chars().all(|c| c.is_ascii_digit() || c == '_')
}

/// Index of the token closing the group opened at `open_idx`, or None.
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

/// Collects the identifiers of the postfix expression ending just before
/// the `as` at `as_idx`: walks `ident`/`literal`/`(...)`-group primaries
/// connected by `.` / `::` backwards, gathering every identifier seen
/// (idents inside parenthesised groups included).
fn cast_operand_idents(toks: &[Token], as_idx: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut j = as_idx as isize - 1;
    loop {
        if j < 0 {
            break;
        }
        let t = &toks[j as usize];
        // One primary.
        if t.is_punct(')') || t.is_punct(']') {
            let open = if t.is_punct(')') { '(' } else { '[' };
            let close = if t.is_punct(')') { ')' } else { ']' };
            let mut depth = 1usize;
            let mut k = j - 1;
            while k >= 0 && depth > 0 {
                let u = &toks[k as usize];
                if u.is_punct(close) {
                    depth += 1;
                } else if u.is_punct(open) {
                    depth -= 1;
                } else if u.kind == TokKind::Ident && u.text != "as" {
                    idents.push(u.text.clone());
                }
                k -= 1;
            }
            j = k;
            // A call's callee sits directly before its `(`-group.
            if j >= 0 && toks[j as usize].kind == TokKind::Ident {
                continue;
            }
        } else if t.kind == TokKind::Ident {
            if t.text == "as" {
                break; // chained casts: `x as u64 as u32` — stop at the inner cast
            }
            idents.push(t.text.clone());
            j -= 1;
        } else if t.kind == TokKind::Num {
            j -= 1;
        } else {
            break;
        }
        // Postfix connectors: `.` or `::` continue the chain leftwards.
        if j >= 0 && toks[j as usize].is_punct('.') {
            j -= 1;
        } else if j >= 1 && toks[j as usize].is_punct(':') && toks[(j - 1) as usize].is_punct(':') {
            j -= 2;
        } else {
            break;
        }
    }
    idents
}

/// Whether any `_`-separated segment of `ident` names a truncation-sensitive
/// quantity (time/seq/uid arithmetic).
fn has_sensitive_segment(ident: &str) -> bool {
    ident.split('_').any(|seg| SENSITIVE_SEGMENTS.iter().any(|s| seg.eq_ignore_ascii_case(s)))
}

/// Token-index spans of every fn body in the file, as `(open_brace+1,
/// close_brace)` ranges.
fn fn_body_spans(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") || toks.get(i + 1).map(|t| t.kind) != Some(TokKind::Ident) {
            continue;
        }
        // Walk to the body's `{`, tracking nesting so `;` inside `[u8; 4]`
        // params doesn't end the search; a `;` at depth 0 is a body-less
        // trait method.
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
                if let Some(close) = matching_close(toks, j, '{', '}') {
                    spans.push((j + 1, close));
                }
                break;
            }
            j += 1;
        }
    }
    spans
}

/// The innermost fn body span containing token index `i`.
fn enclosing_span(spans: &[(usize, usize)], i: usize) -> Option<(usize, usize)> {
    spans.iter().filter(|(s, e)| *s <= i && i < *e).max_by_key(|(s, _)| *s).copied()
}
