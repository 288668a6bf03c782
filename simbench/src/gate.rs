//! The correctness gate behind `failed` and `correct`.
//!
//! At every seed a run must repeat exactly (digest and simulated outputs
//! equal across repetitions and between the traced and untraced runs),
//! keep the invariant checker clean with its ledger balanced, send data on
//! every flow and deliver some. On the chain every flow must deliver; in
//! the city it is enough that the flows together do, because a flow whose
//! endpoints sit many hops apart in a roaming 1000-node network may not
//! complete a single segment in 10 virtual seconds (at the default seed two
//! to six of each city's ten deliver nothing, and the pins record that).
//! At the default seed the simulated outputs are also pinned to the values
//! below. Neither the literal digest nor work counters (events, queue peak,
//! stale pops) are pinned: a change may replace the hash function or remove
//! wasted work without changing what the model computes.

use faultline::McVerdict;

use crate::tally::Outputs;

/// The seed the pins below were recorded at.
pub const DEFAULT_SEED: u64 = 1;
/// A seed no pin was recorded at; the rest of the gate must pass there
/// (the self-tests check it on the chain; `--seed 2718281` checks it all).
#[cfg(test)]
pub const HELD_OUT_SEED: u64 = 2_718_281;

/// Chain outputs at the default seed, one line per chain seed: per flow
/// `delivered bytes/retransmissions/timeouts`, then summed over nodes the
/// queue/MAC/routing drops, discoveries, collisions, AODV RREQ/RREP/RERR
/// sent, position updates and link churn.
const CHAIN_PINS: [&str; 3] = [
    "flows 2595880/35/1 drops 0/47/85 disc 44 coll 241774 aodv 415/344/203 moves 0 churn 0",
    "flows 2524340/63/2 drops 0/66/104 disc 60 coll 238203 aodv 567/439/260 moves 0 churn 0",
    "flows 2506820/78/1 drops 0/57/103 disc 51 coll 236978 aodv 498/401/249 moves 0 churn 0",
];
/// City outputs at the default seed, in the chain's format.
const CITY_PINS: [&str; 6] = [
    concat!(
        "flows 108040/16/2,7300/2/1,10220/2/2,115340/27/2,0/2/2,",
        "140160/4/1,42340/13/2,29200/14/3,67160/19/2,0/2/2 ",
        "drops 0/175/177 disc 39 coll 4158698 aodv 36904/6917/3601 moves 100000 churn 18848"
    ),
    concat!(
        "flows 2920/2/2,4380/3/2,2920/2/2,4380/3/2,1460/2/2,0/2/2,5840/3/2,21900/20/3,5840/3/2,",
        "1460/2/2 drops 0/192/219 disc 21 coll 3030745 aodv 19583/7413/2434 moves 100000 churn 19026"
    ),
    concat!(
        "flows 5840/3/2,10220/3/2,2920/2/2,1460/1/1,14600/3/2,7300/6/3,1460/1/1,4380/3/2,0/2/2,",
        "18980/3/2 drops 0/163/190 disc 23 coll 2652140 aodv 16990/7436/1523 moves 100000 churn 17977"
    ),
    concat!(
        "flows 0/2/2,8760/5/3,10220/3/2,1460/1/1,5840/3/2,16060/1/1,113880/19/3,94900/3/2,",
        "30660/6/1,45260/9/1 drops 0/176/197 disc 37 coll 4012946 aodv 36208/5694/2007 ",
        "moves 100000 churn 18085"
    ),
    concat!(
        "flows 1460/3/2,331420/0/0,0/2/2,0/2/2,0/2/2,2920/3/2,113880/2/1,0/2/2,0/2/2,0/2/2 ",
        "drops 0/171/176 disc 19 coll 3842715 aodv 13870/12936/1391 moves 100000 churn 18070"
    ),
    concat!(
        "flows 1460/2/2,0/2/2,39420/23/3,0/2/2,1460/2/2,0/2/2,0/2/2,27740/10/4,0/2/2,0/2/2 ",
        "drops 0/292/298 disc 24 coll 4075980 aodv 18974/12303/2597 moves 100000 churn 18559"
    ),
];
/// Model-checking verdict at the default seed.
const MC_PIN: &str = "TRUNCATED branches 300 pruned 267";

/// What a simulation workload's runs must show.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    /// Pinned outputs per case; only at the default seed.
    pins: Option<&'static [&'static str]>,
    /// Whether every flow must deliver, or only the flows together.
    each_flow_delivers: bool,
}

impl Expect {
    /// The chain's expectations at `seed`.
    pub fn chain(seed: u64) -> Expect {
        Expect { pins: (seed == DEFAULT_SEED).then_some(&CHAIN_PINS[..]), each_flow_delivers: true }
    }

    /// The city's expectations at `seed`.
    pub fn city(seed: u64) -> Expect {
        Expect { pins: (seed == DEFAULT_SEED).then_some(&CITY_PINS[..]), each_flow_delivers: false }
    }
}

/// The pinned rendering of a verdict.
pub fn verdict_line(v: &McVerdict) -> String {
    format!("{} branches {} pruned {}", v.status(), v.branches_explored, v.branches_pruned)
}

/// Runs attempted, runs failed, and why.
#[derive(Debug, Default)]
pub struct Gate {
    /// Runs (seeds or branches) checked.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Gate {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Records an error that belongs to no single run.
    pub fn error(&mut self, what: String) {
        self.errors.push(what);
    }

    /// Checks one simulation run of case `case`, against the case's first
    /// run `reference` (if this is not it) and `expect`.
    pub fn sim_run(
        &mut self,
        label: &str,
        case: usize,
        out: &Outputs,
        reference: Option<&Outputs>,
        expect: Expect,
    ) {
        let mut why = Vec::new();
        if let Some(i) = out.flow_sent.iter().position(|&s| s == 0) {
            why.push(format!("flow {i} sent nothing"));
        }
        if expect.each_flow_delivers {
            if let Some(i) = out.flow_bytes.iter().position(|&b| b == 0) {
                why.push(format!("flow {i} delivered nothing"));
            }
        } else if out.flow_bytes.iter().all(|&b| b == 0) {
            why.push("no flow delivered anything".to_string());
        }
        if let Some(v) = out.violations.first() {
            why.push(format!("{} invariant violation(s), first: {v}", out.violations.len()));
        }
        if !out.ledger_balanced {
            why.push("conservation ledger out of balance".to_string());
        }
        if let Some(r) = reference {
            if r.digest != out.digest || r.pinned != out.pinned || r.tally.perf != out.tally.perf {
                why.push(format!(
                    "did not repeat: digest {:#x} vs {:#x}; outputs `{}` vs `{}`",
                    out.digest, r.digest, out.pinned, r.pinned
                ));
            }
        }
        if let Some(pin) = expect.pins.and_then(|pins| pins.get(case)) {
            if out.pinned != *pin {
                why.push(format!("outputs `{}` differ from the pinned `{pin}`", out.pinned));
            }
        }
        self.count(label, case, why);
    }

    /// Checks one exploration: every branch is a run.
    pub fn mc_run(
        &mut self,
        label: &str,
        verdict: &McVerdict,
        reference: Option<&McVerdict>,
        pinned: bool,
    ) {
        let branches = verdict.branches_explored as u64;
        self.attempted += branches;
        let violating = verdict.log.iter().filter(|b| b.violations > 0).count() as u64;
        self.failed += violating;
        if let Some(ce) = &verdict.counter_example {
            self.errors
                .push(format!("{label}: counter-example {:?}: {:?}", ce.decisions, ce.violations));
        }
        if let Some(r) = reference {
            if r.render_log() != verdict.render_log() {
                self.failed += branches - violating;
                self.errors.push(format!("{label}: exploration did not repeat branch for branch"));
            }
        }
        if pinned && verdict_line(verdict) != MC_PIN {
            self.errors.push(format!(
                "{label}: verdict `{}` differs from the pinned `{MC_PIN}`",
                verdict_line(verdict)
            ));
        }
    }

    fn count(&mut self, label: &str, case: usize, why: Vec<String>) {
        self.attempted += 1;
        if !why.is_empty() {
            self.failed += 1;
            self.errors.push(format!("{label} case {case}: {}", why.join("; ")));
        }
    }
}
