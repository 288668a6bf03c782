//! The assembled wireless ad hoc network stack and simulator facade.
//!
//! This crate owns the event loop and wires the pure state machines from
//! the layer crates into full nodes:
//!
//! ```text
//!   TCP sender/receiver (tcp, muzha)     ── segments ──┐
//!   AODV routing (aodv)                  ── packets ───┤ per-node
//!   drop-tail IFQ (this crate)           ── frames ────┤ plumbing
//!   802.11 DCF MAC (mac80211)                          │
//!   radio PHY + channel (phy)            ── events ────┘
//! ```
//!
//! The Muzha [`muzha::RouterAgent`] sits in the enqueue path of every node
//! — source, relays and destination alike — so the `AVBW-S` option picks up
//! the *minimum* DRAI along the whole forwarding path.
//!
//! Entry points:
//!
//! * [`Simulator`] — build from a topology + [`SimConfig`], add
//!   [`FlowSpec`]s, `run_until`, then collect [`FlowReport`]s,
//! * [`topology`] — the paper's chain and cross topologies,
//! * [`TcpVariant`] — which sender implementation a flow uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod busy;
mod config;
mod queue;
mod red;
mod report;
mod sim;
pub mod topology;

pub use busy::BusyTracker;
pub use config::{FlowSpec, QueueDiscipline, SimConfig, TcpVariant};
pub use queue::DropTailQueue;
pub use red::{RedConfig, RedOutcome, RedQueue};
pub use report::{FlowReport, NodeSummary, RunReport};
pub use sim::{RandomWaypoint, Simulator};
pub use topo::{IndexKind, MobilitySpec, TopologySpec, WaypointLeg};
