//! Topology & mobility subsystem: where nodes are, how they move, and how
//! the PHY finds their neighbours.
//!
//! This crate owns three concerns the PHY and simulator build on:
//!
//! * **Geometry** — [`Position`] on the metre plane, with both exact
//!   ([`Position::distance_to`]) and hot-path squared
//!   ([`Position::distance_sq_to`]) distance forms.
//! * **Spatial index** — [`SpatialGrid`], a deterministic cell grid keyed
//!   to the carrier-sense radius so neighbor queries and position updates
//!   visit O(density) candidates instead of all N nodes. Candidate sets
//!   are returned in ascending node order, making the grid a *pure
//!   accelerator*: byte-identical traces to the brute-force scan.
//! * **Scenario vocabulary** — topology generators ([`generators`]) and
//!   the declarative [`TopologySpec`] / [`MobilitySpec`] / [`IndexKind`]
//!   specs that `SimConfig` and the harness `--topology`/`--mobility`
//!   flags speak, plus [`WaypointLeg`] for scripted, replayable motion.
//!
//! Everything is seed-deterministic: random placements and waypoint
//! streams derive from `SimRng`, never from ambient randomness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
mod geometry;
mod grid;
mod spec;

pub use geometry::Position;
pub use grid::SpatialGrid;
pub use spec::{IndexKind, MobilitySpec, TopologySpec, WaypointLeg};
