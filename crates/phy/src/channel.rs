//! The shared radio channel: who hears whom.

use sim_core::DetSet;
use topo::SpatialGrid;
use wire::NodeId;

use crate::{IndexKind, Position, RadioParams};

/// The radio channel connecting all nodes.
///
/// Precomputes, for every node, the set of nodes inside its transmission
/// range (potential receivers) and inside its carrier-sense range (nodes
/// whose medium it occupies). Positions can be updated (mobility hook), which
/// updates the adjacency.
///
/// Two interchangeable position indexes back the adjacency maintenance
/// ([`IndexKind`]): the default spatial grid visits only the moved node's
/// candidate cells, while the brute-force reference re-scans all pairs.
/// Both produce identical neighbor rows (the grid's candidate sets are
/// supersets filtered by the *same* squared-distance predicate, collected
/// in the same ascending node order), so the choice never changes a trace.
///
/// # Example
///
/// ```
/// use phy::{Channel, Position, RadioParams};
/// use wire::NodeId;
///
/// // A 3-node chain at 250 m spacing: 0 and 2 can't hear each other.
/// let positions = vec![
///     Position::new(0.0, 0.0),
///     Position::new(250.0, 0.0),
///     Position::new(500.0, 0.0),
/// ];
/// let ch = Channel::new(positions, RadioParams::default());
/// assert!(ch.in_rx_range(NodeId::new(0), NodeId::new(1)));
/// assert!(!ch.in_rx_range(NodeId::new(0), NodeId::new(2)));
/// // ...but node 0's transmissions are *sensed* at node 2 (inside 550 m).
/// assert!(ch.in_cs_range(NodeId::new(0), NodeId::new(2)));
/// ```
#[derive(Clone, Debug)]
pub struct Channel {
    params: RadioParams,
    positions: Vec<Position>,
    rx_neighbors: Vec<Vec<NodeId>>,
    cs_neighbors: Vec<Vec<NodeId>>,
    /// Fault-injection: radios administratively switched off (killed nodes).
    disabled: Vec<bool>,
    /// Fault-injection: individual links forced down, stored as normalised
    /// `(min, max)` pairs so `a—b` and `b—a` are the same link.
    blocked: DetSet<(NodeId, NodeId)>,
    /// Which maintenance strategy mutations use.
    index: IndexKind,
    /// Cell index over `positions`, cell side = carrier-sense range (the
    /// largest query radius), kept in sync in both index modes.
    grid: SpatialGrid,
    /// Scratch buffer for grid candidate collection.
    scratch: Vec<usize>,
}

fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Size of the symmetric difference between two ascending-sorted rows.
fn row_diff(old: &[NodeId], new: &[NodeId]) -> usize {
    let mut churn = 0;
    let (mut oi, mut ni) = (0, 0);
    while oi < old.len() && ni < new.len() {
        if old[oi] == new[ni] {
            oi += 1;
            ni += 1;
        } else if old[oi] < new[ni] {
            churn += 1;
            oi += 1;
        } else {
            churn += 1;
            ni += 1;
        }
    }
    churn + (old.len() - oi) + (new.len() - ni)
}

/// Removes `node` from `peer`'s sorted row if present.
fn peer_remove(rows: &mut [Vec<NodeId>], peer: NodeId, node: NodeId) {
    let row = &mut rows[peer.index()];
    if let Ok(at) = row.binary_search(&node) {
        row.remove(at);
    }
}

/// Inserts `node` into `peer`'s sorted row if absent.
fn peer_insert(rows: &mut [Vec<NodeId>], peer: NodeId, node: NodeId) {
    let row = &mut rows[peer.index()];
    if let Err(at) = row.binary_search(&node) {
        row.insert(at, node);
    }
}

/// After `node`'s row changed from `old` to `new`, mirrors the delta onto
/// the affected peers' rows (adjacency is symmetric, so exactly the
/// added/removed peers need `node` inserted/removed). Returns the delta
/// size `|removed| + |added|`.
fn patch_peers(rows: &mut [Vec<NodeId>], node: NodeId, old: &[NodeId], new: &[NodeId]) -> usize {
    let mut churn = 0;
    let (mut oi, mut ni) = (0, 0);
    while oi < old.len() && ni < new.len() {
        if old[oi] == new[ni] {
            oi += 1;
            ni += 1;
        } else if old[oi] < new[ni] {
            peer_remove(rows, old[oi], node);
            churn += 1;
            oi += 1;
        } else {
            peer_insert(rows, new[ni], node);
            churn += 1;
            ni += 1;
        }
    }
    for &gone in &old[oi..] {
        peer_remove(rows, gone, node);
        churn += 1;
    }
    for &fresh in &new[ni..] {
        peer_insert(rows, fresh, node);
        churn += 1;
    }
    churn
}

impl Channel {
    /// Creates a channel for nodes at the given positions, using the
    /// default spatial-grid index.
    ///
    /// # Panics
    ///
    /// Panics if `params` are inconsistent (see [`RadioParams::validate`]).
    pub fn new(positions: Vec<Position>, params: RadioParams) -> Self {
        Channel::with_index(positions, params, IndexKind::default())
    }

    /// Creates a channel with an explicit position-index strategy.
    ///
    /// # Panics
    ///
    /// Panics if `params` are inconsistent (see [`RadioParams::validate`]).
    pub fn with_index(positions: Vec<Position>, params: RadioParams, index: IndexKind) -> Self {
        params.validate();
        let disabled = vec![false; positions.len()];
        let grid = SpatialGrid::new(params.cs_range_m, &positions);
        let mut ch = Channel {
            params,
            positions,
            rx_neighbors: Vec::new(),
            cs_neighbors: Vec::new(),
            disabled,
            blocked: DetSet::new(),
            index,
            grid,
            scratch: Vec::new(),
        };
        ch.recompute();
        ch
    }

    /// Number of nodes attached to the channel.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// The radio parameters.
    pub fn params(&self) -> &RadioParams {
        &self.params
    }

    /// Which position index backs adjacency maintenance.
    pub fn index(&self) -> IndexKind {
        self.index
    }

    /// A node's position.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// Moves a node and updates adjacency (mobility hook). Returns the
    /// link churn: how many rx/cs entries of the moved node's own rows
    /// changed (peer rows mirror these symmetrically).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_position(&mut self, node: NodeId, position: Position) -> usize {
        self.positions[node.index()] = position;
        self.grid.set(node.index(), position);
        self.refresh(node)
    }

    /// Nodes that can *decode* transmissions from `node` (inside tx range),
    /// excluding the node itself.
    pub fn rx_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.rx_neighbors[node.index()]
    }

    /// Nodes that *sense* transmissions from `node` (inside carrier-sense
    /// range — a superset of [`Self::rx_neighbors`]), excluding the node
    /// itself.
    pub fn cs_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.cs_neighbors[node.index()]
    }

    /// Whether `b` can decode `a`'s transmissions.
    pub fn in_rx_range(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.link_usable(a, b) && self.distance_sq(a, b) <= sq(self.params.tx_range_m)
    }

    /// Whether `b` senses `a`'s transmissions.
    pub fn in_cs_range(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.link_usable(a, b) && self.distance_sq(a, b) <= sq(self.params.cs_range_m)
    }

    /// Administratively enables or disables a node's radio (fault hook: a
    /// disabled node neither transmits into, nor receives or senses from,
    /// the channel). Updates adjacency; returns the link churn as
    /// [`Self::set_position`] does.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_node_enabled(&mut self, node: NodeId, enabled: bool) -> usize {
        self.disabled[node.index()] = !enabled;
        self.refresh(node)
    }

    /// Whether a node's radio is administratively enabled.
    pub fn is_node_enabled(&self, node: NodeId) -> bool {
        !self.disabled[node.index()]
    }

    /// Forces the (bidirectional) link between `a` and `b` down or back up,
    /// independent of geometry (fault hook: scripted link flaps). Updates
    /// adjacency; returns the link churn as [`Self::set_position`] does.
    pub fn set_link_blocked(&mut self, a: NodeId, b: NodeId, blocked: bool) -> usize {
        if blocked {
            self.blocked.insert(link_key(a, b));
        } else {
            self.blocked.remove(&link_key(a, b));
        }
        self.refresh(a)
    }

    /// Whether the `a`—`b` link is currently forced down.
    pub fn is_link_blocked(&self, a: NodeId, b: NodeId) -> bool {
        self.blocked.contains(&link_key(a, b))
    }

    fn link_usable(&self, a: NodeId, b: NodeId) -> bool {
        !self.disabled[a.index()]
            && !self.disabled[b.index()]
            && !self.blocked.contains(&link_key(a, b))
    }

    /// Distance between two nodes in metres.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.positions[a.index()].distance_to(self.positions[b.index()])
    }

    fn distance_sq(&self, a: NodeId, b: NodeId) -> f64 {
        self.positions[a.index()].distance_sq_to(self.positions[b.index()])
    }

    /// Builds node `i`'s rx/cs rows by filtering `candidates` (ascending
    /// node indices) through the one squared-distance predicate every code
    /// path shares — this is what makes grid and brute-force maintenance
    /// agree bit-for-bit.
    fn rows_for(&self, i: usize, candidates: &[usize]) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut rx = Vec::new();
        let mut cs = Vec::new();
        if self.disabled[i] {
            return (rx, cs);
        }
        let a = NodeId::new(i as u16);
        let tx_sq = sq(self.params.tx_range_m);
        let cs_sq = sq(self.params.cs_range_m);
        for &j in candidates {
            if j == i || self.disabled[j] {
                continue;
            }
            let b = NodeId::new(j as u16);
            if self.blocked.contains(&link_key(a, b)) {
                continue;
            }
            let d_sq = self.positions[i].distance_sq_to(self.positions[j]);
            if d_sq <= tx_sq {
                rx.push(b);
            }
            if d_sq <= cs_sq {
                cs.push(b);
            }
        }
        (rx, cs)
    }

    /// Full O(N²) adjacency rebuild (construction, decode, and every
    /// brute-force-mode mutation).
    fn recompute(&mut self) {
        let n = self.positions.len();
        let everyone: Vec<usize> = (0..n).collect();
        let mut rx_rows = Vec::with_capacity(n);
        let mut cs_rows = Vec::with_capacity(n);
        for i in 0..n {
            let (rx, cs) = self.rows_for(i, &everyone);
            rx_rows.push(rx);
            cs_rows.push(cs);
        }
        self.rx_neighbors = rx_rows;
        self.cs_neighbors = cs_rows;
    }

    /// Re-derives adjacency after a mutation that only affects pairs
    /// containing `node` (a move, enable/disable, or link block/unblock —
    /// all three predicates are symmetric and localised to such pairs).
    /// Returns the churn of `node`'s own rows.
    fn refresh(&mut self, node: NodeId) -> usize {
        let i = node.index();
        match self.index {
            IndexKind::BruteForce => {
                let old_rx = std::mem::take(&mut self.rx_neighbors[i]);
                let old_cs = std::mem::take(&mut self.cs_neighbors[i]);
                self.recompute();
                row_diff(&old_rx, &self.rx_neighbors[i]) + row_diff(&old_cs, &self.cs_neighbors[i])
            }
            IndexKind::Grid => {
                let mut candidates = std::mem::take(&mut self.scratch);
                self.grid.candidates(self.positions[i], &mut candidates);
                let (rx, cs) = self.rows_for(i, &candidates);
                self.scratch = candidates;
                let old_rx = std::mem::replace(&mut self.rx_neighbors[i], rx);
                let old_cs = std::mem::replace(&mut self.cs_neighbors[i], cs);
                // Split borrows: clone nothing, patch peers against the
                // freshly installed rows.
                let new_rx = std::mem::take(&mut self.rx_neighbors[i]);
                let new_cs = std::mem::take(&mut self.cs_neighbors[i]);
                let churn = patch_peers(&mut self.rx_neighbors, node, &old_rx, &new_rx)
                    + patch_peers(&mut self.cs_neighbors, node, &old_cs, &new_cs);
                self.rx_neighbors[i] = new_rx;
                self.cs_neighbors[i] = new_cs;
                churn
            }
        }
    }
}

fn sq(r: f64) -> f64 {
    r * r
}

impl sim_core::Snapshotable for Channel {
    fn encode(&self, w: &mut sim_core::SnapshotWriter) {
        // The rx/cs adjacency lists and the grid are derived caches:
        // recomputed on decode from positions + params + fault state.
        w.put(&self.params);
        w.put(&self.positions);
        w.put(&self.disabled);
        w.put(&self.blocked);
        w.put(&self.index);
    }

    fn decode(r: &mut sim_core::SnapshotReader<'_>) -> Result<Self, sim_core::SnapError> {
        let params: RadioParams = r.get()?;
        let positions: Vec<Position> = r.get()?;
        let disabled: Vec<bool> = r.get()?;
        let blocked: DetSet<(NodeId, NodeId)> = r.get()?;
        let index: IndexKind = r.get()?;
        if disabled.len() != positions.len() {
            return Err(sim_core::SnapError::Invalid("channel disabled-flag count"));
        }
        if positions.len() >= usize::from(u16::MAX) {
            return Err(sim_core::SnapError::Invalid("channel node count"));
        }
        let grid = SpatialGrid::new(params.cs_range_m, &positions);
        let mut ch = Channel {
            params,
            positions,
            rx_neighbors: Vec::new(),
            cs_neighbors: Vec::new(),
            disabled,
            blocked,
            index,
            grid,
            scratch: Vec::new(),
        };
        ch.recompute();
        Ok(ch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn chain(count: usize, spacing: f64) -> Channel {
        let positions = (0..count).map(|i| Position::new(i as f64 * spacing, 0.0)).collect();
        Channel::new(positions, RadioParams::default())
    }

    #[test]
    fn chain_adjacency() {
        let ch = chain(5, 250.0);
        assert_eq!(ch.node_count(), 5);
        // Node 2 decodes only 1 and 3.
        assert_eq!(ch.rx_neighbors(n(2)), &[n(1), n(3)]);
        // ...but senses 0, 1, 3, 4 (500 m <= 550 m).
        assert_eq!(ch.cs_neighbors(n(2)), &[n(0), n(1), n(3), n(4)]);
    }

    #[test]
    fn endpoints_have_fewer_neighbors() {
        let ch = chain(5, 250.0);
        assert_eq!(ch.rx_neighbors(n(0)), &[n(1)]);
        assert_eq!(ch.cs_neighbors(n(0)), &[n(1), n(2)]);
    }

    #[test]
    fn symmetry() {
        let ch = chain(6, 250.0);
        for i in 0..6u16 {
            for j in 0..6u16 {
                if i != j {
                    assert_eq!(ch.in_rx_range(n(i), n(j)), ch.in_rx_range(n(j), n(i)));
                    assert_eq!(ch.in_cs_range(n(i), n(j)), ch.in_cs_range(n(j), n(i)));
                }
            }
        }
    }

    #[test]
    fn rx_implies_cs() {
        let ch = chain(8, 200.0);
        for i in 0..8u16 {
            for &j in ch.rx_neighbors(n(i)) {
                assert!(ch.in_cs_range(n(i), j));
            }
        }
    }

    #[test]
    fn mobility_recomputes() {
        let mut ch = chain(3, 250.0);
        assert!(!ch.in_rx_range(n(0), n(2)));
        ch.set_position(n(2), Position::new(200.0, 0.0));
        assert!(ch.in_rx_range(n(0), n(2)));
        assert_eq!(ch.position(n(2)), Position::new(200.0, 0.0));
    }

    #[test]
    fn move_churn_counts_both_radii() {
        let mut ch = chain(3, 250.0);
        // Moving node 2 next to node 0 gains rx 0 (it already sensed 0) —
        // and keeps 1 in both rows: churn = 1.
        assert_eq!(ch.set_position(n(2), Position::new(200.0, 0.0)), 1);
        // Moving it far away drops rx {0, 1} and cs {0, 1}: churn = 4.
        assert_eq!(ch.set_position(n(2), Position::new(10_000.0, 0.0)), 4);
        // A tiny in-place wiggle changes nothing.
        assert_eq!(ch.set_position(n(2), Position::new(10_000.0, 1.0)), 0);
    }

    #[test]
    fn disabling_a_node_removes_it_from_the_air() {
        let mut ch = chain(3, 250.0);
        ch.set_node_enabled(n(1), false);
        assert!(!ch.is_node_enabled(n(1)));
        assert!(!ch.in_rx_range(n(0), n(1)));
        assert!(!ch.in_cs_range(n(1), n(2)));
        assert!(ch.rx_neighbors(n(0)).is_empty());
        assert!(ch.rx_neighbors(n(1)).is_empty());
        ch.set_node_enabled(n(1), true);
        assert!(ch.in_rx_range(n(0), n(1)));
        assert_eq!(ch.rx_neighbors(n(0)), &[n(1)]);
    }

    #[test]
    fn blocking_a_link_is_bidirectional_and_reversible() {
        let mut ch = chain(3, 250.0);
        ch.set_link_blocked(n(2), n(1), true);
        assert!(ch.is_link_blocked(n(1), n(2)));
        assert!(!ch.in_rx_range(n(1), n(2)));
        assert!(!ch.in_rx_range(n(2), n(1)));
        // The other link is untouched.
        assert!(ch.in_rx_range(n(0), n(1)));
        assert_eq!(ch.rx_neighbors(n(1)), &[n(0)]);
        ch.set_link_blocked(n(1), n(2), false);
        assert_eq!(ch.rx_neighbors(n(1)), &[n(0), n(2)]);
    }

    #[test]
    fn faults_survive_mobility_recompute() {
        let mut ch = chain(3, 250.0);
        ch.set_link_blocked(n(0), n(1), true);
        ch.set_position(n(2), Position::new(400.0, 0.0));
        assert!(!ch.in_rx_range(n(0), n(1)), "block must survive recompute");
    }

    #[test]
    fn node_never_its_own_neighbor() {
        let ch = chain(4, 100.0);
        for i in 0..4u16 {
            assert!(!ch.rx_neighbors(n(i)).contains(&n(i)));
            assert!(!ch.in_rx_range(n(i), n(i)));
        }
    }

    #[test]
    fn snapshot_preserves_index_kind() {
        use sim_core::{SnapshotReader, SnapshotWriter, Snapshotable};
        for kind in [IndexKind::Grid, IndexKind::BruteForce] {
            let positions = (0..6).map(|i| Position::new(i as f64 * 250.0, 0.0)).collect();
            let mut ch = Channel::with_index(positions, RadioParams::default(), kind);
            ch.set_link_blocked(n(0), n(1), true);
            ch.set_node_enabled(n(3), false);
            let mut w = SnapshotWriter::new();
            ch.encode(&mut w);
            let bytes = w.finish();
            let mut r = SnapshotReader::new(&bytes);
            let back = Channel::decode(&mut r).expect("decode");
            assert_eq!(back.index(), kind);
            for i in 0..6u16 {
                assert_eq!(back.rx_neighbors(n(i)), ch.rx_neighbors(n(i)));
                assert_eq!(back.cs_neighbors(n(i)), ch.cs_neighbors(n(i)));
            }
            assert!(back.is_link_blocked(n(0), n(1)));
            assert!(!back.is_node_enabled(n(3)));
        }
    }
}

#[cfg(test)]
mod grid_differential {
    use super::*;
    use proptest::prelude::*;

    /// One randomly generated mutation against the channel.
    fn apply(ch: &mut Channel, node_count: usize, op: (u8, usize, usize, f64, f64)) -> usize {
        let (kind, a, b, x, y) = op;
        let a = NodeId::new((a % node_count) as u16);
        let b = NodeId::new((b % node_count) as u16);
        match kind % 5 {
            0 | 1 => ch.set_position(a, Position::new(x, y)),
            2 => ch.set_node_enabled(a, false),
            3 => ch.set_node_enabled(a, true),
            _ => {
                if a == b {
                    0
                } else {
                    let was = ch.is_link_blocked(a, b);
                    ch.set_link_blocked(a, b, !was)
                }
            }
        }
    }

    proptest! {
        /// The grid index is a pure accelerator: after any sequence of
        /// moves, node disables/enables and link blocks/unblocks, its
        /// neighbor rows — and the churn reported for every mutation —
        /// equal the brute-force recompute's, entry for entry.
        #[test]
        fn grid_matches_brute_force(
            starts in proptest::collection::vec((0.0f64..2200.0, 0.0f64..2200.0), 2..24),
            ops in proptest::collection::vec(
                (0u8..5, 0usize..24, 0usize..24, 0.0f64..2200.0, 0.0f64..2200.0),
                1..40,
            )
        ) {
            let positions: Vec<Position> =
                starts.iter().map(|&(x, y)| Position::new(x, y)).collect();
            let node_count = positions.len();
            let mut fast =
                Channel::with_index(positions.clone(), RadioParams::default(), IndexKind::Grid);
            let mut slow =
                Channel::with_index(positions, RadioParams::default(), IndexKind::BruteForce);
            for &op in &ops {
                let fast_churn = apply(&mut fast, node_count, op);
                let slow_churn = apply(&mut slow, node_count, op);
                prop_assert_eq!(fast_churn, slow_churn, "churn diverged on {:?}", op);
                for i in 0..node_count as u16 {
                    let node = NodeId::new(i);
                    prop_assert_eq!(
                        fast.rx_neighbors(node),
                        slow.rx_neighbors(node),
                        "rx rows diverged at {} after {:?}",
                        node,
                        op
                    );
                    prop_assert_eq!(
                        fast.cs_neighbors(node),
                        slow.cs_neighbors(node),
                        "cs rows diverged at {} after {:?}",
                        node,
                        op
                    );
                }
            }
        }
    }
}
