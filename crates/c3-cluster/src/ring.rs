//! Token ring and replica placement.
//!
//! Cassandra organizes nodes into a one-hop DHT; the paper assigns tokens
//! "such that nodes own equal segments of the keyspace" with replication
//! factor 3. [`Ring`] reproduces that: the hashed key space `[0, 2⁶⁴)` is
//! split into equal contiguous ranges, a key's primary replica is the range
//! owner, and the remaining replicas are the next nodes walking the ring —
//! Cassandra's `SimpleStrategy`.

use c3_core::ServerId;

/// Equal-range token ring with successor replication.
///
/// `Copy` on purpose: hot paths that need a replica group while holding
/// `&mut` to their scenario copy the ring out first, so group membership
/// always comes from these methods instead of re-derived arithmetic.
#[derive(Clone, Copy, Debug)]
pub struct Ring {
    nodes: usize,
    replication_factor: usize,
}

impl Ring {
    /// A ring of `nodes` nodes with the given replication factor.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ replication_factor ≤ nodes`.
    pub fn new(nodes: usize, replication_factor: usize) -> Self {
        assert!(nodes >= 1, "need at least one node");
        assert!(
            (1..=nodes).contains(&replication_factor),
            "replication factor must be in 1..=nodes"
        );
        Self {
            nodes,
            replication_factor,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Replication factor.
    pub fn replication_factor(&self) -> usize {
        self.replication_factor
    }

    /// Hash a key onto the ring (splitmix64 finalizer — the partitioner).
    pub fn position(key: u64) -> u64 {
        let mut z = key.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// The node owning the range containing `position`.
    pub(crate) fn owner_of_position(&self, position: u64) -> ServerId {
        // owner = floor(position / (2^64 / nodes)) via 128-bit multiply.
        ((position as u128 * self.nodes as u128) >> 64) as usize
    }

    /// The primary replica (range owner) for a key.
    pub fn primary(&self, key: u64) -> ServerId {
        self.owner_of_position(Self::position(key))
    }

    /// The replica group for a key: the primary and its ring successors.
    pub fn replicas(&self, key: u64) -> Vec<ServerId> {
        let primary = self.primary(key);
        self.group_of_primary(primary)
    }

    /// Replica-group id for a key (== the primary's index). There are
    /// exactly as many replica groups as nodes, as the paper notes.
    pub fn group_id(&self, key: u64) -> usize {
        self.primary(key)
    }

    /// The members of the replica group whose primary is `primary`.
    pub fn group_of_primary(&self, primary: ServerId) -> Vec<ServerId> {
        self.group_members(primary).collect()
    }

    /// The members of the replica group whose primary is `primary`, in
    /// group order, without allocating — the hot-path form of
    /// [`Ring::group_of_primary`].
    pub(crate) fn group_members(&self, primary: ServerId) -> impl Iterator<Item = ServerId> + '_ {
        let nodes = self.nodes;
        (0..self.replication_factor).map(move |k| (primary + k) % nodes)
    }

    /// All groups that `node` belongs to (used to drain backlogs when a
    /// response from `node` arrives). Allocation-free: this runs on the
    /// per-response hot path.
    pub fn groups_of_node(&self, node: ServerId) -> impl Iterator<Item = usize> + '_ {
        let nodes = self.nodes;
        (0..self.replication_factor).map(move |k| (node + nodes - k) % nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_are_distinct_and_correct_count() {
        let ring = Ring::new(15, 3);
        for key in 0..1000u64 {
            let reps = ring.replicas(key);
            assert_eq!(reps.len(), 3);
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct");
            for r in reps {
                assert!(r < 15);
            }
        }
    }

    #[test]
    fn group_is_primary_and_successors() {
        let ring = Ring::new(10, 3);
        assert_eq!(ring.group_of_primary(7), vec![7, 8, 9]);
        assert_eq!(ring.group_of_primary(9), vec![9, 0, 1]);
    }

    #[test]
    fn ownership_is_roughly_balanced() {
        let ring = Ring::new(15, 3);
        let mut counts = [0u64; 15];
        for key in 0..150_000u64 {
            counts[ring.primary(key)] += 1;
        }
        let expect = 150_000 / 15;
        for (n, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect as f64).abs() / (expect as f64) < 0.05,
                "node {n} owns {c}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn groups_of_node_inverts_membership() {
        let ring = Ring::new(15, 3);
        for node in 0..15 {
            for g in ring.groups_of_node(node) {
                assert!(
                    ring.group_of_primary(g).contains(&node),
                    "node {node} should be in group {g}"
                );
            }
        }
    }

    #[test]
    fn positions_cover_whole_range() {
        let ring = Ring::new(4, 1);
        assert_eq!(ring.owner_of_position(0), 0);
        assert_eq!(ring.owner_of_position(u64::MAX), 3);
        assert_eq!(ring.owner_of_position(u64::MAX / 2), 1);
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn rf_larger_than_nodes_panics() {
        let _ = Ring::new(2, 3);
    }

    #[test]
    fn same_key_same_replicas() {
        let ring = Ring::new(15, 3);
        assert_eq!(ring.replicas(12345), ring.replicas(12345));
        assert_eq!(ring.group_id(12345), ring.primary(12345));
    }
}
