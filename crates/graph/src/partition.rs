//! Community assignments (partitions) of a vertex set.

use serde::{Deserialize, Serialize};

use crate::csr::NodeId;

/// A disjoint community assignment: every vertex carries exactly one label.
///
/// Labels are kept dense (`0..num_communities`) by [`Partition::from_labels`],
/// which renumbers arbitrary input labels in first-seen order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    labels: Vec<u32>,
    num_communities: u32,
}

impl Partition {
    /// Singleton partition: every vertex in its own community (Infomap's
    /// starting state — "each vertex belongs to its own community/module").
    pub fn singletons(n: usize) -> Self {
        Self {
            labels: (0..n as u32).collect(),
            num_communities: n as u32,
        }
    }

    /// All vertices in one community.
    pub fn uniform(n: usize) -> Self {
        Self {
            labels: vec![0; n],
            num_communities: if n == 0 { 0 } else { 1 },
        }
    }

    /// Builds a partition from arbitrary labels, densifying them to
    /// `0..num_communities` in first-seen order.
    pub fn from_labels(labels: Vec<u32>) -> Self {
        let mut remap: Vec<u32> = Vec::new();
        let max = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut table = vec![u32::MAX; max];
        let mut dense = Vec::with_capacity(labels.len());
        for &l in &labels {
            let slot = &mut table[l as usize];
            if *slot == u32::MAX {
                *slot = remap.len() as u32;
                remap.push(l);
            }
            dense.push(*slot);
        }
        Self {
            labels: dense,
            num_communities: remap.len() as u32,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True for an empty vertex set.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of distinct communities.
    pub fn num_communities(&self) -> usize {
        self.num_communities as usize
    }

    /// The community of vertex `u`.
    #[inline]
    pub fn community_of(&self, u: NodeId) -> u32 {
        self.labels[u as usize]
    }

    /// Raw label slice.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Moves vertex `u` to community `c`. The caller must re-densify (via
    /// [`Partition::compact`]) before relying on `num_communities`.
    pub fn assign(&mut self, u: NodeId, c: u32) {
        self.labels[u as usize] = c;
        if c >= self.num_communities {
            self.num_communities = c + 1;
        }
    }

    /// Renumbers labels densely (dropping empty communities) and returns the
    /// number of communities after compaction.
    pub fn compact(&mut self) -> usize {
        let compacted = Self::from_labels(std::mem::take(&mut self.labels));
        *self = compacted;
        self.num_communities()
    }

    /// [`Partition::compact`], returning the old→new label map as well:
    /// entry `l` is label `l`'s new label, `u32::MAX` for an empty one
    /// (labels past the map's end are empty too). State indexed by label
    /// follows the renumbering through it.
    pub fn compact_with_map(&mut self) -> Vec<u32> {
        let old = self.labels.clone();
        self.compact();
        let mut map = vec![u32::MAX; old.iter().max().map_or(0, |&m| m as usize + 1)];
        for (&from, &to) in old.iter().zip(&self.labels) {
            map[from as usize] = to;
        }
        map
    }

    /// Sizes of each community, indexed by label.
    pub fn community_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_communities as usize];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Members of each community, indexed by label.
    pub fn community_members(&self) -> Vec<Vec<NodeId>> {
        let mut members = vec![Vec::new(); self.num_communities as usize];
        for (u, &l) in self.labels.iter().enumerate() {
            members[l as usize].push(u as NodeId);
        }
        members
    }

    /// Composes a coarse partition over supernodes back onto the original
    /// vertices: `self` maps vertices→supernodes, `coarse` maps
    /// supernodes→modules; the result maps vertices→modules. This is the
    /// paper's `UpdateMembers` kernel.
    pub fn project(&self, coarse: &Partition) -> Partition {
        assert_eq!(
            self.num_communities(),
            coarse.len(),
            "coarse partition must cover the supernodes of self"
        );
        let labels = self
            .labels
            .iter()
            .map(|&s| coarse.community_of(s))
            .collect();
        Partition::from_labels(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_uniform() {
        let s = Partition::singletons(4);
        assert_eq!(s.num_communities(), 4);
        let u = Partition::uniform(4);
        assert_eq!(u.num_communities(), 1);
        assert_eq!(u.community_of(3), 0);
    }

    #[test]
    fn densification() {
        let p = Partition::from_labels(vec![7, 7, 3, 9, 3]);
        assert_eq!(p.num_communities(), 3);
        assert_eq!(p.labels(), &[0, 0, 1, 2, 1]);
    }

    #[test]
    fn compaction_reports_its_renumbering() {
        let mut p = Partition::singletons(5);
        p.assign(0, 3);
        p.assign(2, 3);
        p.assign(4, 1);
        let old = p.labels().to_vec();
        let map = p.compact_with_map();
        assert_eq!(p, Partition::from_labels(old.clone()));
        assert_eq!(map, vec![u32::MAX, 1, u32::MAX, 0]);
        for (u, &l) in old.iter().enumerate() {
            assert_eq!(map[l as usize], p.community_of(u as NodeId));
        }
    }

    #[test]
    fn sizes_and_members() {
        let p = Partition::from_labels(vec![0, 1, 0, 1, 1]);
        assert_eq!(p.community_sizes(), vec![2, 3]);
        let members = p.community_members();
        assert_eq!(members[0], vec![0, 2]);
        assert_eq!(members[1], vec![1, 3, 4]);
    }

    #[test]
    fn assign_then_compact() {
        let mut p = Partition::singletons(3);
        p.assign(0, 2); // labels now [2, 1, 2]
        assert_eq!(p.compact(), 2);
        assert_eq!(p.labels(), &[0, 1, 0]);
    }

    #[test]
    fn projection_composes() {
        // vertices -> supernodes
        let fine = Partition::from_labels(vec![0, 0, 1, 1, 2]);
        // supernodes -> modules
        let coarse = Partition::from_labels(vec![0, 0, 1]);
        let projected = fine.project(&coarse);
        assert_eq!(projected.labels(), &[0, 0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "must cover the supernodes")]
    fn projection_shape_checked() {
        let fine = Partition::from_labels(vec![0, 1]);
        let coarse = Partition::from_labels(vec![0]);
        let _ = fine.project(&coarse);
    }
}
