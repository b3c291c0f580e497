//! The elimination graph (EL-Graph) of Section IV-B.
//!
//! Nodes are live output regions. A directed edge `A → B` exists iff some
//! output cell of `A`'s box fully dominates some cell of `B`'s box — i.e.
//! tuple-level processing of `A` could (partially or completely) eliminate
//! `B`. Geometrically: `A.cell_lo[i] + 1 ≤ B.cell_hi[i]` in every dimension
//! (the witness pair being `A`'s best cell clipped against `B`'s worst).
//!
//! Roots (no incoming edges) "can neither be completely nor partially
//! eliminated by other regions and therefore have a higher probability of
//! reporting results early" — they are the candidates ProgOrder ranks.
//!
//! Note: overlapping boxes produce *mutual* edges, so the
//! graph may be cyclic and can momentarily have no root at all; the
//! executor then falls back to the best-ranked pending region. The paper
//! does not discuss this case; correctness is unaffected because soundness
//! comes from ProgDetermine, not from the ordering.

use crate::lookahead::Region;

/// Adjacency-list elimination graph with incremental root tracking.
#[derive(Debug)]
pub struct ElGraph {
    out_edges: Vec<Vec<u32>>,
    in_degree: Vec<u32>,
    resolved: Vec<bool>,
    unresolved: usize,
}

impl ElGraph {
    /// Builds the graph over all live regions (`O(n²)` pairs, as in the
    /// paper's complexity analysis).
    pub fn build(regions: &[Region], dims: usize) -> Self {
        let n = regions.len();
        let mut out_edges = vec![Vec::new(); n];
        let mut in_degree = vec![0u32; n];
        for a in regions {
            for b in regions {
                if a.id == b.id {
                    continue;
                }
                #[allow(clippy::int_plus_one)] // mirrors the full-dominance witness
                let eliminates = (0..dims).all(|i| a.cell_lo[i] + 1 <= b.cell_hi[i]);
                if eliminates {
                    out_edges[a.id as usize].push(b.id);
                    in_degree[b.id as usize] += 1;
                }
            }
        }
        Self {
            out_edges,
            in_degree,
            resolved: vec![false; n],
            unresolved: n,
        }
    }

    /// Regions with no incoming edge (initial queue seeds).
    pub fn roots(&self) -> Vec<u32> {
        self.in_degree
            .iter()
            .enumerate()
            .filter(|&(i, &d)| d == 0 && !self.resolved[i])
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Whether a region currently has no incoming edges.
    #[inline]
    pub fn is_root(&self, region: u32) -> bool {
        self.in_degree[region as usize] == 0
    }

    /// Whether a region has been resolved.
    #[inline]
    pub fn is_resolved(&self, region: u32) -> bool {
        self.resolved[region as usize]
    }

    /// Number of regions not yet resolved.
    #[inline]
    pub fn unresolved(&self) -> usize {
        self.unresolved
    }

    /// Resolves a region (processed or discarded), removing its outgoing
    /// edges. Returns `(new_roots, affected)`: regions that just became
    /// roots, and regions that lost an incoming edge but remain non-root
    /// (their benefit should be refreshed — Algorithm 1 lines 10–18).
    pub fn resolve(&mut self, region: u32) -> (Vec<u32>, Vec<u32>) {
        let idx = region as usize;
        assert!(!self.resolved[idx], "region {region} resolved twice");
        self.resolved[idx] = true;
        self.unresolved -= 1;
        let mut new_roots = Vec::new();
        let mut affected = Vec::new();
        let targets = std::mem::take(&mut self.out_edges[idx]);
        for b in targets {
            let bi = b as usize;
            if self.resolved[bi] {
                continue;
            }
            debug_assert!(self.in_degree[bi] > 0);
            self.in_degree[bi] -= 1;
            if self.in_degree[bi] == 0 {
                new_roots.push(b);
            } else {
                affected.push(b);
            }
        }
        (new_roots, affected)
    }

    /// All unresolved region ids (fallback path for cyclic components).
    pub fn pending(&self) -> Vec<u32> {
        self.resolved
            .iter()
            .enumerate()
            .filter(|&(_, &r)| !r)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_grid::{Coord, MAX_DIMS};

    fn coord(x: u16, y: u16) -> Coord {
        let mut c: Coord = [0; MAX_DIMS];
        c[0] = x;
        c[1] = y;
        c
    }

    fn region(id: u32, lo: (u16, u16), hi: (u16, u16)) -> Region {
        Region {
            id,
            r_part: 0,
            t_part: 0,
            lo: vec![0.0, 0.0],
            hi: vec![1.0, 1.0],
            cell_lo: coord(lo.0, lo.1),
            cell_hi: coord(hi.0, hi.1),
            n_r: 1,
            n_t: 1,
            guaranteed: true,
        }
    }

    #[test]
    fn chain_of_eliminations() {
        // A (0,0)-(0,0) eliminates B (2,2)-(3,3) eliminates C (5,5)-(6,6).
        let regions = vec![
            region(0, (0, 0), (0, 0)),
            region(1, (2, 2), (3, 3)),
            region(2, (5, 5), (6, 6)),
        ];
        let g = ElGraph::build(&regions, 2);
        assert_eq!(g.roots(), vec![0]);
        assert!(!g.is_root(1));
        assert!(!g.is_root(2));
    }

    #[test]
    fn resolve_promotes_new_roots() {
        let regions = vec![
            region(0, (0, 0), (0, 0)),
            region(1, (2, 2), (3, 3)),
            region(2, (5, 5), (6, 6)),
        ];
        let mut g = ElGraph::build(&regions, 2);
        let (new_roots, affected) = g.resolve(0);
        assert_eq!(new_roots, vec![1]);
        // C lost A's edge but still has B's: affected, not root.
        assert_eq!(affected, vec![2]);
        let (new_roots, _) = g.resolve(1);
        assert_eq!(new_roots, vec![2]);
        assert_eq!(g.unresolved(), 1);
    }

    #[test]
    fn mutual_partial_elimination_creates_cycle() {
        // Two overlapping diagonal boxes eliminate parts of each other.
        let regions = vec![region(0, (0, 0), (5, 5)), region(1, (1, 1), (6, 6))];
        let g = ElGraph::build(&regions, 2);
        assert!(g.roots().is_empty(), "cycle ⇒ no roots");
        assert_eq!(g.pending(), vec![0, 1]);
    }

    #[test]
    fn incomparable_regions_have_no_edges() {
        // Anti-diagonal boxes: A is up-left of B — neither can place a
        // cell fully dominating the other's box.
        let regions = vec![region(0, (0, 8), (1, 9)), region(1, (8, 0), (9, 1))];
        let g = ElGraph::build(&regions, 2);
        let mut roots = g.roots();
        roots.sort_unstable();
        assert_eq!(roots, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "resolved twice")]
    fn double_resolve_panics() {
        let regions = vec![region(0, (0, 0), (0, 0))];
        let mut g = ElGraph::build(&regions, 2);
        g.resolve(0);
        g.resolve(0);
    }

    #[test]
    fn edge_requires_full_dominance_witness() {
        // A at (0,0)-(0,9): its best cell (0,0) vs B (0,0)-(9,0): B's worst
        // cell (9,0) — dim 1: 0+1 ≤ 0 fails ⇒ no edge either way.
        let regions = vec![region(0, (0, 0), (0, 9)), region(1, (0, 0), (9, 0))];
        let g = ElGraph::build(&regions, 2);
        assert_eq!(g.roots().len(), 2);
    }
}
