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
//! Only what decides a pop is stored: each region's in-degree and whether
//! it resolved, never an edge. [`ElGraph::build`] counts the `O(n²)` pairs
//! that satisfy the predicate, and [`ElGraph::resolve`] re-tests the
//! resolved region's box against the unresolved ones, so a whole run costs
//! at most one more build's worth of box compares.
//!
//! Note: overlapping boxes produce *mutual* edges, so the graph may be
//! cyclic and can have no root at all — on the default coarse grids every
//! box overlaps every other, and the only root a run ever sees is its last
//! region. The schedule then hands out the lowest-id undispatched region
//! ([`crate::progorder`]). The paper does not discuss this case;
//! correctness is unaffected because soundness comes from ProgDetermine,
//! not from the ordering.

use crate::lookahead::Region;
use crate::output_grid::Coord;

/// In-degree elimination graph with incremental root tracking.
#[derive(Debug)]
pub struct ElGraph {
    dims: usize,
    /// `(cell_lo, cell_hi)` per region, indexed by region id.
    boxes: Vec<(Coord, Coord)>,
    in_degree: Vec<u32>,
    resolved: Vec<bool>,
}

/// Whether box `a` can eliminate box `b`: `a.cell_lo + 1 ⪯ b.cell_hi`.
#[inline]
fn eliminates(dims: usize, a: &(Coord, Coord), b: &(Coord, Coord)) -> bool {
    (0..dims).all(|i| a.0[i] < b.1[i])
}

impl ElGraph {
    /// Counts every region's in-edges (`O(n²)` box compares, as in the
    /// paper's complexity analysis). Region ids must be their positions.
    pub fn build(regions: &[Region], dims: usize) -> Self {
        let boxes: Vec<(Coord, Coord)> = regions
            .iter()
            .enumerate()
            .map(|(i, r)| {
                debug_assert_eq!(r.id as usize, i, "region ids are positions");
                (r.cell_lo, r.cell_hi)
            })
            .collect();
        let in_degree = boxes
            .iter()
            .enumerate()
            .map(|(b, to)| {
                let edges = boxes
                    .iter()
                    .enumerate()
                    .filter(|&(a, from)| a != b && eliminates(dims, from, to))
                    .count();
                edges as u32
            })
            .collect();
        Self {
            dims,
            in_degree,
            resolved: vec![false; boxes.len()],
            boxes,
        }
    }

    /// Regions with no incoming edge (initial queue seeds), ascending.
    pub fn roots(&self) -> Vec<u32> {
        (0..self.in_degree.len() as u32)
            .filter(|&r| self.is_root(r) && !self.resolved[r as usize])
            .collect()
    }

    /// Whether a region currently has no incoming edges.
    #[inline]
    pub fn is_root(&self, region: u32) -> bool {
        self.in_degree[region as usize] == 0
    }

    /// Number of regions not yet resolved.
    pub fn unresolved(&self) -> usize {
        self.resolved.iter().filter(|&&r| !r).count()
    }

    /// Resolves a region (processed or discarded), dropping its out-edges:
    /// every unresolved region it can eliminate loses one in-edge. Returns
    /// the regions that just became roots, ascending.
    pub fn resolve(&mut self, region: u32) -> Vec<u32> {
        let idx = region as usize;
        assert!(!self.resolved[idx], "region {region} resolved twice");
        self.resolved[idx] = true;
        let from = self.boxes[idx];
        let mut new_roots = Vec::new();
        for (b, to) in self.boxes.iter().enumerate() {
            if self.resolved[b] || !eliminates(self.dims, &from, to) {
                continue;
            }
            debug_assert!(self.in_degree[b] > 0);
            self.in_degree[b] -= 1;
            if self.in_degree[b] == 0 {
                new_roots.push(b as u32);
            }
        }
        new_roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_grid::MAX_DIMS;

    /// The edge-list graph the counts-only one replaced, kept as the
    /// reference the oracle test compares against.
    struct EdgeListGraph {
        out_edges: Vec<Vec<u32>>,
        in_degree: Vec<u32>,
        resolved: Vec<bool>,
    }

    impl EdgeListGraph {
        fn build(regions: &[Region], dims: usize) -> Self {
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
            }
        }

        fn resolve(&mut self, region: u32) -> Vec<u32> {
            self.resolved[region as usize] = true;
            let mut new_roots = Vec::new();
            for b in std::mem::take(&mut self.out_edges[region as usize]) {
                let bi = b as usize;
                if self.resolved[bi] {
                    continue;
                }
                self.in_degree[bi] -= 1;
                if self.in_degree[bi] == 0 {
                    new_roots.push(b);
                }
            }
            new_roots
        }
    }

    fn boxed(id: u32, cell_lo: Coord, cell_hi: Coord, dims: usize) -> Region {
        Region {
            id,
            r_part: 0,
            t_part: 0,
            lo: vec![0.0; dims],
            hi: vec![1.0; dims],
            cell_lo,
            cell_hi,
            n_r: 1,
            n_t: 1,
            guaranteed: true,
        }
    }

    fn region(id: u32, lo: (u16, u16), hi: (u16, u16)) -> Region {
        let coord = |(x, y): (u16, u16)| {
            let mut c: Coord = [0; MAX_DIMS];
            c[0] = x;
            c[1] = y;
            c
        };
        boxed(id, coord(lo), coord(hi), 2)
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
        let new_roots = g.resolve(0);
        assert_eq!(new_roots, vec![1]);
        // C lost A's edge but still has B's: affected, not root.
        assert_eq!(g.in_degree[2], 1);
        let new_roots = g.resolve(1);
        assert_eq!(new_roots, vec![2]);
        assert_eq!(g.unresolved(), 1);
    }

    #[test]
    fn mutual_partial_elimination_creates_cycle() {
        // Two overlapping diagonal boxes eliminate parts of each other.
        let regions = vec![region(0, (0, 0), (5, 5)), region(1, (1, 1), (6, 6))];
        let g = ElGraph::build(&regions, 2);
        assert!(g.roots().is_empty(), "cycle ⇒ no roots");
        assert_eq!(g.unresolved(), 2);
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

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// `n` random boxes of one shape on a 12-cell grid: a rooted chain
    /// (small boxes climbing the diagonal), a mutual cycle (wide boxes
    /// that all overlap), an anti-diagonal (incomparable) set, or boxes
    /// drawn anywhere.
    fn random_regions(shape: u64, n: usize, dims: usize, state: &mut u64) -> Vec<Region> {
        const CELLS: u16 = 12;
        (0..n)
            .map(|id| {
                let (mut lo, mut hi) = ([0u16; MAX_DIMS], [0u16; MAX_DIMS]);
                let step = (id * CELLS as usize / n) as u16;
                for i in 0..dims {
                    let mut draw = |below: u16| (lcg(state) % u64::from(below)) as u16;
                    (lo[i], hi[i]) = match shape {
                        0 => {
                            let l = step + draw(2);
                            (l, l + draw(2))
                        }
                        1 => (draw(3), CELLS - 1 - draw(3)),
                        2 => {
                            // Dimension 0 climbs while the others fall.
                            let l = if i == 0 { step } else { CELLS - 1 - step };
                            (l, l)
                        }
                        _ => {
                            let (a, b) = (draw(CELLS), draw(CELLS));
                            (a.min(b), a.max(b))
                        }
                    };
                }
                boxed(id as u32, lo, hi, dims)
            })
            .collect()
    }

    /// The counts-only graph agrees with the edge-list reference on every
    /// in-degree, every `is_root`, and every resolution's new-root set,
    /// whatever order the regions resolve in.
    #[test]
    fn counts_only_graph_matches_the_edge_list_reference() {
        let mut state = 0x5EED_u64;
        let (mut rooted, mut root_free, mut promoted) = (0, 0, 0);
        for case in 0..240u64 {
            let dims = 2 + (case % 2) as usize;
            let shape = (case / 2) % 4;
            let n = 1 + (lcg(&mut state) % 40) as usize;
            let regions = random_regions(shape, n, dims, &mut state);
            let mut graph = ElGraph::build(&regions, dims);
            let mut reference = EdgeListGraph::build(&regions, dims);
            let label = format!("case {case}: shape {shape}, d={dims}, n={n}");
            assert_eq!(graph.in_degree, reference.in_degree, "{label}");
            if graph.roots().is_empty() {
                root_free += 1;
            } else {
                rooted += 1;
            }
            let mut order: Vec<u32> = (0..n as u32).collect();
            crate::executor::shuffle(&mut order, lcg(&mut state));
            for (step, &rid) in order.iter().enumerate() {
                let new_roots = graph.resolve(rid);
                assert_eq!(new_roots, reference.resolve(rid), "{label} step {step}");
                promoted += new_roots.len();
                assert_eq!(graph.in_degree, reference.in_degree, "{label} step {step}");
                for r in 0..n as u32 {
                    assert_eq!(
                        graph.is_root(r),
                        reference.in_degree[r as usize] == 0,
                        "{label} step {step} region {r}"
                    );
                }
                assert_eq!(graph.unresolved(), n - step - 1, "{label}");
            }
        }
        assert!(
            rooted > 20 && root_free > 20,
            "{rooted} rooted, {root_free} root-free"
        );
        assert!(promoted > 200, "resolutions promoted only {promoted} roots");
    }
}
