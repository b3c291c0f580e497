//! The benefit model of Section IV-B (Equations 1–2).
//!
//! The *progressiveness capacity* of a region combines (a) how many skyline
//! results it can be expected to produce — the classic average-maxima bound
//! of Bentley et al. / Buchta, `ln(σ·n_R·n_T)^{d−1} / (d−1)!` — with (b) the
//! fraction of its cells that depend on nobody else to be released
//! (`ProgCount / PartitionCount`).

use crate::cells::CellStore;
use crate::lookahead::Region;
use crate::progdetermine::ProgDetermine;

/// Equation 1: expected number of skyline results an output region can
/// produce, given the join selectivity and its input-partition sizes.
pub fn estimate_cardinality(sigma: f64, n_r: u32, n_t: u32, d: usize) -> f64 {
    debug_assert!(d >= 1);
    let n = (sigma * n_r as f64 * n_t as f64).max(1.0);
    // ln(n)^(d-1) / (d-1)!  — at n=1 this is 0 for d>1; floor at a small
    // positive value so empty-ish regions still have a defined rank.
    let ln = n.ln().max(0.05);
    let mut acc = 1.0f64;
    for i in 1..d {
        acc *= ln / i as f64;
    }
    acc
}

/// Definition 2: the number of cells in the region's box whose release
/// depends only on the region itself — i.e. their sole remaining blocker is
/// this region. Dead ([`CellStore::cell_is_dead`] — derived from the
/// admitted tuples, so ranks do not observe which rejected tuples reached
/// the store) and already-emitted cells are excluded.
///
/// `visit_cap` bounds the scan for very large boxes; when the cap is hit
/// the count is linearly extrapolated (the box cells are statistically
/// exchangeable for this estimate).
pub fn prog_count(region: &Region, store: &CellStore, det: &ProgDetermine, visit_cap: u64) -> u64 {
    let volume = region.partition_count(store.grid());
    let mut count = 0u64;
    for (visited, coord) in store
        .grid()
        .iter_box(region.cell_lo, region.cell_hi)
        .enumerate()
    {
        let visited = visited as u64;
        if visited >= visit_cap {
            // Extrapolate from the visited prefix.
            return count * volume / visited.max(1);
        }
        if let Some(idx) = store.find(&coord) {
            if det.blockers_of(store, idx) == 1
                && !store.cell(idx).is_emitted()
                && !store.cell_is_dead(idx)
            {
                count += 1;
            }
        }
    }
    count
}

/// Equation 2: `Benefit = (ProgCount / PartitionCount) · Cardinality`.
pub fn benefit(
    region: &Region,
    store: &CellStore,
    det: &ProgDetermine,
    sigma: f64,
    visit_cap: u64,
) -> f64 {
    let d = store.grid().dims();
    let partitions = region.partition_count(store.grid()) as f64;
    let pc = prog_count(region, store, det, visit_cap) as f64;
    let card = estimate_cardinality(sigma, region.n_r, region.n_t, d);
    (pc / partitions) * card
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_grid::{Coord, OutputGrid, MAX_DIMS};

    #[test]
    fn cardinality_matches_formula() {
        // d=3, n=e^2 → ln=2 → 2^2/2! = 2.
        let sigma = 1.0;
        let n = (std::f64::consts::E * std::f64::consts::E).ceil() as u32;
        let est = estimate_cardinality(sigma, n, 1, 3);
        let ln = (n as f64).ln();
        assert!((est - ln * ln / 2.0).abs() < 1e-9);
    }

    #[test]
    fn cardinality_grows_with_dimensions_and_size() {
        let a = estimate_cardinality(0.01, 1000, 1000, 2);
        let b = estimate_cardinality(0.01, 1000, 1000, 4);
        assert!(b > a, "higher d ⇒ larger expected skyline");
        let c = estimate_cardinality(0.01, 10_000, 10_000, 4);
        assert!(c > b, "more tuples ⇒ larger expected skyline");
    }

    #[test]
    fn cardinality_degenerate_inputs() {
        // d=1: always 1 (a single minimum).
        assert_eq!(estimate_cardinality(0.5, 10, 10, 1), 1.0);
        // Tiny selectivity: floor keeps the estimate positive.
        assert!(estimate_cardinality(1e-9, 10, 10, 4) > 0.0);
    }

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
            lo: vec![lo.0 as f64, lo.1 as f64],
            hi: vec![hi.0 as f64, hi.1 as f64],
            cell_lo: coord(lo.0, lo.1),
            cell_hi: coord(hi.0, hi.1),
            n_r: 10,
            n_t: 10,
            guaranteed: true,
        }
    }

    #[test]
    fn prog_count_counts_solely_blocked_cells() {
        // A at (0,0)-(1,1); B at (1,1)-(2,2) overlapping at (1,1) and
        // shadowing everything ≥ (1,1).
        let a = region(0, (0, 0), (1, 1));
        let b = region(1, (1, 1), (2, 2));
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10);
        let mut store = CellStore::new(grid.clone());
        for r in [&a, &b] {
            for c in grid.iter_box(r.cell_lo, r.cell_hi) {
                store.track(c);
            }
        }
        let det = ProgDetermine::new(&store, &[a.clone(), b.clone()]);
        // A's cells: (0,0),(0,1),(1,0) blocked only by A; (1,1) also by B.
        assert_eq!(prog_count(&a, &store, &det, u64::MAX), 3);
        // B's cells are all shadowed by A (A.lo = (0,0) ⪯ everything).
        assert_eq!(prog_count(&b, &store, &det, u64::MAX), 0);
        // Benefit ordering follows.
        let ba = benefit(&a, &store, &det, 0.1, u64::MAX);
        let bb = benefit(&b, &store, &det, 0.1, u64::MAX);
        assert!(ba > bb);
        assert_eq!(bb, 0.0);
    }

    /// `ProgCount` reads derived death: a cell a populated cell fully
    /// dominates stops counting the moment the dominator is admitted, not
    /// when some rejected tuple happens to visit it.
    #[test]
    fn prog_count_excludes_dominated_cells_nothing_visited() {
        let a = region(0, (0, 0), (3, 3));
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10);
        let mut store = CellStore::new(grid.clone());
        for c in grid.iter_box(a.cell_lo, a.cell_hi) {
            store.track(c);
        }
        let det = ProgDetermine::new(&store, std::slice::from_ref(&a));
        assert_eq!(prog_count(&a, &store, &det, u64::MAX), 16);
        // (1,1) populated: (2..=3, 2..=3) are fully dominated, unvisited.
        assert!(store.insert(0, 0, &[1.5, 1.5]));
        assert_eq!(store.stats().cells_killed, 0);
        assert_eq!(prog_count(&a, &store, &det, u64::MAX), 12);
    }

    /// `ProgCount` read through the store's dense table and through the
    /// hash arm (blocker counts on the matching `ProgDetermine` arm): the
    /// same number for every region, exact and extrapolated, before and
    /// after tuples populate and kill cells.
    #[test]
    fn prog_count_agrees_across_index_arms() {
        use crate::fdom::DominanceModel;
        let mut x: u64 = 0xA4A5;
        let mut next = |m: u64| -> u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        let regions: Vec<Region> = (0..12)
            .map(|id| {
                let lo = (next(8) as u16, next(8) as u16);
                region(id, lo, (lo.0 + next(3) as u16, lo.1 + next(3) as u16))
            })
            .collect();
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10);
        let mut stores = [
            CellStore::new(grid.clone()),
            CellStore::build(grid, DominanceModel::Pareto, None),
        ];
        for store in &mut stores {
            for r in &regions {
                store.track_box(&r.cell_lo, &r.cell_hi);
            }
        }
        let dets = [
            ProgDetermine::new(&stores[0], &regions),
            ProgDetermine::new(&stores[1], &regions),
        ];
        let mut nonzero = 0;
        for round in 0..6u32 {
            for r in &regions {
                for cap in [u64::MAX, 3] {
                    let dense = prog_count(r, &stores[0], &dets[0], cap);
                    let sparse = prog_count(r, &stores[1], &dets[1], cap);
                    assert_eq!(dense, sparse, "round {round} region {} cap {cap}", r.id);
                    nonzero += (dense > 0) as usize;
                }
            }
            let from = &regions[next(12) as usize];
            let p = [
                from.cell_lo[0] as f64 + next(100) as f64 / 100.0,
                from.cell_lo[1] as f64 + next(100) as f64 / 100.0,
            ];
            assert_eq!(
                stores[0].insert(round, round, &p),
                stores[1].insert(round, round, &p)
            );
        }
        assert!(nonzero > 0, "some region must own a cell outright");
    }

    #[test]
    fn prog_count_extrapolates_past_cap() {
        let a = region(0, (0, 0), (9, 9));
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![10.0, 10.0], 10);
        let mut store = CellStore::new(grid.clone());
        for c in grid.iter_box(a.cell_lo, a.cell_hi) {
            store.track(c);
        }
        let det = ProgDetermine::new(&store, std::slice::from_ref(&a));
        let exact = prog_count(&a, &store, &det, u64::MAX);
        let capped = prog_count(&a, &store, &det, 10);
        assert_eq!(exact, 100);
        assert_eq!(capped, 100, "uniform box extrapolates exactly");
    }
}
