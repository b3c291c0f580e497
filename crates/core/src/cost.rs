//! The cost model of Section IV-C (Equations 3–7).
//!
//! The penalty of tuple-level processing for a region is the sum of
//!
//! * `C_join = n_R · n_T` — evaluating the join condition over the
//!   partition pair (Equation 4),
//! * `C_map = σ · n_R · n_T` — mapping each join result (Equation 5),
//! * `C_sky` — dominance comparisons: each of the `σ·n_R·n_T` results is
//!   compared against the tuples of its comparable cells, at Kung-style
//!   amortized cost `(CP_avg·s_avg) · log^α(CP_avg·s_avg)` with `α = 1` for
//!   `d ≤ 3` and `α = d − 2` otherwise (Equation 6).
//!
//! `CP_avg` uses the Section III-B bound of `k·d` comparable partitions and
//! `s_avg` the expected occupancy `σ·n_R·n_T / PartitionCount`.

use crate::lookahead::Region;
use crate::output_grid::OutputGrid;

/// The Kung exponent: `α = 1` for `d ∈ {2, 3}`, else `d − 2`.
pub fn alpha(dims: usize) -> f64 {
    if dims <= 3 {
        1.0
    } else {
        (dims - 2) as f64
    }
}

/// Equation 7: amortized tuple-level processing cost of a region, at join
/// selectivity estimate σ on the output grid (`k` cells per dimension,
/// `d` dimensions) its box lives in.
pub fn region_cost(region: &Region, grid: &OutputGrid, sigma: f64) -> f64 {
    let n_r = region.n_r as f64;
    let n_t = region.n_t as f64;
    let c_join = n_r * n_t;
    let join_out = sigma * n_r * n_t;
    let c_map = join_out;
    let cp_avg = grid.cells_per_dim() as f64 * grid.dims() as f64;
    let partitions = region.partition_count(grid) as f64;
    let s_avg = (join_out / partitions).max(1.0);
    let s = cp_avg * s_avg;
    let c_sky = join_out * s * s.ln().max(1.0).powf(alpha(grid.dims()));
    c_join + c_map + c_sky
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_grid::{Coord, MAX_DIMS};

    fn region(n_r: u32, n_t: u32, span: u16) -> Region {
        let lo: Coord = [0; MAX_DIMS];
        let mut hi: Coord = [0; MAX_DIMS];
        hi[0] = span;
        hi[1] = span;
        Region {
            id: 0,
            r_part: 0,
            t_part: 0,
            lo: vec![0.0, 0.0],
            hi: vec![span as f64, span as f64],
            cell_lo: lo,
            cell_hi: hi,
            n_r,
            n_t,
            guaranteed: true,
        }
    }

    fn grid(dims: usize) -> OutputGrid {
        OutputGrid::new(vec![0.0; dims], vec![10.0; dims], 10)
    }

    #[test]
    fn alpha_follows_kung() {
        assert_eq!(alpha(2), 1.0);
        assert_eq!(alpha(3), 1.0);
        assert_eq!(alpha(4), 2.0);
        assert_eq!(alpha(5), 3.0);
    }

    #[test]
    fn bigger_partitions_cost_more() {
        let g = grid(2);
        let small = region_cost(&region(10, 10, 2), &g, 0.01);
        let large = region_cost(&region(1000, 1000, 2), &g, 0.01);
        assert!(large > small * 100.0);
    }

    #[test]
    fn higher_selectivity_costs_more() {
        let g = grid(2);
        let lo = region_cost(&region(100, 100, 2), &g, 0.001);
        let hi = region_cost(&region(100, 100, 2), &g, 0.1);
        assert!(hi > lo);
    }

    #[test]
    fn cost_is_at_least_the_join_cost() {
        let c = region_cost(&region(50, 60, 3), &grid(4), 1e-6);
        assert!(c >= 50.0 * 60.0);
    }
}
