//! The region schedule: a fixed `order` walked by a monotone cursor.
//!
//! [`OrderingPolicy::ProgOrder`] walks the regions origin first: `order`
//! is SFS's presort ([`progxe_skyline::sfs::presort_order`]) of the
//! regions' oriented lower corners `lo` — by coordinate sum, ties broken
//! lexicographically, equal corners in ascending id. On NaN-free corners it
//! is a linear extension of dominance, so no region is handed out before
//! one whose `lo` dominates its own: the regions nearest the origin, whose
//! tuples can release or kill the cells the rest wait on, come first. It
//! reads only the look-ahead's geometry, which an ingest session declares
//! up front, so it does not depend on arrival. [`OrderingPolicy::Random`]
//! walks a seeded shuffle of the ids — the paper's No-Order arm. Every pop
//! hands out the region under the cursor and moves it one step; a pop the
//! readiness gate rejects leaves it in place, so stalls never reorder the
//! schedule.
//!
//! The paper's Algorithm 1 instead ranks the roots of an elimination graph
//! by Benefit / Cost (Equation 8). That ranking is not implemented: on the
//! default grids every region box overlaps every other, so the graph has
//! no root until one region is left and Algorithm 1 reduces to its
//! fallback order; on grids fine enough to have roots, measured ranking
//! was mostly later than the id order of the time and up to 3× later at
//! d = 3 (see the README's "Does Algorithm 1 reproduce?").

use crate::config::OrderingPolicy;
use crate::driver::Popped;
use crate::lookahead::Region;
use progxe_skyline::sfs::presort_order;

/// One run's region schedule, stepped one pop at a time.
#[derive(Debug)]
pub(crate) struct Schedule {
    order: Vec<u32>,
    /// Every region ahead of it in `order` is dispatched.
    cursor: usize,
}

impl Schedule {
    /// The schedule of `policy` over `regions`, whose ids are their
    /// positions.
    pub(crate) fn new(regions: &[Region], policy: OrderingPolicy) -> Self {
        let order = match policy {
            OrderingPolicy::ProgOrder => {
                let dims = regions.first().map_or(1, |r| r.lo.len());
                let lows: Vec<f64> = regions.iter().flat_map(|r| r.lo.iter().copied()).collect();
                presort_order(dims, &lows)
            }
            OrderingPolicy::Random { seed } => {
                let mut order: Vec<u32> = (0..regions.len() as u32).collect();
                crate::executor::shuffle(&mut order, seed);
                order
            }
        };
        Self { order, cursor: 0 }
    }

    /// Hands out the region under the cursor and moves past it, or says why
    /// there is
    /// none right now ([`Popped`]). `is_ready` is the streaming-ingestion
    /// readiness gate: when it rejects the region the schedule would hand
    /// out, nothing moves — the stalled region is only *peeked* — so the
    /// same region is offered again on the next call.
    pub(crate) fn pop(&mut self, is_ready: impl Fn(u32) -> bool) -> Popped {
        let Some(&region) = self.order.get(self.cursor) else {
            return Popped::Exhausted;
        };
        if !is_ready(region) {
            return Popped::Stalled;
        }
        self.cursor += 1;
        Popped::Region(region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_grid::MAX_DIMS;
    use progxe_skyline::Order;
    use std::cmp::Ordering;

    fn drain(schedule: &mut Schedule) -> Vec<u32> {
        let mut order = Vec::new();
        while let Popped::Region(rid) = schedule.pop(|_| true) {
            order.push(rid);
        }
        order
    }

    /// A region with oriented lower corner `lo` (other fields immaterial).
    fn region(id: u32, lo: Vec<f64>) -> Region {
        Region {
            id,
            r_part: 0,
            t_part: 0,
            hi: lo.clone(),
            lo,
            cell_lo: [0; MAX_DIMS],
            cell_hi: [0; MAX_DIMS],
            n_r: 1,
            n_t: 1,
            guaranteed: false,
        }
    }

    /// The presort written out from its definition: `+∞` count minus `−∞`
    /// count, then the left-to-right sum of the finite coordinates, then
    /// the coordinates; floats compare with the zeros tied and NaN placed
    /// by `total_cmp`. Ids break what is left, and the order is built by
    /// repeatedly taking the least remaining region.
    fn brute_force_order(regions: &[Region]) -> Vec<u32> {
        let tie = |x: f64, y: f64| (x + 0.0).total_cmp(&(y + 0.0));
        let key = |lo: &[f64]| {
            let infinities: i32 = lo
                .iter()
                .map(|&v| i32::from(v == f64::INFINITY) - i32::from(v == f64::NEG_INFINITY))
                .sum();
            let sum = lo
                .iter()
                .filter(|v| v.is_nan() || v.is_finite())
                .fold(0.0, |s, v| s + v);
            (infinities, sum)
        };
        let cmp = |a: &Region, b: &Region| {
            let ((ia, sa), (ib, sb)) = (key(&a.lo), key(&b.lo));
            let lex = a.lo.iter().zip(&b.lo).map(|(&x, &y)| tie(x, y));
            ia.cmp(&ib)
                .then(tie(sa, sb))
                .then(lex.fold(Ordering::Equal, Ordering::then))
                .then(a.id.cmp(&b.id))
        };
        let mut left: Vec<&Region> = regions.iter().collect();
        let mut order = Vec::new();
        while !left.is_empty() {
            let least = (1..left.len()).fold(0, |m, i| match cmp(left[i], left[m]) {
                Ordering::Less => i,
                _ => m,
            });
            order.push(left.remove(least).id);
        }
        order
    }

    /// `ProgOrder`'s `order` is the stable presort of the oriented lower
    /// corners, against [`brute_force_order`], under LOWEST, HIGHEST and
    /// mixed preferences. Raw bounds come from a small pool, so corners
    /// and keys repeat, and include what a declared grid that overflows
    /// produces — `∞` slice widths give `±∞` bounds and `0 · ∞ = NaN`
    /// ones — plus zeros of either sign and a sum that rounds (1e16 + 1).
    #[test]
    fn progorder_is_the_stable_presort_of_the_oriented_lower_corners() {
        let mut state = 0x0121_6140_u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let pool = [
            0.0,
            -0.0,
            1.0,
            2.0,
            3.0,
            1e16,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let (mut nan, mut inf, mut equal) = (false, false, false);
        for round in 0..300 {
            let dims = 1 + round % 4;
            let orders: Vec<Order> = match round % 3 {
                0 => vec![Order::Lowest; dims],
                1 => vec![Order::Highest; dims],
                _ => (0..dims)
                    .map(|_| [Order::Lowest, Order::Highest][next(2) as usize])
                    .collect(),
            };
            let n = next(40) as usize;
            let regions: Vec<Region> = (0..n as u32)
                .map(|id| {
                    let lo = orders
                        .iter()
                        .map(|o| {
                            // `specials` of 9 draws reach ±∞ and NaN.
                            let specials = if next(4) == 0 { 9 } else { 6 };
                            let (a, b) =
                                (pool[next(specials) as usize], pool[next(specials) as usize]);
                            let (a, b) = (o.orient(a), o.orient(b));
                            a.min(b)
                        })
                        .collect();
                    region(id, lo)
                })
                .collect();
            nan |= regions.iter().any(|r| r.lo.iter().any(|v| v.is_nan()));
            inf |= regions.iter().any(|r| r.lo.iter().any(|v| v.is_infinite()));
            equal |= regions
                .iter()
                .enumerate()
                .any(|(i, a)| regions[..i].iter().any(|b| a.lo == b.lo));
            let schedule = Schedule::new(&regions, OrderingPolicy::ProgOrder);
            assert_eq!(schedule.order, brute_force_order(&regions), "round {round}");
        }
        assert!(nan && inf && equal, "nan {nan}, inf {inf}, equal {equal}");
    }

    /// Under HIGHEST preferences the first region handed out is the one at
    /// the oriented origin: its cell box starts at the output grid's first
    /// cell and its lower corner is below every other region's. Each side
    /// is a 10 × 10 lattice joining on one key, so every partition pair
    /// joins and the best pair is the pair of top partitions — the last
    /// ids.
    #[test]
    fn under_highest_the_first_pop_is_the_region_at_the_oriented_origin() {
        use crate::executor::ProgXe;
        use crate::mapping::MapSet;
        use crate::session::CancellationToken;
        use crate::source::SourceData;
        use crate::ProgXeConfig;
        use progxe_skyline::Preference;
        let mut lattice = SourceData::new(2);
        for i in 0..100 {
            lattice.push(&[(i % 10 * 10 + 5) as f64, (i / 10 * 10 + 5) as f64], 0);
        }
        for orders in [vec![Order::Highest; 2], vec![Order::Lowest; 2]] {
            let maps = MapSet::pairwise_sum(2, Preference::new(orders.clone()));
            let prep = ProgXe::new(ProgXeConfig::default())
                .prepare(
                    &lattice.view(),
                    &lattice.view(),
                    &maps,
                    CancellationToken::new(),
                )
                .unwrap();
            let regions = prep.ctx.expect("a non-trivial run").regions().to_vec();
            assert!(regions.len() > 2, "{orders:?}: too few regions");
            let Popped::Region(first) = prep.committer.unwrap().pop_gated(None) else {
                panic!("{orders:?}: nothing to pop");
            };
            let first = &regions[first as usize];
            assert_eq!(first.cell_lo[..2], [0, 0], "{orders:?}: {first:?}");
            for other in &regions {
                assert!(
                    first.lo.iter().zip(&other.lo).all(|(a, b)| a <= b),
                    "{orders:?}: {first:?} is not below {other:?}"
                );
            }
        }
    }

    #[test]
    fn static_orders_walk_the_cursor_and_stall_in_place() {
        // Six regions whose corners sort as ids 3, 1, 4, 0, 5, 2: 3 and 1
        // tie on the sum and split on the first coordinate; 0 and 5 tie
        // outright and keep id order.
        let corners = [
            [2.0, 2.0],
            [1.0, 1.0],
            [5.0, 0.0],
            [0.0, 2.0],
            [1.0, 2.0],
            [2.0, 2.0],
        ];
        let regions: Vec<Region> = (0..6)
            .map(|id| region(id, corners[id as usize].to_vec()))
            .collect();
        let mut origin_first = Schedule::new(&regions, OrderingPolicy::ProgOrder);
        assert_eq!(origin_first.pop(|r| r != 3), Popped::Stalled);
        assert_eq!(origin_first.pop(|_| true), Popped::Region(3));
        assert_eq!(origin_first.pop(|r| r != 1), Popped::Stalled);
        assert_eq!(drain(&mut origin_first), vec![1, 4, 0, 5, 2]);
        assert_eq!(origin_first.pop(|_| true), Popped::Exhausted);
        let mut shuffled: Vec<u32> = (0..6).collect();
        crate::executor::shuffle(&mut shuffled, 7);
        let mut random = Schedule::new(&regions, OrderingPolicy::Random { seed: 7 });
        assert_eq!(random.pop(|r| r != shuffled[0]), Popped::Stalled);
        assert_eq!(drain(&mut random), shuffled);
        let mut empty = Schedule::new(&[], OrderingPolicy::ProgOrder);
        assert_eq!(empty.pop(|_| true), Popped::Exhausted);
    }
}
