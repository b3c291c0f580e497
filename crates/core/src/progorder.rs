//! The region schedule: ProgOrder (Section IV-D, Algorithm 1) and the two
//! ablation orders behind one pop routine.
//!
//! Every [`OrderingPolicy`] walks a fixed `order` with a monotone cursor
//! that skips dispatched regions: region ids ascending for ProgOrder and
//! Fifo, a seeded shuffle for Random. ProgOrder consults the EL-graph
//! ([`crate::elgraph`]) first:
//!
//! * a region is ranked `rank(R) = Benefit(R) / Cost(R)` (Equation 8)
//!   once, when it becomes a root, and roots pop best-first (ties to the
//!   lower id);
//! * with no undispatched root, an in-flight root makes the schedule wait:
//!   its commit may promote new roots;
//! * otherwise the graph is root-free — the default coarse grids make
//!   every region box overlap every other, so all edges are mutual — and
//!   the cursor hands out the lowest-id undispatched region, counted in
//!   [`ExecStats::ordering_fallbacks`].
//!
//! A root keeps the rank it was queued under. Algorithm 1's lines 10–18 —
//! refreshing the benefit of regions an emission affected — are not
//! implemented.

use crate::config::OrderingPolicy;
use crate::driver::Popped;
use crate::elgraph::ElGraph;
use crate::lookahead::Region;
use crate::stats::ExecStats;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A ranked EL-graph root.
#[derive(Debug)]
struct Root {
    rank: f64,
    region: u32,
}

impl PartialEq for Root {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Root {}

impl PartialOrd for Root {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Root {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on rank; deterministic tie-break on region id (lower id
        // first) so runs are reproducible.
        self.rank
            .total_cmp(&other.rank)
            .then_with(|| other.region.cmp(&self.region))
    }
}

/// ProgOrder's state beside the cursor.
#[derive(Debug)]
struct Ranked {
    graph: ElGraph,
    /// Undispatched roots, best first.
    roots: BinaryHeap<Root>,
    /// Dispatched, unresolved regions: at most the driver's dispatch window.
    in_flight: Vec<u32>,
}

/// One run's region schedule, stepped one pop at a time.
#[derive(Debug)]
pub(crate) struct Schedule {
    order: Vec<u32>,
    /// Every region ahead of it in `order` is dispatched.
    cursor: usize,
    dispatched: Vec<bool>,
    /// ProgOrder only.
    ranked: Option<Ranked>,
}

impl Schedule {
    /// The schedule of `policy` over `regions`, whose boxes live in a
    /// `dims`-dimensional output grid. `rank` prices a region the moment
    /// it becomes an EL-graph root.
    pub(crate) fn new(
        regions: &[Region],
        dims: usize,
        policy: OrderingPolicy,
        mut rank: impl FnMut(u32) -> f64,
    ) -> Self {
        let n = regions.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let ranked = match policy {
            OrderingPolicy::ProgOrder => {
                let graph = ElGraph::build(regions, dims);
                let roots = graph
                    .roots()
                    .into_iter()
                    .map(|region| Root {
                        rank: rank(region),
                        region,
                    })
                    .collect();
                Some(Ranked {
                    graph,
                    roots,
                    in_flight: Vec::new(),
                })
            }
            OrderingPolicy::Random { seed } => {
                crate::executor::shuffle(&mut order, seed);
                None
            }
            OrderingPolicy::Fifo => None,
        };
        Self {
            order,
            cursor: 0,
            dispatched: vec![false; n],
            ranked,
        }
    }

    /// Picks the next region and marks it dispatched, or says why there is
    /// none right now ([`Popped`]). `is_ready` is the streaming-ingestion
    /// readiness gate: when it rejects the region the schedule would hand
    /// out, nothing moves — the stalled region is only *peeked* — so the
    /// same region is offered again on the next call, and stalls never
    /// reorder the schedule.
    pub(crate) fn pop(&mut self, is_ready: impl Fn(u32) -> bool, stats: &mut ExecStats) -> Popped {
        if let Some(ranked) = &mut self.ranked {
            if let Some(&Root { region, .. }) = ranked.roots.peek() {
                if !is_ready(region) {
                    return Popped::Stalled;
                }
                ranked.roots.pop();
                return self.dispatch(region);
            }
            // Every undispatched region has an in-edge. While a root is in
            // flight its commit may promote new roots: wait for it.
            if ranked.in_flight.iter().any(|&r| ranked.graph.is_root(r)) {
                return Popped::Exhausted;
            }
        }
        while let Some(&region) = self.order.get(self.cursor) {
            if !self.dispatched[region as usize] {
                if !is_ready(region) {
                    return Popped::Stalled;
                }
                if self.ranked.is_some() {
                    // Root-free: Algorithm 1 has no root to rank.
                    stats.ordering_fallbacks += 1;
                }
                return self.dispatch(region);
            }
            self.cursor += 1;
        }
        Popped::Exhausted
    }

    fn dispatch(&mut self, region: u32) -> Popped {
        debug_assert!(
            !self.dispatched[region as usize],
            "region {region} popped twice"
        );
        self.dispatched[region as usize] = true;
        if let Some(ranked) = &mut self.ranked {
            ranked.in_flight.push(region);
        }
        Popped::Region(region)
    }

    /// Records a resolution: regions it leaves without an in-edge become
    /// roots, and those not yet dispatched are ranked and queued.
    pub(crate) fn resolved(&mut self, region: u32, mut rank: impl FnMut(u32) -> f64) {
        let Some(ranked) = &mut self.ranked else {
            return;
        };
        ranked.in_flight.retain(|&r| r != region);
        for root in ranked.graph.resolve(region) {
            if !self.dispatched[root as usize] {
                ranked.roots.push(Root {
                    rank: rank(root),
                    region: root,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_grid::{Coord, MAX_DIMS};

    /// Regions over 2-d `(cell_lo, cell_hi)` boxes.
    fn regions(boxes: &[[(u16, u16); 2]]) -> Vec<Region> {
        let coord = |(x, y): (u16, u16)| {
            let mut c: Coord = [0; MAX_DIMS];
            c[0] = x;
            c[1] = y;
            c
        };
        boxes
            .iter()
            .enumerate()
            .map(|(id, &[lo, hi])| Region {
                id: id as u32,
                r_part: 0,
                t_part: 0,
                lo: vec![0.0; 2],
                hi: vec![1.0; 2],
                cell_lo: coord(lo),
                cell_hi: coord(hi),
                n_r: 1,
                n_t: 1,
                guaranteed: true,
            })
            .collect()
    }

    /// `n` single cells on the anti-diagonal: pairwise incomparable, so
    /// every region is a root from the start.
    fn all_roots(n: u16) -> Vec<Region> {
        regions(&(0..n).map(|i| [(i, n - i); 2]).collect::<Vec<_>>())
    }

    /// Pops until the schedule runs dry, resolving every region as soon as
    /// it is handed out (the inline driver's rhythm).
    fn drain(schedule: &mut Schedule, stats: &mut ExecStats) -> Vec<u32> {
        let mut order = Vec::new();
        while let Popped::Region(rid) = schedule.pop(|_| true, stats) {
            order.push(rid);
            schedule.resolved(rid, |_| 0.0);
        }
        order
    }

    fn ranked_by(regions: &[Region], ranks: &[f64]) -> Schedule {
        Schedule::new(regions, 2, OrderingPolicy::ProgOrder, |r| ranks[r as usize])
    }

    #[test]
    fn pops_in_rank_order() {
        let mut stats = ExecStats::default();
        let mut s = ranked_by(&all_roots(3), &[1.0, 5.0, 3.0]);
        assert_eq!(drain(&mut s, &mut stats), vec![1, 2, 0]);
        assert_eq!(stats.ordering_fallbacks, 0);
    }

    #[test]
    fn ties_break_on_region_id() {
        let mut stats = ExecStats::default();
        let mut s = ranked_by(&all_roots(3), &[1.0; 3]);
        assert_eq!(drain(&mut s, &mut stats), vec![0, 1, 2]);
    }

    #[test]
    fn stalled_pop_peeks_and_preserves_pop_position() {
        let mut stats = ExecStats::default();
        let mut s = ranked_by(&all_roots(3), &[1.0, 5.0, 3.0]);
        // The winner's input is not ready: stall without moving it.
        assert_eq!(s.pop(|r| r != 1, &mut stats), Popped::Stalled);
        assert_eq!(drain(&mut s, &mut stats), vec![1, 2, 0]);
    }

    #[test]
    fn nan_free_ranks_assumed_but_zero_ok() {
        let mut stats = ExecStats::default();
        let mut s = ranked_by(&all_roots(2), &[0.0, -1.0]);
        assert_eq!(drain(&mut s, &mut stats), vec![0, 1]);
    }

    /// Mutually overlapping boxes: no root until one region is left, so
    /// every pop but the last is the cursor's lowest undispatched id,
    /// whatever the ranks, and counts as a fallback.
    #[test]
    fn a_root_free_graph_pops_in_id_order() {
        let mut stats = ExecStats::default();
        let boxes = regions(&[[(0, 0), (5, 5)], [(1, 1), (6, 6)], [(0, 1), (6, 5)]]);
        let mut s = ranked_by(&boxes, &[1.0, 9.0, 5.0]);
        assert_eq!(drain(&mut s, &mut stats), vec![0, 1, 2]);
        assert_eq!(stats.ordering_fallbacks, 2);
    }

    #[test]
    fn static_orders_walk_the_cursor_and_stall_in_place() {
        let mut stats = ExecStats::default();
        let boxes = all_roots(6);
        let mut fifo = Schedule::new(&boxes, 2, OrderingPolicy::Fifo, |_| unreachable!());
        assert_eq!(fifo.pop(|r| r != 0, &mut stats), Popped::Stalled);
        assert_eq!(drain(&mut fifo, &mut stats), vec![0, 1, 2, 3, 4, 5]);
        let mut shuffled: Vec<u32> = (0..6).collect();
        crate::executor::shuffle(&mut shuffled, 7);
        let random = OrderingPolicy::Random { seed: 7 };
        let mut s = Schedule::new(&boxes, 2, random, |_| unreachable!());
        assert_eq!(drain(&mut s, &mut stats), shuffled);
        assert_eq!(stats.ordering_fallbacks, 0, "static orders never fall back");
    }
}
