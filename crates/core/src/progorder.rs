//! The region schedule: a fixed `order` walked by a monotone cursor.
//!
//! [`OrderingPolicy::ProgOrder`] walks region ids ascending;
//! [`OrderingPolicy::Random`] walks a seeded shuffle of them — the paper's
//! No-Order arm. Every pop hands out the region under the cursor and moves
//! it one step; a pop the readiness gate rejects leaves it in place, so
//! stalls never reorder the schedule.
//!
//! The paper's Algorithm 1 instead ranks the roots of an elimination graph
//! by Benefit / Cost (Equation 8). That ranking is not implemented: on the
//! default grids every region box overlaps every other, so the graph has
//! no root until one region is left and Algorithm 1 reduces to this id
//! order; on grids fine enough to have roots, measured ranking was mostly
//! later than id order and up to 3× later at d = 3 (see the README's "Does
//! Algorithm 1 reproduce?").

use crate::config::OrderingPolicy;
use crate::driver::Popped;

/// One run's region schedule, stepped one pop at a time.
#[derive(Debug)]
pub(crate) struct Schedule {
    order: Vec<u32>,
    /// Every region ahead of it in `order` is dispatched.
    cursor: usize,
}

impl Schedule {
    /// The schedule of `policy` over `regions` region ids.
    pub(crate) fn new(regions: usize, policy: OrderingPolicy) -> Self {
        let mut order: Vec<u32> = (0..regions as u32).collect();
        if let OrderingPolicy::Random { seed } = policy {
            crate::executor::shuffle(&mut order, seed);
        }
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

    fn drain(schedule: &mut Schedule) -> Vec<u32> {
        let mut order = Vec::new();
        while let Popped::Region(rid) = schedule.pop(|_| true) {
            order.push(rid);
        }
        order
    }

    #[test]
    fn static_orders_walk_the_cursor_and_stall_in_place() {
        let mut ids = Schedule::new(6, OrderingPolicy::ProgOrder);
        assert_eq!(ids.pop(|r| r != 0), Popped::Stalled);
        assert_eq!(ids.pop(|_| true), Popped::Region(0));
        assert_eq!(ids.pop(|r| r != 1), Popped::Stalled);
        assert_eq!(drain(&mut ids), vec![1, 2, 3, 4, 5]);
        assert_eq!(ids.pop(|_| true), Popped::Exhausted);
        let mut shuffled: Vec<u32> = (0..6).collect();
        crate::executor::shuffle(&mut shuffled, 7);
        let mut random = Schedule::new(6, OrderingPolicy::Random { seed: 7 });
        assert_eq!(random.pop(|r| r != shuffled[0]), Popped::Stalled);
        assert_eq!(drain(&mut random), shuffled);
    }
}
