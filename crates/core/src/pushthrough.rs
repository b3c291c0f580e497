//! Skyline partial push-through (Hafenrichter & Kießling; used by JF-SL+
//! and the "+" variants of ProgXe, Section VI-B).
//!
//! A source tuple can be pruned when another tuple with the **same join
//! key** is at least as good on every *mapped component* and strictly
//! better on one: for separable monotone maps (`f_j(r,t)` non-decreasing in
//! a per-source score `g_j`), every join partner then yields a dominated
//! output, so the pruned tuple can never contribute a skyline result.
//!
//! "Dominated" must survive rounding. The exact additive contract makes an
//! output `fl(a + b)` of the tuple's component `a` and a partner's `b`, and
//! two components that differ can round to the same output — then the two
//! outputs tie, and both stay in the skyline. A tuple is therefore pruned
//! only when, on some dimension where its dominator is strictly better,
//! the gap exceeds the float spacing at the largest magnitude any partner
//! can reach (`gap_survives_rounding`).
//!
//! Two classic refinements are deliberately **not** applied, because the
//! paper shows they are unsound for SkyMapJoin queries (Section VII):
//!
//! * source-level pruning that ignores the join key (a "dominating" tuple
//!   with a different key may have no join partners at all);
//! * treating source-level skyline members as guaranteed results (mapping
//!   functions create cross-source trade-offs).

use crate::fxhash::FxHashMap;
use crate::mapping::MapSet;
use crate::source::SourceView;
use progxe_skyline::Preference;

/// Which side of the join to prune.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left (R) source: uses each map's `r_component`.
    R,
    /// The right (T) source: uses each map's `t_component`.
    T,
}

/// Computes the rows of `source` (the join's `side`) that survive
/// group-level push-through pruning against join partners from `partner`,
/// or `None` when any mapping function is not separable (pruning would be
/// unsound and is skipped).
///
/// Surviving rows are returned in their original order.
pub fn push_through(
    source: &SourceView<'_>,
    partner: &SourceView<'_>,
    maps: &MapSet,
    side: Side,
) -> Option<Vec<u32>> {
    let k = maps.out_dims();
    // The local preference inherits the output orders: f_j non-decreasing in
    // g_j means "better g_j ⇒ better f_j" in the same direction.
    let pref = Preference::new(maps.preference().orders().to_vec());
    let other = match side {
        Side::R => Side::T,
        Side::T => Side::R,
    };
    let scores = components(source, maps, side)?;
    // The largest magnitude a partner's component reaches, per dimension.
    let mut reach = vec![0.0f64; k];
    for row in components(partner, maps, other)?.chunks_exact(k) {
        for (m, &b) in reach.iter_mut().zip(row) {
            *m = m.max(b.abs());
        }
    }
    let score_of = |row: usize| &scores[row * k..(row + 1) * k];
    // `q` prunes `p`: it dominates `p` locally, and by a gap on some
    // dimension that no partner's add rounds away.
    let prunes = |q: &[f64], p: &[f64]| {
        pref.dominates(q, p) && (0..k).any(|j| gap_survives_rounding(q[j], p[j], reach[j]))
    };
    let n = source.len();

    // Group rows by join key, then keep each group's local skyline.
    let mut groups: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for row in 0..n {
        groups
            .entry(source.join_key_of(row))
            .or_default()
            .push(row as u32);
    }

    let mut keep = vec![true; n];
    for rows in groups.values() {
        // Window-based group skyline over local scores.
        let mut window: Vec<u32> = Vec::new();
        for &row in rows {
            let p = score_of(row as usize);
            let mut dominated = false;
            let mut w = 0;
            while w < window.len() {
                let q = score_of(window[w] as usize);
                if prunes(q, p) {
                    dominated = true;
                    break;
                }
                if prunes(p, q) {
                    keep[window[w] as usize] = false;
                    window.swap_remove(w);
                } else {
                    w += 1;
                }
            }
            if dominated {
                keep[row as usize] = false;
            } else {
                window.push(row);
            }
        }
    }
    Some((0..n as u32).filter(|&row| keep[row as usize]).collect())
}

/// Every row's `side` components, flattened, or `None` for a
/// non-separable map.
fn components(source: &SourceView<'_>, maps: &MapSet, side: Side) -> Option<Vec<f64>> {
    let mut out = Vec::with_capacity(source.len() * maps.out_dims());
    let mut buf = Vec::with_capacity(maps.out_dims());
    for row in 0..source.len() {
        let ok = match side {
            Side::R => maps.r_components(source.attrs_of(row), &mut buf),
            Side::T => maps.t_components(source.attrs_of(row), &mut buf),
        };
        if !ok {
            return None;
        }
        out.extend_from_slice(&buf);
    }
    Some(out)
}

/// Whether `fl(a + y)` and `fl(c + y)` differ for every `|y| ≤ reach`.
///
/// Both exact sums lie within `m = 2·max(|a|, |c|, reach)`, where floats
/// are spaced at most `u = spacing(m)` apart, so each rounds by at most
/// `u / 2`; a gap `|a − c| > u` therefore keeps them apart. The computed
/// gap exceeds `u` only if the exact one does (rounding is monotone and
/// `u` is a float). An infinite or NaN `m` guarantees nothing.
fn gap_survives_rounding(a: f64, c: f64, reach: f64) -> bool {
    let m = 2.0 * a.abs().max(c.abs()).max(reach);
    m.is_finite() && (a - c).abs() > m.next_up() - m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{GeneralMap, MappingFunction, WeightedSum};
    use crate::source::SourceData;
    use progxe_skyline::Order;

    fn sum_maps(dims: usize) -> MapSet {
        MapSet::pairwise_sum(dims, Preference::all_lowest(dims))
    }

    #[test]
    fn dominated_within_group_is_pruned() {
        let s = SourceData::from_rows(
            2,
            &[
                (&[1.0, 1.0], 0), // dominates row 1 (same key)
                (&[2.0, 2.0], 0),
                (&[3.0, 3.0], 1), // different key: safe from row 0
            ],
        );
        let kept = push_through(&s.view(), &s.view(), &sum_maps(2), Side::R).unwrap();
        assert_eq!(kept, vec![0, 2]);
    }

    #[test]
    fn cross_group_dominance_never_prunes() {
        let s = SourceData::from_rows(2, &[(&[1.0, 1.0], 0), (&[9.0, 9.0], 1)]);
        let kept = push_through(&s.view(), &s.view(), &sum_maps(2), Side::R).unwrap();
        assert_eq!(kept, vec![0, 1], "different join keys must both survive");
    }

    #[test]
    fn incomparable_tuples_survive() {
        let s = SourceData::from_rows(2, &[(&[1.0, 9.0], 0), (&[9.0, 1.0], 0)]);
        let kept = push_through(&s.view(), &s.view(), &sum_maps(2), Side::R).unwrap();
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn equal_tuples_both_survive() {
        let s = SourceData::from_rows(2, &[(&[5.0, 5.0], 0), (&[5.0, 5.0], 0)]);
        let kept = push_through(&s.view(), &s.view(), &sum_maps(2), Side::R).unwrap();
        assert_eq!(kept.len(), 2, "equal tuples never dominate each other");
    }

    #[test]
    fn respects_highest_orders() {
        let maps = MapSet::pairwise_sum(1, Preference::new(vec![Order::Highest]));
        let s = SourceData::from_rows(1, &[(&[1.0], 0), (&[9.0], 0)]);
        let kept = push_through(&s.view(), &s.view(), &maps, Side::R).unwrap();
        assert_eq!(kept, vec![1], "HIGHEST keeps the larger value");
    }

    #[test]
    fn weights_affect_local_scores() {
        // delay-style map: 2·r[0]; r=(3) scores 6, r=(2) scores 4.
        let maps = MapSet::new(
            vec![Box::new(WeightedSum::new(vec![2.0], vec![1.0])) as Box<dyn MappingFunction>],
            Preference::all_lowest(1),
        )
        .unwrap();
        let s = SourceData::from_rows(1, &[(&[3.0], 0), (&[2.0], 0)]);
        let kept = push_through(&s.view(), &s.view(), &maps, Side::R).unwrap();
        assert_eq!(kept, vec![1]);
    }

    /// A gap a partner's add can round away prunes nothing: against a
    /// partner component of 2^53, both 2^53 and 2^53 + 2 map to 2^54 — a
    /// tie that keeps both outputs in the skyline. Against a partner of 1,
    /// a gap of 2 survives every add and prunes.
    #[test]
    fn gaps_that_round_away_never_prune() {
        let big = 2f64.powi(53);
        let s = SourceData::from_rows(1, &[(&[big], 0), (&[big + 2.0], 0)]);
        let far = SourceData::from_rows(1, &[(&[big], 0)]);
        assert_eq!(big + big, (big + 2.0) + big, "the outputs tie");
        let kept = push_through(&s.view(), &far.view(), &sum_maps(1), Side::R).unwrap();
        assert_eq!(kept, vec![0, 1]);
        let s = SourceData::from_rows(1, &[(&[0.0], 0), (&[2.0], 0)]);
        let near = SourceData::from_rows(1, &[(&[1.0], 0)]);
        let kept = push_through(&s.view(), &near.view(), &sum_maps(1), Side::R).unwrap();
        assert_eq!(kept, vec![0]);
    }

    #[test]
    fn non_separable_map_disables_pruning() {
        let maps = MapSet::new(
            vec![Box::new(GeneralMap::max_of(0, 0)) as Box<dyn MappingFunction>],
            Preference::all_lowest(1),
        )
        .unwrap();
        let s = SourceData::from_rows(1, &[(&[1.0], 0), (&[2.0], 0)]);
        assert!(push_through(&s.view(), &s.view(), &maps, Side::R).is_none());
    }

    #[test]
    fn t_side_uses_t_components() {
        // Map = r[0] + 3·t[0]: T-side scores are 3·t[0].
        let maps = MapSet::new(
            vec![Box::new(WeightedSum::new(vec![1.0], vec![3.0])) as Box<dyn MappingFunction>],
            Preference::all_lowest(1),
        )
        .unwrap();
        let s = SourceData::from_rows(1, &[(&[2.0], 0), (&[1.0], 0)]);
        let kept = push_through(&s.view(), &s.view(), &maps, Side::T).unwrap();
        assert_eq!(kept, vec![1]);
    }
}
