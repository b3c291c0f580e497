//! Output-space look-ahead (Section III-A).
//!
//! For every pair of input partitions whose join signatures overlap, the
//! mapping functions are evaluated over the partition *bounds* to obtain the
//! output region the pair's join results must fall into. Region-level
//! dominance reasoning then prunes work before a single tuple is joined:
//!
//! * a region whose lower-bound point is dominated by the **pessimistic
//!   skyline** — the skyline of upper-bound points of *guaranteed-populated*
//!   regions — can never contribute a result and is discarded (Example 2);
//! * an output cell whose best corner is dominated by the pessimistic
//!   skyline is marked "non-contributing" (Example 3) — from the start, or,
//!   where cells materialize on first insert, the moment one does.
//!
//! Exact signatures make "overlap" a population *guarantee*. A declared
//! streaming grid's partitions carry
//! [`JoinSignature::Unknown`](crate::signature::JoinSignature::Unknown):
//! their overlap guarantees nothing, so no region is pruned and no
//! pessimistic-skyline point comes from them.
//!
//! The phase pays per candidate pair only for reasoning over bounds: a
//! candidate is a row of two flat buffers of oriented bounds, and a
//! [`Region`] — with its own bound vectors — is built only for a candidate
//! the pessimistic skyline does not prune (most of them are, on the
//! benchmark's small queries).

use crate::cells::CellStore;
use crate::grid::InputGrid;
use crate::mapping::MapSet;
use crate::output_grid::{Coord, OutputGrid, MAX_DIMS};
use progxe_skyline::{bnl::BnlWindow, kernel, Preference};

/// An output region `R_{a,b}`: the mapped image of input partition pair
/// `[I^R_a, I^T_b]`. All bounds are *oriented* (lower is better).
#[derive(Debug, Clone)]
pub struct Region {
    /// Dense region id (index into the live-region vector).
    pub id: u32,
    /// Index of the R-side partition in its grid.
    pub r_part: u32,
    /// Index of the T-side partition in its grid.
    pub t_part: u32,
    /// Oriented continuous lower-bound point (`LOWER(R_{a,b})`).
    pub lo: Vec<f64>,
    /// Oriented continuous upper-bound point (`UPPER(R_{a,b})`).
    pub hi: Vec<f64>,
    /// Inclusive cell box lower corner.
    pub cell_lo: Coord,
    /// Inclusive cell box upper corner.
    pub cell_hi: Coord,
    /// Tuple count of the R-side partition (`n^R_a`).
    pub n_r: u32,
    /// Tuple count of the T-side partition (`n^T_b`).
    pub n_t: u32,
    /// Whether the region is guaranteed to produce at least one join result
    /// (exact signatures only).
    pub guaranteed: bool,
}

/// Result of the look-ahead phase.
#[derive(Debug)]
pub struct Lookahead {
    /// The output grid spanning all candidate regions.
    pub grid: OutputGrid,
    /// Live regions after abstraction-level pruning, densely re-numbered.
    pub regions: Vec<Region>,
    /// Partition pairs rejected by signatures ("guaranteed to not generate
    /// any join result").
    pub pairs_rejected_by_signature: usize,
    /// Candidate regions pruned by region-level dominance (Example 2).
    pub regions_pruned: usize,
    /// Pessimistic-skyline points, flattened (`dims` values per point):
    /// oriented upper bounds of guaranteed regions, used later to pre-mark
    /// dominated cells.
    pub pessimistic_skyline: Vec<f64>,
}

/// Runs the look-ahead phase over two partitioned inputs.
///
/// Candidates — the signature-compatible partition pairs, in R-major
/// order — live only as rows of two flat buffers of oriented bounds beside
/// their `(r_part, t_part, guaranteed)`; the global box, the pessimistic
/// window and the prune pass read those rows. Only a candidate that
/// survives the prune becomes a [`Region`], numbered in candidate order.
pub fn run_lookahead(
    r_grid: &InputGrid,
    t_grid: &InputGrid,
    maps: &MapSet,
    output_cells_per_dim: u16,
) -> Lookahead {
    let dims = maps.out_dims();
    assert!(dims <= MAX_DIMS);
    let orders = maps.preference().orders();

    // 1. Enumerate join-compatible partition pairs and map their bounds.
    //    Under separable maps each partition's interval terms are computed
    //    once and added per pair, which is `eval_bounds` bit for bit.
    let (mut los, mut his) = (Vec::new(), Vec::new());
    let mut owners: Vec<(u32, u32, bool)> = Vec::new();
    let mut rejected = 0usize;
    let mut raw_lo = Vec::with_capacity(dims);
    let mut raw_hi = Vec::with_capacity(dims);
    let r_terms = side_terms(r_grid, |lo, hi, out| maps.r_bounds_into(lo, hi, out));
    let t_terms = side_terms(t_grid, |lo, hi, out| maps.t_bounds_into(lo, hi, out));
    for (ri, rp) in r_grid.partitions().iter().enumerate() {
        for (ti, tp) in t_grid.partitions().iter().enumerate() {
            if !rp.signature.overlaps(&tp.signature) {
                rejected += 1;
                continue;
            }
            if let (Some(r), Some(t)) = (&r_terms, &t_terms) {
                raw_lo.clear();
                raw_hi.clear();
                let (r, t) = (&r[ri * dims..][..dims], &t[ti * dims..][..dims]);
                for (&(r_min, r_max), &(t_min, t_max)) in r.iter().zip(t) {
                    raw_lo.push(r_min + t_min);
                    raw_hi.push(r_max + t_max);
                }
            } else {
                maps.eval_bounds_into(&rp.lo, &rp.hi, &tp.lo, &tp.hi, &mut raw_lo, &mut raw_hi);
            }
            // Orient: negation for HIGHEST dims swaps the interval ends.
            for ((o, &l), &h) in orders.iter().zip(&raw_lo).zip(&raw_hi) {
                let (a, b) = (o.orient(l), o.orient(h));
                los.push(a.min(b));
                his.push(a.max(b));
            }
            let guaranteed = rp.signature.is_exact() && tp.signature.is_exact();
            owners.push((rp.id, tp.id, guaranteed));
        }
    }

    // Degenerate input: no joinable pairs at all.
    if owners.is_empty() {
        return Lookahead {
            grid: OutputGrid::new(vec![0.0; dims], vec![1.0; dims], 1),
            regions: Vec::new(),
            pairs_rejected_by_signature: rejected,
            regions_pruned: 0,
            pessimistic_skyline: Vec::new(),
        };
    }
    let lo_of = |i: usize| &los[i * dims..(i + 1) * dims];
    let hi_of = |i: usize| &his[i * dims..(i + 1) * dims];

    // 2. Global output bounding box → output grid.
    let (mut g_lo, mut g_hi) = (lo_of(0).to_vec(), hi_of(0).to_vec());
    for i in 1..owners.len() {
        for (g, &v) in g_lo.iter_mut().zip(lo_of(i)) {
            *g = g.min(v);
        }
        for (g, &v) in g_hi.iter_mut().zip(hi_of(i)) {
            *g = g.max(v);
        }
    }
    let grid = OutputGrid::new(g_lo, g_hi, output_cells_per_dim);

    // 3. Pessimistic skyline over guaranteed regions' upper bounds
    //    (Figure 3).
    let mut pes: BnlWindow<()> = BnlWindow::new(Preference::all_lowest(dims));
    for (i, &(_, _, guaranteed)) in owners.iter().enumerate() {
        if guaranteed {
            pes.offer(hi_of(i), ());
        }
    }

    // 4. Prune candidates dominated by another guaranteed region
    //    (Example 2: UPPER(R_{1,3}) ≺ LOWER(R_{3,1}) ⇒ discard R_{3,1}).
    //    The window is flattened once so each candidate runs one batched
    //    many-vs-one pass. No owner exclusion is needed: a region's own
    //    upper bound can never *strictly* dominate its own lower bound
    //    (`lo[j] ≤ hi[j]` by construction rules out any `hi[j] < lo[j]`,
    //    and NaN bounds compare as ties).
    let mut pes_flat: Vec<f64> = Vec::new();
    for (p, _) in pes.iter() {
        pes_flat.extend_from_slice(p);
    }
    let mut regions = Vec::new();
    let mut pruned = 0usize;
    let mut pairs = 0u64;
    for (i, &(r_part, t_part, guaranteed)) in owners.iter().enumerate() {
        let (lo, hi) = (lo_of(i), hi_of(i));
        if kernel::any_dominates(dims, &pes_flat, lo, &mut pairs) {
            pruned += 1;
            continue;
        }
        let (cell_lo, cell_hi) = grid.box_of(lo, hi);
        regions.push(Region {
            id: regions.len() as u32,
            r_part,
            t_part,
            lo: lo.to_vec(),
            hi: hi.to_vec(),
            cell_lo,
            cell_hi,
            n_r: r_grid.partitions()[r_part as usize].len() as u32,
            n_t: t_grid.partitions()[t_part as usize].len() as u32,
            guaranteed,
        });
    }

    Lookahead {
        grid,
        regions,
        pairs_rejected_by_signature: rejected,
        regions_pruned: pruned,
        pessimistic_skyline: pes_flat,
    }
}

/// Every partition's interval terms of one side, `dims` `(min, max)` pairs
/// per partition in grid order, or `None` when a map does not enclose
/// separably (`terms` says so).
fn side_terms(
    grid: &InputGrid,
    terms: impl Fn(&[f64], &[f64], &mut Vec<(f64, f64)>) -> bool,
) -> Option<Vec<(f64, f64)>> {
    let mut all = Vec::new();
    let mut one = Vec::new();
    for p in grid.partitions() {
        if !terms(&p.lo, &p.hi, &mut one) {
            return None;
        }
        all.extend_from_slice(&one);
    }
    Some(all)
}

/// Readies the store for the region loop: hands it the pessimistic
/// skyline, for Example 3's pre-marking. That is all, under every model —
/// a cell is built, and pre-marked, when the first tuple lands in it.
pub fn track_cells(lookahead: &Lookahead, store: &mut CellStore) {
    store.set_pessimistic_skyline(lookahead.pessimistic_skyline.clone());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdom::{DominanceModel, FDominance};
    use crate::source::SourceData;

    /// A Pareto store and one under a flexible model — the simplex, which
    /// admits every weighting and so keeps the Pareto skyline.
    fn stores(grid: &OutputGrid) -> [CellStore; 2] {
        let model = DominanceModel::flexible(FDominance::simplex(grid.dims()).unwrap());
        [
            CellStore::new(grid.clone()),
            CellStore::with_model(grid.clone(), model),
        ]
    }

    fn setup(
        r_rows: &[(&[f64], u32)],
        t_rows: &[(&[f64], u32)],
        per_dim: usize,
    ) -> (SourceData, SourceData, InputGrid, InputGrid) {
        let r = SourceData::from_rows(r_rows[0].0.len(), r_rows);
        let t = SourceData::from_rows(t_rows[0].0.len(), t_rows);
        let domain = 16;
        let rg = InputGrid::build(&r.view(), per_dim, domain);
        let tg = InputGrid::build(&t.view(), per_dim, domain);
        (r, t, rg, tg)
    }

    #[test]
    fn signature_rejects_incompatible_pairs() {
        let (_r, _t, rg, tg) = setup(
            &[(&[1.0, 1.0], 0), (&[99.0, 99.0], 1)],
            &[(&[1.0, 1.0], 2), (&[99.0, 99.0], 3)],
            2,
        );
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let la = run_lookahead(&rg, &tg, &maps, 8);
        assert!(la.regions.is_empty());
        assert_eq!(la.pairs_rejected_by_signature, 4);
    }

    #[test]
    fn regions_cover_joinable_pairs() {
        let (_r, _t, rg, tg) = setup(
            &[(&[1.0, 1.0], 0), (&[99.0, 99.0], 0)],
            &[(&[1.0, 1.0], 0)],
            2,
        );
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let la = run_lookahead(&rg, &tg, &maps, 8);
        // Low R-partition × T survives; the high one is dominated by it:
        // UPPER(low×T) = (2+2, 2+2)=(4,4)… actually low partition is a
        // single point (1,1): upper (2,2) dominates lower (100,100).
        assert_eq!(la.regions.len() + la.regions_pruned, 2);
        assert_eq!(la.regions_pruned, 1, "dominated region pruned");
    }

    #[test]
    fn region_bounds_enclose_actual_outputs() {
        let rows_r: Vec<(Vec<f64>, u32)> = (0..20)
            .map(|i| (vec![(i * 5) as f64, (100 - i * 5) as f64], (i % 4) as u32))
            .collect();
        let rows_t: Vec<(Vec<f64>, u32)> = (0..20)
            .map(|i| {
                (
                    vec![(i * 4) as f64 + 1.0, (i * 3) as f64 + 2.0],
                    (i % 4) as u32,
                )
            })
            .collect();
        let r_refs: Vec<(&[f64], u32)> = rows_r.iter().map(|(v, k)| (v.as_slice(), *k)).collect();
        let t_refs: Vec<(&[f64], u32)> = rows_t.iter().map(|(v, k)| (v.as_slice(), *k)).collect();
        let (r, t, rg, tg) = setup(&r_refs, &t_refs, 3);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let la = run_lookahead(&rg, &tg, &maps, 16);

        // Every actual join output must fall inside its region's bounds.
        let mut out = Vec::new();
        for region in &la.regions {
            let rp = &rg.partitions()[region.r_part as usize];
            let tp = &tg.partitions()[region.t_part as usize];
            for &ri in &rp.tuples {
                for &ti in &tp.tuples {
                    if r.view().join_key_of(ri as usize) != t.view().join_key_of(ti as usize) {
                        continue;
                    }
                    maps.eval_into(
                        r.view().attrs_of(ri as usize),
                        t.view().attrs_of(ti as usize),
                        &mut out,
                    );
                    for j in 0..2 {
                        assert!(
                            region.lo[j] <= out[j] && out[j] <= region.hi[j],
                            "output {out:?} escapes region [{:?}, {:?}]",
                            region.lo,
                            region.hi
                        );
                    }
                }
            }
        }
    }

    /// A non-exact overlap guarantees nothing: a declared grid (every
    /// partition [`JoinSignature::Unknown`]) against a grid built from
    /// rows yields regions that are never guaranteed, so none is pruned
    /// and the pessimistic skyline stays empty — although the near
    /// region's upper bound strictly dominates the far region's lower
    /// bound, which would prune the far one were the near one known to be
    /// populated.
    ///
    /// [`JoinSignature::Unknown`]: crate::signature::JoinSignature::Unknown
    #[test]
    fn unknown_signatures_disable_guarantees_and_pruning() {
        use crate::grid::GridGeometry;
        let geo = GridGeometry::from_bounds(&[1.0, 1.0], &[99.0, 99.0], 3);
        let rg = InputGrid::declared(&geo);
        let t = SourceData::from_rows(2, &[(&[1.0, 1.0], 0)]);
        let tg = InputGrid::build(&t.view(), 1, 1);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let la = run_lookahead(&rg, &tg, &maps, 8);
        assert_eq!(la.regions.len(), 9);
        let (near, far) = (&la.regions[0], &la.regions[8]);
        assert!(near.hi.iter().zip(&far.lo).all(|(h, l)| h < l));
        assert_eq!(la.regions_pruned, 0, "no pruning without guarantees");
        assert!(la.regions.iter().all(|r| !r.guaranteed));
        assert!(la.pessimistic_skyline.is_empty());
    }

    #[test]
    fn track_cells_marks_dominated_cells_dead() {
        // Region A = (1,0)×T has bounds [(2,1), (2,80)]; region C =
        // (99,20)×T has bounds [(100,21), (100,100)]. C's lower bound is
        // *not* dominated by UPPER(A) = (2,80) (21 < 80), so C survives
        // region pruning — but C's cells with corner y > 80 are dominated
        // and must be pre-marked (the paper's Example 3).
        let r = SourceData::from_rows(2, &[(&[1.0, 0.0], 0), (&[99.0, 20.0], 0)]);
        let t = SourceData::from_rows(2, &[(&[1.0, 1.0], 0), (&[1.0, 80.0], 0)]);
        let rg = InputGrid::build(&r.view(), 2, 1);
        let tg = InputGrid::build(&t.view(), 1, 1);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let la = run_lookahead(&rg, &tg, &maps, 16);
        assert_eq!(la.regions.len(), 2, "neither region fully pruned");
        // (2, 1) is A's best output; (100, 100) is C's worst, in a cell
        // whose corner UPPER(A) dominates.
        let (good, doomed) = ([2.0, 1.0], [100.0, 100.0]);

        // Nothing tracked up front; a cell is pre-marked when the first
        // tuple lands in it, and that tuple is a dead-cell rejection.
        for mut store in stores(&la.grid) {
            track_cells(&la, &mut store);
            assert!(store.is_empty());
            assert!(store.insert(0, 0, &good));
            assert_eq!(store.stats().cells_premarked_dead, 0);
            assert!(!store.insert(1, 1, &doomed));
            let stats = store.stats();
            assert_eq!(
                (stats.cells_premarked_dead, stats.tuples_rejected_dead_cell),
                (1, 1)
            );
            assert_eq!(stats.tuples_rejected_dominated, 0, "rejected untested");
            assert_eq!(store.len(), 2, "one cell per tuple");
            let cell = store.find(&la.grid.cell_of(&doomed)).unwrap();
            assert!(store.cell(cell).is_dead());
        }
    }

    /// What streaming ingestion's readiness borrows from the look-ahead:
    /// over two declared grids every cell pair survives as a region, id
    /// `r_cell · t_cells + t_cell`, sized zero, never guaranteed, bounded
    /// by the mapped slice bounds — nothing rejected, nothing pruned, and
    /// no cell premarked. The store opens empty under every model.
    #[test]
    fn declared_grids_provision_every_cell_pair_in_order() {
        use crate::grid::GridGeometry;
        use progxe_skyline::Order;
        let r_geo = GridGeometry::from_bounds(&[0.0, 0.0], &[90.0, 30.0], 3);
        let t_geo = GridGeometry::from_bounds(&[10.0, 5.0], &[20.0, 25.0], 2);
        let (rg, tg) = (InputGrid::declared(&r_geo), InputGrid::declared(&t_geo));
        let (r_cells, t_cells) = (9, 4);
        assert_eq!((rg.len(), tg.len()), (r_cells, t_cells));
        assert!(rg.partitions().iter().all(|p| p.is_empty()));
        let maps = MapSet::pairwise_sum(2, Preference::new(vec![Order::Lowest, Order::Highest]));
        let la = run_lookahead(&rg, &tg, &maps, 8);
        assert_eq!(la.regions.len(), r_cells * t_cells);
        assert_eq!((la.pairs_rejected_by_signature, la.regions_pruned), (0, 0));
        assert!(la.pessimistic_skyline.is_empty());
        let (mut raw_lo, mut raw_hi) = (Vec::new(), Vec::new());
        for (i, region) in la.regions.iter().enumerate() {
            let (r_cell, t_cell) = (i / t_cells, i % t_cells);
            assert_eq!(region.id as usize, i);
            assert_eq!(
                (region.r_part as usize, region.t_part as usize),
                (r_cell, t_cell)
            );
            assert_eq!((region.n_r, region.n_t, region.guaranteed), (0, 0, false));
            let (r_lo, r_hi) = r_geo.slice_bounds(r_cell);
            let (t_lo, t_hi) = t_geo.slice_bounds(t_cell);
            maps.eval_bounds_into(&r_lo, &r_hi, &t_lo, &t_hi, &mut raw_lo, &mut raw_hi);
            assert_eq!((region.lo[0], region.hi[0]), (raw_lo[0], raw_hi[0]));
            assert_eq!((region.lo[1], region.hi[1]), (-raw_hi[1], -raw_lo[1]));
        }
        for mut store in stores(&la.grid) {
            track_cells(&la, &mut store);
            assert!(store.is_empty(), "a declared grid opens with zero cells");
        }
    }

    /// The look-ahead as it was written first — one `Candidate` with its
    /// own bound vectors per compatible pair — kept as the oracle of
    /// [`run_lookahead`]'s flat-buffer form.
    fn per_candidate(
        r_grid: &InputGrid,
        t_grid: &InputGrid,
        maps: &MapSet,
        output_cells_per_dim: u16,
    ) -> Lookahead {
        let out_dims = maps.out_dims();
        let orders = maps.preference().orders().to_vec();
        struct Candidate {
            r_part: u32,
            t_part: u32,
            lo: Vec<f64>,
            hi: Vec<f64>,
            n_r: u32,
            n_t: u32,
            guaranteed: bool,
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut rejected = 0usize;
        let (mut raw_lo, mut raw_hi) = (Vec::new(), Vec::new());
        for rp in r_grid.partitions() {
            for tp in t_grid.partitions() {
                if !rp.signature.overlaps(&tp.signature) {
                    rejected += 1;
                    continue;
                }
                maps.eval_bounds_into(&rp.lo, &rp.hi, &tp.lo, &tp.hi, &mut raw_lo, &mut raw_hi);
                let mut lo = Vec::with_capacity(out_dims);
                let mut hi = Vec::with_capacity(out_dims);
                for j in 0..out_dims {
                    let a = orders[j].orient(raw_lo[j]);
                    let b = orders[j].orient(raw_hi[j]);
                    lo.push(a.min(b));
                    hi.push(a.max(b));
                }
                candidates.push(Candidate {
                    r_part: rp.id,
                    t_part: tp.id,
                    lo,
                    hi,
                    n_r: rp.len() as u32,
                    n_t: tp.len() as u32,
                    guaranteed: rp.signature.is_exact() && tp.signature.is_exact(),
                });
            }
        }
        if candidates.is_empty() {
            return Lookahead {
                grid: OutputGrid::new(vec![0.0; out_dims], vec![1.0; out_dims], 1),
                regions: Vec::new(),
                pairs_rejected_by_signature: rejected,
                regions_pruned: 0,
                pessimistic_skyline: Vec::new(),
            };
        }
        let mut g_lo = candidates[0].lo.clone();
        let mut g_hi = candidates[0].hi.clone();
        for c in &candidates[1..] {
            for j in 0..out_dims {
                g_lo[j] = g_lo[j].min(c.lo[j]);
                g_hi[j] = g_hi[j].max(c.hi[j]);
            }
        }
        let grid = OutputGrid::new(g_lo, g_hi, output_cells_per_dim);
        let mut pes: BnlWindow<usize> = BnlWindow::new(Preference::all_lowest(out_dims));
        for (i, c) in candidates.iter().enumerate() {
            if c.guaranteed {
                pes.offer(&c.hi, i);
            }
        }
        let mut pes_flat: Vec<f64> = Vec::new();
        for (p, _) in pes.iter() {
            pes_flat.extend_from_slice(p);
        }
        let mut regions = Vec::with_capacity(candidates.len());
        let mut pruned = 0usize;
        let mut pairs = 0u64;
        for c in candidates.iter() {
            if kernel::any_dominates(out_dims, &pes_flat, &c.lo, &mut pairs) {
                pruned += 1;
                continue;
            }
            let (cell_lo, cell_hi) = grid.box_of(&c.lo, &c.hi);
            regions.push(Region {
                id: regions.len() as u32,
                r_part: c.r_part,
                t_part: c.t_part,
                lo: c.lo.clone(),
                hi: c.hi.clone(),
                cell_lo,
                cell_hi,
                n_r: c.n_r,
                n_t: c.n_t,
                guaranteed: c.guaranteed,
            });
        }
        Lookahead {
            grid,
            regions,
            pairs_rejected_by_signature: rejected,
            regions_pruned: pruned,
            pessimistic_skyline: pes_flat,
        }
    }

    /// Asserts two look-aheads equal in every field, `f64`s bit for bit;
    /// returns the pruned count.
    fn assert_same(got: &Lookahead, want: &Lookahead, at: &str) -> usize {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let fields = |r: &Region| {
            (
                (r.id, r.r_part, r.t_part, r.n_r, r.n_t, r.guaranteed),
                (bits(&r.lo), bits(&r.hi), r.cell_lo, r.cell_hi),
            )
        };
        assert_eq!(
            (got.grid.dims(), got.grid.cells_per_dim()),
            (want.grid.dims(), want.grid.cells_per_dim()),
            "{at}: grid"
        );
        assert_eq!(got.regions.len(), want.regions.len(), "{at}: regions");
        for (g, w) in got.regions.iter().zip(&want.regions) {
            assert_eq!(fields(g), fields(w), "{at}: region {}", w.id);
        }
        assert_eq!(
            (got.pairs_rejected_by_signature, got.regions_pruned),
            (want.pairs_rejected_by_signature, want.regions_pruned),
            "{at}: rejected, pruned"
        );
        assert_eq!(
            bits(&got.pessimistic_skyline),
            bits(&want.pessimistic_skyline),
            "{at}: pessimistic skyline"
        );
        want.regions_pruned
    }

    /// [`run_lookahead`] against [`per_candidate`] on random inputs: exact
    /// grids over few and many join keys (rejections, guarantees and
    /// pruning), a declared grid on either side (`Unknown` signatures),
    /// `HIGHEST` outputs, and weighted maps over ±1e308 inputs whose bounds
    /// overflow to ±∞. The reference evaluates every pair's bounds through
    /// `eval_bounds`; the flat form adds per-partition terms when every map
    /// encloses separably, so the region bounds, compared bit for bit,
    /// check that the sums are exact. Some rounds hide one map or all of
    /// them behind a [`GeneralMap`](crate::mapping::GeneralMap) with the
    /// same bounds, which keeps the per-pair evaluation.
    #[test]
    fn flat_lookahead_matches_the_per_candidate_reference() {
        use crate::grid::GridGeometry;
        use crate::mapping::{GeneralMap, MappingFunction, WeightedSum};
        use progxe_skyline::Order;
        let mut state = 0x10_0CA_u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let (mut pruned, mut rejected, mut overflowed) = (0, 0, false);
        let mut separable = [0, 0];
        for round in 0..120 {
            let dims = 1 + round % 3;
            let huge = round % 4 == 3;
            let keys = [1, 3, 40][next(3) as usize];
            let relation = |next: &mut dyn FnMut(u64) -> u64| {
                let mut src = SourceData::new(dims);
                let mut row = vec![0.0; dims];
                for _ in 0..1 + next(80) {
                    for v in row.iter_mut() {
                        *v = if huge && next(3) == 0 {
                            [-1e308, 1e308][next(2) as usize]
                        } else {
                            next(1000) as f64 / 9.0
                        };
                    }
                    src.push(&row, next(keys) as u32);
                }
                src
            };
            let (r, t) = (relation(&mut next), relation(&mut next));
            let orders: Vec<Order> = (0..dims)
                .map(|_| [Order::Lowest, Order::Highest][next(2) as usize])
                .collect();
            let variant = next(4);
            let maps = if huge || variant > 0 {
                // Over huge inputs one R term may overflow; the T terms
                // stay finite, so no bound is `∞ − ∞`. Finite inputs get
                // fractional, negative and constant terms.
                let weighted = (0..dims)
                    .map(|_| {
                        let map = if huge {
                            let mut r_weights = vec![0.0; dims];
                            r_weights[next(dims as u64) as usize] = [2.0, -2.0][next(2) as usize];
                            let t_weights =
                                (0..dims).map(|_| [0.5, 0.0][next(2) as usize]).collect();
                            WeightedSum::new(r_weights, t_weights)
                        } else {
                            let mut weight = || (next(7) as f64 - 3.0) / 3.0;
                            let r_weights = (0..dims).map(|_| weight()).collect();
                            let t_weights = (0..dims).map(|_| weight()).collect();
                            WeightedSum::new(r_weights, t_weights).with_constant(weight())
                        };
                        // Variant 2 hides every map, variant 3 one at random.
                        if variant == 2 || (variant == 3 && next(2) == 0) {
                            let bounds = map.clone();
                            Box::new(GeneralMap::new(
                                "hidden",
                                move |r: &[f64], t: &[f64]| map.eval(r, t),
                                move |r_lo: &[f64], r_hi: &[f64], t_lo: &[f64], t_hi: &[f64]| {
                                    bounds.eval_bounds(r_lo, r_hi, t_lo, t_hi)
                                },
                            )) as Box<dyn MappingFunction>
                        } else {
                            Box::new(map) as Box<dyn MappingFunction>
                        }
                    })
                    .collect();
                MapSet::new(weighted, Preference::new(orders)).unwrap()
            } else {
                MapSet::pairwise_sum(dims, Preference::new(orders))
            };
            let probe = [0.0; 3];
            let whole = maps.r_bounds_into(&probe[..dims], &probe[..dims], &mut Vec::new());
            separable[usize::from(whole)] += 1;
            let (p, k) = ([1, 2, 3, 5][next(4) as usize], [1, 4, 16][next(3) as usize]);
            let domain = keys as usize;
            let mut rg = InputGrid::build(&r.view(), p, domain);
            let mut tg = InputGrid::build(&t.view(), p, domain);
            // Declared slice bounds over ±1e308 would be `0 · ∞`: declare
            // only finite-width grids.
            match if huge { 2 } else { next(4) } {
                0 => {
                    let (lo, hi) = r.view().attrs().bounds().unwrap();
                    rg = InputGrid::declared(&GridGeometry::from_bounds(&lo, &hi, p));
                }
                1 => {
                    let (lo, hi) = t.view().attrs().bounds().unwrap();
                    tg = InputGrid::declared(&GridGeometry::from_bounds(&lo, &hi, p));
                }
                _ => {}
            }
            let got = run_lookahead(&rg, &tg, &maps, k);
            let want = per_candidate(&rg, &tg, &maps, k);
            pruned += assert_same(&got, &want, &format!("round {round}"));
            rejected += want.pairs_rejected_by_signature;
            overflowed |= want
                .regions
                .iter()
                .any(|r| r.lo.iter().chain(&r.hi).any(|v| !v.is_finite()));
        }
        assert!(
            pruned > 0 && rejected > 0,
            "pruned {pruned}, rejected {rejected}"
        );
        assert!(overflowed, "no bound overflowed");
        assert!(
            separable.iter().all(|&n| n > 10),
            "separable: {separable:?}"
        );
    }

    #[test]
    fn empty_sources_produce_empty_lookahead() {
        let r = SourceData::new(2);
        let rg = InputGrid::build(&r.view(), 2, 1);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let la = run_lookahead(&rg, &rg, &maps, 8);
        assert!(la.regions.is_empty());
    }

    #[test]
    fn highest_preference_orients_bounds() {
        use progxe_skyline::Order;
        let (_r, _t, rg, tg) = setup(&[(&[10.0, 20.0], 0)], &[(&[1.0, 2.0], 0)], 1);
        let maps = MapSet::pairwise_sum(2, Preference::new(vec![Order::Lowest, Order::Highest]));
        let la = run_lookahead(&rg, &tg, &maps, 8);
        assert_eq!(la.regions.len(), 1);
        let region = &la.regions[0];
        // Raw output is (11, 22); dim 1 oriented = -22.
        assert!(region.lo[0] <= 11.0 && 11.0 <= region.hi[0]);
        assert!(region.lo[1] <= -22.0 && -22.0 <= region.hi[1]);
    }
}
