//! Property-style tests for the core invariants: dominance laws,
//! skyline-algorithm agreement, mapping enclosures, and end-to-end ProgXe
//! correctness against the oracle.
//!
//! Cases are generated by a seeded in-repo RNG rather than a property
//! framework (the workspace builds without crates.io access); every failure
//! therefore reproduces deterministically from the case index printed in
//! the assertion message.

use progxe::baselines::{oracle_smj, JfSlEngine, SkyAlgo, SsmjEngine};
use progxe::core::fdom::{FDominance, WeightConstraint};
use progxe::core::prelude::*;
use progxe::core::Error;
use progxe::datagen::rng::{Rng, StdRng};
use progxe::datagen::{Distribution, WorkloadSpec};
use progxe::skyline::{bnl_skyline, naive_skyline, sfs_skyline, DomRelation, PointStore};

/// Small integer grid: plenty of ties and dominance chains.
fn small_value(rng: &mut StdRng) -> f64 {
    rng.gen_range(0u32..12) as f64
}

fn point(rng: &mut StdRng, dims: usize) -> Vec<f64> {
    (0..dims).map(|_| small_value(rng)).collect()
}

fn points(rng: &mut StdRng, dims: usize, max: usize) -> Vec<Vec<f64>> {
    let n = rng.gen_range(1..max);
    (0..n).map(|_| point(rng, dims)).collect()
}

fn store(rows: &[Vec<f64>], dims: usize) -> PointStore {
    PointStore::from_rows(dims, rows.iter())
}

#[test]
fn dominance_laws() {
    let mut rng = StdRng::seed_from_u64(0xD0311);
    let pref = Preference::all_lowest(4);
    for case in 0..256 {
        let a = point(&mut rng, 4);
        let b = point(&mut rng, 4);
        assert!(!pref.dominates(&a, &a), "case {case}: irreflexive");
        let ab = pref.dominates(&a, &b);
        let ba = pref.dominates(&b, &a);
        assert!(!(ab && ba), "case {case}: antisymmetric");
        match pref.compare(&a, &b) {
            DomRelation::Dominates => assert!(ab && !ba, "case {case}"),
            DomRelation::DominatedBy => assert!(ba && !ab, "case {case}"),
            DomRelation::Equal => {
                assert!(!ab && !ba, "case {case}");
                assert_eq!(a, b, "case {case}");
            }
            DomRelation::Incomparable => assert!(!ab && !ba, "case {case}"),
        }
    }
}

#[test]
fn dominance_transitive() {
    let mut rng = StdRng::seed_from_u64(0x7A24);
    let pref = Preference::all_lowest(3);
    let mut hits = 0;
    for case in 0..2048 {
        let a = point(&mut rng, 3);
        let b = point(&mut rng, 3);
        let c = point(&mut rng, 3);
        if pref.dominates(&a, &b) && pref.dominates(&b, &c) {
            hits += 1;
            assert!(pref.dominates(&a, &c), "case {case}: transitivity");
        }
    }
    assert!(hits > 20, "generator produced only {hits} chained cases");
}

#[test]
fn skyline_algorithms_agree() {
    let mut rng = StdRng::seed_from_u64(0x5C11);
    for case in 0..128 {
        let rows = points(&mut rng, 3, 60);
        let s = store(&rows, 3);
        let pref = Preference::all_lowest(3);
        let expected = naive_skyline(&s, &pref).sorted_indices();
        assert_eq!(
            bnl_skyline(&s, &pref).sorted_indices(),
            expected,
            "case {case}: bnl"
        );
        assert_eq!(
            sfs_skyline(&s, &pref).sorted_indices(),
            expected,
            "case {case}: sfs"
        );
    }
}

/// The skyline is exactly the non-dominated subset: no member is dominated,
/// every non-member is dominated by some member.
#[test]
fn skyline_definition_holds() {
    let mut rng = StdRng::seed_from_u64(0xDEF5);
    for case in 0..128 {
        let rows = points(&mut rng, 2, 40);
        let s = store(&rows, 2);
        let pref = Preference::all_lowest(2);
        let sky = naive_skyline(&s, &pref);
        let members: std::collections::HashSet<usize> = sky.indices.iter().copied().collect();
        for i in 0..s.len() {
            let dominated_by_member = sky
                .indices
                .iter()
                .any(|&m| pref.dominates(s.point(m), s.point(i)));
            if members.contains(&i) {
                assert!(!dominated_by_member, "case {case}: member {i} dominated");
            } else {
                assert!(
                    dominated_by_member,
                    "case {case}: non-member {i} not dominated"
                );
            }
        }
    }
}

/// WeightedSum interval evaluation encloses every sampled evaluation.
#[test]
fn weighted_sum_enclosure() {
    let mut rng = StdRng::seed_from_u64(0xE9C1);
    for case in 0..256 {
        let rw: Vec<f64> = (0..2).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let tw: Vec<f64> = (0..2).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let f = WeightedSum::new(rw, tw);
        let r_lo = point(&mut rng, 2);
        let t_lo = point(&mut rng, 2);
        let r_span = point(&mut rng, 2);
        let t_span = point(&mut rng, 2);
        let (fr, ft) = (rng.gen_f64(), rng.gen_f64());
        let r_hi: Vec<f64> = r_lo.iter().zip(&r_span).map(|(a, s)| a + s).collect();
        let t_hi: Vec<f64> = t_lo.iter().zip(&t_span).map(|(a, s)| a + s).collect();
        let (lo, hi) = f.eval_bounds(&r_lo, &r_hi, &t_lo, &t_hi);
        // Sample an interior point per box.
        let r: Vec<f64> = r_lo
            .iter()
            .zip(&r_hi)
            .map(|(a, b)| a + (b - a) * fr)
            .collect();
        let t: Vec<f64> = t_lo
            .iter()
            .zip(&t_hi)
            .map(|(a, b)| a + (b - a) * ft)
            .collect();
        let v = f.eval(&r, &t);
        assert!(
            lo - 1e-9 <= v && v <= hi + 1e-9,
            "case {case}: {v} outside [{lo}, {hi}]"
        );
    }
}

/// A random non-empty weight polytope over `dims` criteria: constraints
/// are generated *around a sampled interior point* `w*` of the simplex
/// (each `aᵢ·w ≤ aᵢ·w* + slackᵢ` with `slackᵢ ≥ 0`), so the family is
/// feasible by construction and `FDominance::new` must succeed.
fn random_fdom(rng: &mut StdRng, dims: usize) -> FDominance {
    // Interior point: normalized positive coordinates.
    let raw: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.05..1.0)).collect();
    let sum: f64 = raw.iter().sum();
    let w_star: Vec<f64> = raw.iter().map(|v| v / sum).collect();

    let n_constraints = rng.gen_range(0u32..5) as usize;
    let mut constraints = Vec::with_capacity(n_constraints);
    for _ in 0..n_constraints {
        let coeffs: Vec<f64> = (0..dims).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let at_star: f64 = coeffs.iter().zip(&w_star).map(|(a, w)| a * w).sum();
        let slack = rng.gen_range(0.0..0.5);
        constraints.push(WeightConstraint::le(coeffs, at_star + slack));
    }
    FDominance::new(dims, constraints).expect("polytope contains w* by construction")
}

/// F-dominance is a strict partial order on every randomized weight
/// polytope: irreflexive, antisymmetric, transitive.
#[test]
fn fdominance_axioms_on_random_polytopes() {
    let mut rng = StdRng::seed_from_u64(0xFD01);
    let mut chained = 0;
    for case in 0..64 {
        let dims = rng.gen_range(2u32..5) as usize;
        let f = random_fdom(&mut rng, dims);
        assert!(f.vertex_count() >= 1, "case {case}: no vertices");
        for sub in 0..48 {
            let a = point(&mut rng, dims);
            let b = point(&mut rng, dims);
            let c = point(&mut rng, dims);
            assert!(
                !f.dominates_oriented(&a, &a),
                "case {case}.{sub}: irreflexive"
            );
            let ab = f.dominates_oriented(&a, &b);
            let ba = f.dominates_oriented(&b, &a);
            assert!(!(ab && ba), "case {case}.{sub}: antisymmetric");
            if ab && f.dominates_oriented(&b, &c) {
                chained += 1;
                assert!(
                    f.dominates_oriented(&a, &c),
                    "case {case}.{sub}: transitivity"
                );
            }
        }
    }
    assert!(chained > 20, "generator produced only {chained} chains");
}

/// Pareto dominance implies F-dominance on every randomized polytope —
/// the soundness assertion behind reusing all Pareto-based region/cell
/// pruning under a flexible model.
#[test]
fn pareto_implies_fdominance_on_random_polytopes() {
    let mut rng = StdRng::seed_from_u64(0xFD02);
    let pareto = |a: &[f64], b: &[f64]| -> bool {
        let mut strict = false;
        for (x, y) in a.iter().zip(b) {
            if x > y {
                return false;
            }
            if x < y {
                strict = true;
            }
        }
        strict
    };
    let mut hits = 0;
    for case in 0..48 {
        let dims = rng.gen_range(2u32..5) as usize;
        let f = random_fdom(&mut rng, dims);
        for sub in 0..64 {
            let a = point(&mut rng, dims);
            let b = point(&mut rng, dims);
            if pareto(&a, &b) {
                hits += 1;
                assert!(
                    f.dominates_oriented(&a, &b),
                    "case {case}.{sub}: Pareto {a:?} ≺ {b:?} must imply F-dominance"
                );
            }
        }
    }
    assert!(hits > 50, "generator produced only {hits} Pareto pairs");
}

/// F-dominance over the *unconstrained* simplex is exactly Pareto
/// dominance — same verdict on every random pair, including ties and
/// trade-offs.
#[test]
fn unconstrained_simplex_equals_pareto() {
    let mut rng = StdRng::seed_from_u64(0xFD03);
    for dims in 1..=4usize {
        let f = FDominance::simplex(dims).unwrap();
        // Trivial (non-binding) constraints exercise the vertex enumerator
        // instead of the fast path; both must agree with Pareto.
        let enumerated = FDominance::new(
            dims,
            (0..dims)
                .map(|d| WeightConstraint::at_most(dims, d, 1.0))
                .collect(),
        )
        .unwrap();
        let pref = Preference::all_lowest(dims);
        for case in 0..512 {
            let a = point(&mut rng, dims);
            let b = point(&mut rng, dims);
            let want = pref.dominates(&a, &b);
            assert_eq!(
                f.dominates_oriented(&a, &b),
                want,
                "dims {dims} case {case}: simplex fast path"
            );
            assert_eq!(
                enumerated.dominates_oriented(&a, &b),
                want,
                "dims {dims} case {case}: enumerated simplex"
            );
        }
    }
}

/// Shrinking the weight family (nested polytopes) can only shrink the
/// F-skyline: with fewer admissible weights, more pairs become dominated.
#[test]
fn nested_weight_families_shrink_the_skyline() {
    let mut rng = StdRng::seed_from_u64(0xFD04);
    // The canonical nested family (shared with the `figures -- fdom`
    // bench), not a hand-rolled copy.
    let band = |dims: usize, tight: f64| {
        progxe::core::fdom::flexible_model(dims, progxe::datagen::simplex_band(dims, tight))
            .expect("band families are non-empty")
    };
    let pref = Preference::all_lowest(3);
    for case in 0..24 {
        let rows = points(&mut rng, 3, 60);
        let s = store(&rows, 3);
        let mut last = usize::MAX;
        for tight in [0.0, 0.3, 0.6, 0.9] {
            let model = band(3, tight);
            let view = progxe::core::fdom::QueryDominance::new(pref.orders(), &model);
            let sky = progxe::skyline::naive_skyline_under(&s, &view);
            assert!(
                sky.indices.len() <= last,
                "case {case}: tightening produced a LARGER skyline"
            );
            last = sky.indices.len();
        }
    }
}

/// The kernel-space contract behind every batched hot path: for any
/// dominance model, `dominates(a, b)` must equal the scalar Pareto kernel
/// applied to the model's kernel projections — exactly, ties and all. This
/// is what lets BNL/SFS/the cell store run one batched code path for both
/// Pareto (mixed orders) and random F-dominance polytopes.
#[test]
fn kernel_projection_parity_across_models() {
    use progxe::core::fdom::{DominanceModel, QueryDominance};
    use progxe::skyline::{kernel, Dominance, Order};
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    for case in 0..48 {
        let dims = rng.gen_range(1u32..5) as usize;
        let orders: Vec<Order> = (0..dims)
            .map(|_| {
                if rng.gen_range(0u32..2) == 0 {
                    Order::Lowest
                } else {
                    Order::Highest
                }
            })
            .collect();
        let model = if rng.gen_range(0u32..2) == 0 {
            DominanceModel::Pareto
        } else {
            DominanceModel::flexible(random_fdom(&mut rng, dims))
        };
        let dom = QueryDominance::new(&orders, &model);
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        for sub in 0..96 {
            let a = point(&mut rng, dims);
            let b = point(&mut rng, dims);
            dom.project_kernel(&a, &mut pa);
            dom.project_kernel(&b, &mut pb);
            assert_eq!(pa.len(), dom.kernel_dims(), "case {case}.{sub}");
            assert_eq!(
                dom.dominates(&a, &b),
                kernel::dominates_scalar(&pa, &pb),
                "case {case}.{sub}: projection parity ({model:?}, {a:?} vs {b:?})"
            );
        }
    }
}

/// The batched many-vs-one and many-vs-many kernels agree pairwise with the
/// scalar kernel on projected batches from both models — including
/// non-chunk-multiple batch lengths and tie-heavy integer grids.
#[test]
fn batched_kernels_match_scalar_on_projected_batches() {
    use progxe::core::fdom::{DominanceModel, QueryDominance};
    use progxe::skyline::{kernel, Dominance, Order};
    let mut rng = StdRng::seed_from_u64(0xBA7C + 1);
    for case in 0..32 {
        let dims = rng.gen_range(1u32..4) as usize;
        let orders = vec![Order::Lowest; dims];
        let model = if case % 2 == 0 {
            DominanceModel::Pareto
        } else {
            DominanceModel::flexible(random_fdom(&mut rng, dims))
        };
        let dom = QueryDominance::new(&orders, &model);
        let kd = dom.kernel_dims();
        // Deliberately straddle the chunk width (8).
        let n = rng.gen_range(1u32..40) as usize;
        let mut batch = Vec::with_capacity(n * kd);
        let mut buf = Vec::new();
        for _ in 0..n {
            dom.project_kernel(&point(&mut rng, dims), &mut buf);
            batch.extend_from_slice(&buf);
        }
        let q = {
            dom.project_kernel(&point(&mut rng, dims), &mut buf);
            buf.clone()
        };
        let scalar_any = batch
            .chunks_exact(kd)
            .any(|row| kernel::dominates_scalar(row, &q));
        let mut pairs = 0u64;
        assert_eq!(
            kernel::any_dominates(kd, &batch, &q, &mut pairs),
            scalar_any,
            "case {case}: any_dominates"
        );
        let mut mask = vec![false; n];
        kernel::dominated_mask(kd, &batch, &q, &mut mask, &mut pairs);
        for (r, row) in batch.chunks_exact(kd).enumerate() {
            assert_eq!(
                mask[r],
                kernel::dominates_scalar(&q, row),
                "case {case}: mask row {r}"
            );
        }
    }
}

/// Rows of one random source: attributes plus a join key each.
type SourceRows = Vec<(Vec<f64>, u32)>;

/// A random SMJ instance: attribute rows plus join keys for both sources.
fn smj_instance(
    rng: &mut StdRng,
    dims: usize,
    max_rows: usize,
    keys: u32,
) -> (SourceRows, SourceRows) {
    let side = |rng: &mut StdRng| -> SourceRows {
        let n = rng.gen_range(1..max_rows);
        (0..n)
            .map(|_| (point(rng, dims), rng.gen_range(0..keys)))
            .collect()
    };
    (side(rng), side(rng))
}

fn build_source(rows: &SourceRows, dims: usize) -> SourceData {
    let mut s = SourceData::new(dims);
    for (attrs, key) in rows {
        s.push(attrs, *key);
    }
    s
}

fn result_ids(results: &[ResultTuple]) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
    v.sort_unstable();
    v
}

/// ProgXe (default config) equals the nested-loop + naive-skyline oracle on
/// arbitrary small instances — the headline correctness property of the
/// whole framework — on one thread and on two. After the 2-d cases come
/// d = 5 and d = 8, where the default 24 cells per dimension exceed the
/// dense budget and the grid is capped (16 and 5 cells).
#[test]
fn progxe_equals_oracle() {
    let mut rng = StdRng::seed_from_u64(0x0A1C);
    let dims_per_case = std::iter::repeat_n(2, 48).chain([5, 5, 5, 5, 8, 8, 8, 8]);
    for (case, dims) in dims_per_case.enumerate() {
        let (r_rows, t_rows) = smj_instance(&mut rng, dims, 40, 4);
        let r = build_source(&r_rows, dims);
        let t = build_source(&t_rows, dims);
        let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
        let expected = result_ids(&oracle_smj(&r.view(), &t.view(), &maps));
        for threads in [1, 2] {
            let out = ProgXe::new(ProgXeConfig::default().with_threads(threads))
                .run_collect(&r.view(), &t.view(), &maps)
                .unwrap();
            assert_eq!(
                result_ids(&out.results),
                expected,
                "case {case} dims={dims} threads={threads}"
            );
        }
    }
}

/// Ordering policy never affects the result set (only its timing).
#[test]
fn ordering_invariance() {
    let mut rng = StdRng::seed_from_u64(0x0B2D);
    for case in 0..48 {
        let (r_rows, t_rows) = smj_instance(&mut rng, 2, 30, 3);
        let seed = rng.next_u64();
        let r = build_source(&r_rows, 2);
        let t = build_source(&t_rows, 2);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let a = ProgXe::new(ProgXeConfig::default())
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        let b = ProgXe::new(ProgXeConfig::default().with_ordering(OrderingPolicy::Random { seed }))
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        assert_eq!(
            result_ids(&a.results),
            result_ids(&b.results),
            "case {case}"
        );
    }
}

/// Push-through pruning is invisible in the result set.
#[test]
fn push_through_invariance() {
    let mut rng = StdRng::seed_from_u64(0x0C3E);
    for case in 0..48 {
        let (r_rows, t_rows) = smj_instance(&mut rng, 3, 30, 3);
        let r = build_source(&r_rows, 3);
        let t = build_source(&t_rows, 3);
        let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
        let plain = ProgXe::new(ProgXeConfig::variation(true, false))
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        let plus = ProgXe::new(ProgXeConfig::variation(true, true))
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        assert_eq!(
            result_ids(&plain.results),
            result_ids(&plus.results),
            "case {case}"
        );
    }
}

/// Grid granularity is invisible in the result set.
#[test]
fn granularity_invariance() {
    let mut rng = StdRng::seed_from_u64(0x0D4F);
    for case in 0..48 {
        let (r_rows, t_rows) = smj_instance(&mut rng, 2, 30, 3);
        let p = rng.gen_range(1usize..6);
        let k = rng.gen_range(2usize..40);
        let r = build_source(&r_rows, 2);
        let t = build_source(&t_rows, 2);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let base = ProgXe::new(ProgXeConfig::default())
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        let other = ProgXe::new(
            ProgXeConfig::default()
                .with_input_partitions(p)
                .with_output_cells(k),
        )
        .run_collect(&r.view(), &t.view(), &maps)
        .unwrap();
        assert_eq!(
            result_ids(&base.results),
            result_ids(&other.results),
            "case {case}: p={p} k={k}"
        );
    }
}

/// Mixed preference directions stay oracle-equal.
#[test]
fn mixed_directions_equal_oracle() {
    let mut rng = StdRng::seed_from_u64(0x0E5A);
    for case in 0..48 {
        let (r_rows, t_rows) = smj_instance(&mut rng, 2, 30, 3);
        let r = build_source(&r_rows, 2);
        let t = build_source(&t_rows, 2);
        let maps = MapSet::pairwise_sum(2, Preference::new(vec![Order::Lowest, Order::Highest]));
        let expected = result_ids(&oracle_smj(&r.view(), &t.view(), &maps));
        let out = ProgXe::new(ProgXeConfig::default())
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        assert_eq!(result_ids(&out.results), expected, "case {case}");
    }
}

/// The value axis of the oracle checks: which f64s an instance's
/// attributes are drawn from.
#[derive(Debug, Clone, Copy)]
enum Values {
    /// Integers just above 2^53: exact ties between coordinates, and sums
    /// of distinct values that round to ties.
    Integers,
    /// Small integers mixed with ±1e308, whose mapped sums overflow to ±∞.
    Extremes,
}

fn axis_value(rng: &mut StdRng, values: Values) -> f64 {
    let small = rng.gen_range(0u32..12) as f64;
    match values {
        Values::Integers => 2f64.powi(53) + 2.0 * small,
        Values::Extremes => match rng.gen_range(0u32..6) {
            0 => 1e308,
            1 => -1e308,
            _ => small,
        },
    }
}

fn axis_source(rng: &mut StdRng, values: Values, dims: usize, max_rows: usize) -> SourceData {
    let mut s = SourceData::new(dims);
    for _ in 0..rng.gen_range(1..max_rows) {
        let row: Vec<f64> = (0..dims).map(|_| axis_value(rng, values)).collect();
        s.push(&row, rng.gen_range(0..4));
    }
    s
}

/// Every engine on one instance: each returns the oracle's result set;
/// SSMJ's stream is a superset whose surplus is exactly the batch-1
/// tuples it reports retracted.
fn assert_every_engine_equals_oracle(
    label: &str,
    r: &SourceView<'_>,
    t: &SourceView<'_>,
    maps: &MapSet,
) {
    let expected = result_ids(&oracle_smj(r, t, maps));
    let engines: Vec<(&str, Box<dyn ProgressiveEngine>)> = vec![
        ("progxe/1", Box::new(ProgXe::new(ProgXeConfig::default()))),
        (
            "progxe/2",
            Box::new(ProgXe::new(ProgXeConfig::default().with_threads(2))),
        ),
        ("jf-sl (bnl)", Box::new(JfSlEngine::new(SkyAlgo::Bnl))),
        ("jf-sl (sfs)", Box::new(JfSlEngine::new(SkyAlgo::Sfs))),
        ("jf-sl+ (sfs)", Box::new(JfSlEngine::plus(SkyAlgo::Sfs))),
    ];
    for (name, engine) in engines {
        let out = engine.run_collect(r, t, maps).unwrap();
        assert_eq!(result_ids(&out.results), expected, "{label}: {name}");
    }
    let out = SsmjEngine::new(SkyAlgo::Sfs)
        .run_collect(r, t, maps)
        .unwrap();
    let mut emitted = result_ids(&out.results);
    emitted.dedup();
    for id in &expected {
        assert!(emitted.contains(id), "{label}: ssmj missing {id:?}");
    }
    assert_eq!(
        emitted.len(),
        expected.len() + out.stats.results_retracted as usize,
        "{label}: ssmj surplus"
    );
}

/// Calls `check` on the value axis's instances: 32 per [`Values`] kind,
/// two or three dimensions, each direction `Highest` with odds 1 in 3.
fn for_each_value_axis_instance(
    mut check: impl FnMut(&str, &SourceView<'_>, &SourceView<'_>, &MapSet),
) {
    let mut rng = StdRng::seed_from_u64(0x7A1E);
    for values in [Values::Integers, Values::Extremes] {
        for case in 0..32 {
            let dims = rng.gen_range(2usize..4);
            let r = axis_source(&mut rng, values, dims, 40);
            let t = axis_source(&mut rng, values, dims, 40);
            let orders = (0..dims)
                .map(|_| {
                    if rng.gen_range(0u32..3) == 0 {
                        Order::Highest
                    } else {
                        Order::Lowest
                    }
                })
                .collect();
            let maps = MapSet::pairwise_sum(dims, Preference::new(orders));
            let label = format!("{values:?} case {case} dims={dims}");
            check(&label, &r.view(), &t.view(), &maps);
        }
    }
}

/// A result set as [`result_ids`] lists it.
type ResultIds = Vec<(u32, u32)>;

/// ProgXe's F-skylines of one instance at 1 and 2 threads, under the
/// `simplex_band` weight polytopes at tightness 0.3 (wide) and 0.7
/// (narrow, nested inside the wide one): `[(threads, wide, narrow)]`.
fn flexible_skylines(
    r: &SourceView<'_>,
    t: &SourceView<'_>,
    maps: &MapSet,
) -> Vec<(usize, ResultIds, ResultIds)> {
    let dims = maps.out_dims();
    let under = |tightness: f64, threads: usize| {
        let band = progxe::datagen::simplex_band(dims, tightness);
        let model = progxe::core::fdom::flexible_model(dims, band).expect("non-empty band");
        let flexible = maps.clone().with_dominance(model).unwrap();
        let engine = ProgXe::new(ProgXeConfig::default().with_threads(threads));
        result_ids(&engine.run_collect(r, t, &flexible).unwrap().results)
    };
    [1, 2]
        .map(|threads| (threads, under(0.3, threads), under(0.7, threads)))
        .into()
}

/// The value axis through every engine: exact integer ties, sums that
/// round to ties, and mapped sums that overflow to ±∞ — under all-lowest
/// and mixed preference directions. (Small integers, whose sums are exact,
/// are `progxe_equals_oracle`'s and `skyline_algorithms_agree`'s inputs.)
/// The same instances carry one of the flexible skyline's free oracles
/// (Lupi et al.): ProgXe's F-skyline, under two weight polytopes, is a
/// non-empty subset of the Pareto skyline, the same at 1 and 2 threads.
/// Mapped sums at ±∞ make vertex projections ±∞ and NaN. A NaN region
/// projection must block, or a cell is released before its region's tuples
/// land (the committer's box-invariant panic); a NaN cell corner must stay
/// inside the emission filter's reachable prefix, or a Pareto-dominated
/// tuple is emitted.
#[test]
fn every_engine_equals_oracle_along_the_value_axis() {
    for_each_value_axis_instance(|label, r, t, maps| {
        assert_every_engine_equals_oracle(label, r, t, maps);
        let pareto = result_ids(&oracle_smj(r, t, maps));
        let fskys = flexible_skylines(r, t, maps);
        let (one, two) = (&fskys[0], &fskys[1]);
        assert_eq!(
            (&one.1, &one.2),
            (&two.1, &two.2),
            "{label}: threads disagree"
        );
        for (threads, wide, narrow) in fskys {
            for (polytope, fsky) in [("wide", wide), ("narrow", narrow)] {
                let label = format!("{label}, {threads} threads, {polytope}");
                assert!(
                    fsky.iter().all(|id| pareto.contains(id)),
                    "{label}: ⊄ Pareto"
                );
                assert!(!fsky.is_empty() || pareto.is_empty(), "{label}: empty");
            }
        }
    });
}

/// The other free oracle: the F-skyline shrinks as the polytope tightens,
/// F-skyline(narrow) ⊆ F-skyline(wide). It holds in exact arithmetic and
/// fails on the value axis: on `Integers case 5` two Pareto-incomparable
/// results near 2^54 differ by (4, −4), less than one ulp after weighting,
/// so a wide-polytope vertex projection rounds to a tie and F-dominance
/// holds under the wide polytope but not under the narrow one. Vertex
/// projections compare `v·a` with `v·b` rather than the sign of
/// `v·(a − b)`; see ROADMAP.
#[test]
#[ignore = "known failure: rounded vertex projections are not monotone in the polytope"]
fn flexible_skylines_shrink_as_the_polytope_tightens_along_the_value_axis() {
    for_each_value_axis_instance(|label, r, t, maps| {
        for (threads, wide, narrow) in flexible_skylines(r, t, maps) {
            let label = format!("{label}, {threads} threads");
            assert!(
                narrow.iter().all(|id| wide.contains(id)),
                "{label}: narrow ⊄ wide"
            );
        }
    });
}

/// A NaN or ±∞ anywhere in an input is rejected where a view is built,
/// with the error naming its row and column, so no engine ever sees one.
#[test]
fn non_finite_input_rows_are_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(0x4A4E);
    for case in 0..48 {
        let (dims, n) = (rng.gen_range(1usize..4), rng.gen_range(1usize..30));
        let (row, dim) = (rng.gen_range(0..n), rng.gen_range(0..dims));
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][case % 3];
        let mut s = SourceData::new(dims);
        for i in 0..n {
            let mut values: Vec<f64> = (0..dims)
                .map(|_| axis_value(&mut rng, Values::Extremes))
                .collect();
            if i == row {
                values[dim] = bad;
            }
            s.push(&values, 0);
        }
        assert_eq!(
            SourceView::new(&s.attrs, &s.join_keys).unwrap_err(),
            Error::NonFiniteValue { row, dim },
            "case {case}: {bad} at row {row}, column {dim}"
        );
    }
}

/// The rows of the non-finite-input table: one 500-row anti-correlated
/// instance with R row 3 column 0 and R row 10 column 1 overwritten.
/// NaN and ±∞ are typed errors; the finite extremes — including the row
/// whose mapped sums overflow to ∞ — equal the oracle on every engine
/// (61 and 15 results).
#[test]
fn non_finite_table_rows_equal_the_oracle_or_a_typed_error() {
    let base = WorkloadSpec::new(500, 3, Distribution::AntiCorrelated, 0.05)
        .with_seed(7)
        .generate();
    let source = |rel: &progxe::datagen::Relation, patch: &dyn Fn(usize, &mut [f64])| {
        let mut s = SourceData::new(3);
        for i in 0..rel.len() {
            let mut row = rel.attrs_of(i).to_vec();
            patch(i, &mut row);
            s.push(&row, rel.join_key_of(i));
        }
        s
    };
    let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
    for (value, t_dim0, expected) in [
        (f64::NAN, None, None),
        (f64::INFINITY, None, None),
        (f64::NEG_INFINITY, None, None),
        (-1e308, None, Some(61)),
        (1e308, Some(1e308), Some(15)),
    ] {
        let overwrite = |i: usize, row: &mut [f64]| match i {
            3 => row[0] = value,
            10 => row[1] = value,
            _ => {}
        };
        let r = source(&base.r, &overwrite);
        let t = source(&base.t, &|_, row: &mut [f64]| {
            if let Some(v) = t_dim0 {
                row[0] = v;
            }
        });
        let label = format!("R rows 3 and 10 at {value}");
        let Some(expected) = expected else {
            assert_eq!(
                r.try_view().unwrap_err(),
                Error::NonFiniteValue { row: 3, dim: 0 },
                "{label}"
            );
            continue;
        };
        let (r, t) = (r.view(), t.view());
        assert_eq!(oracle_smj(&r, &t, &maps).len(), expected, "{label}");
        assert_every_engine_equals_oracle(&label, &r, &t, &maps);
    }
}
