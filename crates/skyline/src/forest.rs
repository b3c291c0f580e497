//! A dominance index over a growing set of rows: "does any row strictly
//! dominate `q`?" without scanning every row.
//!
//! [`DominanceForest`] holds its rows (all-lowest kernel space, no NaN) in
//! immutable *runs*, each built once and never changed. A run cuts its rows
//! at the median of their widest dimension, recursively, into leaves of at
//! most 32 rows (four kernel chunks) and keeps each leaf's bounding box
//! `lo`/`hi`. Rows are keyed by SFS's presort key (`sfs::sum_key`), which
//! never decreases along weak dominance: a row keyed above `q` cannot
//! dominate it. Each leaf holds its rows in key order, and the leaves are
//! ordered by their least key, so a query walks a run's leaves up to the
//! last one whose least key is `≤` the query's, and per leaf:
//!
//! * skips it when `lo ⪯ q` fails (no row of the box can dominate `q`);
//! * answers yes when `hi` dominates `q` (then every row of the box does);
//! * otherwise scans the leaf's rows with the batched kernel.
//!
//! Rows arrive in batches ([`DominanceForest::publish`]). Emptiness of a
//! lower orthant is a decomposable query, so the forest uses the
//! logarithmic method (Bentley and Saxe, "Decomposable searching problems",
//! 1980): a batch becomes a new run, merged with the trailing runs while
//! the last of them holds at most twice the rows gathered so far. Each run
//! then holds more than twice the rows of the next, so a forest of `n` rows
//! has `O(log n)` runs and a row is rebuilt `O(log n)` times. Runs sit
//! behind `Arc`s: a clone costs one pointer copy per run and never changes
//! when the original publishes.
//!
//! The leaves are a flat list, not the levels of a tree: on the d = 3 join
//! shape, with a few hundred rows in reach of a query, a kd descent over
//! the same runs measured slower than this walk.

use crate::kernel::{any_dominates_spec, dims_dispatch, row_dominates_spec, CHUNK};
use crate::sfs::{sum_key, SumKey};
use std::sync::Arc;

/// Most rows in one leaf: four kernel chunks.
const LEAF_ROWS: usize = 4 * CHUNK;

/// The dominance index over a growing row set (see the [module
/// docs](self)). Cloning is cheap and the clone is a snapshot: rows
/// published later are not in it.
#[derive(Debug, Clone, Default)]
pub struct DominanceForest {
    dims: usize,
    len: usize,
    runs: Vec<Arc<Run>>,
}

/// One immutable run: its leaves in ascending key order.
#[derive(Debug)]
struct Run {
    /// The leaves' rows, leaf after leaf, `dims` values per row.
    rows: Vec<f64>,
    /// Per leaf, `lo` then `hi`: `2 · dims` values.
    boxes: Vec<f64>,
    /// Per leaf, the least `sum_key` of its rows, ascending.
    keys: Vec<SumKey>,
    /// Leaf `i` holds rows `starts[i]..starts[i + 1]`.
    starts: Vec<u32>,
}

impl DominanceForest {
    /// An empty forest over rows of `dims` values.
    pub fn new(dims: usize) -> Self {
        Self {
            dims,
            ..Self::default()
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no row was published.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every row, run after run (no particular order inside a run).
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        let dims = self.dims.max(1);
        self.runs
            .iter()
            .flat_map(move |run| run.rows.chunks_exact(dims))
    }

    /// Adds `fresh` (flat, `dims` values per row, no NaN) as a new run,
    /// merged with the trailing runs while the last holds at most twice the
    /// rows gathered so far. Clones taken before keep their runs.
    pub fn publish(&mut self, fresh: &[f64]) {
        if fresh.is_empty() {
            return;
        }
        let dims = self.dims;
        assert!(
            dims > 0 && fresh.len().is_multiple_of(dims),
            "rows of {dims} values"
        );
        debug_assert!(fresh.iter().all(|v| !v.is_nan()), "NaN row published");
        let mut rows = fresh.to_vec();
        while let Some(last) = self.runs.last() {
            if last.rows.len() > 2 * rows.len() {
                break;
            }
            rows.extend_from_slice(&last.rows);
            self.runs.pop();
        }
        self.len += fresh.len() / dims;
        self.runs.push(Arc::new(Run::build(dims, rows)));
    }

    /// Whether some row strictly dominates `q`: `find_dominator(q, work)`
    /// answered `Some`.
    #[inline]
    pub fn any_dominates(&self, q: &[f64], work: &mut u64) -> bool {
        self.find_dominator(q, work).is_some()
    }

    /// A row that strictly dominates `q` (no coordinate greater, one less;
    /// a NaN in `q` ties every row there, as in the kernels), or `None`
    /// when no row does — exactly when `kernel::any_dominates` over every
    /// row answers no. `work` advances by one per leaf box tested plus the
    /// row tests the kernel charges.
    pub fn find_dominator(&self, q: &[f64], work: &mut u64) -> Option<&[f64]> {
        if self.runs.is_empty() {
            return None;
        }
        debug_assert_eq!(q.len(), self.dims);
        // A NaN coordinate has no place in the key order: walk every leaf.
        let key = (!q.iter().any(|v| v.is_nan())).then(|| sum_key(q));
        dims_dispatch!(self.dims, query_spec(self, q, key, work))
    }
}

fn query_spec<'f, const D: usize>(
    forest: &'f DominanceForest,
    q: &[f64],
    key: Option<SumKey>,
    work: &mut u64,
) -> Option<&'f [f64]> {
    let d = if D == 0 { forest.dims } else { D };
    forest.runs.iter().find_map(|run| {
        let reach = key.map_or(run.keys.len(), |key| {
            run.keys.partition_point(|leaf| *leaf <= key)
        });
        for (leaf, corners) in run.boxes.chunks_exact(2 * d).take(reach).enumerate() {
            *work += 1;
            let (lo, hi) = corners.split_at(d);
            let mut outside = false;
            for j in 0..d {
                outside |= lo[j] > q[j];
            }
            if outside {
                continue;
            }
            let rows = &run.rows[run.starts[leaf] as usize * d..run.starts[leaf + 1] as usize * d];
            // Every row is `⪯ hi`, so when `hi` dominates `q` each one does.
            if row_dominates_spec::<D>(hi, q) {
                return Some(&rows[..d]);
            }
            // Block by block, so a hit is looked up among `CHUNK` rows.
            for block in rows.chunks(CHUNK * d) {
                if any_dominates_spec::<D>(d, block, q, work) {
                    return block
                        .chunks_exact(d)
                        .find(|row| row_dominates_spec::<D>(row, q));
                }
            }
        }
        None
    })
}

impl Run {
    /// Cuts `rows` into leaves and lays them out in key order.
    fn build(dims: usize, rows: Vec<f64>) -> Self {
        let row = |i: u32| &rows[i as usize * dims..(i as usize + 1) * dims];
        let n = rows.len() / dims;
        let keys: Vec<SumKey> = (0..n as u32).map(|i| sum_key(row(i))).collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut leaves = Vec::new();
        cut(dims, &rows, &mut order, 0, &mut leaves);
        // Each leaf's rows by key, and the leaves by their least key.
        for &(start, end) in &leaves {
            order[start..end].sort_by_key(|&i| keys[i as usize]);
        }
        leaves.sort_by_key(|&(start, _)| keys[order[start] as usize]);
        let mut run = Run {
            rows: Vec::with_capacity(rows.len()),
            boxes: Vec::with_capacity(leaves.len() * 2 * dims),
            keys: Vec::with_capacity(leaves.len()),
            starts: Vec::with_capacity(leaves.len() + 1),
        };
        run.starts.push(0);
        for (start, end) in leaves {
            let members = &order[start..end];
            run.keys.push(keys[members[0] as usize]);
            run.boxes
                .extend(bounding_box(dims, members.iter().map(|&i| row(i))));
            for &i in members {
                run.rows.extend_from_slice(row(i));
            }
            run.starts.push((run.rows.len() / dims) as u32);
        }
        run
    }
}

/// Splits `order` (row indices, at `offset` in the run's order) at the
/// median of its widest dimension until each part holds at most
/// [`LEAF_ROWS`] rows; appends every leaf's `(start, end)`.
fn cut(
    dims: usize,
    rows: &[f64],
    order: &mut [u32],
    offset: usize,
    leaves: &mut Vec<(usize, usize)>,
) {
    if order.len() <= LEAF_ROWS {
        leaves.push((offset, offset + order.len()));
        return;
    }
    let value = |i: u32, j: usize| rows[i as usize * dims + j];
    let corners = bounding_box(
        dims,
        order.iter().map(|&i| &rows[i as usize * dims..][..dims]),
    );
    let (lo, hi) = corners.split_at(dims);
    // `hi > lo` keeps an all-infinite dimension at width 0 (∞ − ∞ is NaN).
    let width = |j: usize| if hi[j] > lo[j] { hi[j] - lo[j] } else { 0.0 };
    let widest = (1..dims).fold(0, |w, j| if width(j) > width(w) { j } else { w });
    let mid = order.len() / 2;
    order.select_nth_unstable_by(mid, |&a, &b| value(a, widest).total_cmp(&value(b, widest)));
    let (left, right) = order.split_at_mut(mid);
    cut(dims, rows, left, offset, leaves);
    cut(dims, rows, right, offset + mid, leaves);
}

/// `lo` then `hi` of non-empty, NaN-free rows.
fn bounding_box<'a>(dims: usize, mut rows: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let first = rows.next().expect("a non-empty leaf");
    let mut corners = [first, first].concat();
    for r in rows {
        for j in 0..dims {
            corners[j] = corners[j].min(r[j]);
            corners[dims + j] = corners[dims + j].max(r[j]);
        }
    }
    corners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel;

    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |n| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        }
    }

    /// The forest against a linear scan of every published row, `d = 1..=8`,
    /// over random publish sequences — empty and single-row batches among
    /// them — along the value axis: duplicates and ties, both zeros, both
    /// infinities, integers above 2^53 whose sums round to ties and
    /// ±`f64::MAX` whose sums overflow. Queries are drawn from the same
    /// values, copied from published rows, or put on a leaf box's face
    /// (one coordinate of a copied row set to a random leaf's `lo` or `hi`
    /// there), and a few carry a NaN. `find_dominator` finds a row exactly
    /// when the scan says yes, and the row is a published one that strictly
    /// dominates the query.
    #[test]
    fn answers_like_a_linear_scan() {
        let big = 2f64.powi(53);
        let values = [
            0.0,
            -0.0,
            1.0,
            2.0,
            2.5,
            big,
            big + 2.0,
            big + 4.0,
            1e308,
            -1e308,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut next = rng(0xF0_2E57);
        let (mut yes, mut no, mut on_face, mut max_runs) = (0, 0, 0, 0);
        for case in 0..240 {
            let dims = 1 + case % 8;
            // Narrow value sets make ties and duplicates; wide ones make
            // the trade-offs that keep rows incomparable.
            let palette = 2 + next(values.len() as u64 - 1) as usize;
            let draw = |next: &mut dyn FnMut(u64) -> u64| -> Vec<f64> {
                (0..dims)
                    .map(|_| values[next(palette as u64) as usize])
                    .collect()
            };
            let mut forest = DominanceForest::new(dims);
            let mut all: Vec<f64> = Vec::new();
            for _ in 0..1 + next(24) {
                let batch: Vec<f64> = match next(6) {
                    0 => Vec::new(),
                    1 => draw(&mut next),
                    _ => (0..next(90)).flat_map(|_| draw(&mut next)).collect(),
                };
                forest.publish(&batch);
                all.extend_from_slice(&batch);
                assert_eq!(forest.len(), all.len() / dims);
                max_runs = max_runs.max(forest.runs.len());
                let bound = 2 + (forest.len().max(1) as f64).log2() as usize;
                assert!(forest.runs.len() <= bound, "{} runs", forest.runs.len());

                for _ in 0..12 {
                    let mut q = draw(&mut next);
                    if !all.is_empty() && next(2) == 0 {
                        let at = next((all.len() / dims) as u64) as usize * dims;
                        q.copy_from_slice(&all[at..at + dims]);
                        if next(2) == 0 {
                            let (run, leaf) = face_of(&forest, &mut next);
                            let j = next(dims as u64) as usize;
                            q[j] = run.boxes[leaf * 2 * dims + (next(2) as usize) * dims + j];
                            on_face += 1;
                        }
                    }
                    if next(16) == 0 {
                        q[next(dims as u64) as usize] = f64::NAN;
                    }
                    let (mut linear, mut work) = (0, 0);
                    let expected = kernel::any_dominates(dims, &all, &q, &mut linear);
                    let label = format!("case {case}: q {q:?} over {all:?}");
                    assert_eq!(forest.any_dominates(&q, &mut work), expected, "{label}");
                    let found = forest.find_dominator(&q, &mut work);
                    assert_eq!(found.is_some(), expected, "{label}");
                    if let Some(row) = found {
                        assert!(kernel::dominates_scalar(row, &q), "{label}: {row:?}");
                        let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert!(
                            all.chunks_exact(dims).any(|r| bits(r) == bits(row)),
                            "{label}: {row:?} was never published"
                        );
                    }
                    if expected {
                        yes += 1;
                    } else {
                        no += 1;
                    }
                }
            }
        }
        assert!(yes > 500 && no > 500, "{yes} dominated, {no} not");
        assert!(
            on_face > 200 && max_runs >= 3,
            "{on_face} face queries, {max_runs} runs"
        );
        // A NaN ties every row there, so a row keyed above the query by an
        // infinity in that coordinate still dominates it: no key cut.
        let mut forest = DominanceForest::new(2);
        forest.publish(&[f64::INFINITY, 3.0]);
        assert!(forest.any_dominates(&[f64::NAN, 5.0], &mut 0));
    }

    /// A random leaf of a random run.
    fn face_of<'a>(
        forest: &'a DominanceForest,
        next: &mut impl FnMut(u64) -> u64,
    ) -> (&'a Run, usize) {
        let run = &forest.runs[next(forest.runs.len() as u64) as usize];
        (run, next(run.keys.len() as u64) as usize)
    }

    /// A clone taken before a publish is a snapshot: it keeps answering as
    /// it did, and the original sees the new rows.
    #[test]
    fn a_clone_answers_as_it_did_before_later_publishes() {
        let mut next = rng(0x5A9);
        let mut forest = DominanceForest::new(3);
        let mut draw = || -> Vec<f64> { (0..3).map(|_| next(50) as f64).collect() };
        let queries: Vec<Vec<f64>> = (0..200).map(|_| draw()).collect();
        let mut held: Vec<(DominanceForest, Vec<bool>)> = Vec::new();
        let mut work = 0;
        for _ in 0..40 {
            let batch: Vec<f64> = (0..7).flat_map(|_| draw()).collect();
            let snapshot = forest.clone();
            let answers = queries
                .iter()
                .map(|q| snapshot.any_dominates(q, &mut work))
                .collect();
            held.push((snapshot, answers));
            forest.publish(&batch);
            for (snapshot, answers) in &held {
                for (q, &answer) in queries.iter().zip(answers) {
                    assert_eq!(snapshot.any_dominates(q, &mut work), answer);
                }
            }
        }
        let (first, last) = (&held[1].0, &held[held.len() - 1].0);
        assert!(last.len() < forest.len());
        let dominated = |f: &DominanceForest| {
            queries
                .iter()
                .filter(|q| f.any_dominates(q, &mut 0))
                .count()
        };
        assert!(
            dominated(&forest) > dominated(first),
            "later rows dominate more"
        );
    }

    /// Leaves hold at most `LEAF_ROWS` rows, every row once, inside its
    /// leaf's box and in key order; a leaf's key is its first row's, and
    /// the leaf keys ascend.
    #[test]
    fn runs_are_box_sorted_leaves() {
        let mut next = rng(0x1EAF);
        let dims = 4;
        let rows: Vec<f64> = (0..1_000 * dims)
            .map(|_| next(1_000) as f64 / 8.0)
            .collect();
        let run = Run::build(dims, rows.clone());
        assert!(run.keys.windows(2).all(|w| w[0] <= w[1]));
        for (leaf, corners) in run.boxes.chunks_exact(2 * dims).enumerate() {
            let members =
                &run.rows[run.starts[leaf] as usize * dims..run.starts[leaf + 1] as usize * dims];
            assert!(!members.is_empty() && members.len() <= LEAF_ROWS * dims);
            for r in members.chunks_exact(dims) {
                assert!((0..dims).all(|j| corners[j] <= r[j] && r[j] <= corners[dims + j]));
            }
            let keys: Vec<SumKey> = members.chunks_exact(dims).map(sum_key).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(keys[0], run.keys[leaf]);
        }
        let sorted = |v: &[f64]| {
            let mut bits: Vec<Vec<u64>> = v
                .chunks_exact(dims)
                .map(|r| r.iter().map(|x| x.to_bits()).collect())
                .collect();
            bits.sort();
            bits
        };
        assert_eq!(sorted(&run.rows), sorted(&rows));
    }
}
