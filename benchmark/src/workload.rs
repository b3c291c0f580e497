//! The four workloads and the inputs a seed turns them into.
//!
//! A workload fixes input shape, engine configuration and load shape; the
//! seed only chooses the rows. The program under test receives nothing
//! but the generated inputs (a catalog, SQL text, push frames).

use progxe_core::ingest::SourceId;
use progxe_core::source::SourceData;
use progxe_core::ProgXeConfig;
use progxe_datagen::{ArrivalSpec, Distribution, Relation, SmjWorkload, WorkloadSpec};
use progxe_query::{Catalog, Engine, TableSchema};
use progxe_server::synthetic;
use progxe_server::{PushFrame, PushRow};
use std::time::Duration;

/// Seed used when `--seed` is not given (`0xC0FFEE`).
pub const DEFAULT_SEED: u64 = 12_648_430;

/// Rows per source of one subscription feed.
pub const FEED_ROWS: usize = 1_000;
/// Rows per `Push` frame; with [`FEED_ROWS`] that is 20 frames per source,
/// 40 per subscription.
pub const FEED_BATCH: usize = 50;
/// Seeds of a run's inputs are `SEED_STRIDE·seed + i`, so runs with
/// different seeds share no input (no workload rotates more inputs).
pub const SEED_STRIDE: u64 = 64;
/// Open-loop schedule inside a subscription: push `k` is due `k` gaps
/// after the `Subscribe` was sent.
pub const PUSH_GAP: Duration = Duration::from_millis(5);
/// The one subscription id a benchmark connection uses.
pub const SUB_ID: u64 = 1;

/// How a workload loads the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Closed loop of one-shot queries: each client sends its next `Query`
    /// when the previous `Done` arrived, on a persistent connection.
    OneShot,
    /// One subscription at a time on a fresh connection (closed loop
    /// across subscriptions); inside a subscription pushes are open loop.
    SubStream,
}

/// One fixed workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub load: Load,
    /// Rows per source.
    pub rows: usize,
    pub dims: usize,
    pub dist: Distribution,
    /// Join selectivity σ.
    pub sigma: f64,
    /// Engine threads (`> 1` routes region compute through `runtime::pool`).
    pub threads: usize,
    /// Client threads/connections generating load (≤ the 2 cores of the
    /// reference host).
    pub clients: usize,
    /// Unmeasured ops before the window opens.
    pub warmup_ops: usize,
    /// Inputs a run rotates its ops through: data sets for one-shot
    /// queries, feeds for `sub-stream`. One input's metrics follow its
    /// data (on `oneshot-commit-pooled` the first result takes 13 ms or
    /// 22 ms depending on which region ProgOrder can start with); pooling
    /// ops over many inputs is what keeps a run's percentiles steady from
    /// seed to seed. As many as the reference computation in set-up
    /// affords (0.6 s per input on `oneshot-join`).
    pub inputs: usize,
}

/// The benchmark's workloads, in `BENCHMARK.json` order. Why each exists
/// is recorded there and in `README.md`.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "oneshot-join",
        load: Load::OneShot,
        rows: 10_000,
        dims: 3,
        dist: Distribution::AntiCorrelated,
        sigma: 0.1,
        threads: 1,
        clients: 1,
        warmup_ops: 10,
        inputs: 8,
    },
    Workload {
        name: "oneshot-small",
        load: Load::OneShot,
        rows: 2_000,
        dims: 2,
        dist: Distribution::Independent,
        sigma: 0.01,
        threads: 1,
        clients: 2,
        warmup_ops: 200,
        inputs: 64,
    },
    Workload {
        name: "oneshot-commit-pooled",
        load: Load::OneShot,
        rows: 10_000,
        dims: 4,
        dist: Distribution::AntiCorrelated,
        sigma: 0.01,
        threads: 2,
        clients: 1,
        warmup_ops: 10,
        inputs: 32,
    },
    Workload {
        name: "sub-stream",
        load: Load::SubStream,
        rows: FEED_ROWS,
        dims: 3,
        dist: Distribution::Independent,
        sigma: 0.1,
        threads: 1,
        clients: 1,
        warmup_ops: 10,
        inputs: 32,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Grid sizes per output dimensionality — the values of
/// `bench::runners::default_config_for`, copied so this package depends
/// on product crates only.
pub fn engine_config(dims: usize, sigma: f64, threads: usize) -> ProgXeConfig {
    let (input_p, output_k) = match dims {
        0 | 1 => (8, 64),
        2 => (6, 48),
        3 => (3, 24),
        4 => (2, 12),
        _ => (2, 8),
    };
    ProgXeConfig::default()
        .with_input_partitions(input_p)
        .with_output_cells(output_k)
        .with_selectivity_hint(sigma)
        .with_threads(threads)
}

/// One subscription's arrival feed.
#[derive(Debug, Clone)]
pub struct Feed {
    /// The rows, in generator order.
    pub rows: SmjWorkload,
    /// `Push` frames: attribute-sorted batches of [`FEED_BATCH`] rows with
    /// the tightest sound watermark after each, R and T interleaved, each
    /// source closed on its last frame.
    pub frames: Vec<PushFrame>,
    /// Arrival position → generator row id, per source (R, T). The engine
    /// reports streamed rows by arrival position.
    pub arrival: [Vec<u32>; 2],
}

fn build_feed(rows: SmjWorkload) -> Feed {
    let spec = ArrivalSpec::attr_sorted(FEED_BATCH);
    let sources: [(SourceId, &Relation); 2] = [(SourceId::R, &rows.r), (SourceId::T, &rows.t)];
    let schedules = sources.map(|(_, rel)| spec.schedule(rel));
    let rounds = schedules.iter().map(|s| s.batches.len()).max().unwrap_or(0);
    let mut frames = Vec::new();
    for i in 0..rounds {
        for ((source, rel), sched) in sources.iter().zip(&schedules) {
            let Some(batch) = sched.batches.get(i) else {
                continue;
            };
            frames.push(PushFrame {
                sub_id: SUB_ID,
                source: *source,
                rows: batch
                    .rows
                    .iter()
                    .map(|&r| PushRow {
                        attrs: rel.attrs_of(r as usize).to_vec(),
                        key: rel.join_key_of(r as usize),
                    })
                    .collect(),
                watermark: batch.watermark.clone(),
                close: i + 1 == sched.batches.len(),
            });
        }
    }
    let arrival = schedules.map(|s| {
        s.batches
            .iter()
            .flat_map(|b| b.rows.iter().copied())
            .collect()
    });
    Feed {
        rows,
        frames,
        arrival,
    }
}

/// The first [`FEED_ROWS`] rows of each source as a workload of their own.
fn prefix(full: &SmjWorkload) -> SmjWorkload {
    let head = |rel: &Relation| {
        let mut out = Relation::with_capacity(rel.dims(), FEED_ROWS);
        for i in 0..rel.len().min(FEED_ROWS) {
            out.push(rel.attrs_of(i), rel.join_key_of(i));
        }
        out
    };
    let (r, t) = (head(&full.r), head(&full.t));
    let mut spec = full.spec.clone();
    spec.n_r = r.len();
    spec.n_t = t.len();
    SmjWorkload { spec, r, t }
}

/// Everything a run feeds the program, derived from `(workload, seed)`.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    /// Data sets one-shot queries run over; set `i` is registered as
    /// tables `R{i}` and `T{i}`. [`Workload::inputs`] of them for a one-shot
    /// workload; for `sub-stream` only the first feed's rows as a closed
    /// relation, so the one-shot layers can be traced on the same data.
    pub tables: Vec<SmjWorkload>,
    /// Subscription feeds. [`Workload::inputs`] of them for `sub-stream`; for a
    /// one-shot workload a single feed over the first [`FEED_ROWS`] rows
    /// of its first data set, so the ingest layers can be traced there.
    pub feeds: Vec<Feed>,
    pub config: ProgXeConfig,
}

impl Inputs {
    pub fn generate(workload: &Workload, seed: u64) -> Inputs {
        let spec = WorkloadSpec::new(workload.rows, workload.dims, workload.dist, workload.sigma);
        let first = seed.wrapping_mul(SEED_STRIDE);
        let rotation = (0..workload.inputs as u64)
            .map(|i| spec.clone().with_seed(first.wrapping_add(i)).generate());
        let (tables, feeds) = match workload.load {
            Load::OneShot => {
                let tables: Vec<SmjWorkload> = rotation.collect();
                let feeds = vec![build_feed(prefix(&tables[0]))];
                (tables, feeds)
            }
            Load::SubStream => {
                let feeds: Vec<Feed> = rotation.map(build_feed).collect();
                (vec![feeds[0].rows.clone()], feeds)
            }
        };
        Inputs {
            workload: *workload,
            tables,
            feeds,
            config: engine_config(workload.dims, workload.sigma, workload.threads),
        }
    }

    /// The catalog a server of this workload is started over.
    pub fn catalog(&self) -> Catalog {
        catalog(&self.tables)
    }

    /// The query over data set `set`: `synthetic::query_sql` (join on `k`,
    /// prefer every pairwise sum lowest) reading `R{set}` and `T{set}`.
    /// Subscriptions stream into the registrations of set 0.
    pub fn sql(&self, set: usize) -> String {
        synthetic::query_sql(self.workload.dims)
            .replace("FROM R R, T T", &format!("FROM R{set} R, T{set} T"))
    }

    /// The engine every server and in-process run of this workload uses.
    /// Built explicitly so `PROGXE_THREADS` in the environment cannot
    /// change what is measured.
    pub fn engine(&self) -> Engine {
        Engine::progxe_with(self.config.clone())
    }
}

/// A catalog holding data set `i` as materialized tables `R{i}`/`T{i}`
/// (for one-shot queries), with set 0 also streaming-registered over the
/// generator's value range (for subscriptions).
pub fn catalog(tables: &[SmjWorkload]) -> Catalog {
    let mut cat = Catalog::new();
    for (i, set) in tables.iter().enumerate() {
        let dims = set.spec.dims;
        let columns: Vec<String> = (0..dims).map(|d| format!("a{d}")).collect();
        let (lo, hi) = set.spec.value_range;
        for (side, rel) in [("R", &set.r), ("T", &set.t)] {
            let rows: Vec<(&[f64], u32)> = (0..rel.len())
                .map(|i| (rel.attrs_of(i), rel.join_key_of(i)))
                .collect();
            let schema = TableSchema::new(format!("{side}{i}"), columns.clone(), "k");
            if i == 0 {
                cat.register_streaming(schema.clone(), vec![lo; dims], vec![hi; dims]);
            }
            cat.register(schema, SourceData::from_rows(dims, &rows));
        }
    }
    cat
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workload {
        Workload {
            rows: 300,
            inputs: 3,
            ..WORKLOADS[1]
        }
    }

    #[test]
    fn same_seed_same_inputs_and_another_seed_differs() {
        for workload in [small(), WORKLOADS[3]] {
            let a = Inputs::generate(&workload, 7);
            let b = Inputs::generate(&workload, 7);
            let c = Inputs::generate(&workload, 8);
            assert_eq!(a.tables.len(), b.tables.len());
            for (ta, tb) in a.tables.iter().zip(&b.tables) {
                assert_eq!(ta.r.attrs.raw(), tb.r.attrs.raw());
                assert_eq!(ta.t.join_keys, tb.t.join_keys);
            }
            assert_ne!(a.tables[0].r.attrs.raw(), c.tables[0].r.attrs.raw());
            assert_eq!(a.feeds.len(), b.feeds.len());
            for (fa, fb) in a.feeds.iter().zip(&b.feeds) {
                assert_eq!(fa.frames, fb.frames);
            }
            assert_ne!(a.feeds[0].frames, c.feeds[0].frames);
        }
    }

    #[test]
    fn a_feed_is_forty_interleaved_frames_covering_every_row_once() {
        let inputs = Inputs::generate(&WORKLOADS[3], DEFAULT_SEED);
        assert_eq!(inputs.feeds.len(), 32);
        assert_eq!(inputs.tables.len(), 1);
        for feed in &inputs.feeds {
            assert_eq!(feed.frames.len(), 2 * FEED_ROWS / FEED_BATCH);
            for (i, frame) in feed.frames.iter().enumerate() {
                let expect = if i % 2 == 0 { SourceId::R } else { SourceId::T };
                assert_eq!(frame.source, expect);
                assert_eq!(frame.rows.len(), FEED_BATCH);
                assert_eq!(frame.close, i + 2 >= feed.frames.len());
                assert_eq!(frame.watermark.is_some(), !frame.close);
            }
            for arrival in &feed.arrival {
                let mut seen = arrival.clone();
                seen.sort_unstable();
                assert_eq!(seen, (0..FEED_ROWS as u32).collect::<Vec<_>>());
            }
        }
        // Feeds of one run differ from each other.
        assert_ne!(inputs.feeds[0].frames, inputs.feeds[1].frames);
    }

    #[test]
    fn a_one_shot_workload_rotates_data_sets_and_carries_one_feed() {
        let inputs = Inputs::generate(&WORKLOADS[1], 3);
        assert_eq!(inputs.tables.len(), 64);
        assert!(WORKLOADS.iter().all(|w| w.inputs as u64 <= SEED_STRIDE));
        assert_ne!(
            inputs.tables[0].r.attrs.raw(),
            inputs.tables[1].r.attrs.raw()
        );
        assert_eq!(inputs.tables[7].r.len(), 2_000);
        assert_eq!(inputs.feeds.len(), 1);
        let feed = &inputs.feeds[0];
        assert_eq!(feed.rows.r.len(), FEED_ROWS);
        assert_eq!(feed.rows.r.attrs_of(5), inputs.tables[0].r.attrs_of(5));
        assert!(
            inputs.sql(3).contains("FROM R3 R, T3 T WHERE R.k = T.k"),
            "{}",
            inputs.sql(3)
        );
        let cat = inputs.catalog();
        assert!(
            cat.table("R63").is_some() && cat.table("T0").is_some() && cat.table("R64").is_none()
        );
        assert!(cat.streaming("R0").is_some() && cat.streaming("R1").is_none());
    }

    #[test]
    fn grid_sizes_match_the_figures_harness() {
        let c = engine_config(3, 0.1, 1);
        assert_eq!(
            (c.input_partitions_per_dim, c.output_cells_per_dim),
            (3, 24)
        );
        let c = engine_config(4, 0.01, 2);
        assert_eq!(
            (c.input_partitions_per_dim, c.output_cells_per_dim),
            (2, 12)
        );
        assert_eq!(c.threads.get(), 2);
        assert_eq!(c.selectivity_hint, Some(0.01));
    }
}
