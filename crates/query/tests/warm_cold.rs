//! Catalog queries take their input grid's row cut from the table's
//! registration ([`BoundTable::cuts`]): the first query over a table cuts
//! it, every later one only signs the cut with its join keys. The contract
//! under test: that changes nothing a client sees. Every session through
//! [`QueryRunner::session`] — cold or warm, alternating grid
//! configurations, after a table is replaced, with a filtered side or
//! push-through, or racing another thread to the first cut — emits the
//! event stream (ids, value bits, batch boundaries, progress) of the same
//! query opened on the planned sources directly, without a memo, on the
//! Inline and the Pooled backend.
//!
//! [`BoundTable::cuts`]: progxe_query::catalog::BoundTable::cuts

use progxe_core::config::ProgXeConfig;
use progxe_core::session::QuerySession;
use progxe_core::source::SourceData;
use progxe_datagen::{Distribution, WorkloadSpec};
use progxe_query::{Catalog, Engine, PlannedQuery, QueryRunner, TableSchema};
use std::sync::Arc;

/// One event: `(r, t, value bits)` per tuple, `proven_final`, the progress
/// estimate's bits.
type Event = (Vec<(u32, u32, Vec<u64>)>, bool, u64);

fn drain(mut session: QuerySession<'_>) -> Vec<Event> {
    let mut events = Vec::new();
    while let Some(e) = session.next_batch() {
        let tuples = e.tuples.iter().map(|x| {
            let bits = x.values.iter().map(|v| v.to_bits()).collect();
            (x.r_idx, x.t_idx, bits)
        });
        events.push((
            tuples.collect(),
            e.proven_final,
            e.progress_estimate.to_bits(),
        ));
    }
    assert!(!session.finish().cancelled);
    events
}

/// The query opened on the planned sources' own views: no memo.
fn memo_less(planned: &PlannedQuery, engine: &Engine) -> Vec<Event> {
    let (r, t) = (planned.r.view(), planned.t.view());
    let session = engine
        .build()
        .open(&r, &t, &planned.maps)
        .unwrap()
        .with_id_translation(planned.r_rows.clone(), planned.t_rows.clone());
    drain(session)
}

fn through_runner(runner: &QueryRunner, planned: &PlannedQuery, engine: &Engine) -> Vec<Event> {
    drain(runner.session(planned, engine).unwrap())
}

fn register(cat: &mut Catalog, rows: usize, dims: usize, seed: u64) {
    let w = WorkloadSpec::new(rows, dims, Distribution::AntiCorrelated, 0.1)
        .with_seed(seed)
        .generate();
    let columns: Vec<String> = (0..dims).map(|d| format!("a{d}")).collect();
    for (name, rel) in [("R", &w.r), ("T", &w.t)] {
        let rows: Vec<(&[f64], u32)> = (0..rel.len())
            .map(|i| (rel.attrs_of(i), rel.join_key_of(i)))
            .collect();
        cat.register(
            TableSchema::new(name, columns.clone(), "k"),
            SourceData::from_rows(dims, &rows),
        );
    }
}

fn catalog(rows: usize, dims: usize, seed: u64) -> Catalog {
    let mut cat = Catalog::new();
    register(&mut cat, rows, dims, seed);
    cat
}

fn sql(dims: usize, filter: &str) -> String {
    let selects: Vec<String> = (0..dims)
        .map(|d| format!("(R.a{d} + T.a{d}) AS c{d}"))
        .collect();
    let prefs: Vec<String> = (0..dims).map(|d| format!("LOWEST(c{d})")).collect();
    format!(
        "SELECT R.id, T.id, {} FROM R R, T T WHERE R.k = T.k{filter} PREFERRING {}",
        selects.join(", "),
        prefs.join(" AND ")
    )
}

fn engine(per_dim: usize, threads: usize) -> Engine {
    Engine::progxe_with(
        ProgXeConfig::default()
            .with_input_partitions(per_dim)
            .with_output_cells(16)
            .with_threads(threads),
    )
}

/// Bytes the two tables' memos hold.
fn memo_bytes(runner: &QueryRunner) -> [usize; 2] {
    ["R", "T"].map(|name| runner.catalog().table(name).unwrap().cuts().heap_bytes())
}

#[test]
fn a_warm_query_emits_the_cold_stream() {
    for (dims, threads) in [(2, 1), (3, 1), (3, 2)] {
        let runner = QueryRunner::new(catalog(900, dims, 41 + dims as u64));
        let planned = runner.prepare(&sql(dims, "")).unwrap();
        let engine = engine(3, threads);
        let want = memo_less(&planned, &engine);
        assert!(want.len() > 1, "d = {dims}: a progressive stream");
        assert_eq!(memo_bytes(&runner), [0, 0], "registration leaves it empty");
        let cold = through_runner(&runner, &planned, &engine);
        let filled = memo_bytes(&runner);
        assert!(filled.iter().all(|&b| b >= 4 * 900), "{filled:?}");
        let warm = through_runner(&runner, &planned, &engine);
        assert_eq!(cold, want, "d = {dims}, threads {threads}: cold");
        assert_eq!(warm, want, "d = {dims}, threads {threads}: warm");
        // A query planned anew finds the same cut; nothing more is kept.
        let replanned = runner.prepare(&sql(dims, "")).unwrap();
        assert_eq!(through_runner(&runner, &replanned, &engine), want);
        assert_eq!(memo_bytes(&runner), filled);
    }
}

#[test]
fn engines_of_other_grids_share_one_catalog() {
    let runner = QueryRunner::new(catalog(800, 3, 7));
    let planned = runner.prepare(&sql(3, "")).unwrap();
    let engines = [engine(2, 1), engine(4, 2), engine(3, 1)];
    let want: Vec<_> = engines.iter().map(|e| memo_less(&planned, e)).collect();
    assert_ne!(want[0], want[1], "the grids must differ to show anything");
    let mut kept = Vec::new();
    for round in 0..2 {
        for (engine, want) in engines.iter().zip(&want) {
            let got = through_runner(&runner, &planned, engine);
            assert_eq!(&got, want, "round {round}, {:?}", engine_grid(engine));
            kept.push(memo_bytes(&runner));
        }
    }
    // One cut per slice count: the second round adds nothing.
    assert!(kept[0] < kept[1] && kept[1] < kept[2], "{kept:?}");
    assert_eq!(kept[2], kept[5], "{kept:?}");
}

fn engine_grid(engine: &Engine) -> usize {
    match engine {
        Engine::ProgXe(p) => p.config().input_partitions_per_dim,
        _ => unreachable!(),
    }
}

/// Registering a table under the same name replaces its memo with an empty
/// one; a catalog clone keeps sharing the memo of a table it did not
/// replace. The new rows are as many as the old, so a stale cut would not
/// be caught by its row count.
#[test]
fn a_re_registered_table_drops_its_memo() {
    for threads in [1, 2] {
        let engine = engine(3, threads);
        let runner = QueryRunner::new(catalog(700, 3, 11));
        let planned = runner.prepare(&sql(3, "")).unwrap();
        assert_eq!(
            through_runner(&runner, &planned, &engine),
            memo_less(&planned, &engine)
        );
        let [r_bytes, t_bytes] = memo_bytes(&runner);
        let mut cat = runner.catalog().clone();
        let fresh = catalog(700, 3, 12);
        let r_table = fresh.table("R").unwrap();
        let data = (*r_table.data).clone();
        assert_ne!(data.attrs, runner.catalog().table("R").unwrap().data.attrs);
        cat.register(r_table.schema.clone(), data);
        let replaced = QueryRunner::new(cat);
        assert_eq!(memo_bytes(&replaced), [0, t_bytes]);
        for _ in 0..2 {
            let planned = replaced.prepare(&sql(3, "")).unwrap();
            assert_eq!(
                through_runner(&replaced, &planned, &engine),
                memo_less(&planned, &engine),
                "threads {threads}"
            );
        }
        assert_eq!(memo_bytes(&replaced)[1], t_bytes);
        assert!(memo_bytes(&replaced)[0] > 0);
        // The old runner's memo still describes the old rows.
        assert_eq!(memo_bytes(&runner), [r_bytes, t_bytes]);
        assert_eq!(
            through_runner(&runner, &planned, &engine),
            memo_less(&planned, &engine)
        );
    }
}

/// A side the WHERE clause filters is a copy of some rows, and ProgXe+
/// keeps only push-through's survivors: neither reads the table's memo,
/// and neither fills it.
#[test]
fn filtered_and_push_through_sides_bypass_the_memo() {
    for threads in [1, 2] {
        let runner = QueryRunner::new(catalog(900, 3, 23));
        let filtered = runner.prepare(&sql(3, " AND R.a0 <= 60")).unwrap();
        assert!(filtered.r_rows.is_some());
        let engine = engine(3, threads);
        for _ in 0..2 {
            assert_eq!(
                through_runner(&runner, &filtered, &engine),
                memo_less(&filtered, &engine)
            );
        }
        let [r_bytes, t_bytes] = memo_bytes(&runner);
        assert_eq!(r_bytes, 0, "the filtered side cut its copy");
        assert!(t_bytes > 0, "the plain side filled its memo");

        let runner = QueryRunner::new(catalog(900, 3, 23));
        let planned = runner.prepare(&sql(3, "")).unwrap();
        let plus = Engine::progxe_with(
            ProgXeConfig::default()
                .with_input_partitions(3)
                .with_output_cells(16)
                .with_threads(threads)
                .with_push_through(true),
        );
        let session = runner.session(&planned, &plus).unwrap();
        let want = memo_less(&planned, &plus);
        let got = drain(session);
        assert_eq!(got, want);
        let stats = runner.session(&planned, &plus).unwrap().collect().stats;
        assert!(!stats.push_through_skipped);
        assert!(stats.push_through_pruned_r + stats.push_through_pruned_t > 0);
        assert_eq!(memo_bytes(&runner), [0, 0], "push-through survivors");
        // The plain engine over the same plan still fills it.
        assert_eq!(
            through_runner(&runner, &planned, &engine),
            memo_less(&planned, &engine)
        );
        assert!(memo_bytes(&runner).iter().all(|&b| b > 0));
    }
}

/// Two threads race the first query over a cold catalog: both may cut,
/// one cut is kept, and both streams are the memo-less one — as is every
/// query after.
#[test]
fn threads_racing_the_first_query_agree() {
    for threads in [1, 2] {
        let runner = Arc::new(QueryRunner::new(catalog(900, 3, 31)));
        let planned = Arc::new(runner.prepare(&sql(3, "")).unwrap());
        let engine = engine(3, threads);
        let want = memo_less(&planned, &engine);
        let barrier = std::sync::Barrier::new(2);
        let got: Vec<Vec<Event>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        through_runner(&runner, &planned, &engine)
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, got) in got.iter().enumerate() {
            assert_eq!(got, &want, "racer {i}, threads {threads}");
        }
        let kept = memo_bytes(&runner);
        assert_eq!(through_runner(&runner, &planned, &engine), want);
        assert_eq!(memo_bytes(&runner), kept, "one cut per slice count kept");
    }
}
