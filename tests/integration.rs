//! Cross-crate integration tests: generated workloads → every engine →
//! oracle equivalence, progressive soundness, determinism.

use progxe::baselines::{jfsl, jfsl_plus, oracle_smj, ssmj, SkyAlgo};
use progxe::core::prelude::*;
use progxe::datagen::{Distribution, WorkloadSpec};

fn views(w: &progxe::datagen::SmjWorkload) -> (SourceView<'_>, SourceView<'_>) {
    (
        SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap(),
        SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap(),
    )
}

fn ids(results: &[ResultTuple]) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
    v.sort_unstable();
    v
}

#[test]
fn progxe_matches_oracle_on_all_distributions() {
    for dist in Distribution::ALL {
        for dims in [2usize, 3, 4] {
            let w = WorkloadSpec::new(250, dims, dist, 0.05)
                .with_seed(41 + dims as u64)
                .generate();
            let (r, t) = views(&w);
            let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
            let expected = ids(&oracle_smj(&r, &t, &maps));
            let out = ProgXe::new(ProgXeConfig::default())
                .run_collect(&r, &t, &maps)
                .unwrap();
            assert_eq!(
                ids(&out.results),
                expected,
                "{} d={dims} diverged from oracle",
                dist.name()
            );
        }
    }
}

#[test]
fn all_baselines_match_oracle() {
    let w = WorkloadSpec::new(300, 3, Distribution::Independent, 0.02)
        .with_seed(7)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
    let expected = ids(&oracle_smj(&r, &t, &maps));

    let mut sink = CollectSink::default();
    jfsl(&r, &t, &maps, SkyAlgo::Bnl, &mut sink);
    assert_eq!(ids(&sink.results), expected, "JF-SL");

    let mut sink = CollectSink::default();
    jfsl_plus(&r, &t, &maps, SkyAlgo::Sfs, &mut sink);
    assert_eq!(ids(&sink.results), expected, "JF-SL+");

    // SSMJ's emitted union ⊇ oracle; surplus = batch-1 false positives.
    let mut sink = CollectSink::default();
    let stats = ssmj(&r, &t, &maps, SkyAlgo::Sfs, &mut sink);
    let emitted = ids(&sink.results);
    for id in &expected {
        assert!(emitted.contains(id), "SSMJ missing {id:?}");
    }
    assert_eq!(
        emitted.len(),
        expected.len() + stats.batch1_false_positives as usize
    );
}

/// Progressive soundness: every ProgXe batch must contain only tuples of
/// the *final* skyline (no false positives at any point in time), and the
/// union of batches must be the complete skyline (no false negatives).
#[test]
fn progressive_output_is_sound_and_complete() {
    for dist in Distribution::ALL {
        let w = WorkloadSpec::new(400, 3, dist, 0.03)
            .with_seed(99)
            .generate();
        let (r, t) = views(&w);
        let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
        let expected = ids(&oracle_smj(&r, &t, &maps));
        let mut session = ProgXe::new(ProgXeConfig::default())
            .session(&r, &t, &maps)
            .unwrap();
        let (mut results, mut cumulative) = (Vec::new(), Vec::new());
        while let Some(event) = session.next_batch() {
            results.extend(event.tuples);
            cumulative.push(results.len());
        }
        // Soundness + completeness: emitted set == oracle set.
        assert_eq!(ids(&results), expected, "{}", dist.name());
        // Monotone, strictly growing cumulative counts.
        let mut prev = 0;
        for &count in &cumulative {
            assert!(count > prev, "batch must add results");
            prev = count;
        }
        assert_eq!(prev, expected.len());
    }
}

#[test]
fn deterministic_across_runs() {
    let w = WorkloadSpec::new(300, 2, Distribution::AntiCorrelated, 0.02)
        .with_seed(5)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
    let exec = ProgXe::new(ProgXeConfig::default());
    let a = exec.run_collect(&r, &t, &maps).unwrap();
    let b = exec.run_collect(&r, &t, &maps).unwrap();
    // Same results in the same emission order.
    assert_eq!(a.results, b.results);
    assert_eq!(a.stats.regions_processed, b.stats.regions_processed);
    assert_eq!(a.stats.dominance_tests, b.stats.dominance_tests);
}

#[test]
fn every_engine_through_the_query_layer() {
    use progxe::core::source::SourceData;
    use progxe::query::{Catalog, Engine, QueryRunner, TableSchema};

    let w = WorkloadSpec::new(200, 2, Distribution::Independent, 0.05)
        .with_seed(3)
        .generate();
    let mut suppliers = SourceData::new(2);
    for i in 0..w.r.len() {
        suppliers.push(w.r.attrs_of(i), w.r.join_key_of(i));
    }
    let mut transporters = SourceData::new(2);
    for i in 0..w.t.len() {
        transporters.push(w.t.attrs_of(i), w.t.join_key_of(i));
    }
    let mut catalog = Catalog::new();
    catalog.register(
        TableSchema::new("S", vec!["a".into(), "b".into()], "k"),
        suppliers,
    );
    catalog.register(
        TableSchema::new("T", vec!["a".into(), "b".into()], "k"),
        transporters,
    );
    let runner = QueryRunner::new(catalog);
    let sql = "SELECT (R.a + X.a) AS c0, (R.b + X.b) AS c1 FROM S R, T X \
               WHERE R.k = X.k PREFERRING LOWEST(c0) AND LOWEST(c1)";
    let reference = ids(&runner
        .run_collect(sql, &Engine::JfSl(SkyAlgo::Bnl))
        .unwrap()
        .results);
    assert!(!reference.is_empty());
    for engine in [Engine::progxe(), Engine::JfSlPlus(SkyAlgo::Sfs)] {
        let out = runner.run_collect(sql, &engine).unwrap();
        assert_eq!(ids(&out.results), reference, "{}", engine.name());
    }
}

#[test]
fn progxe_plus_and_signatures_do_not_change_results() {
    let w = WorkloadSpec::new(350, 3, Distribution::Correlated, 0.02)
        .with_seed(11)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
    let base = ids(&ProgXe::new(ProgXeConfig::default())
        .run_collect(&r, &t, &maps)
        .unwrap()
        .results);
    for config in [
        ProgXeConfig::variation(true, true),
        ProgXeConfig::variation(false, true),
        ProgXeConfig::default()
            .with_input_partitions(5)
            .with_output_cells(40),
    ] {
        let out = ProgXe::new(config.clone())
            .run_collect(&r, &t, &maps)
            .unwrap();
        assert_eq!(ids(&out.results), base, "config {config:?}");
    }
}

#[test]
fn mixed_direction_preferences_end_to_end() {
    let w = WorkloadSpec::new(250, 2, Distribution::Independent, 0.04)
        .with_seed(13)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(2, Preference::new(vec![Order::Lowest, Order::Highest]));
    let expected = ids(&oracle_smj(&r, &t, &maps));
    let out = ProgXe::new(ProgXeConfig::variation(true, true))
        .run_collect(&r, &t, &maps)
        .unwrap();
    assert_eq!(ids(&out.results), expected);
}

#[test]
fn stats_describe_the_pipeline() {
    let w = WorkloadSpec::new(500, 3, Distribution::Independent, 0.01)
        .with_seed(17)
        .generate();
    let (r, t) = views(&w);
    let maps = MapSet::pairwise_sum(3, Preference::all_lowest(3));
    let out = ProgXe::new(ProgXeConfig::default())
        .run_collect(&r, &t, &maps)
        .unwrap();
    let s = &out.stats;
    assert!(s.partitions_r > 0 && s.partitions_t > 0);
    assert!(s.regions_created > 0);
    assert!(s.cells_tracked > 0);
    assert_eq!(s.results_emitted as usize, out.results.len());
    assert!(s.join_matches >= s.results_emitted);
    assert!(s.total_time >= s.lookahead_time);
}
