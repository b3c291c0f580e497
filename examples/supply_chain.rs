//! Supply-chain planning — the paper's query Q1, end to end through the
//! SQL front-end.
//!
//! A manufacturer couples suppliers with transporters from the same country
//! and wants plans minimizing total cost and delay:
//!
//! ```sql
//! SELECT R.id, T.id,
//!        (R.uPrice + T.uShipCost) AS tCost,
//!        (2 * R.manTime + T.shipTime) AS delay
//! FROM Suppliers R, Transporters T
//! WHERE R.country = T.country AND R.manCap >= 100
//! PREFERRING LOWEST(tCost) AND LOWEST(delay)
//! ```
//!
//! The query is prepared once; a [`QuerySession`] is then opened per engine
//! over the same plan, and the pull loop records when each engine delivered
//! results. A final `run_take` shows pull-side early termination: the first
//! few plans cost only a fraction of the full run.
//!
//! ```text
//! cargo run --example supply_chain
//! ```

use progxe::core::source::SourceData;
use progxe::datagen::rng::{Rng, StdRng};
use progxe::query::{Catalog, Engine, QueryRunner, TableSchema};

const Q1: &str = "SELECT R.id, T.id, \
     (R.uPrice + T.uShipCost) AS tCost, \
     (2 * R.manTime + T.shipTime) AS delay \
     FROM Suppliers R, Transporters T \
     WHERE R.country = T.country AND R.manCap >= 100 \
     PREFERRING LOWEST(tCost) AND LOWEST(delay)";

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    let countries = 12u32;

    // 2000 suppliers: (unit price, manufacturing time, capacity).
    let mut suppliers = SourceData::new(3);
    for _ in 0..2000 {
        suppliers.push(
            &[
                rng.gen_range(1.0..100.0),
                rng.gen_range(1.0..30.0),
                rng.gen_range(10.0..1000.0),
            ],
            rng.gen_range(0..countries),
        );
    }
    // 2000 transporters: (unit shipping cost, shipping time).
    let mut transporters = SourceData::new(2);
    for _ in 0..2000 {
        transporters.push(
            &[rng.gen_range(1.0..50.0), rng.gen_range(1.0..20.0)],
            rng.gen_range(0..countries),
        );
    }

    let mut catalog = Catalog::new();
    catalog.register(
        TableSchema::new(
            "Suppliers",
            vec!["uPrice".into(), "manTime".into(), "manCap".into()],
            "country",
        ),
        suppliers,
    );
    catalog.register(
        TableSchema::new(
            "Transporters",
            vec!["uShipCost".into(), "shipTime".into()],
            "country",
        ),
        transporters,
    );
    let runner = QueryRunner::new(catalog);
    let planned = runner.prepare(Q1).expect("Q1 plans");

    println!("Q1 over 2000 suppliers × 2000 transporters, {countries} countries\n");
    println!(
        "{:<8} {:>8} {:>12} {:>12} {:>12}",
        "engine", "results", "first", "median", "total"
    );
    for engine in [
        Engine::progxe(),
        Engine::ssmj_sfs(),
        Engine::jfsl_sfs(),
        Engine::jfsl_plus_sfs(),
    ] {
        let mut session = runner.session(&planned, &engine).expect("Q1 runs");
        let mut records = Vec::new();
        let mut total = 0u64;
        while let Some(event) = session.next_batch() {
            total += event.tuples.len() as u64;
            records.push((event.elapsed, total));
        }
        let stats = session.finish();
        let first = records.first().map(|&(at, _)| at);
        let median = records
            .iter()
            .find(|&&(_, cumulative)| cumulative * 2 >= total)
            .map(|&(at, _)| at);
        println!(
            "{:<8} {:>8} {:>12} {:>12} {:>12}",
            engine,
            total,
            fmt(first),
            fmt(median),
            fmt(Some(stats.total_time)),
        );
    }

    // Show the top of the plan list for the decision maker.
    let out = runner.run_collect(Q1, &Engine::progxe()).expect("Q1 runs");
    let mut plans = out.results;
    plans.sort_by(|a, b| a.values[0].total_cmp(&b.values[0]));
    println!("\ncheapest Pareto-optimal plans (of {}):", plans.len());
    for p in plans.iter().take(5) {
        println!(
            "  supplier {:>4} × transporter {:>4}: tCost {:>6.1}, delay {:>5.1}",
            p.r_idx, p.t_idx, p.values[0], p.values[1]
        );
    }

    // Early termination through the query layer: the first 5 proven-final
    // plans, stopping the executor as soon as they are in hand.
    let quick = runner.run_take(Q1, &Engine::progxe(), 5).expect("Q1 runs");
    println!(
        "\ntake(5): {} plans with {} of {} regions processed (cancelled = {})",
        quick.results.len(),
        quick.stats.regions_processed,
        out.stats.regions_processed,
        quick.stats.cancelled,
    );
}

fn fmt(d: Option<std::time::Duration>) -> String {
    match d {
        Some(d) => format!("{:.2}ms", d.as_secs_f64() * 1e3),
        None => "-".to_string(),
    }
}
