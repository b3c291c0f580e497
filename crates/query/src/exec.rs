//! Query execution: dispatch a planned query to any [`ProgressiveEngine`].
//!
//! [`Engine`] is a declarative strategy description (parse/CLI-friendly);
//! [`Engine::build`] turns it into the trait object that actually executes.
//! All consumption goes through the pull-based [`QuerySession`]:
//! [`QueryRunner::session`] exposes the stream itself — with row ids already
//! translated back to the caller's original catalog tables — and
//! [`QueryRunner::run_collect`] drains one.

use crate::catalog::Catalog;
use crate::parser::{parse_query, ParseError};
use crate::plan::{plan, plan_streaming, PlanError, PlannedQuery, SideFilter};
use progxe_baselines::{JfSlEngine, SkyAlgo, SsmjEngine};
use progxe_core::config::ProgXeConfig;
use progxe_core::error::Error;
use progxe_core::executor::ProgXe;
use progxe_core::ingest::{IngestError, IngestPoll, IngestSession, SourceId, StreamSpec};
use progxe_core::runtime::EngineRuntime;
use progxe_core::session::{ProgressiveEngine, QuerySession};
use progxe_core::source::{SourceData, SourceView};
use progxe_core::stats::{ExecStats, ResultTuple};
use progxe_obs::Recorder;
use std::fmt;
use std::sync::Arc;

/// Which execution strategy evaluates the query.
#[derive(Debug, Clone)]
pub enum Engine {
    /// The paper's progressive framework. Every session this `Engine` (and
    /// every clone of it) opens — batch or streaming — shares the
    /// executor's one lazily spawned worker pool, which `threads == 1`
    /// never spawns.
    ProgXe(ProgXe),
    /// Join-first/skyline-later (blocking).
    JfSl(SkyAlgo),
    /// JF-SL with push-through pruning.
    JfSlPlus(SkyAlgo),
    /// The two-batch SSMJ baseline.
    Ssmj(SkyAlgo),
}

impl Engine {
    /// ProgXe with the default configuration plus environment overrides
    /// ([`ProgXeConfig::from_env`]) — notably `PROGXE_THREADS`, so a
    /// deployment (or CI matrix) can turn on parallel execution for every
    /// query without touching call sites.
    #[must_use]
    pub fn progxe() -> Self {
        Self::progxe_with(ProgXeConfig::from_env())
    }

    /// ProgXe with a custom configuration. A `threads` value above 1 runs
    /// region work on a pool of that many workers, shared by all sessions
    /// of this `Engine` value.
    #[must_use]
    pub fn progxe_with(config: ProgXeConfig) -> Self {
        Engine::ProgXe(ProgXe::new(config))
    }

    /// ProgXe with `threads` tuple-level workers and otherwise default
    /// configuration.
    #[must_use]
    pub fn progxe_threads(threads: usize) -> Self {
        Self::progxe_with(ProgXeConfig::default().with_threads(threads))
    }

    /// The shared execution runtime, for ProgXe engines (`None` for the
    /// baselines, which are single-threaded by design).
    pub fn runtime(&self) -> Option<&Arc<EngineRuntime>> {
        match self {
            Engine::ProgXe(progxe) => Some(progxe.runtime()),
            _ => None,
        }
    }

    /// Attaches a trace [`Recorder`] (see `progxe_obs`): every session the
    /// engine opens afterwards — batch or streaming — emits span, point,
    /// and counter events into it. A no-op on the baselines, which predate
    /// the span taxonomy and report through [`ExecStats`] only.
    #[must_use]
    pub fn with_recorder(self, rec: Arc<dyn Recorder>) -> Self {
        match self {
            Engine::ProgXe(progxe) => Engine::ProgXe(progxe.with_recorder(rec)),
            baseline => baseline,
        }
    }

    /// JF-SL with block-nested-loops.
    #[must_use]
    pub fn jfsl_bnl() -> Self {
        Engine::JfSl(SkyAlgo::Bnl)
    }

    /// JF-SL with sort-filter-skyline.
    #[must_use]
    pub fn jfsl_sfs() -> Self {
        Engine::JfSl(SkyAlgo::Sfs)
    }

    /// JF-SL+ (push-through) with sort-filter-skyline.
    #[must_use]
    pub fn jfsl_plus_sfs() -> Self {
        Engine::JfSlPlus(SkyAlgo::Sfs)
    }

    /// SSMJ with sort-filter-skyline.
    #[must_use]
    pub fn ssmj_sfs() -> Self {
        Engine::Ssmj(SkyAlgo::Sfs)
    }

    /// Short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::ProgXe(_) => "progxe",
            Engine::JfSl(_) => "jf-sl",
            Engine::JfSlPlus(_) => "jf-sl+",
            Engine::Ssmj(_) => "ssmj",
        }
    }

    /// Instantiates the executable engine behind this description. This is
    /// the single construction point: everything downstream — sessions,
    /// sinks, the bench harness — talks to [`ProgressiveEngine`] only.
    /// A ProgXe build is a clone sharing this `Engine`'s
    /// [`EngineRuntime`], so repeated `build()` calls (one per session in
    /// [`QueryRunner::session`]) keep reusing the same worker pool.
    #[must_use]
    pub fn build(&self) -> Box<dyn ProgressiveEngine> {
        match self {
            Engine::ProgXe(progxe) => Box::new(progxe.clone()),
            Engine::JfSl(algo) => Box::new(JfSlEngine::new(*algo)),
            Engine::JfSlPlus(algo) => Box::new(JfSlEngine::plus(*algo)),
            Engine::Ssmj(algo) => Box::new(SsmjEngine::new(*algo)),
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A view over one planned source, carrying its table's row-cut memo when
/// it reads the table unfiltered, or [`Error::NonFiniteValue`] naming the
/// catalog table's row (`rows` maps filtered positions back to it).
fn source_view<'p>(
    planned: &'p PlannedQuery,
    data: &'p Arc<SourceData>,
    rows: Option<&[u32]>,
) -> Result<SourceView<'p>, QueryError> {
    let view = data.try_view().map_err(|e| {
        QueryError::Exec(match e {
            Error::NonFiniteValue { row, dim } => Error::NonFiniteValue {
                row: rows.map_or(row, |ids| ids[row] as usize),
                dim,
            },
            e => e,
        })
    })?;
    Ok(match planned.cuts(data) {
        Some(cuts) => view.with_cuts(cuts),
        None => view,
    })
}

/// Everything that can go wrong running a query end to end.
#[derive(Debug)]
pub enum QueryError {
    /// Lexical/syntactic failure.
    Parse(ParseError),
    /// Validation/compilation failure.
    Plan(PlanError),
    /// Executor failure.
    Exec(progxe_core::error::Error),
    /// Streaming-ingestion failure (bad batch, watermark regression, …).
    Ingest(IngestError),
    /// The requested engine cannot serve this consumption model (e.g.
    /// streaming ingestion on a blocking baseline).
    Unsupported(&'static str),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Plan(e) => write!(f, "{e}"),
            QueryError::Exec(e) => write!(f, "{e}"),
            QueryError::Ingest(e) => write!(f, "{e}"),
            QueryError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}
impl From<PlanError> for QueryError {
    fn from(e: PlanError) -> Self {
        QueryError::Plan(e)
    }
}
impl From<progxe_core::error::Error> for QueryError {
    fn from(e: progxe_core::error::Error) -> Self {
        QueryError::Exec(e)
    }
}
impl From<IngestError> for QueryError {
    fn from(e: IngestError) -> Self {
        QueryError::Ingest(e)
    }
}

/// A running streaming SkyMapJoin query over two streaming-registered
/// tables (see
/// [`Catalog::register_streaming`](crate::catalog::Catalog::register_streaming)).
///
/// Wraps a core [`IngestSession`]: pushed rows first pass the plan's WHERE
/// filters (selection push-down, applied per batch instead of per table),
/// then enter the engine with their *table row ids* — the arrival position
/// per source, exactly the ids a materialized run would report. Filtered
/// rows still consume an id, keeping ids stable under filtering.
pub struct StreamingQuery {
    session: IngestSession,
    output_names: Vec<String>,
    r_filters: Vec<SideFilter>,
    t_filters: Vec<SideFilter>,
    /// Declared column count per side (arity-checked before filtering).
    dims: [usize; 2],
    /// Next arrival-position row id per side.
    next_id: [u32; 2],
}

impl StreamingQuery {
    /// Output attribute names, aligned with emitted
    /// [`ResultTuple::values`].
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// Pushes a batch of `(attrs, join_key)` rows for `source`. Rows
    /// failing the plan's WHERE filters are dropped (but still consume a
    /// row id). Atomic per batch, like [`IngestSession::push_with_ids`].
    pub fn push(&mut self, source: SourceId, rows: &[(&[f64], u32)]) -> Result<(), QueryError> {
        let (filters, slot) = match source {
            SourceId::R => (&self.r_filters, 0),
            SourceId::T => (&self.t_filters, 1),
        };
        // Arity is validated here, before filtering: a malformed row must
        // surface as a typed error even when a WHERE filter would have
        // dropped it (the filter could otherwise mask the defect by
        // reading past the short row's end).
        for &(attrs, _key) in rows {
            if attrs.len() != self.dims[slot] {
                return Err(QueryError::Ingest(
                    progxe_core::ingest::IngestError::Arity {
                        source,
                        expected: self.dims[slot],
                        got: attrs.len(),
                    },
                ));
            }
        }
        let base = self.next_id[slot];
        let mut kept: Vec<(u32, &[f64], u32)> = Vec::with_capacity(rows.len());
        for (i, &(attrs, key)) in rows.iter().enumerate() {
            if filters.iter().all(|&(idx, op, v)| op.eval(attrs[idx], v)) {
                kept.push((base + i as u32, attrs, key));
            }
        }
        self.session.push_with_ids(source, &kept)?;
        // Ids advance only once the batch is accepted (atomicity).
        self.next_id[slot] = base + rows.len() as u32;
        Ok(())
    }

    /// Declares that all future rows of `source` are ≥ `watermark` per
    /// column (pre-filter values).
    pub fn set_watermark(&mut self, source: SourceId, watermark: &[f64]) -> Result<(), QueryError> {
        Ok(self.session.set_watermark(source, watermark)?)
    }

    /// Declares `source` complete. Idempotent.
    pub fn close(&mut self, source: SourceId) {
        self.session.close(source);
    }

    /// Pulls the next proven-final result batch (row ids refer to the
    /// streamed tables' arrival positions).
    pub fn poll(&mut self) -> IngestPoll {
        self.session.poll()
    }

    /// Drains every currently deliverable batch.
    pub fn drain_ready(&mut self) -> Vec<progxe_core::session::ResultEvent> {
        self.session.drain_ready()
    }

    /// Requests cancellation.
    pub fn cancel(&mut self) {
        self.session.cancel();
    }

    /// A shareable handle to the underlying session's cancellation flag —
    /// e.g. for a disconnect watchdog on another thread. Dropping the
    /// query (without [`finish`](Self::finish)) also fires it.
    pub fn cancel_token(&self) -> progxe_core::session::CancellationToken {
        self.session.cancel_token()
    }

    /// Whether cancellation has been requested. Once true, [`push`] and
    /// [`set_watermark`] return [`IngestError::Cancelled`]
    /// and [`poll`] reports [`IngestPoll::Complete`] — a long-lived
    /// subscription whose consumer is gone stops accepting input.
    ///
    /// [`push`]: Self::push
    /// [`set_watermark`]: Self::set_watermark
    /// [`poll`]: Self::poll
    pub fn is_cancelled(&self) -> bool {
        self.session.is_cancelled()
    }

    /// Total result tuples delivered so far.
    pub fn emitted(&self) -> u64 {
        self.session.emitted()
    }

    /// Consumes the query and returns its statistics. A session cancelled
    /// while its sources were still open (unsubscribe, disconnect) reports
    /// `ExecStats::cancelled`; a fully drained one does not, even when its
    /// token fired afterwards.
    pub fn finish(self) -> ExecStats {
        self.session.finish()
    }
}

/// Collected output of a query run.
#[derive(Debug)]
pub struct QueryOutput {
    /// Results with row ids referring to the *original* catalog tables.
    pub results: Vec<ResultTuple>,
    /// Output attribute names, aligned with `ResultTuple::values`.
    pub output_names: Vec<String>,
    /// Engine statistics for the run.
    pub stats: progxe_core::stats::ExecStats,
}

/// Parses, plans, and runs queries against a catalog.
pub struct QueryRunner {
    catalog: Catalog,
}

impl QueryRunner {
    /// Creates a runner over the given catalog.
    pub fn new(catalog: Catalog) -> Self {
        Self { catalog }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Parses and plans without executing. The returned [`PlannedQuery`]
    /// owns the filtered sources, so any number of sessions can be opened
    /// over it (see [`session`](Self::session)).
    pub fn prepare(&self, sql: &str) -> Result<PlannedQuery, QueryError> {
        let query = parse_query(sql)?;
        Ok(plan(&query, &self.catalog)?)
    }

    /// Opens a pull-based [`QuerySession`] over a prepared query. Emitted
    /// row ids are translated back to the caller's original catalog tables;
    /// cancellation and `take(k)` behave exactly as on a raw engine
    /// session. A side that reads its catalog table unfiltered carries the
    /// table's row-cut memo, so ProgXe cuts a table into its input grid
    /// once per slice count, not once per query.
    pub fn session<'p>(
        &self,
        planned: &'p PlannedQuery,
        engine: &Engine,
    ) -> Result<QuerySession<'p>, QueryError> {
        let r = source_view(planned, &planned.r, planned.r_rows.as_deref())?;
        let t = source_view(planned, &planned.t, planned.t_rows.as_deref())?;
        let session = engine
            .build()
            .open(&r, &t, &planned.maps)?
            .with_id_translation(planned.r_rows.clone(), planned.t_rows.clone());
        Ok(session)
    }

    /// Runs and collects all results.
    pub fn run_collect(&self, sql: &str, engine: &Engine) -> Result<QueryOutput, QueryError> {
        let planned = self.prepare(sql)?;
        let out = self.session(&planned, engine)?.collect();
        Ok(QueryOutput {
            results: out.results,
            output_names: planned.output_names,
            stats: out.stats,
        })
    }

    /// Opens a streaming SkyMapJoin query: parses and plans `sql` against
    /// the catalog's *streaming* tables, then starts a readiness-gated
    /// ingest session on `engine` (ProgXe only — the blocking baselines
    /// cannot produce anything before their inputs complete, which is the
    /// exact failure mode streaming ingestion exists to avoid).
    ///
    /// `threads > 1` on the engine routes region compute through its
    /// shared worker pool; results are identical to the inline backend.
    pub fn ingest_session(&self, sql: &str, engine: &Engine) -> Result<StreamingQuery, QueryError> {
        let query = parse_query(sql)?;
        let streaming = plan_streaming(&query, &self.catalog)?;
        let Engine::ProgXe(progxe) = engine else {
            return Err(QueryError::Unsupported(
                "streaming ingestion requires the progxe engine",
            ));
        };
        let r_spec = StreamSpec::new(streaming.r.lo.clone(), streaming.r.hi.clone())?;
        let t_spec = StreamSpec::new(streaming.t.lo.clone(), streaming.t.hi.clone())?;
        let dims = [r_spec.dims(), t_spec.dims()];
        let session = progxe.open_ingest(&streaming.compiled.maps, r_spec, t_spec)?;
        Ok(StreamingQuery {
            session,
            output_names: streaming.compiled.output_names,
            r_filters: streaming.compiled.r_filters,
            t_filters: streaming.compiled.t_filters,
            dims,
            next_id: [0, 0],
        })
    }

    /// Runs and returns only the first `k` results the engine emits,
    /// stopping execution early (the engine skips its remaining work).
    /// For engines with tentative batches (SSMJ), emitted tuples may
    /// include phase-1 results the final skyline would have retracted;
    /// consume [`session`](Self::session) directly and check
    /// [`progxe_core::session::ResultEvent::proven_final`] when only
    /// guaranteed-final tuples are acceptable.
    pub fn run_take(
        &self,
        sql: &str,
        engine: &Engine,
        k: usize,
    ) -> Result<QueryOutput, QueryError> {
        let planned = self.prepare(sql)?;
        let out = self.session(&planned, engine)?.take(k);
        Ok(QueryOutput {
            results: out.results,
            output_names: planned.output_names,
            stats: out.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableSchema;
    use progxe_core::source::SourceData;

    fn q1_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            TableSchema::new(
                "Suppliers",
                vec!["uPrice".into(), "manTime".into(), "manCap".into()],
                "country",
            ),
            SourceData::from_rows(
                3,
                &[
                    (&[10.0, 3.0, 200.0], 0),
                    (&[20.0, 1.0, 500.0], 0),
                    (&[5.0, 9.0, 50.0], 0), // filtered out by manCap >= 100
                ],
            ),
        );
        cat.register(
            TableSchema::new(
                "Transporters",
                vec!["uShipCost".into(), "shipTime".into()],
                "country",
            ),
            SourceData::from_rows(2, &[(&[2.0, 4.0], 0), (&[8.0, 1.0], 0)]),
        );
        cat
    }

    const Q1: &str = "SELECT R.id, T.id, \
         (R.uPrice + T.uShipCost) AS tCost, \
         (2 * R.manTime + T.shipTime) AS delay \
         FROM Suppliers R, Transporters T \
         WHERE R.country = T.country AND R.manCap >= 100 \
         PREFERRING LOWEST(tCost) AND LOWEST(delay)";

    /// A NaN or ±∞ in a row the query reads is a typed error naming the
    /// catalog row, on every engine; one in a row the WHERE clause drops
    /// is never read.
    #[test]
    fn non_finite_input_is_a_typed_error_naming_the_catalog_row() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut cat = q1_catalog();
            let mut suppliers = (*cat.table("Suppliers").unwrap().data).clone();
            suppliers.push(&[1.0, bad, 300.0], 0); // row 3, read by Q1
            suppliers.push(&[bad, 1.0, 10.0], 0); // row 4, filtered out
            let schema = cat.table("Suppliers").unwrap().schema.clone();
            cat.register(schema, suppliers);
            let runner = QueryRunner::new(cat);
            for engine in [Engine::progxe(), Engine::jfsl_sfs(), Engine::ssmj_sfs()] {
                let err = runner.run_collect(Q1, &engine).expect_err("rejected");
                assert!(
                    matches!(
                        err,
                        QueryError::Exec(Error::NonFiniteValue { row: 3, dim: 1 })
                    ),
                    "{engine}: {err}"
                );
            }
            // manCap >= 400 reads row 1 only.
            let filtered = Q1.replace(">= 100", ">= 400");
            assert!(runner.run_collect(&filtered, &Engine::progxe()).is_ok());
        }
    }

    #[test]
    fn all_engines_agree_on_q1() {
        let runner = QueryRunner::new(q1_catalog());
        let engines = [
            Engine::progxe(),
            Engine::jfsl_bnl(),
            Engine::jfsl_plus_sfs(),
            Engine::Ssmj(SkyAlgo::Bnl),
        ];
        let mut reference: Option<Vec<(u32, u32)>> = None;
        for engine in &engines {
            let out = runner
                .run_collect(Q1, engine)
                .unwrap_or_else(|_| panic!("{engine}"));
            let mut ids: Vec<(u32, u32)> = out.results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
            ids.sort_unstable();
            // SSMJ may emit batch-1 false positives; dedup against final.
            ids.dedup();
            match &reference {
                None => reference = Some(ids),
                Some(want) => {
                    for id in want {
                        assert!(ids.contains(id), "{engine} missing {id:?}");
                    }
                }
            }
            assert_eq!(out.output_names, vec!["tCost", "delay"]);
        }
    }

    const Q1_FLEX: &str = "SELECT R.id, T.id, \
         (R.uPrice + T.uShipCost) AS tCost, \
         (2 * R.manTime + T.shipTime) AS delay \
         FROM Suppliers R, Transporters T \
         WHERE R.country = T.country AND R.manCap >= 100 \
         PREFERRING LOWEST(tCost) AND LOWEST(delay) \
         WITH WEIGHTS (wc, wd) CONSTRAIN wc >= 0.45 AND wc <= 0.55";

    #[test]
    fn flexible_query_dispatches_through_every_engine() {
        let runner = QueryRunner::new(q1_catalog());
        let engines = [
            Engine::progxe(),
            Engine::progxe_threads(3),
            Engine::jfsl_bnl(),
            Engine::jfsl_plus_sfs(),
            Engine::Ssmj(SkyAlgo::Sfs),
        ];
        let pareto = runner.run_collect(Q1, &Engine::progxe()).unwrap();
        let pareto_ids: Vec<(u32, u32)> =
            pareto.results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
        let mut reference: Option<Vec<(u32, u32)>> = None;
        for engine in &engines {
            let out = runner
                .run_collect(Q1_FLEX, engine)
                .unwrap_or_else(|e| panic!("{engine}: {e}"));
            let mut ids: Vec<(u32, u32)> = out.results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
            ids.sort_unstable();
            ids.dedup(); // SSMJ batch-1 may repeat
                         // The flexible answer is a subset of the Pareto skyline.
            for id in &ids {
                assert!(pareto_ids.contains(id), "{engine}: {id:?} not Pareto");
            }
            match &reference {
                None => reference = Some(ids),
                Some(want) => assert_eq!(&ids, want, "{engine} diverged"),
            }
        }
        assert!(!reference.unwrap().is_empty());
    }

    #[test]
    fn flexible_streaming_ingest_matches_the_batch_run() {
        let mut cat = q1_catalog();
        let sup = cat.table("suppliers").unwrap().clone();
        let tra = cat.table("transporters").unwrap().clone();
        cat.register_streaming(sup.schema.clone(), vec![0.0; 3], vec![1000.0; 3]);
        cat.register_streaming(tra.schema.clone(), vec![0.0; 2], vec![1000.0; 2]);
        let runner = QueryRunner::new(cat);
        let batch = runner.run_collect(Q1_FLEX, &Engine::progxe()).unwrap();

        let mut q = runner.ingest_session(Q1_FLEX, &Engine::progxe()).unwrap();
        for row in 0..sup.data.len() {
            q.push(
                SourceId::R,
                &[(sup.data.attrs.point(row), sup.data.join_keys[row])],
            )
            .unwrap();
        }
        q.close(SourceId::R);
        q.push(
            SourceId::T,
            &(0..tra.data.len())
                .map(|i| (tra.data.attrs.point(i), tra.data.join_keys[i]))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        q.close(SourceId::T);
        let mut streamed: Vec<(u32, u32)> = q
            .drain_ready()
            .iter()
            .flat_map(|e| e.tuples.iter().map(|t| (t.r_idx, t.t_idx)))
            .collect();
        assert!(!q.finish().cancelled);
        streamed.sort_unstable();
        let mut expected: Vec<(u32, u32)> =
            batch.results.iter().map(|t| (t.r_idx, t.t_idx)).collect();
        expected.sort_unstable();
        assert_eq!(streamed, expected);
    }

    /// Declared bounds whose extent overflows (`1e308 − (−1e308)`) are
    /// finite one by one, so the catalog registers them; opening the stream
    /// refuses them as a typed configuration error rather than slicing the
    /// input grid at NaN bounds.
    #[test]
    fn overflowing_stream_extents_are_refused_at_open() {
        let mut cat = q1_catalog();
        let sup = cat.table("suppliers").unwrap().clone();
        let tra = cat.table("transporters").unwrap().clone();
        cat.register_streaming(
            sup.schema.clone(),
            vec![-1e308, 0.0, 0.0],
            vec![1e308, 1000.0, 1000.0],
        );
        cat.register_streaming(tra.schema.clone(), vec![0.0; 2], vec![1000.0; 2]);
        let runner = QueryRunner::new(cat);
        match runner.ingest_session(Q1, &Engine::progxe()) {
            Err(QueryError::Exec(progxe_core::error::Error::InvalidConfig(msg))) => {
                assert!(msg.contains("hi - lo"), "{msg}")
            }
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("an overflowing extent opened a stream"),
        }
    }

    #[test]
    fn degenerate_weights_surface_as_plan_errors() {
        let runner = QueryRunner::new(q1_catalog());
        let err = runner.run_collect(
            "SELECT (R.uPrice + T.uShipCost) AS a, (R.manTime + T.shipTime) AS b \
             FROM Suppliers R, Transporters T WHERE R.country = T.country \
             PREFERRING LOWEST(a) AND LOWEST(b) \
             WITH WEIGHTS (u, v) CONSTRAIN u >= 0.9 AND u <= 0.1",
            &Engine::progxe(),
        );
        assert!(matches!(
            err,
            Err(QueryError::Plan(PlanError::BadWeights(_)))
        ));
    }

    #[test]
    fn row_ids_refer_to_original_tables() {
        // Supplier row 2 is filtered out; surviving results must reference
        // original row ids (0, 1), never remapped ones.
        let runner = QueryRunner::new(q1_catalog());
        let out = runner.run_collect(Q1, &Engine::progxe()).unwrap();
        assert!(!out.results.is_empty());
        for r in &out.results {
            assert!(r.r_idx <= 1, "row 2 was filtered; got r_idx {}", r.r_idx);
            assert!(r.t_idx <= 1);
        }
        // (10+2, 6+4) = (12, 10) must be among the results for (r0, t0).
        let r00 = out
            .results
            .iter()
            .find(|x| x.r_idx == 0 && x.t_idx == 0)
            .expect("pair (0,0) in skyline");
        assert_eq!(r00.values, vec![12.0, 10.0]);
    }

    #[test]
    fn session_streams_translated_ids() {
        let runner = QueryRunner::new(q1_catalog());
        let planned = runner.prepare(Q1).unwrap();
        let mut session = runner.session(&planned, &Engine::progxe()).unwrap();
        let mut ids = Vec::new();
        while let Some(event) = session.next_batch() {
            assert!(event.proven_final);
            ids.extend(event.tuples.iter().map(|x| (x.r_idx, x.t_idx)));
        }
        let stats = session.finish();
        assert!(!stats.cancelled);
        ids.sort_unstable();
        let mut collected: Vec<(u32, u32)> = runner
            .run_collect(Q1, &Engine::progxe())
            .unwrap()
            .results
            .iter()
            .map(|x| (x.r_idx, x.t_idx))
            .collect();
        collected.sort_unstable();
        assert_eq!(ids, collected);
        assert!(ids.iter().all(|&(r, t)| r <= 1 && t <= 1), "original ids");
    }

    #[test]
    fn run_take_returns_first_k() {
        let runner = QueryRunner::new(q1_catalog());
        let full = runner.run_collect(Q1, &Engine::progxe()).unwrap();
        assert!(!full.results.is_empty());
        let one = runner.run_take(Q1, &Engine::progxe(), 1).unwrap();
        assert_eq!(one.results.len(), 1);
        assert_eq!(one.results[0], full.results[0]);
    }

    #[test]
    fn sessions_can_reuse_a_prepared_query() {
        let runner = QueryRunner::new(q1_catalog());
        let planned = runner.prepare(Q1).unwrap();
        let a = runner
            .session(&planned, &Engine::progxe())
            .unwrap()
            .collect();
        let b = runner
            .session(&planned, &Engine::jfsl_sfs())
            .unwrap()
            .collect();
        let mut a_ids: Vec<_> = a.results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
        let mut b_ids: Vec<_> = b.results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
        a_ids.sort_unstable();
        b_ids.sort_unstable();
        assert_eq!(a_ids, b_ids);
    }

    #[test]
    fn parse_errors_surface() {
        let runner = QueryRunner::new(q1_catalog());
        let err = runner.run_collect("SELECT nonsense", &Engine::progxe());
        assert!(matches!(err, Err(QueryError::Parse(_))));
    }

    #[test]
    fn plan_errors_surface() {
        let runner = QueryRunner::new(q1_catalog());
        let err = runner.run_collect(
            "SELECT (R.nope + T.uShipCost) AS x FROM Suppliers R, Transporters T \
             WHERE R.country = T.country PREFERRING LOWEST(x)",
            &Engine::progxe(),
        );
        assert!(matches!(err, Err(QueryError::Plan(_))));
    }

    #[test]
    fn threaded_engine_matches_sequential() {
        let runner = QueryRunner::new(q1_catalog());
        let seq = runner
            .run_collect(Q1, &Engine::progxe_with(ProgXeConfig::default()))
            .unwrap();
        let par = runner.run_collect(Q1, &Engine::progxe_threads(4)).unwrap();
        let mut seq_ids: Vec<(u32, u32)> = seq.results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
        let mut par_ids: Vec<(u32, u32)> = par.results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
        seq_ids.sort_unstable();
        par_ids.sort_unstable();
        assert_eq!(seq_ids, par_ids);
        assert_eq!(par.stats.threads_used, 4);
        assert_eq!(seq.output_names, par.output_names);
    }

    /// One `Engine` spawns at most one pool — none at `threads == 1` — for
    /// its batch sessions, its clones' sessions and its streaming queries
    /// together.
    #[test]
    fn one_engine_spawns_one_pool_for_batch_and_streaming_sessions() {
        let mut cat = q1_catalog();
        let sup = cat.table("suppliers").unwrap().schema.clone();
        let tra = cat.table("transporters").unwrap().schema.clone();
        cat.register_streaming(sup, vec![0.0; 3], vec![1000.0; 3]);
        cat.register_streaming(tra, vec![0.0; 2], vec![1000.0; 2]);
        let runner = QueryRunner::new(cat);
        let planned = runner.prepare(Q1).unwrap();
        for (threads, pools) in [(1, 0), (2, 1)] {
            let engine = Engine::progxe_threads(threads);
            let runtime = engine.runtime().expect("progxe has a runtime");
            assert_eq!(runtime.pools_spawned(), 0, "runtime spawns lazily");
            let out = runner.session(&planned, &engine).unwrap().collect();
            assert_eq!(out.stats.threads_used, threads);
            let clone = engine.clone();
            let _ = runner.run_collect(Q1, &clone).unwrap();
            let streaming = runner.ingest_session(Q1, &engine).unwrap();
            assert_eq!(streaming.finish().threads_used, threads);
            assert_eq!(runtime.pools_spawned(), pools, "threads={threads}");
        }
    }

    #[test]
    fn run_take_works_through_the_parallel_engine() {
        let runner = QueryRunner::new(q1_catalog());
        let engine = Engine::progxe_threads(2);
        let full = runner.run_collect(Q1, &engine).unwrap();
        assert!(!full.results.is_empty());
        let one = runner.run_take(Q1, &engine, 1).unwrap();
        assert_eq!(one.results.len(), 1);
        assert_eq!(one.results[0], full.results[0]);
    }

    #[test]
    fn streaming_query_matches_batch_run() {
        // Register the same logical tables both ways; stream the rows in
        // two batches and compare against the materialized run.
        let mut cat = q1_catalog();
        let sup = cat.table("suppliers").unwrap().clone();
        let tra = cat.table("transporters").unwrap().clone();
        cat.register_streaming(sup.schema.clone(), vec![0.0; 3], vec![1000.0; 3]);
        cat.register_streaming(tra.schema.clone(), vec![0.0; 2], vec![1000.0; 2]);
        let runner = QueryRunner::new(cat);
        let batch = runner.run_collect(Q1, &Engine::progxe()).unwrap();

        for engine in [Engine::progxe(), Engine::progxe_threads(3)] {
            let mut q = runner.ingest_session(Q1, &engine).unwrap();
            assert_eq!(q.output_names(), &["tCost", "delay"]);
            // Supplier rows one at a time (row 2 fails manCap >= 100 and
            // must still consume id 2).
            for row in 0..sup.data.len() {
                q.push(
                    SourceId::R,
                    &[(sup.data.attrs.point(row), sup.data.join_keys[row])],
                )
                .unwrap();
            }
            q.close(SourceId::R);
            q.push(
                SourceId::T,
                &(0..tra.data.len())
                    .map(|i| (tra.data.attrs.point(i), tra.data.join_keys[i]))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            q.close(SourceId::T);
            let mut streamed: Vec<(u32, u32)> = q
                .drain_ready()
                .iter()
                .flat_map(|e| e.tuples.iter().map(|t| (t.r_idx, t.t_idx)))
                .collect();
            let stats = q.finish();
            assert!(!stats.cancelled, "{engine}");
            assert_eq!(stats.tuples_ingested, 4, "filtered row never ingested");
            streamed.sort_unstable();
            let mut expected: Vec<(u32, u32)> =
                batch.results.iter().map(|t| (t.r_idx, t.t_idx)).collect();
            expected.sort_unstable();
            assert_eq!(streamed, expected, "{engine}");
        }
    }

    #[test]
    fn dropping_a_streaming_query_mid_stream_fires_its_token() {
        // Regression companion to the core session tests: the query-layer
        // wrapper must inherit drop→cancel, on both backends — this is
        // what lets a serving layer abandon a subscription by dropping it.
        let mut cat = q1_catalog();
        let sup = cat.table("suppliers").unwrap().schema.clone();
        let tra = cat.table("transporters").unwrap().schema.clone();
        cat.register_streaming(sup, vec![0.0; 3], vec![1000.0; 3]);
        cat.register_streaming(tra, vec![0.0; 2], vec![1000.0; 2]);
        let runner = QueryRunner::new(cat);
        for engine in [Engine::progxe(), Engine::progxe_threads(3)] {
            let mut q = runner.ingest_session(Q1, &engine).unwrap();
            let token = q.cancel_token();
            q.push(SourceId::R, &[(&[1.0, 2.0, 200.0][..], 0)]).unwrap();
            assert!(!token.is_cancelled());
            drop(q);
            assert!(token.is_cancelled(), "{engine}: drop must fire the token");
        }
    }

    #[test]
    fn streaming_push_surfaces_arity_errors_even_under_filters() {
        // Q1 filters on Suppliers column 2 (manCap >= 100); a short row
        // must be a typed Arity error, never a silent filter-drop.
        let mut cat = q1_catalog();
        let sup = cat.table("suppliers").unwrap().schema.clone();
        let tra = cat.table("transporters").unwrap().schema.clone();
        cat.register_streaming(sup, vec![0.0; 3], vec![1000.0; 3]);
        cat.register_streaming(tra, vec![0.0; 2], vec![1000.0; 2]);
        let runner = QueryRunner::new(cat);
        let mut q = runner.ingest_session(Q1, &Engine::progxe()).unwrap();
        let err = q.push(SourceId::R, &[(&[1.0, 2.0][..], 0)]);
        assert!(matches!(
            err,
            Err(QueryError::Ingest(IngestError::Arity {
                expected: 3,
                got: 2,
                ..
            }))
        ));
    }

    #[test]
    fn streaming_query_rejects_baselines_and_unregistered_tables() {
        let mut cat = q1_catalog();
        let sup = cat.table("suppliers").unwrap().schema.clone();
        let tra = cat.table("transporters").unwrap().schema.clone();
        let runner = QueryRunner::new(cat.clone());
        // Registered as batch tables only → NotStreaming.
        assert!(matches!(
            runner.ingest_session(Q1, &Engine::progxe()),
            Err(QueryError::Plan(crate::plan::PlanError::NotStreaming(_)))
        ));
        cat.register_streaming(sup, vec![0.0; 3], vec![1000.0; 3]);
        cat.register_streaming(tra, vec![0.0; 2], vec![1000.0; 2]);
        let runner = QueryRunner::new(cat);
        assert!(matches!(
            runner.ingest_session(Q1, &Engine::jfsl_sfs()),
            Err(QueryError::Unsupported(_))
        ));
    }

    #[test]
    fn recorder_captures_query_layer_sessions() {
        use progxe_obs::{EventKind, Point, RingRecorder};
        let runner = QueryRunner::new(q1_catalog());
        for threads in [1, 3] {
            let ring = Arc::new(RingRecorder::new());
            let engine = Engine::progxe_with(ProgXeConfig::default().with_threads(threads))
                .with_recorder(ring.clone());
            let out = runner.run_collect(Q1, &engine).unwrap();
            assert!(!out.results.is_empty());
            let events = ring.drain();
            let emitted: u64 = events
                .iter()
                .map(|e| match e.kind {
                    EventKind::Point(Point::Emit { n, .. }) => n,
                    _ => 0,
                })
                .sum();
            assert_eq!(
                emitted,
                out.results.len() as u64,
                "threads={threads}: emit points must account for every result"
            );
            assert_eq!(ring.dropped(), 0);
        }
    }

    #[test]
    fn recorder_captures_streaming_sessions() {
        use progxe_obs::{EventKind, RingRecorder, Span};
        let mut cat = q1_catalog();
        let sup = cat.table("suppliers").unwrap().clone();
        let tra = cat.table("transporters").unwrap().clone();
        cat.register_streaming(sup.schema.clone(), vec![0.0; 3], vec![1000.0; 3]);
        cat.register_streaming(tra.schema.clone(), vec![0.0; 2], vec![1000.0; 2]);
        let runner = QueryRunner::new(cat);
        let ring = Arc::new(RingRecorder::new());
        let engine = Engine::progxe().with_recorder(ring.clone());
        let mut q = runner.ingest_session(Q1, &engine).unwrap();
        for row in 0..sup.data.len() {
            q.push(
                SourceId::R,
                &[(sup.data.attrs.point(row), sup.data.join_keys[row])],
            )
            .unwrap();
        }
        q.close(SourceId::R);
        q.push(
            SourceId::T,
            &(0..tra.data.len())
                .map(|i| (tra.data.attrs.point(i), tra.data.join_keys[i]))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        q.close(SourceId::T);
        let _ = q.drain_ready();
        assert!(!q.finish().cancelled);
        let events = ring.drain();
        let batches = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::SpanBegin {
                        span: Span::IngestBatch { .. },
                        ..
                    }
                )
            })
            .count();
        // One per accepted push: 3 single-row R pushes + 1 T batch. The
        // filtered supplier row is dropped by the WHERE filter *before*
        // ingestion but the push itself is still an accepted (possibly
        // empty) batch.
        assert_eq!(batches, 4);
    }

    #[test]
    fn engine_names_and_display() {
        assert_eq!(Engine::progxe().name(), "progxe");
        assert_eq!(Engine::Ssmj(SkyAlgo::Bnl).name(), "ssmj");
        assert_eq!(Engine::jfsl_plus_sfs().to_string(), "jf-sl+");
        assert_eq!(Engine::ssmj_sfs().build().name(), "ssmj");
    }
}
