//! Execution statistics and result types.

use progxe_obs::{Histogram, Report, Value};
use std::time::{Duration, Instant};

/// One final query result: a joined tuple pair with its mapped output
/// attributes (in the caller's original value orientation).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTuple {
    /// Row index of the R-side tuple.
    pub r_idx: u32,
    /// Row index of the T-side tuple.
    pub t_idx: u32,
    /// Mapped output attribute values (`x_1 … x_k`).
    pub values: Vec<f64>,
}

/// A `(time, cumulative results)` sample of progressive output — the series
/// plotted in Figures 10–12 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressRecord {
    /// Time since execution start.
    pub elapsed: Duration,
    /// Total results emitted up to this moment.
    pub cumulative: u64,
}

/// Counters and timings for one executor run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Wall-clock duration of everything before the region loop, from the
    /// start of `ProgXe::prepare` / the ingest session's open until the
    /// pipeline is ready to pop its first region: exactly the sum of the
    /// five phase buckets below, which tile it without gaps.
    pub lookahead_time: Duration,
    /// Push-through (when enabled), dense join-key remapping and the copy
    /// of the kept rows (zero under streaming ingestion: nothing has
    /// arrived yet).
    pub remap_time: Duration,
    /// Input partitioning: the two `InputGrid`s with their join signatures
    /// (under streaming ingestion, the declared grids). A side whose view
    /// carries its table's cut memo, once the memo holds the cut, pays only
    /// the signature pass here (`InputGrid::sign`); the first such query
    /// pays the row cut too.
    pub grid_time: Duration,
    /// Region generation and abstraction-level pruning (`run_lookahead`;
    /// over declared grids it provisions every potential region).
    pub region_lookahead_time: Duration,
    /// The empty `CellStore` with the pessimistic skyline (`track_cells`)
    /// and the blocker structure over the region keys
    /// (`ProgDetermine::new`). Cells materialize, and get their blocker
    /// counts, as tuples land during the region loop.
    pub determine_init_time: Duration,
    /// The region work context and the committer over the region
    /// schedule (`Committer::new`).
    pub schedule_time: Duration,
    /// Total wall-clock duration of the run.
    pub total_time: Duration,
    /// Accumulated tuple-level compute time (join + map + per-region
    /// dominance work) across all regions. On the `Pooled` backend this is
    /// *summed worker time*: it overlaps the committer thread and may
    /// exceed wall-clock time, so the ledger that adds up on the committer
    /// thread there is `lookahead + dispatch + commit + commit_wait ≈
    /// total`.
    pub tuple_time: Duration,
    /// Time the ordered committer spent applying region batches (insertion
    /// into the cell store plus blocker bookkeeping).
    pub commit_time: Duration,
    /// Time inside `ProgDetermine::resolve_region` — blocker decrements and
    /// the release of proven-final cells — over *every* resolution: batch
    /// commits and dead-region discards alike. A sub-bucket, not a ledger
    /// term: it is already inside [`commit_time`](Self::commit_time) for
    /// batch commits, inside [`dispatch_time`](Self::dispatch_time) for
    /// `Pooled` discards, and for `Inline` discards in no other bucket at
    /// all.
    pub resolve_time: Duration,
    /// Time the committer thread spent topping up the dispatch window:
    /// schedule pops, dead-region discards (their blocker bookkeeping
    /// included) and handing work units to the pool (`Pooled` backend only;
    /// zero on `Inline`). Includes whatever the OS charges the committer
    /// for waking a sleeping worker — on a host with no spare core that is
    /// the larger part.
    pub dispatch_time: Duration,
    /// Time the ordered committer spent blocked waiting for the oldest
    /// in-flight batch (`Pooled` backend only; zero on `Inline`) — the part
    /// of the wall the workers failed to hide.
    pub commit_wait_time: Duration,
    /// Worker threads used for the tuple-level phase (1 = sequential).
    pub threads_used: usize,
    /// Most regions ever in flight at once (`Pooled` backend only; zero on
    /// `Inline`). Bounded by the dispatch window, `2 × threads`; a value of
    /// 1 means the workers never overlapped.
    pub inflight_peak: usize,

    /// Tuples pruned from source R by push-through (0 when disabled).
    pub push_through_pruned_r: usize,
    /// Tuples pruned from source T by push-through (0 when disabled).
    pub push_through_pruned_t: usize,
    /// Whether push-through was requested but skipped because a mapping
    /// function is not separable.
    pub push_through_skipped: bool,

    /// Input partitions materialized on R.
    pub partitions_r: usize,
    /// Input partitions materialized on T.
    pub partitions_t: usize,
    /// Partition pairs rejected by join signatures.
    pub pairs_rejected_by_signature: usize,
    /// Candidate regions pruned by region-level dominance.
    pub regions_pruned_lookahead: usize,
    /// Live regions after look-ahead.
    pub regions_created: usize,
    /// Regions discarded during execution because newly generated tuples
    /// dominated their whole box (Algorithm 1, line 9) by the time they
    /// were popped — no tuple-level work was spent on them.
    pub regions_discarded_dead: usize,
    /// Regions a worker computed speculatively whose box was dead by the
    /// time the batch reached the ordered committer (`Pooled` backend:
    /// predecessors in the dispatch window committed in between). Their
    /// batches are dropped; the compute was wasted. Disjoint from
    /// [`ExecStats::regions_discarded_dead`] and
    /// [`ExecStats::regions_processed`].
    pub regions_computed_dead: usize,
    /// Regions that went through tuple-level processing.
    pub regions_processed: usize,

    /// Output cells the store held a `Cell` for by the end of the run:
    /// those a tuple reached (cells materialize on first insert).
    pub cells_tracked: usize,
    /// Cells pre-marked dead by the pessimistic skyline, of those
    /// materialized.
    pub cells_premarked_dead: usize,
    /// Cells whose tuples were emitted.
    pub cells_emitted: usize,

    /// *Logical* join work: Σ n_R·n_T over processed regions, the figure
    /// the paper's Equation 4 cost model prices — what a nested loop would
    /// evaluate, not work done (that is `join_probes` + `join_matches`).
    pub join_pairs_evaluated: u64,
    /// Probe rows whose join key was looked up in the other partition's
    /// key groups, summed over processed regions.
    pub join_probes: u64,
    /// Rows grouped by join key and compiled to component slabs for the
    /// tuple-level join — once per input partition (by the first region
    /// that joins it on batch runs, as cells seal under streaming
    /// ingestion), never once per region.
    pub join_build_rows: u64,
    /// Join results produced (and mapped).
    pub join_matches: u64,
    /// Join results the tuple-level key-group look-ahead proved dominated
    /// from their key group's exact lower corner and never produced.
    /// `join_matches + join_matches_skipped` is the logical match count —
    /// what the same run produces with the look-ahead off.
    pub join_matches_skipped: u64,
    /// Pairwise dominance tests at tuple level: the sum of the three sites
    /// below.
    pub dominance_tests: u64,
    /// Work of the key-group look-ahead (key and probe-row corners, on the
    /// work units): rows of each unit's recent-dominator window tested,
    /// plus admitted-forest leaf boxes and rows tested.
    pub lookahead_dominance_tests: u64,
    /// Work of the batch filters (on the work units): the local skyline's
    /// pair tests plus the admitted-forest filter's leaf boxes and rows
    /// tested.
    pub filter_dominance_tests: u64,
    /// Work of the cell store, on the committer: the admitted-forest leaf
    /// boxes and rows tested, plus the pair tests against its unpublished
    /// and NaN rows, at insert (reject) and at release (drop the dominated
    /// members); the premark tests; and the flexible emission filter's.
    pub store_dominance_tests: u64,
    /// Subset of [`ExecStats::dominance_tests`] executed through the
    /// batched columnar kernels ([`progxe_skyline::kernel`]) rather than
    /// one-at-a-time scalar calls. Early-exit probes charge whole chunks,
    /// so this counts work done, not logical comparisons.
    pub dominance_pairs: u64,
    /// Vertex dot products evaluated for flexible (F-dominance) models:
    /// batch projections into vertex space plus emission-filter projection
    /// work. Always 0 under the Pareto model.
    pub fdom_vertex_evals: u64,
    /// Tuples admitted into cells.
    pub tuples_inserted: u64,
    /// Tuples rejected: dominated by a tuple admitted earlier.
    pub tuples_rejected_dominated: u64,
    /// Tuples rejected: landed in a dead cell (no comparisons needed). As
    /// observed by the cell store — tuples rejected upstream of it
    /// ([`ExecStats::tuples_prefiltered`]) are not counted, whatever their
    /// cell.
    pub tuples_rejected_dead_cell: u64,
    /// Admitted tuples that never reach emission: dropped when their cell
    /// is released because a later admission dominates them, or cleared
    /// with their cell when it died. Nothing leaves a cell before that.
    pub tuples_evicted: u64,
    /// Tuples rejected upstream of the cell store: join matches skipped
    /// unexpanded ([`ExecStats::join_matches_skipped`]) plus produced tuples
    /// dropped by the batch filter stage — the bounded local skyline
    /// pre-filter and the admitted-forest snapshot filter.
    pub tuples_prefiltered: u64,
    /// Pareto-optimal tuples removed at emission by the flexible-dominance
    /// filter (always 0 under the default Pareto model) — the measured
    /// result-set shrinkage of an F-skyline query.
    pub tuples_fdom_filtered: u64,

    /// Rows accepted through streaming ingestion (both sources; 0 for
    /// batch runs, whose inputs are materialized before `prepare`).
    pub tuples_ingested: u64,
    /// Regions whose input cells were sealed by watermarks or source close
    /// during streaming ingestion, unlocking them for the readiness-gated
    /// schedule (0 for batch runs — every region is born ready).
    pub regions_unlocked: usize,

    /// Results emitted (equals the final skyline size on a full run; may be
    /// smaller when the run was cancelled).
    pub results_emitted: u64,

    /// Tuples emitted in tentative (`proven_final = false`) batches that
    /// the final result later disowned — SSMJ's batch-1 false positives.
    /// Always 0 for engines whose every batch is proven final.
    pub results_retracted: u64,

    /// True when execution stopped early — the session was cancelled or a
    /// `take(k)` consumer detached before every region was resolved.
    pub cancelled: bool,
    /// Regions left unresolved by an early stop (0 on a full run).
    pub regions_skipped: usize,

    /// Per-region tuple-level latency (join + map + dominance per region).
    pub region_latency: Histogram,
    /// Ordered-commit latency per committed batch.
    pub commit_latency: Histogram,
    /// Inter-arrival time between accepted ingest batches (streaming runs
    /// only; empty for batch runs).
    pub batch_interarrival: Histogram,
}

/// Cuts one wall-clock interval into consecutive laps, so the buckets the
/// laps are stored in add up to the interval with nothing in between.
pub(crate) struct Laps(Instant);

impl Laps {
    pub(crate) fn since(start: Instant) -> Self {
        Self(start)
    }

    /// Time since the previous lap (or the start).
    pub(crate) fn lap(&mut self) -> Duration {
        let now = Instant::now();
        now.duration_since(std::mem::replace(&mut self.0, now))
    }
}

impl ExecStats {
    /// The five phase buckets [`lookahead_time`](Self::lookahead_time) is
    /// defined as the sum of.
    fn lookahead_phase_sum(&self) -> Duration {
        self.remap_time
            + self.grid_time
            + self.region_lookahead_time
            + self.determine_init_time
            + self.schedule_time
    }

    /// Stamps [`lookahead_time`](Self::lookahead_time) — called once, when
    /// the last of its buckets is.
    pub(crate) fn close_lookahead_ledger(&mut self) {
        self.lookahead_time = self.lookahead_phase_sum();
    }

    /// The time ledger of a finished `Inline` run, as the tests of both
    /// front ends assert it: the phase buckets add up to `lookahead_time`
    /// exactly, the three disjoint committer-thread phases fit inside the
    /// wall, and every computed region left one compute and one commit
    /// sample — identities, so no threshold to tune.
    #[cfg(test)]
    pub(crate) fn assert_inline_ledger(&self) {
        assert_eq!(self.lookahead_time, self.lookahead_phase_sum(), "{self}");
        assert!(!self.lookahead_time.is_zero(), "{self}");
        assert!(
            self.lookahead_time + self.tuple_time + self.commit_time <= self.total_time,
            "{self}"
        );
        let committed = (self.regions_processed + self.regions_computed_dead) as u64;
        assert_eq!(self.region_latency.count(), committed, "{self}");
        assert_eq!(self.commit_latency.count(), committed, "{self}");
    }

    /// Fraction of partition pairs eliminated before tuple-level work.
    pub fn signature_rejection_rate(&self) -> f64 {
        let total =
            self.pairs_rejected_by_signature + self.regions_created + self.regions_pruned_lookahead;
        if total == 0 {
            0.0
        } else {
            self.pairs_rejected_by_signature as f64 / total as f64
        }
    }

    /// Join matches that survived into the final result.
    pub fn result_selectivity(&self) -> f64 {
        if self.join_matches == 0 {
            0.0
        } else {
            self.results_emitted as f64 / self.join_matches as f64
        }
    }

    /// The stats as a structured [`Report`] — the exportable view over the
    /// same counters this struct has always carried. `report().to_json()`
    /// is the machine encoding; the report's `Display` is the multi-line
    /// human one (the one-line `Display` on `ExecStats` itself is
    /// unchanged). Empty histograms and zero-valued streaming counters are
    /// skipped so batch runs export no streaming noise.
    pub fn report(&self) -> Report {
        let mut r = Report::new("exec stats");
        r.push("results_emitted", Value::U64(self.results_emitted))
            .push("total_ms", Value::DurationMs(self.total_time))
            .push("lookahead_ms", Value::DurationMs(self.lookahead_time))
            .push("remap_ms", Value::DurationMs(self.remap_time))
            .push("grid_ms", Value::DurationMs(self.grid_time))
            .push(
                "region_lookahead_ms",
                Value::DurationMs(self.region_lookahead_time),
            )
            .push(
                "determine_init_ms",
                Value::DurationMs(self.determine_init_time),
            )
            .push("schedule_ms", Value::DurationMs(self.schedule_time))
            .push("tuple_ms", Value::DurationMs(self.tuple_time))
            .push("commit_ms", Value::DurationMs(self.commit_time))
            .push("resolve_ms", Value::DurationMs(self.resolve_time))
            .push("dispatch_ms", Value::DurationMs(self.dispatch_time))
            .push("commit_wait_ms", Value::DurationMs(self.commit_wait_time))
            .push("threads_used", Value::U64(self.threads_used.max(1) as u64))
            .push("inflight_peak", Value::U64(self.inflight_peak as u64))
            .push("regions_created", Value::U64(self.regions_created as u64))
            .push(
                "regions_processed",
                Value::U64(self.regions_processed as u64),
            )
            .push(
                "regions_discarded_dead",
                Value::U64(self.regions_discarded_dead as u64),
            )
            .push(
                "regions_computed_dead",
                Value::U64(self.regions_computed_dead as u64),
            )
            .push("cells_tracked", Value::U64(self.cells_tracked as u64))
            .push("cells_emitted", Value::U64(self.cells_emitted as u64))
            .push(
                "join_pairs_evaluated",
                Value::U64(self.join_pairs_evaluated),
            )
            .push("join_probes", Value::U64(self.join_probes))
            .push("join_build_rows", Value::U64(self.join_build_rows))
            .push("join_matches", Value::U64(self.join_matches))
            .push(
                "join_matches_skipped",
                Value::U64(self.join_matches_skipped),
            )
            .push("dominance_tests", Value::U64(self.dominance_tests))
            .push(
                "lookahead_dominance_tests",
                Value::U64(self.lookahead_dominance_tests),
            )
            .push(
                "filter_dominance_tests",
                Value::U64(self.filter_dominance_tests),
            )
            .push(
                "store_dominance_tests",
                Value::U64(self.store_dominance_tests),
            )
            .push("cancelled", Value::Bool(self.cancelled));
        if self.dominance_pairs > 0 {
            r.push("dominance_pairs", Value::U64(self.dominance_pairs));
        }
        if self.fdom_vertex_evals > 0 {
            r.push("fdom_vertex_evals", Value::U64(self.fdom_vertex_evals));
        }
        if self.tuples_ingested > 0 || self.regions_unlocked > 0 {
            r.push("tuples_ingested", Value::U64(self.tuples_ingested))
                .push("regions_unlocked", Value::U64(self.regions_unlocked as u64));
        }
        if !self.region_latency.is_empty() {
            r.push("region_latency", Value::hist(self.region_latency.clone()));
        }
        if !self.commit_latency.is_empty() {
            r.push("commit_latency", Value::hist(self.commit_latency.clone()));
        }
        if !self.batch_interarrival.is_empty() {
            r.push(
                "batch_interarrival",
                Value::hist(self.batch_interarrival.clone()),
            );
        }
        r
    }
}

impl std::fmt::Display for ExecStats {
    /// One-line human summary, used by the examples and the bench report.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} results in {:.1?} ({}/{} regions processed, {} discarded dead, \
             {} join matches from {} probes over {} grouped rows, \
             {} dominance tests, {} thread{})",
            self.results_emitted,
            self.total_time,
            self.regions_processed,
            self.regions_created,
            self.regions_discarded_dead,
            self.join_matches,
            self.join_probes,
            self.join_build_rows,
            self.dominance_tests,
            self.threads_used.max(1),
            if self.threads_used > 1 { "s" } else { "" },
        )?;
        if self.join_matches_skipped > 0 {
            write!(
                f,
                " [{} more matches skipped unexpanded]",
                self.join_matches_skipped
            )?;
        }
        if !self.lookahead_time.is_zero() {
            write!(
                f,
                " [look-ahead {:.1?}: remap {:.1?}, grid {:.1?}, regions {:.1?}, \
                 blockers {:.1?}, schedule {:.1?}]",
                self.lookahead_time,
                self.remap_time,
                self.grid_time,
                self.region_lookahead_time,
                self.determine_init_time,
                self.schedule_time,
            )?;
        }
        if self.inflight_peak > 0 {
            write!(
                f,
                " [≤{} in flight, {} computed dead, committer dispatched {:.1?} + waited {:.1?}]",
                self.inflight_peak,
                self.regions_computed_dead,
                self.dispatch_time,
                self.commit_wait_time
            )?;
        }
        if !self.resolve_time.is_zero() {
            write!(
                f,
                " [commit {:.1?}, of which (and of dead-region discards) {:.1?} resolving]",
                self.commit_time, self.resolve_time
            )?;
        }
        if self.dominance_pairs > 0 {
            write!(f, " [{} kernel pairs", self.dominance_pairs)?;
            if self.fdom_vertex_evals > 0 {
                write!(f, ", {} vertex evals", self.fdom_vertex_evals)?;
            }
            write!(f, "]")?;
        }
        if self.tuples_ingested > 0 || self.regions_unlocked > 0 {
            write!(
                f,
                " [{} tuples ingested, {} regions unlocked]",
                self.tuples_ingested, self.regions_unlocked
            )?;
        }
        if self.cancelled {
            write!(f, " [cancelled, {} regions skipped]", self.regions_skipped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = ExecStats::default();
        assert_eq!(s.signature_rejection_rate(), 0.0);
        assert_eq!(s.result_selectivity(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = ExecStats {
            pairs_rejected_by_signature: 30,
            regions_created: 60,
            regions_pruned_lookahead: 10,
            join_matches: 200,
            results_emitted: 50,
            ..ExecStats::default()
        };
        assert!((s.signature_rejection_rate() - 0.3).abs() < 1e-12);
        assert!((s.result_selectivity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_is_one_line_and_mentions_cancellation() {
        let mut s = ExecStats {
            results_emitted: 42,
            regions_processed: 7,
            regions_created: 9,
            threads_used: 4,
            ..ExecStats::default()
        };
        let line = s.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("42 results"));
        assert!(line.contains("4 threads"));
        assert!(!line.contains("cancelled"));
        s.cancelled = true;
        s.regions_skipped = 2;
        assert!(s.to_string().contains("[cancelled, 2 regions skipped]"));
    }

    #[test]
    fn display_includes_ingest_counters_when_streaming() {
        let mut s = ExecStats {
            results_emitted: 5,
            ..ExecStats::default()
        };
        assert!(
            !s.to_string().contains("ingested"),
            "batch runs stay ingest-silent"
        );
        s.tuples_ingested = 120;
        s.regions_unlocked = 7;
        let line = s.to_string();
        assert!(!line.contains('\n'));
        assert!(
            line.contains("[120 tuples ingested, 7 regions unlocked]"),
            "{line}"
        );
        // The ingest note precedes a cancellation note.
        s.cancelled = true;
        let line = s.to_string();
        let ingest_at = line.find("tuples ingested").unwrap();
        let cancel_at = line.find("cancelled").unwrap();
        assert!(ingest_at < cancel_at, "{line}");
    }

    #[test]
    fn display_and_report_surface_the_lookahead_split() {
        let mut s = ExecStats {
            results_emitted: 1,
            ..ExecStats::default()
        };
        assert!(!s.to_string().contains("look-ahead"), "trivial run: silent");
        s.remap_time = Duration::from_micros(100);
        s.grid_time = Duration::from_micros(500);
        s.region_lookahead_time = Duration::from_micros(300);
        s.determine_init_time = Duration::from_micros(200);
        s.schedule_time = Duration::from_micros(900);
        s.cells_tracked = 12_096;
        s.close_lookahead_ledger();
        assert_eq!(s.lookahead_time, Duration::from_micros(2_000));
        let line = s.to_string();
        assert!(!line.contains('\n'));
        assert!(
            line.contains(
                "[look-ahead 2.0ms: remap 100.0µs, grid 500.0µs, regions 300.0µs, \
                 blockers 200.0µs, schedule 900.0µs]"
            ),
            "{line}"
        );
        let json = s.report().to_json();
        assert!(
            json.contains(
                "\"lookahead_ms\": 2.000, \"remap_ms\": 0.100, \"grid_ms\": 0.500, \
                 \"region_lookahead_ms\": 0.300, \"determine_init_ms\": 0.200, \
                 \"schedule_ms\": 0.900"
            ),
            "the buckets sit directly under their sum: {json}"
        );
        assert!(
            json.contains("\"cells_tracked\": 12096, \"cells_emitted\": 0"),
            "{json}"
        );
    }

    #[test]
    fn display_and_report_surface_kernel_counters_when_nonzero() {
        let mut s = ExecStats {
            results_emitted: 1,
            dominance_tests: 10,
            ..ExecStats::default()
        };
        assert!(!s.to_string().contains("kernel pairs"));
        assert!(!s.report().to_json().contains("dominance_pairs"));
        s.dominance_pairs = 8;
        let line = s.to_string();
        assert!(line.contains("[8 kernel pairs]"), "{line}");
        assert!(!line.contains("vertex evals"), "{line}");
        s.fdom_vertex_evals = 24;
        let line = s.to_string();
        assert!(line.contains("[8 kernel pairs, 24 vertex evals]"), "{line}");
        let json = s.report().to_json();
        assert!(json.contains("\"dominance_pairs\": 8"), "{json}");
        assert!(json.contains("\"fdom_vertex_evals\": 24"), "{json}");
    }

    #[test]
    fn display_and_report_surface_skipped_matches() {
        let mut s = ExecStats {
            join_matches: 40,
            ..ExecStats::default()
        };
        assert!(!s.to_string().contains("skipped"), "nothing skipped");
        s.join_matches_skipped = 960;
        let line = s.to_string();
        assert!(
            line.contains("40 join matches from") && !line.contains('\n'),
            "{line}"
        );
        assert!(
            line.contains("[960 more matches skipped unexpanded]"),
            "{line}"
        );
        let json = s.report().to_json();
        assert!(
            json.contains("\"join_matches\": 40, \"join_matches_skipped\": 960"),
            "{json}"
        );
    }

    #[test]
    fn display_and_report_surface_the_pooled_ledger() {
        let mut s = ExecStats {
            results_emitted: 3,
            threads_used: 2,
            ..ExecStats::default()
        };
        assert!(
            !s.to_string().contains("in flight"),
            "inline runs stay silent"
        );
        s.inflight_peak = 4;
        s.regions_computed_dead = 2;
        s.dispatch_time = Duration::from_millis(5);
        s.commit_wait_time = Duration::from_millis(7);
        assert!(!s.to_string().contains("resolving"), "nothing resolved yet");
        s.commit_time = Duration::from_millis(9);
        s.resolve_time = Duration::from_millis(3);
        let line = s.to_string();
        assert!(!line.contains('\n'));
        assert!(
            line.contains(
                "[≤4 in flight, 2 computed dead, committer dispatched 5.0ms + waited 7.0ms]"
            ),
            "{line}"
        );
        assert!(
            line.contains("[commit 9.0ms, of which (and of dead-region discards) 3.0ms resolving]"),
            "{line}"
        );
        let json = s.report().to_json();
        assert!(
            json.contains("\"commit_ms\": 9.000, \"resolve_ms\": 3.000"),
            "resolve_ms sits directly under commit_ms: {json}"
        );
        for key in [
            "\"commit_wait_ms\"",
            "\"dispatch_ms\"",
            "\"inflight_peak\": 4",
            "\"regions_computed_dead\": 2",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }

    #[test]
    fn report_view_skips_empty_sections() {
        let mut s = ExecStats {
            results_emitted: 9,
            threads_used: 2,
            ..ExecStats::default()
        };
        let json = s.report().to_json();
        assert!(json.contains("\"results_emitted\": 9"), "{json}");
        assert!(!json.contains("region_latency"), "{json}");
        assert!(!json.contains("tuples_ingested"), "{json}");
        s.region_latency.record_us(100);
        s.tuples_ingested = 3;
        let json = s.report().to_json();
        assert!(json.contains("\"region_latency\": {\"count\":1"), "{json}");
        assert!(json.contains("\"tuples_ingested\": 3"), "{json}");
    }
}
