//! Planner: validates a parsed [`Query`] against a [`Catalog`] and compiles
//! it into executor-ready artifacts (filtered sources + a [`MapSet`]).

use crate::ast::{ColumnRef, ComparisonOp, Expr, Query, WeightCmp, WeightsClause};
use crate::catalog::{BoundTable, Catalog, StreamTable, TableSchema};
use progxe_core::fdom::{DominanceModel, FDominance, FdomError, WeightConstraint};
use progxe_core::grid::CutMemo;
use progxe_core::mapping::{MapSet, MappingFunction, WeightedSum};
use progxe_core::source::SourceData;
use progxe_skyline::{Order, Preference};
use std::fmt;
use std::sync::Arc;

/// Planning failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// FROM references a table the catalog does not know.
    UnknownTable(String),
    /// A streaming plan references a table that is not streaming-registered.
    NotStreaming(String),
    /// An expression references an alias not bound in FROM.
    UnknownAlias(String),
    /// A column is not part of its table's schema.
    UnknownColumn(String, String),
    /// The join predicate must compare the two key columns.
    BadJoin(String),
    /// The key column cannot appear in arithmetic or filters.
    KeyInExpression(String),
    /// PREFERRING names an output that does not exist.
    UnknownPreference(String),
    /// An output has no PREFERRING entry (or has several).
    PreferenceMismatch(String),
    /// The query must define at least one output.
    NoOutputs,
    /// `WITH WEIGHTS` declares a different number of weights than outputs.
    WeightArity {
        /// Weights declared.
        weights: usize,
        /// Mapped outputs defined.
        outputs: usize,
    },
    /// A weight name is declared twice.
    DuplicateWeight(String),
    /// A `CONSTRAIN` clause references an undeclared weight name.
    UnknownWeight(String),
    /// The declared weight family is degenerate (empty polytope, NaN
    /// bounds, …) — rejected at plan time so execution can never panic on
    /// it (see [`FdomError`]).
    BadWeights(FdomError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            PlanError::NotStreaming(t) => write!(
                f,
                "table {t:?} is not registered for streaming ingestion \
                 (use Catalog::register_streaming)"
            ),
            PlanError::UnknownAlias(a) => write!(f, "unknown alias {a:?}"),
            PlanError::UnknownColumn(t, c) => write!(f, "unknown column {t}.{c}"),
            PlanError::BadJoin(m) => write!(f, "bad join predicate: {m}"),
            PlanError::KeyInExpression(c) => {
                write!(f, "join-key column {c:?} cannot be used in expressions")
            }
            PlanError::UnknownPreference(n) => {
                write!(f, "PREFERRING references unknown output {n:?}")
            }
            PlanError::PreferenceMismatch(n) => {
                write!(f, "output {n:?} needs exactly one PREFERRING entry")
            }
            PlanError::NoOutputs => write!(f, "query defines no mapped outputs"),
            PlanError::WeightArity { weights, outputs } => write!(
                f,
                "WITH WEIGHTS declares {weights} weight(s) but the query defines \
                 {outputs} output(s) — weights bind positionally to outputs"
            ),
            PlanError::DuplicateWeight(n) => write!(f, "weight {n:?} declared twice"),
            PlanError::UnknownWeight(n) => {
                write!(f, "CONSTRAIN references undeclared weight {n:?}")
            }
            PlanError::BadWeights(e) => write!(f, "bad weight family: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A fully validated, executable query.
pub struct PlannedQuery {
    /// Filtered left source (rows surviving the R-side filters) — the
    /// catalog's own table, shared, when the query has no R-side filter.
    pub r: Arc<SourceData>,
    /// Filtered right source, shared likewise.
    pub t: Arc<SourceData>,
    /// Original row id per filtered R row; `None` when the query has no
    /// R-side filter, so row ids already are the table's.
    pub r_rows: Option<Vec<u32>>,
    /// Original row id per filtered T row; `None` without a T-side filter.
    pub t_rows: Option<Vec<u32>>,
    /// Compiled mapping functions + preference.
    pub maps: MapSet,
    /// Output attribute names, in map order.
    pub output_names: Vec<String>,
    /// Per side (R, T), the catalog table's data and row-cut memo when the
    /// side reads that table unfiltered.
    cuts: [Option<(Arc<SourceData>, Arc<CutMemo>)>; 2],
}

impl PlannedQuery {
    /// The row-cut memo of `data` (`r` or `t`): its catalog table's, while
    /// `data` still is the unfiltered table data it was planned over.
    pub(crate) fn cuts(&self, data: &Arc<SourceData>) -> Option<&CutMemo> {
        let (_, cuts) = self
            .cuts
            .iter()
            .flatten()
            .find(|(table, _)| Arc::ptr_eq(table, data))?;
        Some(cuts)
    }
}

/// Which side of the join an alias binds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SideOf {
    R,
    T,
}

/// One compiled side filter: `(column index, comparison, literal)`.
pub type SideFilter = (usize, ComparisonOp, f64);

/// The data-independent part of a plan: compiled maps, preference, output
/// names, and per-side filters. The batch planner applies the filters to
/// materialized data; the streaming runner applies them per pushed batch.
pub struct CompiledQuery {
    /// Compiled mapping functions + preference.
    pub maps: MapSet,
    /// Output attribute names, in map order.
    pub output_names: Vec<String>,
    /// Filters on the R side (selection push-down below the join).
    pub r_filters: Vec<SideFilter>,
    /// Filters on the T side.
    pub t_filters: Vec<SideFilter>,
}

/// Validates and compiles `query` against the two source schemas — the
/// shared front half of [`plan`] and [`plan_streaming`].
pub fn compile(
    query: &Query,
    r_schema: &TableSchema,
    t_schema: &TableSchema,
) -> Result<CompiledQuery, PlanError> {
    if query.outputs.is_empty() {
        return Err(PlanError::NoOutputs);
    }
    let r_alias = &query.sources[0].alias;
    let t_alias = &query.sources[1].alias;

    let side_of = |alias: &str| -> Result<SideOf, PlanError> {
        if alias == r_alias {
            Ok(SideOf::R)
        } else if alias == t_alias {
            Ok(SideOf::T)
        } else {
            Err(PlanError::UnknownAlias(alias.to_owned()))
        }
    };
    let schema_of = |side: SideOf| -> &TableSchema {
        match side {
            SideOf::R => r_schema,
            SideOf::T => t_schema,
        }
    };

    // Validate the join predicate: key column on each side, one per side.
    {
        let ls = side_of(&query.join.left.alias)?;
        let rs = side_of(&query.join.right.alias)?;
        if ls == rs {
            return Err(PlanError::BadJoin("both sides bind the same source".into()));
        }
        for (side, col) in [(ls, &query.join.left), (rs, &query.join.right)] {
            let schema = schema_of(side);
            if !schema.is_key(&col.column) {
                return Err(PlanError::BadJoin(format!(
                    "{}.{} is not the join-key column ({})",
                    col.alias, col.column, schema.key_column
                )));
            }
        }
    }

    // Resolve a numeric column to (side, index).
    let resolve = |col: &ColumnRef| -> Result<(SideOf, usize), PlanError> {
        let side = side_of(&col.alias)?;
        let schema = schema_of(side);
        if schema.is_key(&col.column) {
            return Err(PlanError::KeyInExpression(col.column.clone()));
        }
        // `id` is implicit row identity, not a numeric attribute.
        schema
            .column_index(&col.column)
            .map(|i| (side, i))
            .ok_or_else(|| PlanError::UnknownColumn(schema.name.clone(), col.column.clone()))
    };

    // Compile outputs into weighted sums.
    let compile_expr = |expr: &Expr| -> Result<WeightedSum, PlanError> {
        let mut rw = vec![0.0; r_schema.columns.len()];
        let mut tw = vec![0.0; t_schema.columns.len()];
        for (coeff, col) in &expr.terms {
            let (side, idx) = resolve(col)?;
            match side {
                SideOf::R => rw[idx] += coeff,
                SideOf::T => tw[idx] += coeff,
            }
        }
        Ok(WeightedSum::new(rw, tw).with_constant(expr.constant))
    };

    // Match PREFERRING entries to outputs (one each, any order).
    let mut orders: Vec<Option<Order>> = vec![None; query.outputs.len()];
    for (name, order) in &query.preferences {
        let idx = query
            .outputs
            .iter()
            .position(|o| &o.name == name)
            .ok_or_else(|| PlanError::UnknownPreference(name.clone()))?;
        if orders[idx].replace(*order).is_some() {
            return Err(PlanError::PreferenceMismatch(name.clone()));
        }
    }
    let mut pref_orders = Vec::with_capacity(orders.len());
    for (o, def) in orders.iter().zip(&query.outputs) {
        pref_orders.push(o.ok_or_else(|| PlanError::PreferenceMismatch(def.name.clone()))?);
    }

    let mut maps: Vec<Box<dyn MappingFunction>> = Vec::with_capacity(query.outputs.len());
    for def in &query.outputs {
        maps.push(Box::new(compile_expr(&def.expr)?));
    }
    let mut maps =
        MapSet::new(maps, Preference::new(pref_orders)).expect("arity consistent by construction");

    // WITH WEIGHTS: compile the flexible-dominance model. Degenerate
    // families (empty polytope, NaN/negative-infeasible bounds) surface as
    // typed plan errors here — execution can never hit them.
    if let Some(clause) = &query.weights {
        let model = compile_weights(clause, query.outputs.len())?;
        maps = maps
            .with_dominance(model)
            .expect("weight dimensionality checked in compile_weights");
    }

    // Compile filters per side (selection push-down below the join).
    let mut r_filters = Vec::new();
    let mut t_filters = Vec::new();
    for fp in &query.filters {
        let (side, idx) = resolve(&fp.column)?;
        match side {
            SideOf::R => r_filters.push((idx, fp.op, fp.value)),
            SideOf::T => t_filters.push((idx, fp.op, fp.value)),
        }
    }

    Ok(CompiledQuery {
        maps,
        output_names: query.outputs.iter().map(|o| o.name.clone()).collect(),
        r_filters,
        t_filters,
    })
}

/// Compiles `query` against `catalog`.
pub fn plan(query: &Query, catalog: &Catalog) -> Result<PlannedQuery, PlanError> {
    let r_table = catalog
        .table(&query.sources[0].table)
        .ok_or_else(|| PlanError::UnknownTable(query.sources[0].table.clone()))?;
    let t_table = catalog
        .table(&query.sources[1].table)
        .ok_or_else(|| PlanError::UnknownTable(query.sources[1].table.clone()))?;
    let compiled = compile(query, &r_table.schema, &t_table.schema)?;

    let (r, r_rows) = apply_filters(&r_table.data, &compiled.r_filters);
    let (t, t_rows) = apply_filters(&t_table.data, &compiled.t_filters);
    let cuts = |table: &BoundTable, rows: &Option<Vec<u32>>| {
        rows.is_none()
            .then(|| (Arc::clone(&table.data), Arc::clone(&table.cuts)))
    };
    let cuts = [cuts(r_table, &r_rows), cuts(t_table, &t_rows)];

    Ok(PlannedQuery {
        r,
        t,
        r_rows,
        t_rows,
        maps: compiled.maps,
        output_names: compiled.output_names,
        cuts,
    })
}

/// A compiled query over two *streaming* tables: everything the batch plan
/// carries except materialized data, plus the declared value bounds that
/// fix the streaming grid geometry.
pub struct StreamingPlan {
    /// The data-independent compiled artifacts.
    pub compiled: CompiledQuery,
    /// The R-side streaming table (schema + declared bounds).
    pub r: StreamTable,
    /// The T-side streaming table.
    pub t: StreamTable,
}

/// Compiles `query` against the catalog's *streaming* tables. Both FROM
/// tables must have been registered with
/// [`Catalog::register_streaming`](crate::catalog::Catalog::register_streaming).
pub fn plan_streaming(query: &Query, catalog: &Catalog) -> Result<StreamingPlan, PlanError> {
    let lookup = |name: &str| -> Result<&StreamTable, PlanError> {
        catalog.streaming(name).ok_or_else(|| {
            if catalog.table(name).is_some() {
                PlanError::NotStreaming(name.to_owned())
            } else {
                PlanError::UnknownTable(name.to_owned())
            }
        })
    };
    let r_table = lookup(&query.sources[0].table)?;
    let t_table = lookup(&query.sources[1].table)?;
    let compiled = compile(query, &r_table.schema, &t_table.schema)?;
    Ok(StreamingPlan {
        compiled,
        r: r_table.clone(),
        t: t_table.clone(),
    })
}

/// Compiles a `WITH WEIGHTS` clause into a [`DominanceModel`]: weight
/// names bind positionally to the SELECT outputs, `CONSTRAIN` conjuncts
/// become `A·w ≤ b` rows (`≥` negated, `=` a pair of inequalities), and
/// the weight polytope's vertices are enumerated eagerly so degeneracies
/// are plan-time errors.
fn compile_weights(clause: &WeightsClause, outputs: usize) -> Result<DominanceModel, PlanError> {
    if clause.names.len() != outputs {
        return Err(PlanError::WeightArity {
            weights: clause.names.len(),
            outputs,
        });
    }
    for (i, name) in clause.names.iter().enumerate() {
        if clause.names[..i].contains(name) {
            return Err(PlanError::DuplicateWeight(name.clone()));
        }
    }
    let index_of = |name: &str| -> Result<usize, PlanError> {
        clause
            .names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| PlanError::UnknownWeight(name.to_owned()))
    };

    let k = clause.names.len();
    let mut constraints = Vec::new();
    for pred in &clause.constraints {
        let mut coeffs = vec![0.0; k];
        for (c, name) in &pred.lhs.terms {
            coeffs[index_of(name)?] += c;
        }
        // Move the lhs constant to the rhs: terms·w + c OP v ⇔ terms·w OP v − c.
        let bound = pred.value - pred.lhs.constant;
        match pred.op {
            WeightCmp::Le => constraints.push(WeightConstraint::le(coeffs, bound)),
            WeightCmp::Ge => constraints.push(WeightConstraint::le(
                coeffs.iter().map(|c| -c).collect(),
                -bound,
            )),
            WeightCmp::Eq => {
                constraints.push(WeightConstraint::le(
                    coeffs.iter().map(|c| -c).collect(),
                    -bound,
                ));
                constraints.push(WeightConstraint::le(coeffs, bound));
            }
        }
    }
    let fdom = FDominance::new(k, constraints).map_err(PlanError::BadWeights)?;
    Ok(DominanceModel::flexible(fdom))
}

/// The rows of `data` passing every filter, with their original row ids —
/// `data` itself and `None` when there is nothing to filter by.
fn apply_filters(
    data: &Arc<SourceData>,
    filters: &[SideFilter],
) -> (Arc<SourceData>, Option<Vec<u32>>) {
    if filters.is_empty() {
        return (Arc::clone(data), None);
    }
    let dims = data.attrs.dims();
    let mut out = SourceData::new(dims);
    let mut rows = Vec::new();
    for row in 0..data.len() {
        let attrs = data.attrs.point(row);
        if filters.iter().all(|&(idx, op, v)| op.eval(attrs[idx], v)) {
            out.push(attrs, data.join_keys[row]);
            rows.push(row as u32);
        }
    }
    (Arc::new(out), Some(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableSchema;
    use crate::parser::parse_query;

    fn catalog() -> Catalog {
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
                    (&[20.0, 1.0, 50.0], 0),
                    (&[5.0, 9.0, 500.0], 1),
                ],
            ),
        );
        cat.register(
            TableSchema::new(
                "Transporters",
                vec!["uShipCost".into(), "shipTime".into()],
                "country",
            ),
            SourceData::from_rows(2, &[(&[2.0, 4.0], 0), (&[8.0, 1.0], 1)]),
        );
        cat
    }

    const Q1: &str = "SELECT R.id, T.id, \
         (R.uPrice + T.uShipCost) AS tCost, \
         (2 * R.manTime + T.shipTime) AS delay \
         FROM Suppliers R, Transporters T \
         WHERE R.country = T.country AND R.manCap >= 100 \
         PREFERRING LOWEST(tCost) AND LOWEST(delay)";

    #[test]
    fn plans_q1() {
        let q = parse_query(Q1).unwrap();
        let p = plan(&q, &catalog()).unwrap();
        assert_eq!(p.output_names, vec!["tCost", "delay"]);
        // Filter manCap >= 100 removes supplier row 1.
        assert_eq!(p.r_rows, Some(vec![0, 2]));
        assert_eq!(p.t_rows, None, "no T-side filter, no translation table");
        // Compiled map evaluates like the SQL expression.
        let mut out = Vec::new();
        p.maps
            .eval_into(p.r.attrs.point(0), p.t.attrs.point(0), &mut out);
        assert_eq!(out, vec![10.0 + 2.0, 2.0 * 3.0 + 4.0]);
    }

    /// A side without a filter reads the catalog's table itself; a filtered
    /// side gets its own copy.
    #[test]
    fn unfiltered_sides_share_the_catalog_table() {
        let cat = catalog();
        let table = |name| &cat.table(name).unwrap().data;
        let p = plan(&parse_query(Q1).unwrap(), &cat).unwrap();
        assert!(!Arc::ptr_eq(&p.r, table("Suppliers")), "filtered");
        assert!(Arc::ptr_eq(&p.t, table("Transporters")));
        let unfiltered = Q1.replace(" AND R.manCap >= 100", "");
        let p = plan(&parse_query(&unfiltered).unwrap(), &cat).unwrap();
        assert!(Arc::ptr_eq(&p.r, table("Suppliers")));
        assert!(Arc::ptr_eq(&p.t, table("Transporters")));
    }

    #[test]
    fn unknown_table_rejected() {
        let q = parse_query(
            "SELECT (R.a + T.b) AS x FROM Nope R, Transporters T \
             WHERE R.k = T.country PREFERRING LOWEST(x)",
        )
        .unwrap();
        assert!(matches!(
            plan(&q, &catalog()),
            Err(PlanError::UnknownTable(_))
        ));
    }

    #[test]
    fn unknown_column_rejected() {
        let q = parse_query(
            "SELECT (R.bogus + T.uShipCost) AS x FROM Suppliers R, Transporters T \
             WHERE R.country = T.country PREFERRING LOWEST(x)",
        )
        .unwrap();
        assert!(matches!(
            plan(&q, &catalog()),
            Err(PlanError::UnknownColumn(_, _))
        ));
    }

    #[test]
    fn join_must_use_key_columns() {
        let q = parse_query(
            "SELECT (R.uPrice + T.uShipCost) AS x FROM Suppliers R, Transporters T \
             WHERE R.uPrice = T.uShipCost PREFERRING LOWEST(x)",
        )
        .unwrap();
        assert!(matches!(plan(&q, &catalog()), Err(PlanError::BadJoin(_))));
    }

    #[test]
    fn key_in_expression_rejected() {
        let q = parse_query(
            "SELECT (R.country + T.uShipCost) AS x FROM Suppliers R, Transporters T \
             WHERE R.country = T.country PREFERRING LOWEST(x)",
        )
        .unwrap();
        assert!(matches!(
            plan(&q, &catalog()),
            Err(PlanError::KeyInExpression(_))
        ));
    }

    #[test]
    fn preference_must_cover_outputs() {
        let q = parse_query(
            "SELECT (R.uPrice + T.uShipCost) AS a, (R.manTime + T.shipTime) AS b \
             FROM Suppliers R, Transporters T \
             WHERE R.country = T.country PREFERRING LOWEST(a)",
        )
        .unwrap();
        assert!(matches!(
            plan(&q, &catalog()),
            Err(PlanError::PreferenceMismatch(_))
        ));
    }

    #[test]
    fn unknown_preference_rejected() {
        let q = parse_query(
            "SELECT (R.uPrice + T.uShipCost) AS a FROM Suppliers R, Transporters T \
             WHERE R.country = T.country PREFERRING LOWEST(zzz)",
        )
        .unwrap();
        assert!(matches!(
            plan(&q, &catalog()),
            Err(PlanError::UnknownPreference(_))
        ));
    }

    const Q1_FLEX: &str = "SELECT R.id, T.id, \
         (R.uPrice + T.uShipCost) AS tCost, \
         (2 * R.manTime + T.shipTime) AS delay \
         FROM Suppliers R, Transporters T \
         WHERE R.country = T.country \
         PREFERRING LOWEST(tCost) AND LOWEST(delay) \
         WITH WEIGHTS (wc, wd) CONSTRAIN wc >= 0.3 AND wc <= 0.7";

    #[test]
    fn plans_flexible_weights_into_a_model() {
        let q = parse_query(Q1_FLEX).unwrap();
        let p = plan(&q, &catalog()).unwrap();
        let fdom = p.maps.dominance().as_flexible().expect("flexible model");
        assert_eq!(fdom.dims(), 2);
        assert_eq!(fdom.vertex_count(), 2, "band in 2-d has two vertices");
        // Vertices are (0.3, 0.7) and (0.7, 0.3) up to order.
        let mut firsts: Vec<f64> = fdom.vertices().map(|v| v[0]).collect();
        firsts.sort_by(f64::total_cmp);
        assert!((firsts[0] - 0.3).abs() < 1e-9);
        assert!((firsts[1] - 0.7).abs() < 1e-9);
    }

    #[test]
    fn queries_without_weights_stay_pareto() {
        let q = parse_query(Q1).unwrap();
        let p = plan(&q, &catalog()).unwrap();
        assert!(p.maps.dominance().is_pareto());
    }

    #[test]
    fn weight_arity_mismatch_rejected() {
        let q = parse_query(
            "SELECT (R.uPrice + T.uShipCost) AS a FROM Suppliers R, Transporters T \
             WHERE R.country = T.country PREFERRING LOWEST(a) WITH WEIGHTS (u, v)",
        )
        .unwrap();
        assert!(matches!(
            plan(&q, &catalog()),
            Err(PlanError::WeightArity {
                weights: 2,
                outputs: 1
            })
        ));
    }

    #[test]
    fn duplicate_and_unknown_weights_rejected() {
        let q = parse_query(
            "SELECT (R.uPrice + T.uShipCost) AS a, (R.manTime + T.shipTime) AS b \
             FROM Suppliers R, Transporters T WHERE R.country = T.country \
             PREFERRING LOWEST(a) AND LOWEST(b) WITH WEIGHTS (w, w)",
        )
        .unwrap();
        assert!(matches!(
            plan(&q, &catalog()),
            Err(PlanError::DuplicateWeight(_))
        ));
        let q = parse_query(
            "SELECT (R.uPrice + T.uShipCost) AS a, (R.manTime + T.shipTime) AS b \
             FROM Suppliers R, Transporters T WHERE R.country = T.country \
             PREFERRING LOWEST(a) AND LOWEST(b) \
             WITH WEIGHTS (u, v) CONSTRAIN zz <= 0.5",
        )
        .unwrap();
        assert!(matches!(
            plan(&q, &catalog()),
            Err(PlanError::UnknownWeight(_))
        ));
    }

    #[test]
    fn degenerate_weight_families_are_plan_errors_not_panics() {
        // Empty polytope: u >= 0.9 and u <= 0.1.
        let q = parse_query(
            "SELECT (R.uPrice + T.uShipCost) AS a, (R.manTime + T.shipTime) AS b \
             FROM Suppliers R, Transporters T WHERE R.country = T.country \
             PREFERRING LOWEST(a) AND LOWEST(b) \
             WITH WEIGHTS (u, v) CONSTRAIN u >= 0.9 AND u <= 0.1",
        )
        .unwrap();
        assert!(matches!(
            plan(&q, &catalog()),
            Err(PlanError::BadWeights(
                progxe_core::fdom::FdomError::EmptyPolytope
            ))
        ));
        // Negative bound conflicting with w ≥ 0.
        let q = parse_query(
            "SELECT (R.uPrice + T.uShipCost) AS a, (R.manTime + T.shipTime) AS b \
             FROM Suppliers R, Transporters T WHERE R.country = T.country \
             PREFERRING LOWEST(a) AND LOWEST(b) \
             WITH WEIGHTS (u, v) CONSTRAIN u <= -0.5",
        )
        .unwrap();
        assert!(matches!(
            plan(&q, &catalog()),
            Err(PlanError::BadWeights(
                progxe_core::fdom::FdomError::EmptyPolytope
            ))
        ));
    }

    #[test]
    fn equality_weight_constraint_pins_the_family() {
        // u = 0.5 leaves a single weight vector: the flexible skyline
        // degenerates to the argmin of that weighted sum.
        let q = parse_query(
            "SELECT (R.uPrice + T.uShipCost) AS a, (R.manTime + T.shipTime) AS b \
             FROM Suppliers R, Transporters T WHERE R.country = T.country \
             PREFERRING LOWEST(a) AND LOWEST(b) \
             WITH WEIGHTS (u, v) CONSTRAIN u = 0.5",
        )
        .unwrap();
        let p = plan(&q, &catalog()).unwrap();
        let fdom = p.maps.dominance().as_flexible().unwrap();
        assert_eq!(fdom.vertex_count(), 1);
    }

    #[test]
    fn self_join_alias_collision_rejected() {
        let q = parse_query(
            "SELECT (R.uPrice + X.uPrice) AS x FROM Suppliers R, Suppliers X \
             WHERE R.country = R.country PREFERRING LOWEST(x)",
        )
        .unwrap();
        assert!(matches!(plan(&q, &catalog()), Err(PlanError::BadJoin(_))));
    }
}
