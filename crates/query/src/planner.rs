//! Cost-aware physical planning: lower a parsed [`Query`] onto the cheapest access path.
//!
//! The executor used to resolve every query by scanning the full class extent and filtering.
//! The planner instead inspects the query's selections and navigation and picks one of five
//! access paths, ranking the selections by simple cardinality estimates read off the
//! database's indexes:
//!
//! | access path | backing structure | cost |
//! |---|---|---|
//! | [`AccessPath::ByName`] | ordered name index (point probe) | `O(log n)` |
//! | [`AccessPath::ByNamePrefix`] | ordered name index (range scan) | `O(log n + hits)` |
//! | [`AccessPath::ByValue`] | secondary value index ([`seed_core::index`]) | `O(log n + hits)` |
//! | [`AccessPath::ByAdjacency`] | the navigation start object's adjacency list | `O(log n + degree)` |
//! | [`AccessPath::ClassScan`] | class extents (full scan) | `O(n)` |
//!
//! The selection that becomes the access path is *consumed* — it is not re-checked during
//! execution; every other selection stays as a residual filter, so indexed execution returns
//! exactly the result set of the scan fallback ([`crate::exec::execute_scan`]).  A navigating
//! query always walks its start object's adjacency, which any other path would walk as well
//! before intersecting; the walk consumes no selection.  `explain` renders the chosen plan
//! instead of running it; the format is specified in `docs/QUERY.md`.
//!
//! ```
//! use seed_core::Database;
//! use seed_schema::figure3_schema;
//!
//! let mut db = Database::new(figure3_schema());
//! db.create_object("Data", "Alarms").unwrap();
//! db.create_object("Data", "ProcessData").unwrap();
//! db.create_object("Action", "AlarmHandler").unwrap();
//! let plan = seed_query::plan(&db, &seed_query::parse(r#"find Thing where name = "Alarms""#).unwrap()).unwrap();
//! assert!(plan.render().contains("probe name index"));
//! let fallback = seed_query::plan(&db, &seed_query::parse("count Data").unwrap()).unwrap();
//! assert!(fallback.render().contains("scan extent"));
//! ```

use std::fmt::Write as _;

use seed_core::{Database, ValueOp};

use crate::ast::{Comparison, Navigation, Query, Selection};
use crate::error::{QueryError, QueryResult};

/// The physical access path a [`Plan`] starts from.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full scan of the class extent (and its specializations unless `exactly`) — the fallback
    /// when no selection is indexable or the extent is already smaller than any index result.
    ClassScan {
        /// Estimated number of rows scanned.
        rows: usize,
    },
    /// Point probe of the ordered name index with an exact hierarchical name.
    ByName {
        /// The probed name.
        name: String,
    },
    /// Range scan of the ordered name index over a hierarchical-name prefix.
    ByNamePrefix {
        /// The scanned prefix.
        prefix: String,
        /// Estimated number of rows in the range.
        rows: usize,
    },
    /// Probe (`=`) or range scan (`<` / `>`) of the secondary value index.
    ByValue {
        /// The comparison the index answers.
        op: Comparison,
        /// The query literal.
        literal: String,
        /// Estimated number of matching index entries.
        rows: usize,
    },
    /// Walk of the navigation start object's relationships: the objects they reach, kept when
    /// they belong to the queried extent.  Every navigating query takes this path.
    ByAdjacency {
        /// The navigation the walk performs.
        navigation: Navigation,
        /// The start object's degree (its relationships plus those of inherited patterns).
        rows: usize,
    },
}

impl AccessPath {
    /// The cardinality estimate that ranked this path (point probes count as one row).
    pub fn estimated_rows(&self) -> usize {
        match self {
            AccessPath::ClassScan { rows }
            | AccessPath::ByNamePrefix { rows, .. }
            | AccessPath::ByValue { rows, .. }
            | AccessPath::ByAdjacency { rows, .. } => *rows,
            AccessPath::ByName { .. } => 1,
        }
    }
}

/// An executable physical plan: one access path, the residual filters and the output form.  Build with [`plan`], run with [`crate::exec::run_plan`], render
/// with [`Plan::render`].
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The class the query ranges over.
    pub class: String,
    /// Whether specializations are excluded (`exactly`).
    pub exact: bool,
    /// Whether only the cardinality is returned (`count`).
    pub is_count: bool,
    /// The chosen access path.
    pub access: AccessPath,
    /// Index into `selections` of the selection the access path consumed, if any.
    pub consumed: Option<usize>,
    /// All selections of the query (the consumed one is skipped at execution time).
    pub selections: Vec<Selection>,
}

impl Plan {
    /// The residual selections executed as filters (everything the access path did not consume).
    pub fn residual(&self) -> impl Iterator<Item = &Selection> {
        self.selections
            .iter()
            .enumerate()
            .filter(move |(i, _)| Some(*i) != self.consumed)
            .map(|(_, s)| s)
    }

    /// Renders the plan in the `explain` output format (see `docs/QUERY.md`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let scope = if self.exact { String::new() } else { " (+specializations)".to_string() };
        let _ = writeln!(
            out,
            "plan: {} {}{}",
            if self.is_count { "count" } else { "find" },
            self.class,
            scope
        );
        let rows = |n: usize| if n == 1 { "~1 row".to_string() } else { format!("~{n} rows") };
        let access = match &self.access {
            AccessPath::ClassScan { rows: n } => {
                format!("scan extent of {} ({})", self.class, rows(*n))
            }
            AccessPath::ByName { name } => {
                format!("probe name index for \"{name}\" (~1 row)")
            }
            AccessPath::ByNamePrefix { prefix, rows: n } => {
                format!("range scan name index, prefix \"{prefix}\" ({})", rows(*n))
            }
            AccessPath::ByValue { op, literal, rows: n } => {
                let (kind, op) = match op {
                    Comparison::Equal => ("probe", "="),
                    Comparison::Less => ("range scan", "<"),
                    Comparison::Greater => ("range scan", ">"),
                    Comparison::NotEqual => ("scan", "!="),
                };
                format!(
                    "{kind} value index of {}, value {op} \"{literal}\" ({})",
                    self.class,
                    rows(*n)
                )
            }
            AccessPath::ByAdjacency { navigation, rows: n } => {
                format!("walk adjacency of \"{}\" ({})", navigation.from_object, rows(*n))
            }
        };
        let _ = writeln!(out, "  access  {access}");
        if let AccessPath::ByAdjacency { navigation: nav, .. } = &self.access {
            let _ = writeln!(
                out,
                "  join    navigate {}.{} from \"{}\"",
                nav.association, nav.to_role, nav.from_object
            );
        }
        let residual: Vec<String> = self.residual().map(render_selection).collect();
        let _ = writeln!(
            out,
            "  filter  {}",
            if residual.is_empty() { "none".to_string() } else { residual.join(" and ") }
        );
        let _ = write!(out, "  output  {}", if self.is_count { "count" } else { "objects" });
        out
    }
}

fn render_selection(selection: &Selection) -> String {
    match selection {
        Selection::NameEquals(name) => format!("name = \"{name}\""),
        Selection::NamePrefix(prefix) => format!("name prefix \"{prefix}\""),
        Selection::Value(op, literal) => {
            let op = match op {
                Comparison::Equal => "=",
                Comparison::NotEqual => "!=",
                Comparison::Less => "<",
                Comparison::Greater => ">",
            };
            format!("value {op} \"{literal}\"")
        }
        Selection::Related { association, role } => format!("related {association}.{role}"),
        Selection::Incomplete => "incomplete".to_string(),
    }
}

fn value_op(op: Comparison) -> Option<ValueOp> {
    match op {
        Comparison::Equal => Some(ValueOp::Eq),
        Comparison::Less => Some(ValueOp::Less),
        Comparison::Greater => Some(ValueOp::Greater),
        Comparison::NotEqual => None,
    }
}

/// Plans a query: resolves the class, then walks the navigation start object's adjacency when
/// the query navigates, and otherwise estimates the cardinality of every indexable selection
/// and picks the cheapest access path (`explain` wrappers are transparent).  Fails with
/// [`QueryError::Unknown`] when the class does not exist.
pub fn plan(db: &Database, query: &Query) -> QueryResult<Plan> {
    let (class, exact, selections, navigate, is_count) = match query {
        Query::Explain(inner) => return plan(db, inner),
        Query::Find { class, exact, selections, navigate } => {
            (class, *exact, selections, navigate, false)
        }
        Query::Count { class, exact, selections, navigate } => {
            (class, *exact, selections, navigate, true)
        }
    };
    let scan_rows = db
        .class_extent_estimate(class, !exact)
        .map_err(|_| QueryError::Unknown(format!("class '{class}'")))?;
    // Any other path would still walk the adjacency to reach the navigated objects and then
    // intersect them with its own candidates, so the walk is never more work.  It consumes no
    // selection.  An unresolved start object estimates 0 rows, and execution reports it exactly
    // as the scan pipeline does.
    let (access, consumed) = match navigate {
        Some(navigation) => {
            let rows = db.navigation_degree(&navigation.from_object).unwrap_or(0);
            (AccessPath::ByAdjacency { navigation: navigation.clone(), rows }, None)
        }
        None => cheapest_selection(db, class, exact, selections, scan_rows),
    };
    Ok(Plan {
        class: class.clone(),
        exact,
        is_count,
        access,
        consumed,
        selections: selections.clone(),
    })
}

/// The access path with the strictly smallest estimate among the extent scan and the indexable
/// selections (ties keep the scan, then the earlier selection), with the selection it consumes.
fn cheapest_selection(
    db: &Database,
    class: &str,
    exact: bool,
    selections: &[Selection],
    scan_rows: usize,
) -> (AccessPath, Option<usize>) {
    let mut access = AccessPath::ClassScan { rows: scan_rows };
    let mut consumed = None;
    let mut best = scan_rows;
    for (i, selection) in selections.iter().enumerate() {
        let candidate = match selection {
            Selection::NameEquals(name) => Some(AccessPath::ByName { name: name.clone() }),
            Selection::NamePrefix(prefix) => Some(AccessPath::ByNamePrefix {
                prefix: prefix.clone(),
                rows: db.name_prefix_estimate(prefix, scan_rows),
            }),
            Selection::Value(op, literal) => value_op(*op).map(|vop| AccessPath::ByValue {
                op: *op,
                literal: literal.clone(),
                // Counting stops at the scan cost — an index path at least that expensive
                // loses anyway, and the early exit bounds plan-time work.
                rows: db
                    .value_index_estimate(class, !exact, vop, literal, scan_rows)
                    .unwrap_or(scan_rows),
            }),
            Selection::Related { .. } | Selection::Incomplete => None,
        };
        if let Some(candidate) = candidate {
            if candidate.estimated_rows() < best {
                best = candidate.estimated_rows();
                access = candidate;
                consumed = Some(i);
            }
        }
    }
    (access, consumed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use seed_core::{Database, Value};
    use seed_schema::figure3_schema;

    fn sample() -> Database {
        let mut db = Database::new(figure3_schema());
        for i in 0..20 {
            let d = db.create_object("OutputData", &format!("Out{i:02}")).unwrap();
            let text = db.create_dependent(d, "Text", Value::Undefined).unwrap();
            db.create_dependent(text, "Selector", Value::string(format!("S{i:02}"))).unwrap();
        }
        db
    }

    fn plan_for(db: &Database, q: &str) -> Plan {
        plan(db, &parse(q).unwrap()).unwrap()
    }

    #[test]
    fn name_probe_beats_a_wider_value_probe() {
        let mut db = sample();
        // Two Selectors share the value "dup", so the value probe estimates 2 rows while the
        // name probe estimates 1 — the planner must take the name probe.
        for name in ["Out00.Text[0].Selector", "Out01.Text[0].Selector"] {
            let id = db.object_by_name(name).unwrap().id;
            db.set_value(id, Value::string("dup")).unwrap();
        }
        let q =
            r#"find Data.Text.Selector where value = "dup" and name = "Out01.Text[0].Selector""#;
        let p = plan_for(&db, q);
        assert!(matches!(p.access, AccessPath::ByName { .. }), "got {:?}", p.access);
        assert_eq!(p.consumed, Some(1));
        assert_eq!(p.residual().count(), 1);
    }

    #[test]
    fn an_empty_value_probe_beats_a_name_probe() {
        let db = sample();
        // No Thing-ranged object carries a value, so the value index estimates 0 rows — cheaper
        // than the 1-row name probe, and still correct (the conjunction is empty either way).
        let p = plan_for(&db, r#"find Thing where value = "S01" and name = "Out01""#);
        match &p.access {
            AccessPath::ByValue { rows, .. } => assert_eq!(*rows, 0),
            other => panic!("expected a value probe, got {other:?}"),
        }
    }

    #[test]
    fn value_probe_is_chosen_for_equality_on_an_indexed_value() {
        let db = sample();
        let p = plan_for(&db, r#"find Data.Text.Selector where value = "S05""#);
        match &p.access {
            AccessPath::ByValue { op: Comparison::Equal, literal, rows } => {
                assert_eq!(literal, "S05");
                assert_eq!(*rows, 1);
            }
            other => panic!("expected a value probe, got {other:?}"),
        }
        assert_eq!(p.residual().count(), 0, "the probe consumed the only selection");
    }

    #[test]
    fn prefix_scan_is_chosen_only_when_narrower_than_the_extent() {
        let db = sample();
        // "Out05" covers one root plus its two dependents: 3 rows < the 20-row extent.
        let p = plan_for(&db, r#"find Data where name prefix "Out05""#);
        match &p.access {
            AccessPath::ByNamePrefix { prefix, rows } => {
                assert_eq!(prefix, "Out05");
                assert_eq!(*rows, 3);
            }
            other => panic!("expected a prefix range scan, got {other:?}"),
        }
        // "Out0" covers 30 name-index entries — wider than the 20-row extent, so the planner
        // correctly stays with the scan.
        let p = plan_for(&db, r#"find Data where name prefix "Out0""#);
        assert!(matches!(p.access, AccessPath::ClassScan { rows: 20 }), "got {:?}", p.access);
    }

    #[test]
    fn unindexable_selections_fall_back_to_the_scan() {
        let db = sample();
        for q in [
            "find Data",
            r#"find Data where value != "x""#,
            "find Action where incomplete",
            "find Data where related Access.from",
        ] {
            let p = plan_for(&db, q);
            assert!(matches!(p.access, AccessPath::ClassScan { .. }), "{q} should scan");
            assert_eq!(p.consumed, None);
        }
    }

    #[test]
    fn explain_is_transparent_and_renders_the_path() {
        let db = sample();
        let p = plan_for(&db, r#"explain find Data.Text.Selector where value = "S05""#);
        let text = p.render();
        assert!(text.contains("probe value index"), "got: {text}");
        assert!(text.contains("output  objects"), "got: {text}");
        let p = plan_for(&db, r#"explain count Action navigate Access.by from "Out01""#);
        let text = p.render();
        assert!(text.contains("join    navigate Access.by from \"Out01\""), "got: {text}");
        assert!(text.contains("output  count"), "got: {text}");
    }

    /// `sample()` plus `actions` Actions `A0`, `A1`, ...
    fn with_actions(actions: usize) -> Database {
        let mut db = sample();
        for i in 0..actions {
            db.create_object("Action", &format!("A{i}")).unwrap();
        }
        db
    }

    fn access(db: &mut Database, data: &str, action: &str) {
        let from = db.any_object_by_name(data).unwrap().id;
        let by = db.object_by_name(action).unwrap().id;
        db.create_relationship("Access", &[("from", from), ("by", by)]).unwrap();
    }

    /// Both pipelines' answer to `q`, which must agree.
    fn count_both_ways(db: &Database, q: &str) -> usize {
        let query = parse(q).unwrap();
        let indexed = crate::exec::execute(db, &query).unwrap().count();
        assert_eq!(indexed, crate::exec::execute_scan(db, &query).unwrap().count(), "{q}");
        indexed
    }

    #[test]
    fn adjacency_beats_the_scan_when_the_degree_is_below_the_extent() {
        let mut db = with_actions(5);
        access(&mut db, "Out00", "A0");
        let q = r#"count Action navigate Access.by from "Out00""#;
        let p = plan_for(&db, q);
        assert!(matches!(p.access, AccessPath::ByAdjacency { rows: 1, .. }), "got {:?}", p.access);
        assert_eq!(p.consumed, None);
        assert!(p.render().contains("access  walk adjacency of \"Out00\" (~1 row)"));
        assert_eq!(count_both_ways(&db, q), 1);
    }

    #[test]
    fn the_walk_is_planned_even_when_the_degree_exceeds_the_extent() {
        let mut db = with_actions(1);
        access(&mut db, "Out00", "A0");
        let (out00, a0) =
            (db.object_by_name("Out00").unwrap().id, db.object_by_name("A0").unwrap().id);
        db.create_relationship("Write", &[("to", out00), ("by", a0)]).unwrap();
        // Degree 2 against an extent of 1: a scan would still walk both relationships.
        for q in [
            r#"count Action navigate Access.by from "Out00""#,
            r#"count Action navigate Write.by from "Out00""#,
        ] {
            let p = plan_for(&db, q);
            assert!(matches!(p.access, AccessPath::ByAdjacency { rows: 2, .. }), "{q}: {p:?}");
            assert_eq!(count_both_ways(&db, q), 1);
        }
    }

    #[test]
    fn selections_stay_residual_filters_under_the_walk() {
        let mut db = with_actions(5);
        access(&mut db, "Out00", "A0");
        access(&mut db, "Out00", "A1");
        // The name probe's estimate of 1 is below the degree of 2, yet the walk is planned.
        for q in [
            r#"find Action where name = "A0" navigate Access.by from "Out00""#,
            r#"find Action where name prefix "A" navigate Access.by from "Out00""#,
        ] {
            let p = plan_for(&db, q);
            assert!(matches!(p.access, AccessPath::ByAdjacency { rows: 2, .. }), "{q}: {p:?}");
            assert_eq!(p.consumed, None);
            assert_eq!(p.residual().count(), 1);
        }
        assert_eq!(
            count_both_ways(
                &db,
                r#"find Action where name = "A0" navigate Access.by from "Out00""#
            ),
            1
        );
        assert_eq!(
            count_both_ways(
                &db,
                r#"find Action where name prefix "A" navigate Access.by from "Out00""#
            ),
            2
        );
    }

    #[test]
    fn the_degree_counts_inherited_pattern_relationships() {
        let mut db = with_actions(5);
        let pattern = db.create_pattern_object("OutputData", "Shared").unwrap();
        for action in ["A0", "A1"] {
            let by = db.object_by_name(action).unwrap().id;
            db.create_pattern_relationship("Access", &[("from", pattern), ("by", by)]).unwrap();
        }
        let out00 = db.object_by_name("Out00").unwrap().id;
        db.inherit_pattern(out00, pattern).unwrap();
        access(&mut db, "Out00", "A2");
        assert_eq!(db.navigation_degree("Out00"), Some(3));
        // A pattern is invisible to retrieval, so it is no start object.
        assert_eq!(db.navigation_degree("Shared"), None);
        let q = r#"count Action navigate Access.by from "Out00""#;
        assert!(matches!(plan_for(&db, q).access, AccessPath::ByAdjacency { rows: 3, .. }));
        assert_eq!(count_both_ways(&db, q), 3);
    }

    #[test]
    fn an_unknown_start_object_fails_on_both_paths() {
        let mut db = with_actions(5);
        db.create_pattern_object("OutputData", "Shared").unwrap();
        for from in ["Ghost", "Shared"] {
            let q = format!(r#"count Action navigate Access.by from "{from}""#);
            let query = parse(&q).unwrap();
            let access = plan(&db, &query).unwrap().access;
            assert!(matches!(access, AccessPath::ByAdjacency { rows: 0, .. }), "got {access:?}");
            let indexed = crate::exec::execute(&db, &query).unwrap_err().to_string();
            let scanned = crate::exec::execute_scan(&db, &query).unwrap_err().to_string();
            assert_eq!(indexed, scanned, "{q}");
            assert!(indexed.contains(&format!("object '{from}'")), "{indexed}");
        }
    }

    #[test]
    fn unknown_class_is_reported() {
        let db = sample();
        assert!(plan(&db, &parse("find Ghost").unwrap()).is_err());
    }
}
