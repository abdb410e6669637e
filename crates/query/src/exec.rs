//! Query execution: plans are run against a [`Database`]; a scan-only fallback doubles as the
//! semantic oracle.
//!
//! [`execute`] lowers the query through [`crate::planner::plan`] and runs the resulting
//! physical plan with [`run_plan`]; [`execute_scan`] is the original full-extent scan pipeline,
//! kept as the fallback path and as the reference the property tests compare indexed execution
//! against (both must return identical result sets for every query).

use std::collections::HashSet;

use seed_core::{Database, Value, ValueOp};
use seed_schema::ClassId;

use crate::algebra::ObjectSet;
use crate::ast::{Comparison, Navigation, Query, Selection};
use crate::error::{QueryError, QueryResult};
use crate::planner::{plan, AccessPath, Plan};

/// The result of executing a query: a set of objects, a count, or a rendered plan.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// The objects matching a `find` query.
    Objects(ObjectSet),
    /// The cardinality returned by a `count` query.
    Count(usize),
    /// The rendered physical plan returned by an `explain` query.
    Plan(String),
}

impl QueryOutcome {
    /// The number of matching objects (zero for `explain` outcomes).
    pub fn count(&self) -> usize {
        match self {
            QueryOutcome::Objects(set) => set.len(),
            QueryOutcome::Count(n) => *n,
            QueryOutcome::Plan(_) => 0,
        }
    }

    /// The matching object names in sorted order (empty for `count` and `explain` outcomes).
    pub fn names(&self) -> Vec<String> {
        match self {
            QueryOutcome::Objects(set) => set.names(),
            QueryOutcome::Count(_) | QueryOutcome::Plan(_) => Vec::new(),
        }
    }

    /// The object set, if this outcome carries one.
    pub fn objects(&self) -> Option<&ObjectSet> {
        match self {
            QueryOutcome::Objects(set) => Some(set),
            QueryOutcome::Count(_) | QueryOutcome::Plan(_) => None,
        }
    }

    /// The rendered plan, if this is an `explain` outcome.
    pub fn plan(&self) -> Option<&str> {
        match self {
            QueryOutcome::Plan(text) => Some(text),
            QueryOutcome::Objects(_) | QueryOutcome::Count(_) => None,
        }
    }
}

/// Compares a stored value against a query literal.  Undefined values match nothing, following
/// the paper.  Literals compare as integers when both sides parse as integers, as strings
/// otherwise.
fn compare_value(value: &Value, op: Comparison, literal: &str) -> bool {
    if value.is_undefined() {
        return false;
    }
    // Integer comparison when possible.
    if let (Some(lhs), Ok(rhs)) = (value.as_integer(), literal.parse::<i64>()) {
        return match op {
            Comparison::Equal => lhs == rhs,
            Comparison::NotEqual => lhs != rhs,
            Comparison::Less => lhs < rhs,
            Comparison::Greater => lhs > rhs,
        };
    }
    let lhs = match value.as_str() {
        Some(s) => s.to_string(),
        None => value.to_string(),
    };
    match op {
        Comparison::Equal => lhs == literal,
        Comparison::NotEqual => lhs != literal,
        Comparison::Less => lhs.as_str() < literal,
        Comparison::Greater => lhs.as_str() > literal,
    }
}

/// The objects navigation reaches from its start object, of any class.  Fails on an unknown
/// start object, association or role, in that order.
fn reach(db: &Database, nav: &Navigation) -> QueryResult<ObjectSet> {
    let start = db
        .object_by_name(&nav.from_object)
        .map_err(|_| QueryError::Unknown(format!("object '{}'", nav.from_object)))?;
    let schema = db.schema();
    let association = schema
        .association_by_name(&nav.association)
        .map_err(|_| QueryError::Unknown(format!("association '{}'", nav.association)))?;
    // Navigate from the start object's role (any role that is not the target role works for the
    // binary associations of the paper; we pick the first non-target role).
    let from_role =
        association.roles.iter().map(|r| r.name.as_str()).find(|r| *r != nav.to_role).ok_or_else(
            || QueryError::Unknown(format!("role '{}' of '{}'", nav.to_role, nav.association)),
        )?;
    if association.role(&nav.to_role).is_none() {
        return Err(QueryError::Unknown(format!(
            "role '{}' of '{}'",
            nav.to_role, nav.association
        )));
    }
    Ok(ObjectSet::from_records([start]).navigate(db, &nav.association, from_role, &nav.to_role)?)
}

fn apply_selection(db: &Database, selection: &Selection, set: ObjectSet) -> QueryResult<ObjectSet> {
    Ok(match selection {
        Selection::NameEquals(name) => set.select(|o| o.name.to_string() == *name),
        Selection::NamePrefix(prefix) => set.select(|o| o.name.to_string().starts_with(prefix)),
        Selection::Value(op, literal) => set.select(|o| compare_value(&o.value, *op, literal)),
        Selection::Related { association, role } => {
            let schema = db.schema();
            let assoc = schema
                .association_by_name(association)
                .map_err(|_| QueryError::Unknown(format!("association '{association}'")))?;
            let role_index = assoc
                .role_index(role)
                .ok_or_else(|| QueryError::Unknown(format!("role '{role}' of '{association}'")))?;
            let mut hierarchy = schema.association_descendants(assoc.id);
            hierarchy.push(assoc.id);
            set.select(|o| {
                db.relationships(o.id).iter().any(|rel| {
                    hierarchy.contains(&rel.record.association)
                        && rel.record.bindings.get(role_index).map(|(_, obj)| *obj) == Some(o.id)
                })
            })
        }
        Selection::Incomplete => {
            let report = db.completeness_report();
            set.select(|o| !report.for_subject(&o.name.to_string()).is_empty())
        }
    })
}

/// Executes a parsed query through the cost-aware planner: the query is lowered onto the
/// cheapest access path ([`crate::planner::plan`]) and the plan is run with [`run_plan`].
/// `explain` queries return the rendered plan instead of executing it.
pub fn execute(db: &Database, query: &Query) -> QueryResult<QueryOutcome> {
    if let Query::Explain(inner) = query {
        return Ok(QueryOutcome::Plan(plan(db, inner)?.render()));
    }
    run_plan(db, &plan(db, query)?)
}

/// Executes a parsed query with the original full-extent scan pipeline, bypassing the planner.
/// This is the fallback path and the semantic oracle: for every query, `execute_scan` and
/// [`execute`] return the same result set (pinned by the crate's property tests).  `explain`
/// queries still return the plan — there is no "scanned explain".
pub fn execute_scan(db: &Database, query: &Query) -> QueryResult<QueryOutcome> {
    let (class, exact, selections, navigate, is_count) = match query {
        Query::Explain(_) => return execute(db, query),
        Query::Find { class, exact, selections, navigate } => {
            (class, *exact, selections, navigate, false)
        }
        Query::Count { class, exact, selections, navigate } => {
            (class, *exact, selections, navigate, true)
        }
    };
    let records = db
        .objects_of_class(class, !exact)
        .map_err(|_| QueryError::Unknown(format!("class '{class}'")))?;
    let mut set = ObjectSet::from_records(records);
    if let Some(nav) = navigate {
        set = reach(db, nav)?.intersect(&set);
    }
    for selection in selections {
        set = apply_selection(db, selection, set)?;
    }
    Ok(if is_count { QueryOutcome::Count(set.len()) } else { QueryOutcome::Objects(set) })
}

/// The class ids a query's class ranges over (the class plus its specializations unless
/// `exactly` was given) — used to filter name-index hits down to the queried extent.  Resolved
/// through [`Database::class_hierarchy`], the same source of truth the value/scan paths use.
fn class_filter(db: &Database, class: &str, exact: bool) -> QueryResult<HashSet<ClassId>> {
    Ok(db
        .class_hierarchy(class, !exact)
        .map_err(|_| QueryError::Unknown(format!("class '{class}'")))?
        .into_iter()
        .collect())
}

/// Runs a physical plan: materialises the access path, applies the residual selections, and
/// shapes the outcome.
pub fn run_plan(db: &Database, plan: &Plan) -> QueryResult<QueryOutcome> {
    let mut set = match &plan.access {
        AccessPath::ClassScan { .. } => {
            let records = db
                .objects_of_class(&plan.class, !plan.exact)
                .map_err(|_| QueryError::Unknown(format!("class '{}'", plan.class)))?;
            ObjectSet::from_records(records)
        }
        // Name-index paths return objects of any class, so these two arms filter the hits down
        // to the queried extent (the other arms resolve the hierarchy internally).
        AccessPath::ByName { name } => {
            let classes = class_filter(db, &plan.class, plan.exact)?;
            match db.object_by_name(name) {
                Ok(record) if classes.contains(&record.class) => ObjectSet::from_records([record]),
                _ => ObjectSet::new(),
            }
        }
        AccessPath::ByNamePrefix { prefix, .. } => {
            let classes = class_filter(db, &plan.class, plan.exact)?;
            ObjectSet::from_records(
                db.objects_with_name_prefix(prefix)
                    .into_iter()
                    .filter(|o| classes.contains(&o.class)),
            )
        }
        AccessPath::ByValue { op, literal, .. } => {
            let vop = match op {
                Comparison::Equal => ValueOp::Eq,
                Comparison::Less => ValueOp::Less,
                Comparison::Greater => ValueOp::Greater,
                // The planner never emits a `!=` access path.
                Comparison::NotEqual => {
                    return Err(QueryError::Unknown("access path for '!='".to_string()))
                }
            };
            let records = db
                .objects_by_value(&plan.class, !plan.exact, vop, literal)
                .map_err(|_| QueryError::Unknown(format!("class '{}'", plan.class)))?;
            ObjectSet::from_records(records)
        }
        // The same membership test as the scan path's intersection with the extent, which
        // holds no patterns.
        AccessPath::ByAdjacency { navigation, .. } => {
            let classes = class_filter(db, &plan.class, plan.exact)?;
            reach(db, navigation)?.select(|o| classes.contains(&o.class) && !o.is_pattern)
        }
    };
    for selection in plan.residual() {
        set = apply_selection(db, selection, set)?;
    }
    Ok(if plan.is_count { QueryOutcome::Count(set.len()) } else { QueryOutcome::Objects(set) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use seed_core::Database;
    use seed_schema::figure3_schema;

    fn sample() -> Database {
        let mut db = Database::new(figure3_schema());
        let alarms = db.create_object("OutputData", "Alarms").unwrap();
        let process = db.create_object("InputData", "ProcessData").unwrap();
        let handler = db.create_object("Action", "AlarmHandler").unwrap();
        let display = db.create_object("Action", "Display").unwrap();
        db.create_relationship("Write", &[("to", alarms), ("by", handler)]).unwrap();
        db.create_relationship("Read", &[("from", process), ("by", handler)]).unwrap();
        db.create_relationship("Read", &[("from", process), ("by", display)]).unwrap();
        let text = db.create_dependent(alarms, "Text", seed_core::Value::Undefined).unwrap();
        db.create_dependent(text, "Selector", seed_core::Value::string("Representation")).unwrap();
        db.create_dependent(text, "Body", seed_core::Value::Undefined).unwrap();
        db
    }

    fn run(db: &Database, q: &str) -> QueryOutcome {
        execute(db, &parse(q).unwrap()).unwrap()
    }

    #[test]
    fn class_extent_with_and_without_specializations() {
        let db = sample();
        assert_eq!(run(&db, "count Thing").count(), 4);
        assert_eq!(run(&db, "count Data").count(), 2);
        assert_eq!(run(&db, "count exactly Data").count(), 0);
        assert_eq!(run(&db, "count Action").count(), 2);
    }

    #[test]
    fn selections_compose_conjunctively() {
        let db = sample();
        let q = r#"find Data where name prefix "Alarm" and related Write.to"#;
        assert_eq!(run(&db, q).names(), vec!["Alarms"]);
        let q = r#"find Data where name prefix "Proc" and related Write.to"#;
        assert_eq!(run(&db, q).count(), 0);
    }

    #[test]
    fn value_comparisons_skip_undefined() {
        let db = sample();
        assert_eq!(
            run(&db, r#"find Data.Text.Selector where value = "Representation""#).count(),
            1
        );
        assert_eq!(run(&db, r#"find Data.Text.Body where value = "Representation""#).count(), 0);
        assert_eq!(run(&db, r#"find Data.Text.Selector where value != "Other""#).count(), 1);
        // Undefined value (Body) does not even match a != comparison: it matches nothing.
        assert_eq!(run(&db, r#"find Data.Text.Body where value != "Other""#).count(), 0);
        assert_eq!(run(&db, r#"find Data.Text.Selector where value > "Aaa""#).count(), 1);
    }

    #[test]
    fn integer_comparisons() {
        let mut db = sample();
        let alarms = db.object_by_name("Alarms").unwrap().id;
        let handler = db.object_by_name("AlarmHandler").unwrap().id;
        let rels = db.relationships(alarms);
        let write = rels.iter().find(|r| r.record.bound("by") == Some(handler)).unwrap().record.id;
        db.set_relationship_attribute(write, "NumberOfWrites", seed_core::Value::Integer(2))
            .unwrap();
        // Comparison helpers directly.
        assert!(compare_value(&seed_core::Value::Integer(2), Comparison::Less, "5"));
        assert!(compare_value(&seed_core::Value::Integer(7), Comparison::Greater, "5"));
        assert!(!compare_value(&seed_core::Value::Undefined, Comparison::Equal, "5"));
        assert!(compare_value(&seed_core::Value::Integer(5), Comparison::NotEqual, "4"));
    }

    #[test]
    fn navigation_intersects_with_the_class() {
        let db = sample();
        let readers = run(&db, r#"find Action navigate Read.by from "ProcessData""#);
        assert_eq!(readers.names(), vec!["AlarmHandler", "Display"]);
        // Navigating to a class that does not contain the targets gives the empty set.
        let none = run(&db, r#"find Data navigate Read.by from "ProcessData""#);
        assert_eq!(none.count(), 0);
        // Access generalizes Read and Write.
        let all = run(&db, r#"find Action navigate Access.by from "ProcessData""#);
        assert_eq!(all.count(), 2);
    }

    #[test]
    fn incomplete_selection_uses_completeness_analysis() {
        let db = sample();
        // Display reads something, AlarmHandler reads and writes: both satisfy Access-by.
        // The incomplete Data objects are those lacking dependent minimums / covering moves —
        // in Figure 3, OutputData 'Alarms' is written (ok) and InputData 'ProcessData' is read
        // (ok), so the `incomplete` filter on Action returns nothing.
        let q = run(&db, "find Action where incomplete");
        assert_eq!(q.count(), 0);
        // A freshly created Action with no Access relationship is incomplete.
        let mut db = db;
        db.create_object("Action", "Idle").unwrap();
        let q = run(&db, "find Action where incomplete");
        assert_eq!(q.names(), vec!["Idle"]);
    }

    #[test]
    fn unknown_names_error() {
        let db = sample();
        assert!(execute(&db, &parse("find Ghost").unwrap()).is_err());
        assert!(execute(&db, &parse(r#"find Action navigate Access.by from "Ghost""#).unwrap())
            .is_err());
        assert!(execute(
            &db,
            &parse(r#"find Action navigate Access.ghost from "Alarms""#).unwrap()
        )
        .is_err());
        assert!(execute(&db, &parse("find Data where related Ghost.to").unwrap()).is_err());
    }

    #[test]
    fn outcome_accessors() {
        let db = sample();
        let objects = run(&db, "find Data");
        assert!(objects.objects().is_some());
        assert!(objects.plan().is_none());
        assert_eq!(objects.count(), objects.names().len());
        let count = run(&db, "count Data");
        assert!(count.objects().is_none());
        assert!(count.names().is_empty());
        assert_eq!(count.count(), 2);
        let explained = run(&db, "explain find Data");
        assert!(explained.plan().is_some());
        assert!(explained.objects().is_none());
        assert_eq!(explained.count(), 0);
        assert!(explained.names().is_empty());
    }

    #[test]
    fn indexed_execution_agrees_with_the_scan_fallback() {
        let db = sample();
        for q in [
            "find Thing",
            "count Data",
            "count exactly Data",
            r#"find Thing where name = "Alarms""#,
            r#"find Data where name prefix "Alarm""#,
            r#"find Data.Text.Selector where value = "Representation""#,
            r#"find Data.Text.Selector where value != "Other""#,
            r#"find Data.Text.Selector where value > "Aaa""#,
            r#"find Data.Text.Selector where value < "Zzz""#,
            r#"find Data where name prefix "Alarm" and related Write.to"#,
            r#"find Action navigate Read.by from "ProcessData""#,
            "find Action where incomplete",
        ] {
            let query = parse(q).unwrap();
            let indexed = execute(&db, &query).unwrap();
            let scanned = execute_scan(&db, &query).unwrap();
            assert_eq!(indexed.names(), scanned.names(), "{q}");
            assert_eq!(indexed.count(), scanned.count(), "{q}");
        }
        // Both paths report the same errors.
        for q in ["find Ghost", r#"find Action navigate Ghost.by from "Alarms""#] {
            let query = parse(q).unwrap();
            assert!(execute(&db, &query).is_err(), "{q}");
            assert!(execute_scan(&db, &query).is_err(), "{q}");
        }
    }

    #[test]
    fn names_are_sorted_regardless_of_creation_and_id_order() {
        // Created in reverse alphabetical order, so id order != name order.
        let mut db = Database::new(seed_schema::figure3_schema());
        for name in ["Zeta", "Mu", "Alpha"] {
            db.create_object("Data", name).unwrap();
        }
        // Both execution paths return sorted names.
        for exec_fn in [execute, execute_scan] {
            let outcome = exec_fn(&db, &parse("find Data").unwrap()).unwrap();
            assert_eq!(outcome.names(), vec!["Alpha", "Mu", "Zeta"]);
            let outcome =
                exec_fn(&db, &parse(r#"find Data where name prefix """#).unwrap()).unwrap();
            assert_eq!(outcome.names(), vec!["Alpha", "Mu", "Zeta"]);
        }
        // The database-level prefix scan is deterministic (name order) too.
        let names: Vec<String> =
            db.objects_with_name_prefix("").iter().map(|o| o.name.to_string()).collect();
        assert_eq!(names, vec!["Alpha", "Mu", "Zeta"]);
    }

    #[test]
    fn every_query_form_explains_its_access_path() {
        let mut db = sample();
        // Widen the Selector extent so the index paths are genuinely cheaper than the scan.
        for i in 0..8 {
            let d = db.create_object("InputData", &format!("Bulk{i}")).unwrap();
            let t = db.create_dependent(d, "Text", seed_core::Value::Undefined).unwrap();
            db.create_dependent(t, "Selector", seed_core::Value::string(format!("V{i}"))).unwrap();
        }
        let expectations = [
            ("explain find Data", "scan extent"),
            ("explain find exactly Data", "scan extent"),
            (r#"explain find Thing where name = "Alarms""#, "probe name index"),
            (r#"explain find Data where name prefix "Alarm""#, "range scan name index"),
            (
                r#"explain find Data.Text.Selector where value = "Representation""#,
                "probe value index",
            ),
            (r#"explain find Data.Text.Selector where value > "V3""#, "range scan value index"),
            (r#"explain find Data.Text.Selector where value != "Aaa""#, "scan extent"),
            (r#"explain find Action navigate Access.by from "Alarms""#, "join    navigate"),
            (r#"explain find Action navigate Access.by from "Alarms""#, "walk adjacency"),
            ("explain find Data where related Write.to", "filter  related Write.to"),
            ("explain find Action where incomplete", "filter  incomplete"),
            ("explain count Data", "output  count"),
        ];
        for (q, needle) in expectations {
            let outcome = run(&db, q);
            let plan = outcome.plan().unwrap_or_else(|| panic!("{q} returned no plan"));
            assert!(plan.contains(needle), "{q}\nexpected {needle:?} in:\n{plan}");
        }
    }
}
