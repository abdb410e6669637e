//! # seed-query
//!
//! A small retrieval language and entity-relationship algebra for SEED.
//!
//! The 1986 prototype "provides the procedures for data creation, update, and simple retrieval
//! by name.  Retrieval with complex queries is not supported."  This crate supplies the obvious
//! extension the paper leaves open, staying close to the entity-relationship algebra it cites
//! (Parent & Spaccapietra, ICDE 1984): queries operate on sets of objects, selections filter by
//! class/name/value, and navigation follows relationships along roles.  The paper's
//! undefined-value semantics are respected throughout: *an undefined object matches nothing*.
//!
//! ## The language
//!
//! ```text
//! find Data                                   -- all visible objects of class Data (and specializations)
//! find exactly Data                           -- without specializations
//! find Thing where name = "Alarms"            -- selection on the name
//! find Data.Text.Selector where value = "Representation"
//! find Data where name prefix "Alarm"         -- hierarchical-name prefix
//! find Action navigate Access.by from "Alarms"  -- objects reached from 'Alarms' via role 'by'
//! find Data where incomplete                  -- objects with completeness findings
//! count Data                                  -- cardinality instead of the set
//! explain find Data where name prefix "Alarm" -- the physical plan instead of the result
//! ```
//!
//! ## Pipeline
//!
//! [`parse`] produces a [`Query`] AST; [`plan`] lowers it through the algebra onto the cheapest
//! physical access path (name-index probe, name-prefix range scan, value-index probe/range
//! scan, a walk of the navigation start object's adjacency, or the full extent scan) using
//! simple cardinality estimates; [`execute`] runs the plan.  The scan-only pipeline survives
//! as [`exec::execute_scan`], the fallback path and the oracle the property tests compare
//! indexed execution against.  The full contract — grammar, index-selection rules, `explain`
//! format — is specified in `docs/QUERY.md`.
//!
//! ```
//! use seed_core::Database;
//! use seed_schema::figure3_schema;
//!
//! let mut db = Database::new(figure3_schema());
//! let alarms = db.create_object("OutputData", "Alarms").unwrap();
//! let handler = db.create_object("Action", "AlarmHandler").unwrap();
//! db.create_relationship("Write", &[("to", alarms), ("by", handler)]).unwrap();
//!
//! // Retrieval: `run` parses and executes in one call.
//! let writers = seed_query::run(&db, r#"find Action navigate Write.by from "Alarms""#).unwrap();
//! assert_eq!(writers.names(), vec!["AlarmHandler"]);
//!
//! // `explain` shows the access path the planner chose (a name-index probe here).
//! let explained = seed_query::run(&db, r#"explain find Thing where name = "Alarms""#).unwrap();
//! assert!(explained.plan().unwrap().contains("probe name index"));
//! ```

pub mod algebra;
pub mod ast;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod planner;

#[cfg(test)]
mod proptests;

pub use algebra::ObjectSet;
pub use ast::{Comparison, Query, Selection};
pub use error::{QueryError, QueryResult};
pub use exec::{execute, execute_scan, QueryOutcome};
pub use parser::parse;
pub use planner::{plan, AccessPath, Plan};

/// Parses and executes a query in one call.
///
/// ```
/// use seed_core::Database;
/// use seed_schema::figure3_schema;
///
/// let mut db = Database::new(figure3_schema());
/// db.create_object("InputData", "ProcessData").unwrap();
/// assert_eq!(seed_query::run(&db, "count Data").unwrap().count(), 1);
/// ```
pub fn run(db: &seed_core::Database, text: &str) -> QueryResult<QueryOutcome> {
    let query = parse(text)?;
    execute(db, &query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seed_core::{Database, Value};
    use seed_schema::figure3_schema;

    fn sample_db() -> Database {
        let mut db = Database::new(figure3_schema());
        let alarms = db.create_object("OutputData", "Alarms").unwrap();
        let process = db.create_object("InputData", "ProcessData").unwrap();
        let handler = db.create_object("Action", "AlarmHandler").unwrap();
        db.create_relationship("Read", &[("from", process), ("by", handler)]).unwrap();
        db.create_relationship_with_attributes(
            "Write",
            &[("to", alarms), ("by", handler)],
            &[("NumberOfWrites", Value::Integer(2))],
        )
        .unwrap();
        let text = db.create_dependent(alarms, "Text", Value::Undefined).unwrap();
        db.create_dependent(text, "Selector", Value::string("Representation")).unwrap();
        db
    }

    #[test]
    fn end_to_end_queries() {
        let db = sample_db();
        assert_eq!(run(&db, "count Data").unwrap().count(), 2);
        assert_eq!(run(&db, "count exactly Data").unwrap().count(), 0);
        let named = run(&db, r#"find Thing where name = "Alarms""#).unwrap();
        assert_eq!(named.names(), vec!["Alarms"]);
        let writers = run(&db, r#"find Action navigate Write.by from "Alarms""#).unwrap();
        assert_eq!(writers.names(), vec!["AlarmHandler"]);
        let generalized = run(&db, r#"find Action navigate Access.by from "Alarms""#).unwrap();
        assert_eq!(generalized.names(), vec!["AlarmHandler"]);
        let by_value =
            run(&db, r#"find Data.Text.Selector where value = "Representation""#).unwrap();
        assert_eq!(by_value.count(), 1);
        let prefixed = run(&db, r#"find Data where name prefix "Alarm""#).unwrap();
        assert_eq!(prefixed.names(), vec!["Alarms"]);
    }

    #[test]
    fn errors_are_reported() {
        let db = sample_db();
        assert!(run(&db, "find Ghost").is_err());
        assert!(run(&db, "bogus syntax").is_err());
        assert!(run(&db, r#"find Action navigate Ghost.by from "Alarms""#).is_err());
    }
}
