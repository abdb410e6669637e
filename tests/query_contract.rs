//! Pins the query-layer contract documented in `docs/QUERY.md`: the worked `explain` examples
//! render exactly as documented, and every query form reports its access path.

use seed_core::{Database, Value};
use seed_query::run;
use seed_schema::figure3_schema;

/// The database of `docs/QUERY.md` §5: two Figure-3 data objects with Text/Selector dependents
/// plus eight bulk objects widening the extents.
fn documented_database() -> Database {
    let mut db = Database::new(figure3_schema());
    let alarms = db.create_object("OutputData", "Alarms").unwrap();
    let process = db.create_object("InputData", "ProcessData").unwrap();
    let handler = db.create_object("Action", "AlarmHandler").unwrap();
    let display = db.create_object("Action", "Display").unwrap();
    db.create_relationship("Write", &[("to", alarms), ("by", handler)]).unwrap();
    db.create_relationship("Read", &[("from", process), ("by", handler)]).unwrap();
    db.create_relationship("Read", &[("from", process), ("by", display)]).unwrap();
    let text = db.create_dependent(alarms, "Text", Value::Undefined).unwrap();
    db.create_dependent(text, "Selector", Value::string("Representation")).unwrap();
    db.create_dependent(text, "Body", Value::Undefined).unwrap();
    for i in 0..8 {
        let d = db.create_object("InputData", &format!("Bulk{i}")).unwrap();
        let t = db.create_dependent(d, "Text", Value::Undefined).unwrap();
        db.create_dependent(t, "Selector", Value::string(format!("V{i}"))).unwrap();
    }
    db
}

fn plan_of(db: &Database, query: &str) -> String {
    run(db, query).unwrap().plan().expect("explain returns a plan").to_string()
}

#[test]
fn worked_examples_render_exactly_as_documented() {
    let db = documented_database();
    let cases = [
        (
            r#"explain find Thing where name = "Alarms""#,
            "plan: find Thing (+specializations)\n\
             \x20 access  probe name index for \"Alarms\" (~1 row)\n\
             \x20 filter  none\n\
             \x20 output  objects",
        ),
        (
            r#"explain find Data.Text.Selector where value = "Representation""#,
            "plan: find Data.Text.Selector (+specializations)\n\
             \x20 access  probe value index of Data.Text.Selector, value = \"Representation\" (~1 row)\n\
             \x20 filter  none\n\
             \x20 output  objects",
        ),
        (
            r#"explain find Data where name prefix "Alarm""#,
            "plan: find Data (+specializations)\n\
             \x20 access  range scan name index, prefix \"Alarm\" (~5 rows)\n\
             \x20 filter  none\n\
             \x20 output  objects",
        ),
        (
            r#"explain count Action navigate Access.by from "Alarms""#,
            "plan: count Action (+specializations)\n\
             \x20 access  walk adjacency of \"Alarms\" (~1 row)\n\
             \x20 join    navigate Access.by from \"Alarms\"\n\
             \x20 filter  none\n\
             \x20 output  count",
        ),
        (
            r#"explain find Data where related Write.to and value != "x""#,
            "plan: find Data (+specializations)\n\
             \x20 access  scan extent of Data (~10 rows)\n\
             \x20 filter  related Write.to and value != \"x\"\n\
             \x20 output  objects",
        ),
        (
            r#"explain find Data where name prefix "Alarm" and related Write.to"#,
            "plan: find Data (+specializations)\n\
             \x20 access  range scan name index, prefix \"Alarm\" (~5 rows)\n\
             \x20 filter  related Write.to\n\
             \x20 output  objects",
        ),
    ];
    for (query, expected) in cases {
        let rendered = plan_of(&db, query);
        assert_eq!(rendered, expected, "\nquery: {query}\nrendered:\n{rendered}");
    }
}

#[test]
fn every_query_form_has_an_access_path_in_its_plan() {
    let db = documented_database();
    for query in [
        "explain find Data",
        "explain find exactly Data",
        "explain count Thing",
        r#"explain find Thing where name = "Alarms""#,
        r#"explain find Data where name prefix "Alarm""#,
        r#"explain find Data.Text.Selector where value = "Representation""#,
        r#"explain find Data.Text.Selector where value < "V0""#,
        r#"explain find Data.Text.Selector where value > "V3""#,
        r#"explain find Data.Text.Selector where value != "V0""#,
        r#"explain find Action navigate Access.by from "Alarms""#,
        "explain find Data where related Write.to",
        "explain find Action where incomplete",
    ] {
        let plan = plan_of(&db, query);
        assert!(plan.contains("access  "), "{query} lacks an access path:\n{plan}");
        assert!(plan.contains("output  "), "{query} lacks an output form:\n{plan}");
    }
}

#[test]
fn explained_queries_execute_with_identical_results_on_both_paths() {
    let db = documented_database();
    for query in [
        "find Thing",
        r#"find Data where name prefix "Alarm""#,
        r#"find Data.Text.Selector where value = "Representation""#,
        r#"count Action navigate Access.by from "Alarms""#,
    ] {
        let indexed = seed_query::execute(&db, &seed_query::parse(query).unwrap()).unwrap();
        let scanned = seed_query::execute_scan(&db, &seed_query::parse(query).unwrap()).unwrap();
        assert_eq!(indexed.names(), scanned.names(), "{query}");
        assert_eq!(indexed.count(), scanned.count(), "{query}");
    }
}
