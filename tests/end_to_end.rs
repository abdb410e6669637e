//! End-to-end integration tests spanning several crates: SDL-defined schemas, persistence
//! through the storage engine, the query language, and the SPADES tool.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use seed_core::{Database, TransitionRule, Value};
use seed_query::run as query;
use seed_schema::sdl;
use spades::{DirectBackend, SeedBackend, SpecBackend, Workload, WorkloadConfig};

/// A fresh directory per call: the process id keeps concurrent runs apart, the counter keeps
/// this binary's tests (threads of one process) apart.
fn temp_dir(name: &str) -> PathBuf {
    static DIRS: AtomicU64 = AtomicU64::new(0);
    let n = DIRS.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("seed-e2e-{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A schema written in SDL drives a durable database, which survives a close/reopen round trip
/// through the storage engine, and answers queries afterwards.
#[test]
fn sdl_schema_persistence_and_query() {
    let schema = sdl::parse(
        r#"
        schema Project {
            class Artifact covering {
                dependent Owner [0..1] : STRING;
            }
            class Document : Artifact {
                dependent Section [0..*] : TEXT;
            }
            class Program : Artifact;
            class Person;
            association Responsible {
                role for : Artifact [0..*];
                role who : Person [1..*];
            }
            association Refines acyclic {
                role refined : Artifact [0..1];
                role by : Artifact [0..*];
            }
        }
        "#,
    )
    .expect("SDL parses");
    assert!(seed_schema::validate_schema(&schema).is_empty());

    let dir = temp_dir("sdl");
    let mut db = Database::create_durable(&dir, schema).unwrap();
    db.add_transition_rule(TransitionRule::NoDeletions).unwrap();

    let spec = db.create_object("Document", "RequirementsSpec").unwrap();
    let design = db.create_object("Document", "DesignSpec").unwrap();
    let program = db.create_object("Program", "AlarmMonitor").unwrap();
    let alice = db.create_object("Person", "Alice").unwrap();
    db.create_relationship("Responsible", &[("for", spec), ("who", alice)]).unwrap();
    db.create_relationship("Refines", &[("refined", spec), ("by", design)]).unwrap();
    db.create_relationship("Refines", &[("refined", design), ("by", program)]).unwrap();
    db.create_dependent(spec, "Section", Value::text("1. Introduction")).unwrap();
    db.create_dependent(spec, "Section", Value::text("2. Alarm handling")).unwrap();
    db.create_dependent(spec, "Owner", Value::string("Alice")).unwrap();
    // The ACYCLIC constraint holds across the refinement chain.
    assert!(db.create_relationship("Refines", &[("refined", program), ("by", spec)]).is_err());
    let v1 = db.create_version("baseline").unwrap();

    // Checkpoint, close and reopen through the seed-storage engine.
    db.checkpoint().unwrap();
    let (objects, relationships, rules) =
        (db.object_count(), db.relationship_count(), db.transition_rules().to_vec());
    drop(db);
    let reloaded = Database::open_durable(&dir).unwrap();
    assert_eq!(reloaded.object_count(), objects);
    assert_eq!(reloaded.relationship_count(), relationships);
    assert_eq!(reloaded.versions().len(), 1);
    assert_eq!(reloaded.transition_rules(), rules.as_slice());

    // Queries over the reloaded database.
    assert_eq!(query(&reloaded, "count Artifact").unwrap().count(), 3);
    assert_eq!(query(&reloaded, "count exactly Document").unwrap().count(), 2);
    assert_eq!(
        query(&reloaded, r#"find Artifact navigate Refines.by from "RequirementsSpec""#)
            .unwrap()
            .names(),
        vec!["DesignSpec"]
    );
    assert_eq!(
        query(&reloaded, r#"find Person where related Responsible.who"#).unwrap().names(),
        vec!["Alice"]
    );
    // Sections with a given text.
    assert_eq!(
        query(&reloaded, r#"find Document.Section where value = "2. Alarm handling""#)
            .unwrap()
            .count(),
        1
    );
    // Covering class Artifact: the completeness analysis sees no unspecialized artifacts
    // (every artifact is a Document or Program already).
    let report = reloaded.completeness_report();
    assert!(!report
        .findings
        .iter()
        .any(|f| matches!(f, seed_core::Incompleteness::UnspecializedObject { .. })));

    let _ = (v1, std::fs::remove_dir_all(&dir));
}

/// The transition rules (history-sensitive consistency, the paper's open problem) guard version
/// creation end-to-end.
#[test]
fn transition_rules_guard_releases() {
    let mut db = Database::new(seed_schema::figure3_schema());
    db.add_transition_rule(TransitionRule::NoDeletions).unwrap();
    db.add_transition_rule(TransitionRule::MonotonicValue { class: "Thing.Revised".into() })
        .unwrap();

    let handler = db.create_object("Action", "AlarmHandler").unwrap();
    let revised =
        db.create_dependent(handler, "Revised", Value::date(1985, 6, 1).unwrap()).unwrap();
    db.create_version("1.0").unwrap();

    // Moving the revision date backwards is rejected at version-creation time.
    db.set_value(revised, Value::date(1984, 1, 1).unwrap()).unwrap();
    assert!(db.create_version("2.0").is_err());
    // Forward is fine.
    db.set_value(revised, Value::date(1986, 2, 5).unwrap()).unwrap();
    db.create_version("2.0").unwrap();
    assert_eq!(db.versions().len(), 2);
}

/// The SPADES tool produces the same specification on both backends, but only SEED rejects the
/// erroneous operations and reports incompleteness — the paper's flexibility claim.
#[test]
fn spades_runs_on_both_backends() {
    let workload = Workload::generate(&WorkloadConfig {
        data_elements: 30,
        actions: 15,
        checkpoint_every: 40,
        ..WorkloadConfig::default()
    });

    let mut seed = SeedBackend::new();
    let mut direct = DirectBackend::new();
    assert_eq!(workload.apply(&mut seed), 0);
    assert_eq!(workload.apply(&mut direct), 0);

    assert_eq!(seed.element_names(), direct.element_names());
    assert_eq!(seed.flow_count(), direct.flow_count());
    assert_eq!(seed.checkpoint_count(), direct.checkpoint_count());
    assert!(seed.incompleteness_findings() > 0);
    assert_eq!(direct.incompleteness_findings(), 0);

    // The erroneous operations of an interactive session are caught only by SEED.
    let mut seed = SeedBackend::new();
    let mut direct = DirectBackend::new();
    for backend in [&mut seed as &mut dyn SpecBackend, &mut direct as &mut dyn SpecBackend] {
        backend.add_element("A", spades::ElementKind::Action).unwrap();
        backend.add_element("B", spades::ElementKind::Action).unwrap();
        backend.contain("A", "B").unwrap();
    }
    assert!(seed.contain("B", "A").is_err(), "SEED rejects the containment cycle");
    assert!(direct.contain("B", "A").is_ok(), "the old tool silently stores it");
}

/// The query layer sees exactly what the operational interface sees, including version views.
#[test]
fn queries_respect_selected_versions() {
    let mut db = Database::new(seed_schema::figure3_schema());
    let alarms = db.create_object("OutputData", "Alarms").unwrap();
    let sensor = db.create_object("Action", "Sensor").unwrap();
    db.create_relationship("Write", &[("to", alarms), ("by", sensor)]).unwrap();
    let v1 = db.create_version("1.0").unwrap();
    db.create_object("OutputData", "Report").unwrap();

    assert_eq!(query(&db, "count Data").unwrap().count(), 2);
    db.select_version(Some(v1)).unwrap();
    assert_eq!(query(&db, "count Data").unwrap().count(), 1);
    db.select_version(None).unwrap();
    assert_eq!(query(&db, "count Data").unwrap().count(), 2);
}

/// Incremental durability end-to-end: a durable database whose committed mutations survive a
/// crash (engine dropped without checkpoint), and the recovered database answers queries
/// through the rebuilt indexes.
#[test]
fn durable_database_survives_crash_and_answers_queries() {
    let dir = temp_dir("durable");

    let mut db = Database::create_durable(&dir, seed_schema::figure3_schema()).unwrap();
    let alarms = db.create_object("Thing", "Alarms").unwrap();
    let sensor = db.create_object("Action", "Sensor").unwrap();
    db.reclassify_object(alarms, "OutputData").unwrap();
    let rel = db.create_relationship("Write", &[("to", alarms), ("by", sensor)]).unwrap();
    db.set_relationship_attribute(rel, "NumberOfWrites", Value::Integer(2)).unwrap();
    db.create_version("baseline").unwrap();
    // A server-style batch: one explicit transaction, one storage commit.
    db.begin_transaction().unwrap();
    db.create_object("Data", "Report").unwrap();
    db.create_object("Action", "Display").unwrap();
    db.commit_transaction().unwrap();
    // A rolled-back transaction leaves no durable trace.
    db.begin_transaction().unwrap();
    db.create_object("Data", "Discarded").unwrap();
    db.rollback_transaction().unwrap();
    drop(db); // crash: no checkpoint, no close

    let recovered = Database::open_durable(&dir).unwrap();
    assert_eq!(recovered.object_count(), 4);
    assert!(recovered.object_by_name("Discarded").is_err());
    assert_eq!(query(&recovered, "count Data").unwrap().count(), 2);
    assert_eq!(
        query(&recovered, r#"find Thing where name prefix "Alarm""#).unwrap().names(),
        vec!["Alarms"]
    );
    assert_eq!(recovered.versions().len(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}
