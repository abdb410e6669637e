//! Shared benchmark scenarios: databases and workloads of controlled size.

use seed_core::{Database, ObjectId, RelationshipId, Value};
use seed_schema::{figure3_schema, Domain, SchemaBuilder};
use spades::{DirectBackend, SeedBackend, Workload, WorkloadConfig};

/// Builds a Figure-3 database with `n` data elements, `n / 2` actions and one Access
/// relationship per action, without versions.
pub fn populated_database(n: usize) -> Database {
    let mut db = Database::new(figure3_schema());
    let mut actions = Vec::new();
    for i in 0..(n / 2).max(1) {
        actions.push(db.create_object("Action", &format!("Action{i:05}")).unwrap());
    }
    for i in 0..n {
        let data = db.create_object("Data", &format!("Data{i:05}")).unwrap();
        let action = actions[i % actions.len()];
        db.create_relationship("Access", &[("from", data), ("by", action)]).unwrap();
    }
    db
}

/// A database plus the ids needed by the re-classification benchmark: `n` vague `Thing` objects,
/// each with one Access relationship.
pub fn vague_database(n: usize) -> (Database, Vec<ObjectId>, Vec<RelationshipId>) {
    let mut db = Database::new(figure3_schema());
    let action = db.create_object("Action", "Sink").unwrap();
    let mut objects = Vec::with_capacity(n);
    let mut rels = Vec::with_capacity(n);
    for i in 0..n {
        let id = db.create_object("Thing", &format!("Vague{i:05}")).unwrap();
        objects.push(id);
        // Relationships require Data, so refine just enough to attach one, then re-vague later
        // benchmarks operate on the Data -> OutputData step.
        db.reclassify_object(id, "Data").unwrap();
        rels.push(db.create_relationship("Access", &[("from", id), ("by", action)]).unwrap());
    }
    (db, objects, rels)
}

/// Builds a database of `n` value-carrying `Item` objects (`Item000000` = 0, `Item000001` = 1,
/// ...) over a minimal schema, used by E9 to compare the planner's indexed access paths with
/// the full-scan fallback on value-equality and range queries.
pub fn valued_database(n: usize) -> Database {
    let schema = SchemaBuilder::new("Valued")
        .value_class("Item", Domain::Integer)
        .build()
        .expect("valued schema is statically correct");
    let mut db = Database::new(schema);
    for i in 0..n {
        db.create_object_with_value("Item", &format!("Item{i:06}"), Value::Integer(i as i64))
            .unwrap();
    }
    db
}

/// Creates a pattern with `n` inheritors; returns the database, the pattern id and the pattern's
/// value-carrying child (updating it is the propagation benchmark's unit of work).
pub fn pattern_with_inheritors(n: usize) -> (Database, ObjectId, Vec<ObjectId>) {
    let mut db = Database::new(figure3_schema());
    let manager = db.create_object("Action", "Manager").unwrap();
    let pattern = db.create_pattern_object("Data", "Standard").unwrap();
    db.create_pattern_relationship("Access", &[("from", pattern), ("by", manager)]).unwrap();
    let mut inheritors = Vec::with_capacity(n);
    for i in 0..n {
        let obj = db.create_object("Data", &format!("Instance{i:05}")).unwrap();
        db.inherit_pattern(obj, pattern).unwrap();
        inheritors.push(obj);
    }
    (db, pattern, inheritors)
}

/// The standard SPADES workload used by the overhead comparison.
pub fn spades_workload(scale: usize) -> Workload {
    Workload::generate(&WorkloadConfig {
        data_elements: scale,
        actions: scale / 2,
        vague_percent: 50,
        flows_per_action: 3,
        keywords_per_data: 2,
        checkpoint_every: 50,
        seed: 1986,
    })
}

/// Runs a workload on a fresh SEED backend, returning the number of rejected operations.
pub fn run_on_seed(workload: &Workload, consistency: bool) -> usize {
    let mut backend =
        if consistency { SeedBackend::new() } else { SeedBackend::without_consistency_checking() };
    workload.apply(&mut backend)
}

/// Runs a workload on a fresh direct (pre-SEED) backend.
pub fn run_on_direct(workload: &Workload) -> usize {
    let mut backend = DirectBackend::new();
    workload.apply(&mut backend)
}

/// Applies `versions` rounds of editing to a database, changing `changes_per_version` objects
/// each round and snapshotting after each; returns the database.
pub fn versioned_database(objects: usize, versions: usize, changes_per_version: usize) -> Database {
    let mut db = populated_database(objects);
    let ids: Vec<ObjectId> =
        db.objects_of_class("Data", true).unwrap().into_iter().map(|o| o.id).collect();
    for v in 0..versions {
        for c in 0..changes_per_version.min(ids.len()) {
            let id = ids[(v * changes_per_version + c) % ids.len()];
            let text = db.create_dependent(id, "Text", Value::Undefined);
            // Either add a Text child or touch an existing object, whichever succeeds.
            if text.is_err() {
                let _ = db.reclassify_object(id, "OutputData");
            }
        }
        db.create_version(&format!("round {v}")).unwrap();
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builders_produce_expected_sizes() {
        let db = populated_database(20);
        assert_eq!(db.objects_of_class("Data", true).unwrap().len(), 20);
        assert_eq!(db.relationship_count(), 20);

        let (db, objects, rels) = vague_database(5);
        assert_eq!(objects.len(), 5);
        assert_eq!(rels.len(), 5);
        assert_eq!(db.objects_of_class("Data", true).unwrap().len(), 5);

        let db = valued_database(16);
        assert_eq!(db.object_count(), 16);
        assert_eq!(seed_query::run(&db, r#"count Item where value = "7""#).unwrap().count(), 1);

        let (db, pattern, inheritors) = pattern_with_inheritors(7);
        assert_eq!(inheritors.len(), 7);
        assert_eq!(db.inheritors_of(pattern).len(), 7);

        let workload = spades_workload(20);
        assert!(workload.len() > 50);
        assert_eq!(run_on_seed(&workload, true), 0);
        assert_eq!(run_on_direct(&workload), 0);

        let db = versioned_database(10, 3, 2);
        assert_eq!(db.versions().len(), 3);
    }
}
