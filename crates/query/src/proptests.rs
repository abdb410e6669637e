//! Property tests: indexed execution and the scan fallback are the same function.
//!
//! For random schemas (random specialization hierarchies with random value domains and an
//! association hierarchy), random populations (objects, values, relationships in both
//! directions and through every association, self-links, patterns with inherited
//! relationships, deleted relationships and objects) and random queries over every selection
//! form and every navigation direction, [`execute`] (planner + index access paths) and
//! [`execute_scan`] (the original full-extent pipeline) must return identical result sets — and
//! fail on identical inputs with identical errors.  This is the contract that lets the planner
//! switch access paths freely (see `docs/QUERY.md`).

use proptest::prelude::*;
use seed_core::{Database, ObjectId, Value};
use seed_schema::{Domain, SchemaBuilder};

use crate::ast::{Comparison, Navigation, Query, Selection};
use crate::exec::{execute, execute_scan};
use crate::planner::{plan, AccessPath};

/// The association hierarchy: `Link` generalizes `LinkX` and `LinkY`.  `LinkY` names its roles
/// differently, so navigating `Link` over a `LinkY` relationship maps roles by position.
const ASSOCIATIONS: [(&str, [&str; 2]); 3] =
    [("Link", ["a", "b"]), ("LinkX", ["a", "b"]), ("LinkY", ["src", "dst"])];

/// Builds a schema with `domains.len()` specializations of a common `Root` class (`C0`, `C1`,
/// ... with an Integer or String domain each) and the [`ASSOCIATIONS`] over `Root`.
fn random_schema(domains: &[bool]) -> seed_schema::Schema {
    let mut builder = SchemaBuilder::new("Random").class("Root", |c| c);
    for (i, integer) in domains.iter().enumerate() {
        let domain = if *integer { Domain::Integer } else { Domain::String };
        builder = builder.value_class(&format!("C{i}"), domain);
    }
    for (name, [a, b]) in ASSOCIATIONS {
        builder = builder.association(name, a, "Root", "0..*", b, "Root", "0..*", |a| a);
    }
    let subs: Vec<String> = (0..domains.len()).map(|i| format!("C{i}")).collect();
    let sub_refs: Vec<&str> = subs.iter().map(String::as_str).collect();
    builder
        .generalize_classes("Root", &sub_refs, false)
        .generalize_associations("Link", &["LinkX", "LinkY"], false)
        .build()
        .expect("generated schema is valid")
}

type ObjectSpec = (u8, String, u8, i64, String);
/// A relationship: its two ends, the association, and whether it is a self-link.
type LinkSpec = (u8, u8, u8, bool);
/// A pattern `P<i>`: its relationship's partner, association and side (the pattern binds
/// itself on the first or second role, or both as a self-link), plus the inheritor.
type PatternSpec = (u8, u8, u8, u8);
/// A change after everything is created: delete a relationship (kind 0) or an object (kind
/// 1), or mark an object as a pattern (kind 2), which hides it from retrieval but not from the
/// relationships that bind it.
type ChangeSpec = (u8, u8);
type QuerySpec = ((u8, u8, bool, u8), (u8, i64, String, u8), (u8, u8, u8));

/// A generated database and the names the queries draw `from` objects from.
struct Population {
    db: Database,
    /// Every object name created, live or deleted.
    names: Vec<String>,
    /// The pattern names (`P0`, `P1`, ...): navigating from one must fail on both paths.
    patterns: Vec<String>,
    /// The names of the objects that inherit a pattern.
    inheritors: Vec<String>,
}

fn bind(db: &mut Database, association: u8, first: ObjectId, second: ObjectId, pattern: bool) {
    let (name, [a, b]) = ASSOCIATIONS[association as usize % ASSOCIATIONS.len()];
    let bindings = [(a, first), (b, second)];
    // Rejections are part of the model, not a failure of the generator.
    let _ = if pattern {
        db.create_pattern_relationship(name, &bindings)
    } else {
        db.create_relationship(name, &bindings)
    };
}

fn build_database(
    domains: &[bool],
    objects: &[ObjectSpec],
    links: &[LinkSpec],
    patterns: &[PatternSpec],
    changes: &[ChangeSpec],
) -> Population {
    let mut db = Database::new(random_schema(domains));
    let mut created = Vec::new();
    let mut names = Vec::new();
    for (class_pick, name, value_pick, int_value, str_value) in objects {
        let class_index = *class_pick as usize % (domains.len() + 1);
        let (class, value) = if class_index == 0 {
            ("Root".to_string(), Value::Undefined)
        } else {
            let class = format!("C{}", class_index - 1);
            let value = match value_pick % 3 {
                0 => Value::Undefined,
                _ if domains[class_index - 1] => Value::Integer(*int_value),
                _ => Value::string(str_value.clone()),
            };
            (class, value)
        };
        // Duplicate names are rejected by the database; that is part of the model, not a
        // failure of the generator.
        if let Ok(id) = db.create_object_with_value(&class, name, value) {
            created.push(id);
            names.push(name.clone());
        }
    }
    let (mut pattern_names, mut inheritors) = (Vec::new(), Vec::new());
    if !created.is_empty() {
        let pick = |i: u8| created[i as usize % created.len()];
        for (a, b, association, self_link) in links {
            let to = if *self_link { pick(*a) } else { pick(*b) };
            bind(&mut db, *association, pick(*a), to, false);
        }
        for (i, (partner, association, side, inheritor)) in patterns.iter().enumerate() {
            let name = format!("P{i}");
            let Ok(pattern) = db.create_pattern_object("Root", &name) else { continue };
            pattern_names.push(name);
            let partner = pick(*partner);
            match side % 3 {
                0 => bind(&mut db, *association, pattern, partner, true),
                1 => bind(&mut db, *association, partner, pattern, true),
                _ => bind(&mut db, *association, pattern, pattern, true),
            }
            let inheritor = *inheritor as usize % created.len();
            if db.inherit_pattern(created[inheritor], pattern).is_ok() {
                inheritors.push(names[inheritor].clone());
            }
        }
    }
    let relationships: Vec<_> =
        db.store().all_relationships().filter(|r| !r.is_pattern).map(|r| r.id).collect();
    for (kind, pick) in changes {
        match kind % 3 {
            0 if !relationships.is_empty() => {
                let _ = db.delete_relationship(relationships[*pick as usize % relationships.len()]);
            }
            1 if !created.is_empty() => {
                let _ = db.delete_object(created[*pick as usize % created.len()]);
            }
            2 if !created.is_empty() => {
                let _ = db.mark_pattern(created[*pick as usize % created.len()]);
            }
            _ => {}
        }
    }
    Population { db, names, patterns: pattern_names, inheritors }
}

fn build_query(domains: &[bool], population: &Population, spec: &QuerySpec) -> Query {
    let (
        (form, class_pick, exact, sel_kind),
        (op_pick, int_lit, str_lit, nav_pick),
        (from_pick, association_pick, role_pick),
    ) = spec;
    // At least a third of the queries range over `Root`, so navigation reaches every class.
    let class_index = if *class_pick >= 8 { 0 } else { *class_pick as usize % (domains.len() + 1) };
    let class = if class_index == 0 { "Root".to_string() } else { format!("C{}", class_index - 1) };
    let op = match op_pick % 4 {
        0 => Comparison::Equal,
        1 => Comparison::NotEqual,
        2 => Comparison::Less,
        _ => Comparison::Greater,
    };
    let selections = match sel_kind % 12 {
        0 | 8.. => vec![],
        1 => vec![Selection::NameEquals(str_lit.clone())],
        2 => vec![Selection::NamePrefix(str_lit.clone())],
        3 => vec![Selection::Value(op, int_lit.to_string())],
        4 => vec![Selection::Value(op, str_lit.clone())],
        5 => vec![Selection::Related { association: "Link".into(), role: "a".into() }],
        6 => vec![Selection::Related { association: "Link".into(), role: "b".into() }],
        7 => vec![
            Selection::Value(op, int_lit.to_string()),
            Selection::NamePrefix(str_lit.chars().take(1).collect()),
        ],
    };
    // Most `from` names are objects the population created (some since deleted), inheritors
    // among them; the rest are patterns, which no retrieval sees, and random literals, which
    // rarely resolve.
    let any_of = |names: &[String]| names[*from_pick as usize % names.len()].clone();
    let from_object = match from_pick % 8 {
        0 => str_lit.clone(),
        1 if !population.patterns.is_empty() => any_of(&population.patterns),
        2 if !population.inheritors.is_empty() => any_of(&population.inheritors),
        _ if !population.names.is_empty() => any_of(&population.names),
        _ => str_lit.clone(),
    };
    // One pick in eight names an unknown association or role: both paths must fail alike.
    let (association, roles) = ASSOCIATIONS[*association_pick as usize % ASSOCIATIONS.len()];
    let association = if association_pick % 8 == 7 { "Ghost" } else { association };
    let to_role = if role_pick % 8 == 7 { "ghost" } else { roles[*role_pick as usize % 2] };
    let navigate = (nav_pick % 3 != 0).then(|| Navigation {
        association: association.into(),
        to_role: to_role.into(),
        from_object,
    });
    if *form % 2 == 0 {
        Query::Find { class, exact: *exact, selections, navigate }
    } else {
        Query::Count { class, exact: *exact, selections, navigate }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn indexed_and_scan_execution_are_identical(
        domains in proptest::collection::vec(any::<bool>(), 1..4),
        objects in proptest::collection::vec(
            (0u8..8, "[A-D][a-e]{0,2}", 0u8..3, -3i64..6, "[a-e]{0,2}"),
            0..30,
        ),
        population in (
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), 0u8..6), 0..32)
                .prop_map(|links| {
                    // One link in six is a self-link.
                    links.into_iter().map(|(a, b, c, s)| (a, b, c, s == 0)).collect::<Vec<_>>()
                }),
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..3),
            proptest::collection::vec((any::<u8>(), any::<u8>()), 0..5),
        ),
        queries in proptest::collection::vec(
            (
                (0u8..2, 0u8..12, any::<bool>(), 0u8..12),
                (0u8..4, -4i64..7, "[A-Da-e]{0,3}", 0u8..3),
                (any::<u8>(), any::<u8>(), any::<u8>()),
            ),
            1..12,
        ),
    ) {
        let (links, patterns, changes) = &population;
        let population = build_database(&domains, &objects, links, patterns, changes);
        let db = &population.db;
        for spec in &queries {
            let query = build_query(&domains, &population, spec);
            let indexed = execute(db, &query);
            let scanned = execute_scan(db, &query);
            match (&indexed, &scanned) {
                (Ok(a), Ok(b)) => {
                    prop_assert!(
                        a.names() == b.names() && a.count() == b.count(),
                        "paths disagree on {:?}: indexed {:?} vs scan {:?}",
                        query, a, b
                    );
                    // The estimate that ranked the access path bounds what it returns.
                    let planned = plan(db, &query).expect("the query executed, so it plans");
                    let navigates = matches!(
                        &query,
                        Query::Find { navigate: Some(_), .. } | Query::Count { navigate: Some(_), .. }
                    );
                    prop_assert!(
                        matches!(planned.access, AccessPath::ByAdjacency { .. }) == navigates,
                        "every navigating query, and only those, walks the adjacency: {:?}",
                        query
                    );
                    prop_assert!(
                        planned.access.estimated_rows() >= a.count(),
                        "{:?} estimated below its {} results for {:?}",
                        planned.access, a.count(), query
                    );
                }
                (Err(a), Err(b)) => prop_assert!(
                    a.to_string() == b.to_string(),
                    "paths fail differently on {:?}: indexed {} vs scan {}",
                    query, a, b
                ),
                _ => prop_assert!(
                    false,
                    "paths disagree on {:?}: indexed {:?} vs scan {:?}",
                    query, indexed, scanned
                ),
            }
            // `explain` must render a plan for every well-classed query.
            let explained = execute(db, &Query::Explain(Box::new(query.clone())));
            prop_assert!(explained.is_ok(), "explain failed for {:?}", query);
            prop_assert!(explained.unwrap().plan().is_some());
        }
    }
}
