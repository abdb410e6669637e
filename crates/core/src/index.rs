//! Secondary attribute indexes: ordered per-class maps from object values to object ids.
//!
//! The 1986 prototype retrieves by name only; every value-based selection in the query layer
//! used to scan the full class extent.  This module supplies the standard ER-to-physical
//! bridge — an ordered secondary index per class over the objects' values — so the query
//! planner ([`seed-query`'s `planner`][planner]) can answer equality probes in *O(log n)* and
//! range selections with a range scan instead of an *O(n)* extent scan.
//!
//! The index lives inside [`crate::store::DataStore`] and is maintained on **every** mutation
//! path — object creation, value update, re-classification, logical deletion, replica patching,
//! version-view reconstruction and persistence load — because all of those funnel through
//! `DataStore::insert_object` / `update_object` / `remove_object`.  Transaction rollback
//! restores a savepoint of the whole store, index included.
//!
//! ## Key encoding
//!
//! Query literals are strings, so the index key mirrors the comparison semantics of the query
//! layer exactly (see `docs/QUERY.md`): [`Value::Integer`] values get a numerically ordered
//! [`IndexKey::Int`] key; every other defined value gets a lexically ordered [`IndexKey::Str`]
//! key holding the same string form the scan comparison uses ([`Value::as_str`] when the value
//! is string-like, its display form otherwise).  [`Value::Undefined`] is **never indexed** —
//! "an undefined object matches nothing".
//!
//! ```
//! use seed_core::index::{AttributeIndex, IndexKey, ValueOp};
//! use seed_core::{ObjectId, Value};
//! use seed_schema::ClassId;
//!
//! let mut index = AttributeIndex::default();
//! index.insert(ClassId(0), &Value::Integer(7), ObjectId(1));
//! index.insert(ClassId(0), &Value::Integer(40), ObjectId(2));
//! index.insert(ClassId(0), &Value::string("7"), ObjectId(3));
//! index.insert(ClassId(0), &Value::Undefined, ObjectId(4)); // not indexed
//!
//! // Equality probes match both the integer and the string form of "7".
//! assert_eq!(index.matching(ClassId(0), ValueOp::Eq, "7"), vec![ObjectId(1), ObjectId(3)]);
//! // Range scans order integers numerically: 7 < 40 even though "7" > "40" lexically.
//! assert_eq!(index.matching(ClassId(0), ValueOp::Less, "40"), vec![ObjectId(1)]);
//! assert_eq!(index.estimate(ClassId(0), ValueOp::Eq, "7"), 2);
//! assert_eq!(IndexKey::of(&Value::Undefined), None);
//! ```
//!
//! [planner]: https://docs.rs/seed-query

use std::collections::BTreeSet;
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::sync::Arc;

use seed_schema::ClassId;

use crate::ident::ObjectId;
use crate::pmap::{PMap, PSet};
use crate::value::Value;

/// Ordered key under which a defined [`Value`] is indexed.
///
/// Integers order numerically and sort before all string-form keys; everything else orders
/// lexically on the same string form the query layer's scan comparison uses.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum IndexKey {
    /// Key of a [`Value::Integer`] — numeric order.
    Int(i64),
    /// Key of every other defined value — lexical order on its query-comparison string form.
    /// Shared (`Arc`), so copying an index node copies pointers, not strings.
    Str(Arc<str>),
}

impl IndexKey {
    /// The key a value is indexed under, or `None` for [`Value::Undefined`] (undefined values
    /// match nothing, so they are not indexed at all).
    pub fn of(value: &Value) -> Option<IndexKey> {
        match value {
            Value::Undefined => None,
            Value::Integer(i) => Some(IndexKey::Int(*i)),
            other => Some(IndexKey::Str(match other.as_str() {
                Some(s) => s.into(),
                None => other.to_string().into(),
            })),
        }
    }
}

/// Comparison forms the index can answer directly (the query layer's `!=` stays a scan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueOp {
    /// Equality probe (`value = "literal"`).
    Eq,
    /// Range scan below the literal (`value < "literal"`).
    Less,
    /// Range scan above the literal (`value > "literal"`).
    Greater,
}

/// Per-class ordered secondary index from value keys to the ids of live objects holding them.
///
/// Each class holds an ordered set of `(key, id)` pairs, so the ids under one key form one
/// contiguous run.  Reads return the union of matching ids in globally ascending id order (see
/// [`AttributeIndex::matching`]); callers resolve ids against the store and apply visibility
/// filtering (patterns, class hierarchies).
#[derive(Debug, Clone, Default)]
pub struct AttributeIndex {
    classes: PMap<ClassId, PSet<Entry>>,
}

/// One index entry: a value key and the id of an object holding it.
type Entry = (IndexKey, ObjectId);

/// The smallest and largest ids, which bound a key's run of `(key, id)` pairs.
const FIRST: ObjectId = ObjectId(0);
const LAST: ObjectId = ObjectId(u64::MAX);

impl AttributeIndex {
    /// Indexes `id` under the key of `value` (no-op for undefined values).
    pub fn insert(&mut self, class: ClassId, value: &Value, id: ObjectId) {
        if let Some(key) = IndexKey::of(value) {
            self.classes.add_to_set(class, (key, id));
        }
    }

    /// Removes `id` from the entry of `value` (no-op for undefined values).
    pub fn remove(&mut self, class: ClassId, value: &Value, id: ObjectId) {
        if let Some(key) = IndexKey::of(value) {
            self.classes.remove_from_set(&class, &(key, id));
        }
    }

    /// Number of indexed (class, value) entries for `class` — the planner's scan-cost proxy.
    pub fn entry_count(&self, class: ClassId) -> usize {
        self.classes.get(&class).map(PMap::len).unwrap_or(0)
    }

    /// Ids of objects of exactly `class` whose value satisfies `op` against the query literal,
    /// in ascending id order.
    pub fn matching(&self, class: ClassId, op: ValueOp, literal: &str) -> Vec<ObjectId> {
        let mut out = BTreeSet::new();
        self.walk_matching(class, op, literal, |matched, id| {
            if matched {
                out.insert(id);
            }
            true
        });
        out.into_iter().collect()
    }

    /// Cost of resolving [`AttributeIndex::matching`] — the planner's cardinality estimate,
    /// computed without materialising records.  Exactly the match count, except in the
    /// mixed-type fallback where visited-but-unmatched integer entries are charged too (they
    /// are real walk work).
    pub fn estimate(&self, class: ClassId, op: ValueOp, literal: &str) -> usize {
        self.estimate_up_to(class, op, literal, usize::MAX)
    }

    /// Like [`AttributeIndex::estimate`], but with an early-exit budget: counting stops at
    /// `cap` (the caller's scan cost — once the index path is at least that expensive, its
    /// exact cost no longer matters).  This bounds plan-time work: every estimate visits at
    /// most `cap` entries.  In the rare mixed-type case (a `<`/`>` literal that is not an
    /// integer), every *visited* integer entry charges the budget even when it does not match,
    /// because the executor would redo that walk — a wide unmatched walk must lose to the
    /// extent scan.
    pub fn estimate_up_to(&self, class: ClassId, op: ValueOp, literal: &str, cap: usize) -> usize {
        let mut cost = 0usize;
        self.walk_matching(class, op, literal, |_, _| {
            cost += 1;
            cost < cap
        });
        cost.min(cap)
    }

    /// The single walk both [`AttributeIndex::matching`] and [`AttributeIndex::estimate_up_to`]
    /// are built on, reproducing the query layer's scan-comparison semantics: integer keys
    /// compare numerically when the literal parses as an integer (and by their decimal string
    /// form otherwise); all other keys compare lexically on their string form.
    ///
    /// The visitor receives `(matched, id)` for every entry the walk touches — `matched` is
    /// false only in the mixed-type fallback (non-integer `<`/`>` literal forcing a walk over
    /// the integer keys), where visiting is real work even without a match.  Returning `false`
    /// stops the walk early.
    fn walk_matching(
        &self,
        class: ClassId,
        op: ValueOp,
        literal: &str,
        mut visit: impl FnMut(bool, ObjectId) -> bool,
    ) {
        let Some(tree) = self.classes.get(&class) else { return };
        let int_literal = literal.parse::<i64>().ok();
        let str_literal = || IndexKey::Str(literal.into());
        // Every `(key, id)` range is a run of whole keys: `FIRST`/`LAST` bound a key's ids.
        let mut ranges: Vec<(Bound<Entry>, Bound<Entry>)> = Vec::new();
        match op {
            ValueOp::Eq => {
                let keys = int_literal.map(IndexKey::Int).into_iter().chain([str_literal()]);
                for key in keys {
                    ranges.push((Included((key.clone(), FIRST)), Included((key, LAST))));
                }
            }
            ValueOp::Less | ValueOp::Greater => {
                // Integer side.
                match int_literal {
                    Some(m) => ranges.push(match op {
                        ValueOp::Less => (Unbounded, Excluded((IndexKey::Int(m), FIRST))),
                        _ => (
                            Excluded((IndexKey::Int(m), LAST)),
                            Included((IndexKey::Int(i64::MAX), LAST)),
                        ),
                    }),
                    None => {
                        // Non-numeric literal: integer values fall back to comparing their
                        // decimal string form (numeric key order does not help here, but such
                        // mixed comparisons are rare and the integer side is usually empty).
                        let ints =
                            tree.range((Unbounded, Included((IndexKey::Int(i64::MAX), LAST))));
                        for ((key, id), _) in ints {
                            let IndexKey::Int(i) = key else { continue };
                            let s = i.to_string();
                            let matched = match op {
                                ValueOp::Less => s.as_str() < literal,
                                _ => s.as_str() > literal,
                            };
                            if !visit(matched, *id) {
                                return;
                            }
                        }
                    }
                }
                // String side: plain lexical range over the `Str` keys.
                ranges.push(match op {
                    ValueOp::Less => (
                        Included((IndexKey::Str("".into()), FIRST)),
                        Excluded((str_literal(), FIRST)),
                    ),
                    _ => (Excluded((str_literal(), LAST)), Unbounded),
                });
            }
        }
        for range in ranges {
            for ((_, id), _) in tree.range(range) {
                if !visit(true, *id) {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn key_encoding_follows_scan_semantics() {
        assert_eq!(IndexKey::of(&Value::Integer(7)), Some(IndexKey::Int(7)));
        assert_eq!(IndexKey::of(&Value::string("x")), Some(IndexKey::Str("x".into())));
        assert_eq!(IndexKey::of(&Value::symbol("repeat")), Some(IndexKey::Str("repeat".into())));
        assert_eq!(IndexKey::of(&Value::Real(2.5)), Some(IndexKey::Str("2.5".into())));
        assert_eq!(IndexKey::of(&Value::Boolean(true)), Some(IndexKey::Str("true".into())));
        assert_eq!(
            IndexKey::of(&Value::date(1986, 2, 5).unwrap()),
            Some(IndexKey::Str("1986-02-05".into()))
        );
        assert_eq!(IndexKey::of(&Value::Undefined), None);
        // Integers order numerically and before all string keys.
        assert!(IndexKey::Int(7) < IndexKey::Int(40));
        assert!(IndexKey::Int(i64::MAX) < IndexKey::Str("".into()));
    }

    #[test]
    fn equality_probes_match_integer_and_string_forms() {
        let mut index = AttributeIndex::default();
        let class = ClassId(1);
        index.insert(class, &Value::Integer(2), id(1));
        index.insert(class, &Value::string("2"), id(2));
        index.insert(class, &Value::string("02"), id(3));
        index.insert(class, &Value::Undefined, id(4));
        assert_eq!(index.matching(class, ValueOp::Eq, "2"), vec![id(1), id(2)]);
        // "02" parses as integer 2, so it matches Integer(2) — but not String("2").
        assert_eq!(index.matching(class, ValueOp::Eq, "02"), vec![id(1), id(3)]);
        assert_eq!(index.estimate(class, ValueOp::Eq, "2"), 2);
        assert_eq!(index.entry_count(class), 3);
        assert_eq!(index.entry_count(ClassId(9)), 0);
    }

    #[test]
    fn range_scans_split_numeric_and_lexical_order() {
        let mut index = AttributeIndex::default();
        let class = ClassId(1);
        index.insert(class, &Value::Integer(7), id(1));
        index.insert(class, &Value::Integer(40), id(2));
        index.insert(class, &Value::string("Alpha"), id(3));
        index.insert(class, &Value::string("Beta"), id(4));
        // Numeric literal: integers numeric, strings lexical.
        assert_eq!(index.matching(class, ValueOp::Less, "40"), vec![id(1)]);
        assert_eq!(index.matching(class, ValueOp::Greater, "7"), vec![id(2), id(3), id(4)]);
        // Non-numeric literal: integers compare by decimal string form ("40" < "7" < "Alpha").
        assert_eq!(index.matching(class, ValueOp::Less, "Alpha"), vec![id(1), id(2)]);
        assert_eq!(index.matching(class, ValueOp::Greater, "Alpha"), vec![id(4)]);
        assert_eq!(index.estimate(class, ValueOp::Greater, "7"), 3);
    }

    #[test]
    fn extreme_integer_literals_do_not_panic() {
        let mut index = AttributeIndex::default();
        let class = ClassId(0);
        index.insert(class, &Value::Integer(i64::MIN), id(1));
        index.insert(class, &Value::Integer(i64::MAX), id(2));
        assert!(index.matching(class, ValueOp::Less, &i64::MIN.to_string()).is_empty());
        assert!(index.matching(class, ValueOp::Greater, &i64::MAX.to_string()).is_empty());
        assert_eq!(index.matching(class, ValueOp::Greater, &i64::MIN.to_string()), vec![id(2)]);
    }

    #[test]
    fn estimates_early_exit_at_the_cap() {
        let mut index = AttributeIndex::default();
        let class = ClassId(0);
        for i in 0..100 {
            index.insert(class, &Value::Integer(i), id(i as u64 + 1));
        }
        // Wide range: the true count is 99, but counting stops at the cap.
        assert_eq!(index.estimate_up_to(class, ValueOp::Greater, "0", 10), 10);
        assert_eq!(index.estimate_up_to(class, ValueOp::Greater, "0", usize::MAX), 99);
        assert_eq!(index.estimate(class, ValueOp::Greater, "0"), 99);
        // Mixed-type walk (non-numeric literal over integer keys): every *visited* key charges
        // the budget even though nothing matches, so a wide walk cannot be reported as cheap.
        assert_eq!(index.estimate_up_to(class, ValueOp::Greater, "z", 10), 10);
        assert_eq!(index.matching(class, ValueOp::Greater, "z"), Vec::<ObjectId>::new());
        // Point probes ignore the walk budget (two map lookups).
        assert_eq!(index.estimate_up_to(class, ValueOp::Eq, "50", 10), 1);
    }

    #[test]
    fn removal_prunes_empty_entries() {
        let mut index = AttributeIndex::default();
        let class = ClassId(1);
        index.insert(class, &Value::Integer(7), id(1));
        index.insert(class, &Value::Integer(7), id(2));
        index.remove(class, &Value::Integer(7), id(1));
        assert_eq!(index.matching(class, ValueOp::Eq, "7"), vec![id(2)]);
        index.remove(class, &Value::Integer(7), id(2));
        assert_eq!(index.entry_count(class), 0);
        assert!(index.classes.is_empty(), "empty per-class trees are pruned");
        // Removing from a missing class/key is a no-op.
        index.remove(ClassId(5), &Value::Integer(1), id(9));
        index.remove(class, &Value::Undefined, id(9));
    }
}
