//! A persistent ordered map: a B+ tree whose nodes are shared through `Arc`.
//!
//! Cloning a [`PMap`] copies one pointer.  A write copies only the nodes on its root-to-leaf
//! path that another clone still shares (`Arc::make_mut`); every other node stays shared.  So
//! the database takes read snapshots and transaction savepoints as plain clones: a clone costs
//! the same at any size, and two clones hold apart only the nodes written since they diverged.
//!
//! Entries live in the leaves.  A branch keeps one separator per child boundary: every key of
//! `children[i]` is below `keys[i]`, and every key of `children[i + 1]` is at or above it.
//!
//! ```
//! use seed_core::pmap::PMap;
//!
//! let mut live = PMap::new();
//! live.insert(2, "two");
//! live.insert(1, "one");
//! let snapshot = live.clone();
//! live.insert(3, "three");
//! live.remove(&1);
//! assert_eq!(snapshot.iter().collect::<Vec<_>>(), vec![(&1, &"one"), (&2, &"two")]);
//! assert_eq!(live.range(2..).map(|(k, _)| *k).collect::<Vec<_>>(), vec![2, 3]);
//! ```

use std::borrow::Borrow;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// Most entries a leaf, or children a branch, holds before it splits.
const MAX: usize = 32;
/// Fewest entries (children) a non-root node holds before it merges with a neighbour.
const MIN: usize = MAX / 2;

/// A tree node: sorted keys, plus the values (leaf) or the children (branch).
#[derive(Clone)]
struct Node<K, V> {
    keys: Vec<K>,
    kids: Kids<K, V>,
}

#[derive(Clone)]
enum Kids<K, V> {
    Leaf(Vec<V>),
    Branch(Vec<Arc<Node<K, V>>>),
}

/// A persistent ordered map; see the module docs.
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

/// A persistent ordered set.
pub type PSet<T> = PMap<T, ()>;

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        Self { root: self.root.clone(), len: self.len }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        Self { root: None, len: 0 }
    }
}

impl<K: Ord + Clone + std::fmt::Debug, V: Clone + std::fmt::Debug> std::fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

// Nodes are searched linearly: the loads of a scan overlap, while each probe of a binary search
// waits for the one before, so for keys stored out of line (strings) the scan is faster here.

/// Position of the first key at or above `key`.
fn lower_bound<K: Borrow<Q>, Q: Ord + ?Sized>(keys: &[K], key: &Q) -> usize {
    keys.iter().position(|k| k.borrow() >= key).unwrap_or(keys.len())
}

/// Position of the first key above `key`: in a branch, the child that holds `key`.
fn child_index<K: Borrow<Q>, Q: Ord + ?Sized>(keys: &[K], key: &Q) -> usize {
    keys.iter().position(|k| k.borrow() > key).unwrap_or(keys.len())
}

/// Position of `key` itself.
fn find<K: Borrow<Q>, Q: Ord + ?Sized>(keys: &[K], key: &Q) -> Option<usize> {
    let i = lower_bound(keys, key);
    (keys.get(i)?.borrow() == key).then_some(i)
}

impl<K: Ord + Clone, V: Clone> Node<K, V> {
    /// Entries of a leaf, children of a branch (one more than its separators).
    fn size(&self) -> usize {
        self.keys.len() + usize::from(matches!(self.kids, Kids::Branch(_)))
    }

    /// Inserts into this subtree, returning the value it replaced.  The node may overflow;
    /// the caller splits it.
    fn insert(&mut self, key: K, value: V) -> Option<V> {
        match &mut self.kids {
            Kids::Leaf(vals) => {
                let i = lower_bound(&self.keys, &key);
                if self.keys.get(i) == Some(&key) {
                    return Some(std::mem::replace(&mut vals[i], value));
                }
                self.keys.insert(i, key);
                vals.insert(i, value);
                None
            }
            Kids::Branch(children) => {
                let i = child_index(&self.keys, &key);
                let child = Arc::make_mut(&mut children[i]);
                let old = child.insert(key, value);
                if let Some((separator, right)) = child.split() {
                    self.keys.insert(i, separator);
                    children.insert(i + 1, right);
                }
                old
            }
        }
    }

    /// Removes from this subtree.  A child left under the minimum merges with a neighbour,
    /// and the union splits again if it overflows.
    fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        match &mut self.kids {
            Kids::Leaf(vals) => {
                let i = find(&self.keys, key)?;
                self.keys.remove(i);
                Some(vals.remove(i))
            }
            Kids::Branch(children) => {
                let i = child_index(&self.keys, key);
                let old = Arc::make_mut(&mut children[i]).remove(key)?;
                if children[i].size() < MIN {
                    let j = i.min(children.len() - 2);
                    let separator = self.keys.remove(j);
                    let right = children.remove(j + 1);
                    let left = Arc::make_mut(&mut children[j]);
                    left.merge(separator, Arc::try_unwrap(right).unwrap_or_else(|r| (*r).clone()));
                    if let Some((separator, right)) = left.split() {
                        self.keys.insert(j, separator);
                        children.insert(j + 1, right);
                    }
                }
                Some(old)
            }
        }
    }

    /// Splits an overflowing node in half, returning the separator and the right half.
    fn split(&mut self) -> Option<(K, Arc<Self>)> {
        if self.size() <= MAX {
            return None;
        }
        let mid = self.size() / 2;
        let (separator, keys, kids) = match &mut self.kids {
            Kids::Leaf(vals) => {
                let keys = self.keys.split_off(mid);
                (keys[0].clone(), keys, Kids::Leaf(vals.split_off(mid)))
            }
            Kids::Branch(children) => {
                let mut keys = self.keys.split_off(mid - 1);
                (keys.remove(0), keys, Kids::Branch(children.split_off(mid)))
            }
        };
        Some((separator, Arc::new(Node { keys, kids })))
    }

    /// Appends the right-hand neighbour `right`, which `separator` divided from this node.
    fn merge(&mut self, separator: K, right: Self) {
        match (&mut self.kids, right.kids) {
            (Kids::Leaf(vals), Kids::Leaf(more)) => vals.extend(more),
            (Kids::Branch(children), Kids::Branch(more)) => {
                self.keys.push(separator);
                children.extend(more);
            }
            _ => unreachable!("neighbours share a level"),
        }
        self.keys.extend(right.keys);
    }
}

impl<K, V> PMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        self.range(..)
    }

    /// Keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// The value under `key`.
    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        let mut node = self.root.as_deref()?;
        loop {
            match &node.kids {
                Kids::Leaf(vals) => return find(&node.keys, key).map(|i| &vals[i]),
                Kids::Branch(children) => node = &children[child_index(&node.keys, key)],
            }
        }
    }

    /// Whether `key` has an entry.
    pub fn contains_key<Q: Ord + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.get(key).is_some()
    }

    /// Mutable access to the value under `key`, copying the shared nodes on its path.
    pub fn get_mut<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        if !self.contains_key(key) {
            return None;
        }
        let mut node = Arc::make_mut(self.root.as_mut()?);
        loop {
            match &mut node.kids {
                Kids::Leaf(vals) => return find(&node.keys, key).map(|i| &mut vals[i]),
                Kids::Branch(children) => {
                    node = Arc::make_mut(&mut children[child_index(&node.keys, key)]);
                }
            }
        }
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let leaf = || Arc::new(Node { keys: Vec::new(), kids: Kids::Leaf(Vec::new()) });
        let root = Arc::make_mut(self.root.get_or_insert_with(leaf));
        let old = root.insert(key, value);
        if let Some((separator, right)) = root.split() {
            let left = self.root.take().expect("root exists");
            let kids = Kids::Branch(vec![left, right]);
            self.root = Some(Arc::new(Node { keys: vec![separator], kids }));
        }
        self.len += usize::from(old.is_none());
        old
    }

    /// Removes the entry under `key`, returning its value.
    pub fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        if !self.contains_key(key) {
            return None;
        }
        let root = Arc::make_mut(self.root.as_mut()?);
        let old = root.remove(key);
        self.len -= 1;
        // A root branch left with one child gives way to it; an empty root leaf goes.
        match &root.kids {
            Kids::Branch(children) if children.len() == 1 => self.root = Some(children[0].clone()),
            Kids::Leaf(vals) if vals.is_empty() => self.root = None,
            _ => {}
        }
        old
    }

    /// Entries whose keys fall in `range`, in key order.
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> Iter<'_, K, V> {
        let end = range.end_bound().cloned();
        let mut iter = Iter { stack: Vec::new(), leaf: [].iter().zip(&[]), end };
        // Where the range starts within one node's keys.
        let start = |keys: &[K], in_leaf: bool| match range.start_bound() {
            Bound::Included(k) if in_leaf => lower_bound(keys, k),
            Bound::Included(k) | Bound::Excluded(k) => child_index(keys, k),
            Bound::Unbounded => 0,
        };
        if let Some(root) = self.root.as_deref() {
            iter.descend(root, start);
        }
        iter
    }
}

impl<K: Ord + Clone, T: Ord + Clone> PMap<K, PSet<T>> {
    /// Adds `item` to the set under `key`, creating the set on first use.
    pub fn add_to_set(&mut self, key: K, item: T) {
        if let Some(set) = self.get_mut(&key) {
            set.insert(item, ());
        } else {
            let mut set = PSet::new();
            set.insert(item, ());
            self.insert(key, set);
        }
    }

    /// Removes `item` from the set under `key`, dropping the set once it is empty.  Returns
    /// whether the item was there.
    pub fn remove_from_set(&mut self, key: &K, item: &T) -> bool {
        let Some(set) = self.get_mut(key) else { return false };
        let removed = set.remove(item).is_some();
        if set.is_empty() {
            self.remove(key);
        }
        removed
    }
}

/// A branch's children and the index of the next one an iterator visits.
type Frame<'a, K, V> = (&'a [Arc<Node<K, V>>], usize);

/// In-order iterator over (a range of) a [`PMap`].
pub struct Iter<'a, K, V> {
    /// Branches above the current leaf.
    stack: Vec<Frame<'a, K, V>>,
    leaf: std::iter::Zip<std::slice::Iter<'a, K>, std::slice::Iter<'a, V>>,
    end: Bound<K>,
}

impl<'a, K: Ord, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.leaf.next() {
                let in_range = match &self.end {
                    Bound::Included(end) => k <= end,
                    Bound::Excluded(end) => k < end,
                    Bound::Unbounded => true,
                };
                if !in_range {
                    self.stack.clear();
                    self.leaf = [].iter().zip(&[]);
                }
                return in_range.then_some((k, v));
            }
            // The current leaf is done: step to the leftmost leaf of the next child.
            let (children, next) = self.stack.last_mut()?;
            match children.get(*next) {
                Some(child) => {
                    *next += 1;
                    self.descend(child, |_, _| 0);
                }
                None => {
                    self.stack.pop();
                }
            }
        }
    }
}

impl<'a, K, V> Iter<'a, K, V> {
    /// Walks down from `node` to a leaf, entering each node at `start(keys, is_leaf)` and
    /// stacking the branches it passes.
    fn descend(&mut self, mut node: &'a Node<K, V>, start: impl Fn(&[K], bool) -> usize) {
        loop {
            match &node.kids {
                Kids::Branch(children) => {
                    let i = start(&node.keys, false);
                    self.stack.push((children, i + 1));
                    node = &children[i];
                }
                Kids::Leaf(vals) => {
                    let from = start(&node.keys, true);
                    self.leaf = node.keys[from..].iter().zip(&vals[from..]);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    impl<K: Ord + Clone + std::fmt::Debug, V: Clone> PMap<K, V> {
        /// Checks the B+ tree invariants: uniform leaf depth, node sizes, key order within and
        /// across nodes, separator bounds and the cached length.
        fn check_invariants(&self) {
            fn walk<K: Ord + Clone + std::fmt::Debug, V: Clone>(
                node: &Node<K, V>,
                is_root: bool,
                lo: Option<&K>,
                hi: Option<&K>,
                depth: usize,
                leaf_depth: &mut Option<usize>,
            ) -> usize {
                assert!(node.size() <= MAX, "node over capacity");
                assert!(is_root || node.size() >= MIN, "non-root node under minimum");
                let keys = &node.keys;
                match &node.kids {
                    Kids::Leaf(vals) => {
                        assert_eq!(*leaf_depth.get_or_insert(depth), depth, "uneven leaves");
                        assert_eq!(keys.len(), vals.len());
                        assert!(keys.windows(2).all(|w| w[0] < w[1]), "unsorted leaf");
                        for k in keys {
                            assert!(lo.map_or(true, |lo| lo <= k) && hi.map_or(true, |hi| k < hi));
                        }
                        keys.len()
                    }
                    Kids::Branch(children) => {
                        assert!(children.len() >= 2, "branch with a single child");
                        assert_eq!(keys.len() + 1, children.len());
                        assert!(keys.windows(2).all(|w| w[0] < w[1]), "unsorted separators");
                        let mut total = 0;
                        for (i, child) in children.iter().enumerate() {
                            let lo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                            let hi = keys.get(i).or(hi);
                            total += walk(child, false, lo, hi, depth + 1, leaf_depth);
                        }
                        total
                    }
                }
            }
            let counted = match &self.root {
                Some(root) => {
                    assert!(self.len > 0, "empty trees have no root");
                    walk(root, true, None, None, 0, &mut None)
                }
                None => 0,
            };
            assert_eq!(counted, self.len, "cached length is stale");
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16, u32),
        Remove(u16),
        Range(u16, u16),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // A key space small enough that removals hit, large enough for several tree levels.
        let key = 0u16..600;
        prop_oneof![
            (key.clone(), 0u32..1000).prop_map(|(k, v)| Op::Insert(k, v)),
            key.clone().prop_map(Op::Remove),
            (key.clone(), key).prop_map(|(a, b)| Op::Range(a, b)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// `PMap` agrees with `BTreeMap` on every step, and a clone taken before a step never
        /// sees that step's mutation.
        #[test]
        fn pmap_matches_a_btreemap_and_clones_are_isolated(
            ops in proptest::collection::vec(arb_op(), 1..400),
        ) {
            let mut map = PMap::new();
            let mut model = BTreeMap::new();
            for op in &ops {
                let before = map.clone();
                let before_entries: Vec<(u16, u32)> = before.iter().map(|(k, v)| (*k, *v)).collect();
                match *op {
                    Op::Insert(k, v) => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                    Op::Remove(k) => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                    Op::Range(a, b) => {
                        let (lo, hi) = (a.min(b), a.max(b));
                        let got: Vec<_> = map.range(lo..hi).collect();
                        let want: Vec<_> = model.range(lo..hi).collect();
                        prop_assert_eq!(got, want);
                        let got: Vec<_> = map.range((Bound::Excluded(lo), Bound::Included(hi))).collect();
                        let want: Vec<_> = model.range((Bound::Excluded(lo), Bound::Included(hi))).collect();
                        prop_assert_eq!(got, want);
                        let got: Vec<_> = map.range(lo..).collect();
                        let want: Vec<_> = model.range(lo..).collect();
                        prop_assert_eq!(got, want);
                    }
                }
                // Mutate the clone too: neither side may leak into the other.
                let mut fork = map.clone();
                fork.insert(u16::MAX, 0);
                if let Some(first) = map.keys().next().copied() {
                    fork.remove(&first);
                }
                prop_assert!(!map.contains_key(&u16::MAX));
                map.check_invariants();
                fork.check_invariants();
                prop_assert_eq!(map.len(), model.len());
                prop_assert!(map.iter().map(|(k, v)| (*k, *v)).eq(model.iter().map(|(k, v)| (*k, *v))));
                prop_assert_eq!(map.get(&7), model.get(&7));
                // The pre-step clone is unchanged.
                before.check_invariants();
                let after: Vec<(u16, u32)> = before.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(after, before_entries);
            }
        }
    }

    #[test]
    fn descending_removal_shrinks_to_empty() {
        let mut map = PMap::new();
        for k in 0..5000u32 {
            map.insert(k, k);
        }
        map.check_invariants();
        for k in (0..5000u32).rev() {
            assert_eq!(map.remove(&k), Some(k));
            if k % 97 == 0 {
                map.check_invariants();
            }
        }
        assert!(map.is_empty() && map.root.is_none());
        assert_eq!(map.remove(&1), None);
    }

    #[test]
    fn a_write_after_a_clone_copies_only_its_path() {
        let mut live = PMap::new();
        for k in 0..10_000u32 {
            live.insert(k, k);
        }
        let snapshot = live.clone();
        live.insert(5_000, 0);
        live.check_invariants();
        assert_eq!(snapshot.get(&5_000), Some(&5_000));

        // Walk both trees in lockstep: on each level exactly the node on the root-to-leaf path
        // of key 5000 was copied; every node off that path is the same allocation.
        let mut pair = (live.root.as_ref().unwrap(), snapshot.root.as_ref().unwrap());
        let mut depth = 0;
        loop {
            assert!(!Arc::ptr_eq(pair.0, pair.1), "the path node was copied");
            assert_eq!(Arc::strong_count(pair.0), 1);
            match (&pair.0.kids, &pair.1.kids) {
                (Kids::Branch(children), Kids::Branch(old)) => {
                    let on_path = child_index(&pair.0.keys, &5_000);
                    for (i, (a, b)) in children.iter().zip(old).enumerate() {
                        if i != on_path {
                            assert!(Arc::ptr_eq(a, b), "off-path node copied");
                            assert_eq!(Arc::strong_count(a), 2, "shared by exactly the two maps");
                        }
                    }
                    pair = (&children[on_path], &old[on_path]);
                    depth += 1;
                }
                (Kids::Leaf(_), Kids::Leaf(_)) => break,
                _ => panic!("trees of different shape"),
            }
        }
        assert!(depth >= 2, "10k entries span several levels");
    }
}
