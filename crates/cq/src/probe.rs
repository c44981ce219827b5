//! Purpose-built probe tables for the columnar kernel's hot paths.
//!
//! The std `HashMap`/`HashSet` used by the first kernel iteration spend
//! most of a semijoin in SipHash and bucket metadata; on the kernel's
//! join and semijoin paths the hash probes *are* the whole operator.
//! These two tables trade generality for probe speed:
//!
//! - [`KeyTable`]: a chained hash table over the key columns of a
//!   [`FlatRelation`]. Buckets are a power-of-two `u32` head array,
//!   chains a parallel `u32` next array, and keys are packed row-major
//!   into one `u64` buffer — three flat allocations total, no per-key
//!   boxing, no SipHash. Hashes come from the splitmix64 finalizer
//!   (multiply–xor–shift), cheap enough to recompute per probe and
//!   strong enough for power-of-two masking. Rows are inserted in
//!   reverse so each chain yields ascending row ids — match order (and
//!   therefore join output order) is identical to the insertion-order
//!   `HashMap` it replaces.
//! - [`KeyGroups`]: an open-addressing `key → dense group id` map, the
//!   hash side of the bag tree's per-edge join indexes. Capacity is
//!   fixed at build time (distinct keys ≤ build rows, load factor ≤ ½),
//!   so inserts never resize and probes are a linear scan over a flat
//!   slot array.
//!
//! Both verify candidates by comparing the actual key columns, so hash
//! collisions cost a compare, never a wrong answer. A zero-column key
//! (vacuous sharing between bags) degenerates gracefully: every row
//! lands in one chain under the empty key and every probe matches the
//! first entry.

use crate::flat::FlatRelation;

/// Sentinel for "no row" in head/next/slot arrays.
const EMPTY: u32 = u32::MAX;

/// Hash-fold seed (the 64-bit golden ratio, as in splitmix64's stream
/// increment).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: full-avalanche mixing so power-of-two masking
/// is safe on adversarial (e.g. sequential) key values.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash a single-column key. Equals [`hash_key`] on a one-element slice.
#[inline]
pub(crate) fn hash1(v: u64) -> u64 {
    mix(SEED ^ v)
}

/// Hash a packed multi-column key by folding [`mix`] over the columns.
#[inline]
pub(crate) fn hash_key(key: &[u64]) -> u64 {
    let mut h = SEED;
    for &v in key {
        h = mix(h ^ v);
    }
    h
}

/// Chained hash table over the key columns of a relation: the build side
/// of semijoin/join probes. Self-contained: key columns are copied in.
#[derive(Debug, Clone)]
pub(crate) struct KeyTable {
    /// Key width (columns per key).
    k: usize,
    /// Bucket mask (`buckets - 1`, buckets a power of two).
    mask: u64,
    /// `heads[hash & mask]` → first row id in the chain.
    heads: Vec<u32>,
    /// `next[row]` → next row in the same chain.
    next: Vec<u32>,
    /// Packed keys, `rows * k` values row-major.
    keys: Vec<u64>,
}

impl KeyTable {
    /// Build over `rel`'s `key_cols`. O(rows) time, three allocations.
    pub(crate) fn build(rel: &FlatRelation, key_cols: &[usize]) -> KeyTable {
        let n = rel.len();
        crate::flat::check_row_index_fits(n);
        let k = key_cols.len();
        let buckets = (n.max(1) * 2).next_power_of_two();
        let mask = buckets as u64 - 1;
        let mut heads = vec![EMPTY; buckets];
        let mut next = vec![EMPTY; n];
        let mut keys = vec![0u64; n * k];
        let arity = rel.arity();
        // Reverse insertion: chains come out in ascending row order, so
        // probe match order equals insertion order (what the previous
        // HashMap-based join produced).
        for i in (0..n).rev() {
            let row = &rel.data[i * arity..i * arity + arity];
            let mut h = SEED;
            for (t, &c) in key_cols.iter().enumerate() {
                let v = row[c];
                keys[i * k + t] = v;
                h = mix(h ^ v);
            }
            let b = (h & mask) as usize;
            next[i] = heads[b];
            heads[b] = i as u32;
        }
        KeyTable {
            k,
            mask,
            heads,
            next,
            keys,
        }
    }

    /// Key width the table was built with.
    pub(crate) fn key_width(&self) -> usize {
        self.k
    }

    /// Does any build row have this key? `hash` must be the key's
    /// [`hash_key`]/[`hash1`] value (precomputed by chunked callers).
    #[inline]
    pub(crate) fn contains_hashed(&self, hash: u64, key: &[u64]) -> bool {
        debug_assert_eq!(key.len(), self.k);
        let mut i = self.heads[(hash & self.mask) as usize];
        while i != EMPTY {
            let o = i as usize * self.k;
            if &self.keys[o..o + self.k] == key {
                return true;
            }
            i = self.next[i as usize];
        }
        false
    }

    /// Does any build row have this key?
    #[cfg(test)]
    #[inline]
    pub(crate) fn contains(&self, key: &[u64]) -> bool {
        self.contains_hashed(hash_key(key), key)
    }

    /// Row ids of every build row with this key, in ascending order.
    #[inline]
    pub(crate) fn matches<'t, 'k>(&'t self, key: &'k [u64]) -> Matches<'t, 'k> {
        debug_assert_eq!(key.len(), self.k);
        Matches {
            table: self,
            key,
            cur: self.heads[(hash_key(key) & self.mask) as usize],
        }
    }
}

/// Iterator over the build rows matching one probe key (see
/// [`KeyTable::matches`]).
pub(crate) struct Matches<'t, 'k> {
    table: &'t KeyTable,
    key: &'k [u64],
    cur: u32,
}

impl Iterator for Matches<'_, '_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.cur != EMPTY {
            let i = self.cur;
            self.cur = self.table.next[i as usize];
            let o = i as usize * self.table.k;
            if &self.table.keys[o..o + self.table.k] == self.key {
                return Some(i);
            }
        }
        None
    }
}

/// Open-addressing `key → dense group id` map: the hash side of a
/// bag-tree edge's join index. Building it numbers the distinct keys of
/// a relation's key columns `0, 1, …` in first-occurrence order;
/// probing maps a key to its group. Capacity is fixed at build
/// (`2 * rows` slots, load ≤ ½), so inserts never resize.
#[derive(Debug, Clone)]
pub(crate) struct KeyGroups {
    k: usize,
    mask: u64,
    /// `slots[hash & mask]` → group id (EMPTY = vacant), linear probing.
    slots: Vec<u32>,
    /// Packed group keys, `groups * k` values.
    keys: Vec<u64>,
    /// Number of groups.
    groups: usize,
}

impl KeyGroups {
    /// Group `rel`'s rows by `key_cols`: the table plus each row's group
    /// id, aligned with `rel`'s row order.
    pub(crate) fn build(rel: &FlatRelation, key_cols: &[usize]) -> (KeyGroups, Vec<u32>) {
        let n = rel.len();
        crate::flat::check_row_index_fits(n);
        let k = key_cols.len();
        let buckets = (n.max(1) * 2).next_power_of_two();
        let mut table = KeyGroups {
            k,
            mask: buckets as u64 - 1,
            slots: vec![EMPTY; buckets],
            keys: Vec::new(),
            groups: 0,
        };
        let mut scratch = vec![0u64; k];
        let row_group = rel
            .iter()
            .map(|row| {
                for (s, &c) in scratch.iter_mut().zip(key_cols) {
                    *s = row[c];
                }
                table.insert(&scratch)
            })
            .collect();
        (table, row_group)
    }

    /// Number of distinct keys (groups).
    pub(crate) fn len(&self) -> usize {
        self.groups
    }

    /// The group of `key`, if any build row had it.
    #[inline]
    pub(crate) fn get(&self, key: &[u64]) -> Option<u32> {
        self.find(key).ok()
    }

    /// The group of `key`, numbering it as a new group if unseen.
    fn insert(&mut self, key: &[u64]) -> u32 {
        match self.find(key) {
            Ok(g) => g,
            Err(slot) => {
                let g = self.groups as u32;
                self.slots[slot] = g;
                self.keys.extend_from_slice(key);
                self.groups += 1;
                g
            }
        }
    }

    /// Linear-probe for `key`: `Ok(group)`, or `Err(slot)` — the vacant
    /// slot it would take. Single-column keys hash through [`hash1`].
    #[inline]
    fn find(&self, key: &[u64]) -> Result<u32, usize> {
        debug_assert_eq!(key.len(), self.k);
        let hash = if self.k == 1 {
            hash1(key[0])
        } else {
            hash_key(key)
        };
        let mut b = (hash & self.mask) as usize;
        loop {
            let g = self.slots[b];
            if g == EMPTY {
                return Err(b);
            }
            let o = g as usize * self.k;
            if &self.keys[o..o + self.k] == key {
                return Ok(g);
            }
            b = (b + 1) & self.mask as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Var;

    fn rel(vars: &[u32], tuples: &[&[u64]]) -> FlatRelation {
        FlatRelation::from_rows(
            vars.iter().map(|&i| Var(i)).collect(),
            &tuples.iter().map(|t| t.to_vec()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn key_table_single_column_contains_and_matches() {
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20], &[1, 11], &[3, 30]]);
        let t = KeyTable::build(&r, &[0]);
        assert_eq!(t.key_width(), 1);
        assert!(t.contains(&[1]));
        assert!(t.contains(&[3]));
        assert!(!t.contains(&[4]));
        // Matches come back in ascending row order (`from_rows` dedup
        // leaves rows sorted: [1,10], [1,11], [2,20], [3,30]).
        assert_eq!(t.matches(&[1]).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(t.matches(&[9]).count(), 0);
    }

    #[test]
    fn key_table_multi_column_verifies_actual_columns() {
        let r = rel(&[0, 1, 2], &[&[1, 2, 7], &[2, 1, 8], &[1, 2, 9]]);
        let t = KeyTable::build(&r, &[0, 1]);
        // Sorted by dedup: [1,2,7], [1,2,9], [2,1,8].
        assert_eq!(t.matches(&[1, 2]).collect::<Vec<_>>(), vec![0, 1]);
        // (2,1) hashes differently from (1,2) only by mixing order —
        // the compare must separate them regardless.
        assert_eq!(t.matches(&[2, 1]).collect::<Vec<_>>(), vec![2]);
        assert!(!t.contains(&[2, 2]));
    }

    #[test]
    fn key_table_empty_build_and_empty_key() {
        let e = FlatRelation::empty(vec![Var(0)]);
        let t = KeyTable::build(&e, &[0]);
        assert!(!t.contains(&[1]));
        // Zero-column key: every row matches iff the build side is
        // nonempty (vacuous sharing).
        let r = rel(&[0], &[&[1], &[2]]);
        let t0 = KeyTable::build(&r, &[]);
        assert!(t0.contains(&[]));
        assert_eq!(t0.matches(&[]).count(), 2);
        let t0e = KeyTable::build(&e, &[]);
        assert!(!t0e.contains(&[]));
    }

    #[test]
    fn key_table_dense_sequential_keys_stay_fast_shaped() {
        // Sequential keys are the classic weak spot of masked identity
        // hashing; splitmix avalanche must spread them. Sanity: every
        // key found, no cross-matches.
        let tuples: Vec<Vec<u64>> = (0..1000u64).map(|i| vec![i, i * 2]).collect();
        let refs: Vec<&[u64]> = tuples.iter().map(Vec::as_slice).collect();
        let r = rel(&[0, 1], &refs);
        let t = KeyTable::build(&r, &[0]);
        for i in 0..1000u64 {
            assert_eq!(t.matches(&[i]).count(), 1);
        }
        assert!(!t.contains(&[1000]));
    }

    #[test]
    fn key_groups_number_keys_densely_in_first_occurrence_order() {
        // Sorted by dedup: [1,10], [1,11], [2,20], [3,30].
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20], &[1, 11], &[3, 30]]);
        let (g, rows) = KeyGroups::build(&r, &[0]);
        assert_eq!(
            (rows, g.len(), g.get(&[2]), g.get(&[4])),
            (vec![0, 0, 1, 2], 3, Some(1), None)
        );
        // Multi-column keys compare every column: (1,2) ≠ (2,1).
        let m = rel(&[0, 1, 2], &[&[1, 2, 7], &[2, 1, 8], &[1, 2, 9]]);
        let (g, rows) = KeyGroups::build(&m, &[0, 1]);
        assert_eq!(
            (rows, g.get(&[2, 1]), g.get(&[2, 2])),
            (vec![0, 0, 1], Some(1), None)
        );
        // Zero-column key: every row lands in group 0 (vacuous sharing).
        let (g, rows) = KeyGroups::build(&r, &[]);
        assert_eq!((rows, g.get(&[])), (vec![0; 4], Some(0)));
        let e = FlatRelation::empty(vec![Var(0)]);
        let (g, rows) = KeyGroups::build(&e, &[]);
        assert!(rows.is_empty() && g.len() == 0 && g.get(&[]).is_none());
    }
}
