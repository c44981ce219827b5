//! Differential suite for the join-index tree passes: the warm
//! `bcq` / `count` / `enumerator` passes of a shared
//! [`MaterializedBags`] (live-row bitmasks, per-group sums and
//! group-sorted row lists over cached per-edge join indexes) must agree
//! with the clone-based consuming baseline (`deep_clone()` + `into_*`)
//! — enumeration **in order** — on the shapes that stress the indexes:
//! zero-column keys, duplicate-heavy groups, multi-column keys, a
//! root-only tree, empty bags and counts above `u64::MAX`. A refresh
//! must share an edge index exactly when both of its bags stayed clean.

use std::sync::Arc;

use cqd2_cq::generate::random_database;
use cqd2_cq::{
    count_naive, enumerate_naive, ConjunctiveQuery, Database, DatabaseDelta, MaterializedBags,
};
use cqd2_decomp::{Ghd, TreeDecomposition};
use cqd2_hypergraph::VertexId;

/// A hand-rooted GHD over `bags` (variable ids) and `tree` edges; node 0
/// is the root the bag tree is built from.
fn ghd(q: &ConjunctiveQuery, bags: &[&[u32]], tree: &[(usize, usize)]) -> Ghd {
    let bags = bags
        .iter()
        .map(|b| b.iter().copied().map(VertexId).collect())
        .collect();
    let td = TreeDecomposition {
        bags,
        tree: tree.to_vec(),
    };
    let ghd = Ghd::from_td_exact(&q.hypergraph(), td);
    ghd.validate(&q.hypergraph())
        .expect("hand-built GHD is valid");
    ghd
}

/// Warm passes vs the consuming baseline, twice over (the second round
/// runs on cached edge indexes). Returns `(bool, count, tuples)`.
fn assert_warm_matches_clone(bags: &MaterializedBags) -> (bool, u128, Vec<Vec<u64>>) {
    let clone_bool = bags.deep_clone().into_bcq();
    let clone_count = bags.deep_clone().into_count();
    let clone_tuples: Vec<Vec<u64>> = bags.deep_clone().into_enumerator().collect();
    for round in 0..2 {
        let (b, bs) = bags.bcq_with_stats();
        let (n, ns) = bags.count_with_stats();
        let (e, es) = bags.enumerator_with_stats();
        assert_eq!(b, clone_bool, "bcq diverged (round {round})");
        assert_eq!(n, clone_count, "count diverged (round {round})");
        let tuples: Vec<Vec<u64>> = e.collect();
        assert_eq!(
            tuples, clone_tuples,
            "enumeration order diverged (round {round})"
        );
        for s in [bs, ns, es] {
            assert!(s.rewritten <= s.total && s.total == bags.num_bags());
        }
    }
    (clone_bool, clone_count, clone_tuples)
}

/// Build, compare against the clone baseline, then against the naive
/// evaluator.
fn check(q: &ConjunctiveQuery, db: &Database, ghd: &Ghd) -> (bool, u128) {
    let bags = MaterializedBags::build(q, db, ghd).expect("bag tree materializes");
    let (b, n, mut tuples) = assert_warm_matches_clone(&bags);
    let naive = enumerate_naive(q, db);
    tuples.sort_unstable();
    assert_eq!(tuples, naive);
    assert_eq!((b, n), (!naive.is_empty(), naive.len() as u128));
    (b, n)
}

#[test]
fn zero_column_keys_share_vacuously() {
    // Two bags with no common variable: every row of one side pairs
    // with every row of the other.
    let q = ConjunctiveQuery::parse(&[("R", &["?x"]), ("S", &["?y"]), ("T", &["?y", "?z"])]);
    let g = ghd(&q, &[&[0], &[1, 2]], &[(0, 1)]);
    let mut db = Database::new();
    db.insert_all("R", &[vec![1], vec![2], vec![3]]);
    db.insert_all("S", &[vec![7], vec![8]]);
    db.insert_all("T", &[vec![7, 70], vec![7, 71], vec![9, 90]]);
    assert_eq!(check(&q, &db, &g), (true, 6));
    // An empty side wipes the product out.
    let mut empty_s = Database::new();
    for name in ["R", "T"] {
        empty_s.insert_all(name, &db.relation(name).unwrap().tuples);
    }
    empty_s.insert_all("S", &[]);
    assert_eq!(check(&q, &empty_s, &g), (false, 0));
}

#[test]
fn duplicate_heavy_groups_agree() {
    // A chain rooted in the middle, over a 2-value domain: every group
    // holds many rows and every key repeats.
    let q = ConjunctiveQuery::parse(&[
        ("A", &["?a", "?b", "?c"]),
        ("B", &["?b", "?c", "?d"]),
        ("C", &["?d", "?e"]),
        ("D", &["?a", "?f"]),
    ]);
    let g = ghd(
        &q,
        &[&[0, 1, 2], &[1, 2, 3], &[3, 4], &[0, 5]],
        &[(0, 1), (1, 2), (0, 3)],
    );
    for seed in 0..6 {
        let db = random_database(&q, 2 + seed % 3, 200, seed);
        check(&q, &db, &g);
    }
}

#[test]
fn multi_column_keys_on_triangle_bags() {
    // Two ghw-2 triangle bags glued along (x, y): the edge key has two
    // columns, and a third bag hangs off z.
    let q = ConjunctiveQuery::parse(&[
        ("R", &["?x", "?y"]),
        ("S", &["?y", "?z"]),
        ("T", &["?z", "?x"]),
        ("U", &["?y", "?w"]),
        ("V", &["?w", "?x"]),
        ("W", &["?z", "?v"]),
    ]);
    let g = ghd(&q, &[&[0, 1, 2], &[0, 1, 3], &[2, 4]], &[(0, 1), (0, 2)]);
    for seed in 0..6 {
        for domain in [3, 6] {
            let db = random_database(&q, domain, 40, seed);
            check(&q, &db, &g);
        }
    }
}

#[test]
fn root_only_tree_and_empty_bags() {
    let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?x"])]);
    let g = ghd(&q, &[&[0, 1]], &[]);
    let db = random_database(&q, 4, 12, 3);
    let bags = MaterializedBags::build(&q, &db, &g).unwrap();
    assert_eq!(bags.num_bags(), 1);
    assert!(bags.edge_index(0).is_none(), "the root has no edge");
    check(&q, &db, &g);
    // An empty leaf bag in a two-bag tree.
    let q2 = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
    let g2 = ghd(&q2, &[&[0, 1], &[1, 2]], &[(0, 1)]);
    let mut db2 = Database::new();
    db2.insert_all("R", &[vec![1, 2]]);
    db2.insert_all("S", &[]);
    assert_eq!(check(&q2, &db2, &g2), (false, 0));
}

#[test]
fn shrunk_child_still_filters_a_fully_matched_parent() {
    // Every row of R has an S partner, but T kills the only one R(1, 2)
    // can use: the Boolean pass must see through S's shrunk live set.
    let q = ConjunctiveQuery::parse(&[
        ("R", &["?a", "?b"]),
        ("S", &["?b", "?c"]),
        ("T", &["?c", "?d"]),
    ]);
    let g = ghd(&q, &[&[0, 1], &[1, 2], &[2, 3]], &[(0, 1), (1, 2)]);
    let mut db = Database::new();
    db.insert_all("R", &[vec![1, 2]]);
    db.insert_all("S", &[vec![2, 3], vec![7, 8]]);
    db.insert_all("T", &[vec![8, 9]]);
    assert_eq!(check(&q, &db, &g), (false, 0));
    db.insert("T", &[3, 4]);
    assert_eq!(check(&q, &db, &g), (true, 1));
}

#[test]
fn counts_above_u64_max_agree() {
    // A five-armed star on one shared value: 10^4 rows per arm, so the
    // count is 10^20 > u64::MAX.
    let arms = ["A", "B", "C", "D", "E"];
    let vars = ["?y0", "?y1", "?y2", "?y3", "?y4"];
    let atoms: Vec<(&str, [&str; 2])> = arms
        .iter()
        .zip(vars)
        .map(|(&a, v)| (a, ["?x", v]))
        .collect();
    let refs: Vec<(&str, &[&str])> = atoms.iter().map(|(a, t)| (*a, &t[..])).collect();
    let q = ConjunctiveQuery::parse(&refs);
    let g = ghd(
        &q,
        &[&[0, 1], &[0, 2], &[0, 3], &[0, 4], &[0, 5]],
        &[(0, 1), (0, 2), (1, 3), (2, 4)],
    );
    let mut db = Database::new();
    let rows: Vec<Vec<u64>> = (0..10_000).map(|i| vec![0, i]).collect();
    for arm in arms {
        db.insert_all(arm, &rows);
    }
    let bags = MaterializedBags::build(&q, &db, &g).unwrap();
    let expected = 10_000u128.pow(5);
    assert!(expected > u128::from(u64::MAX));
    assert_eq!(bags.count(), expected);
    assert_eq!(bags.deep_clone().into_count(), expected);
    assert!(bags.bcq());
    // Same answer order as the baseline on a prefix.
    let warm: Vec<Vec<u64>> = bags.enumerator().take(50).collect();
    let clone: Vec<Vec<u64>> = bags.deep_clone().into_enumerator().take(50).collect();
    assert_eq!(warm, clone);
}

/// Parent of each node when the tree is rooted at node 0.
fn parents(g: &Ghd) -> Vec<usize> {
    let n = g.td.bags.len();
    let mut parent = vec![usize::MAX; n];
    let mut stack = vec![0];
    let mut seen = vec![false; n];
    seen[0] = true;
    while let Some(u) = stack.pop() {
        for &(a, b) in &g.td.tree {
            let w = if a == u {
                b
            } else if b == u {
                a
            } else {
                continue;
            };
            if !seen[w] {
                seen[w] = true;
                parent[w] = u;
                stack.push(w);
            }
        }
    }
    parent
}

#[test]
fn refresh_shares_edge_index_iff_both_bags_clean() {
    let q = ConjunctiveQuery::parse(&[
        ("R", &["?a", "?b"]),
        ("S", &["?b", "?c"]),
        ("T", &["?c", "?d"]),
        ("U", &["?d", "?e"]),
    ]);
    let g = ghd(
        &q,
        &[&[1, 2], &[0, 1], &[2, 3], &[3, 4]],
        &[(0, 1), (0, 2), (2, 3)],
    );
    let parent = parents(&g);
    let mut db = random_database(&q, 6, 30, 9);
    let mut warm = MaterializedBags::build(&q, &db, &g).unwrap();
    for (round, target) in ["U", "R", "S", "T", "U"].into_iter().enumerate() {
        // Fill every edge index before the delta.
        let _ = (warm.bcq(), warm.count(), warm.enumerator().count());
        let mut delta = DatabaseDelta::new();
        delta.insert(target, vec![round as u64, 100 + round as u64]);
        if let Some(t) = db.relation(target).and_then(|r| r.tuples.first()) {
            delta.delete(target, t.clone());
        }
        let applied = db.apply_delta(&delta).unwrap();
        let (next, stats) = warm.refresh(&q, &applied.db, &applied.touched);
        assert!(stats.rewritten > 0 && stats.rewritten < stats.total);
        let clean = |u: usize| Arc::ptr_eq(warm.bag_arc(u), next.bag_arc(u));
        for (c, &p) in parent.iter().enumerate().skip(1) {
            let shared = Arc::ptr_eq(warm.edge_index(c).unwrap(), next.edge_index(c).unwrap());
            assert_eq!(shared, clean(c) && clean(p), "round {round}, edge {p}->{c}");
        }
        let fresh = MaterializedBags::build(&q, &applied.db, &g).unwrap();
        let expected = assert_warm_matches_clone(&fresh);
        assert_eq!(assert_warm_matches_clone(&next), expected, "round {round}");
        assert_eq!(expected.1, count_naive(&q, &applied.db));
        db = applied.db;
        warm = next;
    }
}
