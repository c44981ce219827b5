//! Differential suite for the copy-free warm execution paths: every
//! workload (Boolean / Count / Enumerate) run as `bcq` / `count` /
//! `enumerator` on a shared [`MaterializedBags`] must produce
//! **bit-identical** results to the
//! clone-based baseline (`deep_clone()` + the consuming `into_*`
//! passes), across randomized, empty, and duplicate-heavy databases —
//! and the overlay runs must not perturb the shared tree (re-running
//! yields the same answers, and concurrent readers agree).

use cqd2_cq::generate::random_database;
use cqd2_cq::{
    bcq_naive, count_naive, enumerate_naive, ConjunctiveQuery, Database, MaterializedBags,
};
use cqd2_decomp::{Ghd, TreeDecomposition};
use cqd2_hypergraph::VertexId;

/// The bushy fixture: 7 atoms, hand-rooted GHD with two internal
/// mid-level nodes.
///
/// ```text
///            A(a,b)
///           /       \
///     B0(a,c,d)   B1(b,e,f)
///      /    \       /    \
///  C0(c,g) C1(d,h) C2(e,i) C3(f,j)
/// ```
fn bushy() -> (ConjunctiveQuery, Ghd) {
    let q = ConjunctiveQuery::parse(&[
        ("A", &["?a", "?b"]),
        ("B0", &["?a", "?c", "?d"]),
        ("B1", &["?b", "?e", "?f"]),
        ("C0", &["?c", "?g"]),
        ("C1", &["?d", "?h"]),
        ("C2", &["?e", "?i"]),
        ("C3", &["?f", "?j"]),
    ]);
    let bags: Vec<Vec<VertexId>> = [
        vec![0u32, 1],
        vec![0, 2, 3],
        vec![1, 4, 5],
        vec![2, 6],
        vec![3, 7],
        vec![4, 8],
        vec![5, 9],
    ]
    .into_iter()
    .map(|b| b.into_iter().map(VertexId).collect())
    .collect();
    let tree = vec![(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)];
    let ghd = Ghd::from_td_exact(&q.hypergraph(), TreeDecomposition { bags, tree });
    ghd.validate(&q.hypergraph())
        .expect("hand-built GHD is valid");
    (q, ghd)
}

/// Overlay answers vs the clone-based consuming baseline on the SAME
/// shared tree, twice (the second round proves overlay runs leave the
/// base untouched). Returns `(bool, count, tuples)` for further checks.
fn assert_overlay_matches_clone(
    q: &ConjunctiveQuery,
    db: &Database,
    ghd: &Ghd,
) -> (bool, u128, Vec<Vec<u64>>) {
    let bags = MaterializedBags::build(q, db, ghd).expect("bag tree materializes");
    let clone_bool = bags.deep_clone().into_bcq();
    let clone_count = bags.deep_clone().into_count();
    let clone_tuples: Vec<Vec<u64>> = bags.deep_clone().into_enumerator().collect();
    for round in 0..2 {
        let (b, _) = bags.bcq_with_stats();
        assert_eq!(b, clone_bool, "bcq diverged (round {round})");
        let (n, _) = bags.count_with_stats();
        assert_eq!(n, clone_count, "count diverged (round {round})");
        let (e, _) = bags.enumerator_with_stats();
        let tuples: Vec<Vec<u64>> = e.collect();
        assert_eq!(tuples, clone_tuples, "enumeration diverged (round {round})");
    }
    (clone_bool, clone_count, clone_tuples)
}

#[test]
fn randomized_databases_agree() {
    let (q, ghd) = bushy();
    for seed in 0..8 {
        for domain in [3, 8, 32] {
            let db = random_database(&q, domain, 40, seed);
            let (b, n, mut tuples) = assert_overlay_matches_clone(&q, &db, &ghd);
            // Ground truth against the naive evaluator (small enough here).
            assert_eq!(b, bcq_naive(&q, &db), "naive bcq disagrees (seed {seed})");
            assert_eq!(
                n,
                count_naive(&q, &db),
                "naive count disagrees (seed {seed})"
            );
            let mut naive = enumerate_naive(&q, &db);
            naive.sort_unstable();
            tuples.sort_unstable();
            assert_eq!(tuples, naive, "naive enumeration disagrees (seed {seed})");
        }
    }
}

#[test]
fn empty_databases_agree() {
    let (q, ghd) = bushy();
    // Entirely empty relations.
    let mut empty = Database::new();
    for atom in &q.atoms {
        empty.insert_all(&atom.relation, &[]);
    }
    let (b, n, tuples) = assert_overlay_matches_clone(&q, &empty, &ghd);
    assert!(!b && n == 0 && tuples.is_empty());

    // One emptied leaf wipes everything through the semijoin passes:
    // keep every other relation populated, leave C3 with no tuples.
    let full = random_database(&q, 4, 30, 7);
    let mut db = Database::new();
    for (name, rel) in full.relations() {
        if name != "C3" {
            db.insert_all(name, &rel.tuples);
        }
    }
    db.insert_all("C3", &[]);
    let (b, n, tuples) = assert_overlay_matches_clone(&q, &db, &ghd);
    assert!(!b && n == 0 && tuples.is_empty());

    // Disjoint join domains: every relation nonempty, zero answers.
    let mut disjoint = Database::new();
    for (i, atom) in q.atoms.iter().enumerate() {
        let base = 1000 * (i as u64 + 1);
        let rows: Vec<Vec<u64>> = (0..20)
            .map(|r| {
                (0..atom.terms.len())
                    .map(|c| base + 10 * r + c as u64)
                    .collect()
            })
            .collect();
        disjoint.insert_all(&atom.relation, &rows);
    }
    let (b, n, tuples) = assert_overlay_matches_clone(&q, &disjoint, &ghd);
    assert!(!b && n == 0 && tuples.is_empty());
}

#[test]
fn duplicate_heavy_databases_agree() {
    let (q, ghd) = bushy();
    for seed in 0..4 {
        // Domain 2 with 300 tuples per relation: every relation is a
        // tiny distinct set inserted over and over — dedup and the
        // all-rows-survive (`None`) fast path both get hammered.
        let db = random_database(&q, 2, 300, seed);
        let (b, n, _) = assert_overlay_matches_clone(&q, &db, &ghd);
        assert_eq!(b, bcq_naive(&q, &db));
        assert_eq!(n, count_naive(&q, &db));
    }
}

#[test]
fn concurrent_enumerators_share_one_tree() {
    let (q, ghd) = bushy();
    let db = random_database(&q, 4, 60, 42);
    let bags = MaterializedBags::build(&q, &db, &ghd).expect("bag tree materializes");
    let reference: Vec<Vec<u64>> = bags.deep_clone().into_enumerator().collect();
    // Two threads enumerate the SAME shared materialization at once;
    // both must stream the full, identical answer set.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| s.spawn(|| bags.enumerator().collect::<Vec<Vec<u64>>>()))
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("no panic"), reference);
        }
    });
    // And interleaved single-thread cursors: advancing one must not
    // disturb the other.
    let mut c1 = bags.enumerator();
    let mut c2 = bags.enumerator();
    let mut out = Vec::new();
    loop {
        let a = c1.next();
        assert_eq!(a, c2.next(), "interleaved cursors diverged");
        match a {
            Some(t) => out.push(t),
            None => break,
        }
    }
    assert_eq!(out, reference);
}

#[test]
fn large_rewriting_tree_passes_match_reference() {
    let (q, ghd) = bushy();
    // A large tree (> 2^15 rows, two internal mid nodes) whose
    // semijoins genuinely filter: the warm passes must agree with the
    // consuming reference on REWRITING runs, not just the all-survive
    // fast path. Domain ≫ rows per relation: each side's join-column
    // values cover only a fraction of the domain, so the semijoins drop
    // real rows (while dedup leaves the relations near full size).
    let db = random_database(&q, 20_000, 10_000, 5);
    let bags = MaterializedBags::build(&q, &db, &ghd).expect("bag tree materializes");
    assert!(
        bags.total_rows() > (1 << 15),
        "fixture must be a large tree (got {} rows)",
        bags.total_rows()
    );
    let (warm_bool, bool_stats) = bags.bcq_with_stats();
    assert!(
        bool_stats.rewritten > 0,
        "fixture must actually rewrite bags"
    );
    let (warm_count, _) = bags.count_with_stats();
    let warm_tuples: Vec<Vec<u64>> = bags.enumerator().collect();
    assert_eq!(warm_bool, bags.deep_clone().into_bcq());
    assert_eq!(warm_count, bags.deep_clone().into_count());
    // Enumeration order included.
    assert_eq!(
        warm_tuples,
        bags.deep_clone()
            .into_enumerator()
            .collect::<Vec<Vec<u64>>>()
    );
}
