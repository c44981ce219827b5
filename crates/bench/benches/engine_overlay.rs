//! **Experiment E3 — copy-free prepared re-execution**: warm runs over
//! the shared bag tree's cached edge join indexes
//! ([`cqd2::cq::eval::EdgeIndex`]) vs the clone-based execution baseline
//! (`deep_clone().into_bcq()`: deep-copy the materialized tree, then run
//! the consuming semijoin passes on the copy).
//!
//! The fixture is a **bushy** bag tree (root, two mid nodes, four
//! leaves) over join-consistent data: every join-column value appears on
//! both sides of every tree edge, so the bottom-up semijoin pass drops
//! nothing and shrinks **zero** nodes. That is the warm prepared-query
//! serving shape: the warm run reads cached per-edge flags and hashes
//! nothing, while the clone baseline still deep-copies ~280k rows and
//! rebuilds every probe table per run.
//!
//! Gated (outside the criterion sampling loop, best of five):
//! - cq level: warm `MaterializedBags::bcq` ≥ 2× over
//!   `deep_clone().into_bcq()` on the same tree;
//! - engine level: warm `PreparedQuery::run(Boolean)` ≥ 2× over the
//!   clone baseline, with provenance reporting `overlay` mode and zero
//!   shrunk bags.

use cqd2::cq::{ConjunctiveQuery, Database, MaterializedBags};
use cqd2::decomp::{Ghd, TreeDecomposition};
use cqd2::engine::{BagMode, Engine, Planner, Workload};
use cqd2::hypergraph::VertexId;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Join-column domain. Every relation's join columns cover all of
/// `[0, DOMAIN)` (the first `DOMAIN` rows pin value `i`, the rest draw
/// uniformly), so semijoins along every tree edge keep everything.
const DOMAIN: u64 = 4_096;
/// Rows in the three upper relations.
const UPPER_ROWS: usize = 8_192;
/// Rows in the four leaf relations — what the clone baseline deep-copies
/// and rebuilds probe tables over on every run, while a warm pass does
/// no work proportional to them.
const LEAF_ROWS: usize = 98_304;

fn best_of<R>(runs: usize, mut f: impl FnMut() -> R) -> Duration {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed()
        })
        .min()
        .expect("at least one run")
}

/// Deterministic xorshift64* (the bench crate has no rand dependency).
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// `n` rows of `arity` join columns, all covering `[0, DOMAIN)`, plus
/// `free` extra columns of unconstrained values (distinct rows for the
/// leaves).
fn covered_rows(n: usize, arity: usize, free: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut next = rng(seed);
    (0..n)
        .map(|i| {
            let mut row: Vec<u64> = (0..arity)
                .map(|_| {
                    if (i as u64) < DOMAIN {
                        i as u64
                    } else {
                        next() % DOMAIN
                    }
                })
                .collect();
            row.extend((0..free).map(|_| next()));
            row
        })
        .collect()
}

/// The bushy fixture: a 7-atom acyclic query (degree ≤ 2) whose
/// hand-built GHD is the tree
///
/// ```text
///            A(a,b)            bag 0
///           /       \
///     B0(a,c,d)   B1(b,e,f)    bags 1, 2  (both have children: bushy)
///      /    \       /    \
///  C0(c,g) C1(d,h) C2(e,i) C3(f,j)   bags 3..6
/// ```
fn fixture() -> (ConjunctiveQuery, Database, Ghd) {
    let q = ConjunctiveQuery::parse(&[
        ("A", &["?a", "?b"]),
        ("B0", &["?a", "?c", "?d"]),
        ("B1", &["?b", "?e", "?f"]),
        ("C0", &["?c", "?g"]),
        ("C1", &["?d", "?h"]),
        ("C2", &["?e", "?i"]),
        ("C3", &["?f", "?j"]),
    ]);
    let mut db = Database::new();
    db.insert_all("A", &covered_rows(UPPER_ROWS, 2, 0, 11));
    db.insert_all("B0", &covered_rows(UPPER_ROWS, 3, 0, 12));
    db.insert_all("B1", &covered_rows(UPPER_ROWS, 3, 0, 13));
    db.insert_all("C0", &covered_rows(LEAF_ROWS, 1, 1, 14));
    db.insert_all("C1", &covered_rows(LEAF_ROWS, 1, 1, 15));
    db.insert_all("C2", &covered_rows(LEAF_ROWS, 1, 1, 16));
    db.insert_all("C3", &covered_rows(LEAF_ROWS, 1, 1, 17));

    // One bag per atom; vertex ids follow first appearance in the query
    // (a=0, b=1, c=2, d=3, e=4, f=5, g=6, h=7, i=8, j=9).
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
    (q, db, ghd)
}

/// The engine-level fixture: a degree-2 star — one small hub over six
/// join variables, six big satellite relations hanging off it. Join
/// columns cover the domain on both sides, so warm passes rewrite
/// nothing here either.
fn star_fixture() -> (ConjunctiveQuery, Database) {
    let q = ConjunctiveQuery::parse(&[
        ("Hub", &["?a1", "?a2", "?a3", "?a4", "?a5", "?a6"]),
        ("L1", &["?a1", "?b1"]),
        ("L2", &["?a2", "?b2"]),
        ("L3", &["?a3", "?b3"]),
        ("L4", &["?a4", "?b4"]),
        ("L5", &["?a5", "?b5"]),
        ("L6", &["?a6", "?b6"]),
    ]);
    let mut db = Database::new();
    db.insert_all("Hub", &covered_rows(UPPER_ROWS, 6, 0, 21));
    for (i, name) in ["L1", "L2", "L3", "L4", "L5", "L6"].iter().enumerate() {
        db.insert_all(name, &covered_rows(LEAF_ROWS, 1, 1, 22 + i as u64));
    }
    (q, db)
}

fn bench(c: &mut Criterion) {
    println!("\n=== E3: overlay re-execution vs clone-based baseline ===");
    let (q, db, ghd) = fixture();
    let bags = MaterializedBags::build(&q, &db, &ghd).expect("bag tree materializes");
    println!(
        "  fixture: {} bags, {} total rows (bushy tree, join-consistent)",
        bags.num_bags(),
        bags.total_rows()
    );

    // Correctness + sparsity gate: the join-consistent fixture must
    // answer true with ZERO shrunk nodes — warm runs hash nothing.
    let (ans, stats) = bags.bcq_with_stats();
    assert!(ans, "join-consistent fixture must be satisfiable");
    assert_eq!(
        stats.rewritten, 0,
        "join-consistent data must rewrite no bag (got {}/{})",
        stats.rewritten, stats.total
    );
    // Differential gate: the clone-based consuming pass agrees.
    assert!(bags.deep_clone().into_bcq(), "clone baseline diverged");

    // cq-level headline: warm overlay pass vs deep-clone + consuming
    // pass on the same tree (caches warmed by the run above).
    let overlay = best_of(5, || bags.bcq());
    let cloned = best_of(5, || bags.deep_clone().into_bcq());
    let ratio = |old: Duration, new: Duration| old.as_secs_f64() / new.as_secs_f64().max(1e-9);
    println!(
        "  bags.bcq() overlay:              {overlay:?}\n  deep_clone().into_bcq() baseline: {cloned:?}\n  speedup: {:.1}×",
        ratio(cloned, overlay)
    );
    assert!(
        overlay * 2 <= cloned,
        "overlay bcq ({overlay:?}) must be ≥ 2× over the clone baseline ({cloned:?})"
    );
    println!(
        "GATE engine_overlay/cq_tree ratio={:.3} floor=2.0 cmp=ge status=PASS",
        ratio(cloned, overlay)
    );

    // Engine level: a warm PreparedQuery::run must hit the same overlay
    // path — provenance says so — and beat a clone-based baseline over
    // the engine's OWN execution tree (the planner's heuristic GHD need
    // not match a hand-built one, so the baseline is rebuilt from it to
    // keep the comparison shape-for-shape fair). The fixture is a star
    // query (small hub, six big satellites) so the big relations land at
    // the leaves of whatever tree the planner picks.
    let (q, db) = star_fixture();
    let engine = Engine::default();
    let session = engine.session(&db);
    let prepared = session.prepare(&q).expect("planning cannot fail");
    let resp = prepared.run(Workload::Boolean);
    assert_eq!(resp.answer.as_bool(), Some(true));
    let exec = resp
        .provenance
        .bags
        .expect("large join-consistent data must keep the GHD plan");
    assert_eq!(
        exec.mode,
        BagMode::Overlay,
        "prepared runs execute overlays"
    );
    assert_eq!(
        exec.bags_rewritten, 0,
        "warm prepared run must rewrite no bag (got {}/{})",
        exec.bags_rewritten, exec.bags_total
    );
    let planner_ghd = Planner::default()
        .plan_structure(&q.hypergraph())
        .ghd
        .expect("default planner finds a GHD for the acyclic fixture");
    let engine_bags =
        MaterializedBags::build(&q, &db, &planner_ghd).expect("planner tree materializes");
    assert_eq!(
        engine_bags.num_bags(),
        exec.bags_total,
        "rebuilt baseline must execute the same tree as the prepared handle"
    );
    // Warm the rebuilt baseline's caches too, and check it agrees.
    let (eb, es) = engine_bags.bcq_with_stats();
    assert!(eb, "engine-tree baseline diverged");
    assert_eq!(es.rewritten, 0, "engine tree must also rewrite nothing");
    let warm = best_of(7, || prepared.run(Workload::Boolean));
    let engine_cloned = best_of(7, || engine_bags.deep_clone().into_bcq());
    println!(
        "  warm PreparedQuery::run(Boolean): {warm:?}  ({} bags, {} rows)\n  clone baseline on the engine tree: {engine_cloned:?}\n  speedup: {:.1}×",
        exec.bags_total,
        engine_bags.total_rows(),
        ratio(engine_cloned, warm)
    );
    assert!(
        warm * 2 <= engine_cloned,
        "warm prepared run ({warm:?}) must be ≥ 2× over the clone baseline ({engine_cloned:?})"
    );
    println!(
        "GATE engine_overlay/prepared_run ratio={:.3} floor=2.0 cmp=ge status=PASS",
        ratio(engine_cloned, warm)
    );

    let mut g = c.benchmark_group("engine_overlay");
    g.bench_function("bcq/overlay_warm", |b| b.iter(|| black_box(bags.bcq())));
    g.bench_function("bcq/clone_baseline", |b| {
        b.iter(|| black_box(bags.deep_clone().into_bcq()))
    });
    g.bench_function("prepared/run_warm_boolean", |b| {
        b.iter(|| black_box(prepared.run(Workload::Boolean)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = cqd2_bench::quick_criterion();
    targets = bench
}
criterion_main!(benches);
