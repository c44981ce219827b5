//! The traced run's in-process half: each layer below the server timed
//! through its public functions on the workload's own generated inputs,
//! after the server has stopped, so nothing else competes for the cores.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use cqd2::cq::{ConjunctiveQuery, Database, FlatRelation};
use cqd2::engine::{store, Catalog, Engine};

use crate::gen::{DeltaPair, Template};
use crate::oracle::parse;
use crate::report::{median, Metric};
use crate::server::DB;
use crate::Failure;

const REPEATS: usize = 5;
/// Delta round trips for the delta-plane figures.
const DELTA_ROUNDS: usize = 20;

fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_nanos() as f64 / 1000.0)
}

pub fn replay(
    snapshot: &Path,
    db: &Database,
    templates: &[Template],
    deltas: &DeltaPair,
) -> Result<Vec<Metric>, Failure> {
    let mut out = Vec::new();
    let err = |e: &dyn std::fmt::Display| Failure::Error(e.to_string());

    // engine::store and engine::catalog: cold load and publish.
    let mut read = Vec::new();
    let mut publish = Vec::new();
    for _ in 0..REPEATS {
        let (file, t) = time_us(|| store::read_snapshot(snapshot));
        let file = file.map_err(|e| err(&e))?;
        read.push(t / 1000.0);
        let catalog = Catalog::new();
        let (published, t) = time_us(|| catalog.publish_with_stats(DB, file.db, file.stats));
        published.map_err(|e| err(&e))?;
        publish.push(t / 1000.0);
    }
    let bytes = std::fs::metadata(snapshot).map_err(|e| err(&e))?.len();
    out.push(Metric::new(
        "store.read_snapshot_ms",
        median(&read),
        "ms",
        REPEATS,
    ));
    out.push(Metric::new(
        "catalog.publish_ms",
        median(&publish),
        "ms",
        REPEATS,
    ));
    out.push(Metric::new(
        "store.bytes_per_fact",
        bytes as f64 / db.size() as f64,
        "B",
        1,
    ));

    // cq::flat: join and semijoin filter on every pair of adjacent bound
    // atoms of the workload's queries.
    let queries: Vec<ConjunctiveQuery> = templates
        .iter()
        .map(|t| parse(&t.render("v")))
        .collect::<Result<_, _>>()?;
    let mut pairs: Vec<(FlatRelation, FlatRelation)> = Vec::new();
    for q in &queries {
        let bound: Vec<FlatRelation> = q.atoms.iter().map(|a| FlatRelation::bind(a, db)).collect();
        for w in bound.windows(2) {
            pairs.push((w[0].clone(), w[1].clone()));
        }
    }
    let (mut join_rows, mut join_us, mut filter_rows, mut filter_us) = (0usize, 0.0, 0usize, 0.0);
    for _ in 0..REPEATS {
        for (a, b) in &pairs {
            join_rows += a.len() + b.len();
            join_us += time_us(|| a.join(b)).1;
            filter_rows += a.len();
            filter_us += time_us(|| a.semijoin_filter(b)).1;
        }
    }
    out.push(Metric::new(
        "kernel.join_mrows_s",
        join_rows as f64 / join_us,
        "Mrows/s",
        pairs.len() * REPEATS,
    ));
    out.push(Metric::new(
        "kernel.semijoin_filter_mrows_s",
        filter_rows as f64 / filter_us,
        "Mrows/s",
        pairs.len() * REPEATS,
    ));

    // engine::planner + engine::cache: warm structure lookups of fresh
    // renamings (isomorphism test plus GHD translation).
    let engine = Engine::default();
    for q in &queries {
        engine.structure_for(&q.hypergraph());
    }
    let mut lookups = Vec::new();
    for round in 0..20 {
        for t in templates {
            let h = parse(&t.render(&format!("p{round}x")))?.hypergraph();
            lookups.push(time_us(|| engine.structure_for(&h)).1);
        }
    }
    out.push(Metric::new(
        "planner.structure_for_p50_us",
        median(&lookups),
        "us",
        lookups.len(),
    ));

    // cq::delta + cq::stats: the merge and the statistics stitch alone.
    let stats = db.stats();
    let mut merge = Vec::new();
    let mut stitch = Vec::new();
    for _ in 0..DELTA_ROUNDS {
        let (applied, t) = time_us(|| db.apply_delta(&deltas.forward));
        let applied = applied.map_err(|e| err(&e))?;
        merge.push(t);
        stitch.push(time_us(|| stats.updated_for(&applied.db, &applied.touched)).1);
    }
    out.push(Metric::new(
        "delta.merge_p50_us",
        median(&merge),
        "us",
        merge.len(),
    ));
    out.push(Metric::new(
        "stats.updated_for_p50_us",
        median(&stitch),
        "us",
        stitch.len(),
    ));

    // engine::catalog + engine::delta + engine::session: publish a delta
    // and rebase the warm handles whose bags read the touched relation.
    let catalog = Catalog::new();
    catalog
        .publish_with_stats(DB, db.clone(), stats)
        .map_err(|e| err(&e))?;
    let session = engine.session_in(&catalog, DB).map_err(|e| err(&e))?;
    let touched_rel = deltas
        .forward
        .relations()
        .next()
        .map(|(r, _)| r.to_string());
    let prepared: Vec<_> = queries
        .iter()
        .filter(|q| {
            q.atoms
                .iter()
                .any(|a| Some(&a.relation) == touched_rel.as_ref())
        })
        .map(|q| session.prepare(q))
        .collect::<Result<_, _>>()
        .map_err(|e| err(&e))?;
    let mut apply = Vec::new();
    let mut rebase = Vec::new();
    for _ in 0..DELTA_ROUNDS {
        let (outcome, t) = time_us(|| catalog.apply_delta(DB, &deltas.forward));
        let outcome = outcome.map_err(|e| err(&e))?;
        apply.push(t);
        for p in &prepared {
            let (rebased, t) = time_us(|| p.rebase(&outcome.snapshot, &outcome.touched));
            rebased.ok_or("a GHD handle must rebase warm")?;
            rebase.push(t);
        }
        let (back, t) = time_us(|| catalog.apply_delta(DB, &deltas.inverse));
        back.map_err(|e| err(&e))?;
        apply.push(t);
    }
    out.push(Metric::new(
        "catalog.apply_delta_p50_us",
        median(&apply),
        "us",
        apply.len(),
    ));
    out.push(Metric::new(
        "session.rebase_p50_us",
        median(&rebase),
        "us",
        rebase.len(),
    ));
    Ok(out)
}
