//! Expected answers, computed in process through the library before any
//! server starts, and the checks every response must pass.
//!
//! Counts come from the naive backtracking evaluator when its cost
//! estimate fits a budget and from the one-shot GHD path
//! (`count_via_ghd`) otherwise. The GHD path is first checked against
//! the naive evaluator on a small database from the same generator, so
//! the oracle never rests on the code path alone. `@enumerate` answers
//! are checked tuple by tuple against the facts: every tuple satisfies
//! every atom, no tuple repeats, and the number returned is the limit or
//! the full count, whichever is smaller.

use std::collections::{HashMap, HashSet};

use cqd2::cq::eval::{count_naive, count_via_ghd};
use cqd2::cq::{ConjunctiveQuery, Database, DatabaseDelta, Term};
use cqd2::engine::{textio, Answer, Engine};

use crate::gen::{self, Mode, Shape, Template, ENUM_LIMIT};
use crate::Failure;

/// Naive evaluation runs when its tuple-scan estimate stays below this.
const NAIVE_BUDGET: f64 = 2e7;

/// Upper bound on the tuples the naive backtracker scans: it rescans
/// every atom's relation for each partial assignment above it.
fn naive_cost(q: &ConjunctiveQuery, db: &Database) -> f64 {
    let mut partials = 1.0;
    let mut cost = 0.0;
    for atom in &q.atoms {
        let rows = db.relation(&atom.relation).map_or(0, |r| r.tuples.len()) as f64;
        cost += partials * rows;
        partials *= rows;
    }
    cost
}

fn count_via_library(engine: &Engine, q: &ConjunctiveQuery, db: &Database) -> Result<u128, String> {
    if naive_cost(q, db) <= NAIVE_BUDGET {
        return Ok(count_naive(q, db));
    }
    let (structure, _) = engine.structure_for(&q.hypergraph());
    let ghd = structure
        .ghd
        .ok_or_else(|| format!("no GHD for `{}`", q.display()))?;
    count_via_ghd(q, db, &ghd).map_err(|e| format!("GHD count of `{}`: {e}", q.display()))
}

/// Check the GHD route against naive backtracking on a small database of
/// the same shape, for every template.
pub fn cross_check(templates: &[Template], seed: u64) -> Result<(), Failure> {
    let shape = Shape {
        chain_relations: 8,
        chain_rows: 40,
        chain_domain: 30,
        cycle_relations: 6,
        cycle_rows: 40,
        cycle_domain: 12,
    };
    let db = gen::database(&shape, seed);
    let engine = Engine::default();
    for t in templates {
        let q = parse(&t.render("v"))?;
        let (structure, _) = engine.structure_for(&q.hypergraph());
        let ghd = structure.ghd.ok_or("no GHD for a template")?;
        let via_ghd = count_via_ghd(&q, &db, &ghd).map_err(|e| e.to_string())?;
        let naive = count_naive(&q, &db);
        if via_ghd != naive {
            return Err(Failure::Incorrect(format!(
                "oracle cross-check: `{}` counts {via_ghd} by GHD but {naive} naively",
                q.display()
            )));
        }
    }
    Ok(())
}

pub fn parse(text: &str) -> Result<ConjunctiveQuery, Failure> {
    textio::parse_query(text).map_err(|e| Failure::Error(format!("`{text}`: {e}")))
}

/// The facts of one database state as hash sets, for tuple checks.
type Facts = HashMap<String, HashSet<Vec<u64>>>;

fn facts_of(db: &Database) -> Facts {
    db.relations()
        .map(|(name, rel)| (name.to_string(), rel.tuples.iter().cloned().collect()))
        .collect()
}

/// The expected answers for one workload: per template, the count in
/// each database state (state 0 is the generated database, state 1 the
/// one after the forward delta).
pub struct Oracle {
    queries: Vec<ConjunctiveQuery>,
    counts: Vec<[u128; 2]>,
    facts: [Facts; 2],
}

/// Which database states an answer may come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum States {
    Only(usize),
    Either,
}

impl States {
    fn admits(self, state: usize) -> bool {
        match self {
            States::Only(s) => s == state,
            States::Either => true,
        }
    }
}

impl Oracle {
    pub fn new(
        templates: &[Template],
        db: &Database,
        forward: &DatabaseDelta,
    ) -> Result<Oracle, Failure> {
        let after = db
            .apply_delta(forward)
            .map_err(|e| format!("forward delta: {e}"))?
            .db;
        let engine = Engine::default();
        let mut queries = Vec::new();
        let mut counts = Vec::new();
        for t in templates {
            let q = parse(&t.render("v"))?;
            counts.push([
                count_via_library(&engine, &q, db)?,
                count_via_library(&engine, &q, &after)?,
            ]);
            queries.push(q);
        }
        Ok(Oracle {
            queries,
            counts,
            facts: [facts_of(db), facts_of(&after)],
        })
    }

    /// Check one answer to `template` in `mode` against the admitted
    /// states.
    pub fn check(
        &self,
        template: usize,
        mode: Mode,
        states: States,
        answer: &Answer,
    ) -> Result<(), Failure> {
        let q = &self.queries[template];
        let matches = (0..2).filter(|&s| states.admits(s)).any(|s| {
            let count = self.counts[template][s];
            match (mode, answer) {
                (Mode::Boolean, Answer::Bool(b)) => *b == (count > 0),
                (Mode::Count, Answer::Count(c)) => *c == count,
                (Mode::Enumerate, Answer::Tuples(ts)) => {
                    ts.len() as u128 == count.min(ENUM_LIMIT as u128) && self.valid_tuples(q, s, ts)
                }
                _ => false,
            }
        });
        if matches {
            return Ok(());
        }
        Err(Failure::Incorrect(format!(
            "wrong {mode:?} answer for `{}`: expected count {:?}, got {}",
            q.display(),
            self.counts[template],
            describe(answer)
        )))
    }

    /// Every tuple is a distinct assignment satisfying every atom in
    /// `state`.
    fn valid_tuples(&self, q: &ConjunctiveQuery, state: usize, tuples: &[Vec<u64>]) -> bool {
        let facts = &self.facts[state];
        let mut seen: HashSet<&[u64]> = HashSet::with_capacity(tuples.len());
        let mut projected: Vec<u64> = Vec::new();
        tuples.iter().all(|t| {
            t.len() == q.num_vars()
                && seen.insert(t)
                && q.atoms.iter().all(|atom| {
                    projected.clear();
                    projected.extend(atom.terms.iter().map(|term| match term {
                        Term::Var(v) => t[v.idx()],
                        Term::Const(c) => *c,
                    }));
                    facts
                        .get(&atom.relation)
                        .is_some_and(|rel| rel.contains(projected.as_slice()))
                })
        })
    }
}

fn describe(answer: &Answer) -> String {
    match answer {
        Answer::Bool(b) => format!("Bool({b})"),
        Answer::Count(c) => format!("Count({c})"),
        Answer::Tuples(ts) => format!("{} tuples", ts.len()),
    }
}
