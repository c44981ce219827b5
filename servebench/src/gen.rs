//! Deterministic workload generation: the database, the query texts and
//! the delta scripts, all functions of the seed alone.
//!
//! The database holds two structure classes side by side:
//!
//! - a binary **chain** family `C0..C{n-1}`: every query over a run of
//!   consecutive `C` relations is an acyclic path (ghw 1);
//! - a ternary **hypercycle** family `H0..H{m-1}`: three `H` relations
//!   closed into a cycle form a rank-3 hypercycle of degree 2 and ghw 2,
//!   so the GHD / counting-DP plans are what runs.
//!
//! Each relation holds uniform noise over `[0, domain)` plus a planted
//! block: every tuple over the `BLOCK` values `PLANT..PLANT+BLOCK`. The
//! planted values sit outside every noise domain, so each query has
//! exactly `BLOCK^vars` planted answers (never empty, and enough for
//! `@enumerate` to return its full limit) plus whatever the noise joins.

use cqd2::cq::{Database, DatabaseDelta};
use cqd2::engine::server::wire::directive_for;

/// First planted value; above every noise domain.
const PLANT: u64 = 1_000_000_000;
/// Planted values per variable.
const BLOCK: u64 = 4;
/// First value of the fresh tuples a delta inserts; above the plant.
const FRESH: u64 = 2_000_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmRead,
    ColdPrepare,
    UpdateMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm-read" => Some(Workload::WarmRead),
            "cold-prepare" => Some(Workload::ColdPrepare),
            "update-mix" => Some(Workload::UpdateMix),
            _ => None,
        }
    }
}

/// About 1e5 facts; `update-mix` about 1.6e5, with longer chain
/// relations, so a delta rebuilds a large relation.
pub fn shape(workload: Workload) -> Shape {
    let (chain_rows, chain_domain) = match workload {
        Workload::WarmRead | Workload::ColdPrepare => (9_000, 12_000),
        Workload::UpdateMix => (16_000, 21_333),
    };
    Shape {
        chain_relations: 8,
        chain_rows,
        chain_domain,
        cycle_relations: 6,
        cycle_rows: 5_000,
        cycle_domain: 3_000,
    }
}

/// Sizes of one workload's database.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub chain_relations: usize,
    pub chain_rows: usize,
    pub chain_domain: u64,
    pub cycle_relations: usize,
    pub cycle_rows: usize,
    pub cycle_domain: u64,
}

/// A query as relation runs over numbered variables; rendered to text
/// with any variable naming (fresh names give a fresh prepared-cache key
/// for the same query).
pub struct Template {
    /// `(relation, variable numbers)` per atom, in text order.
    pub atoms: Vec<(String, Vec<usize>)>,
}

impl Template {
    /// A path over `len` chain relations starting at `C{first}`.
    pub fn chain(first: usize, len: usize) -> Template {
        Template {
            atoms: (0..len)
                .map(|i| (format!("C{}", first + i), vec![i, i + 1]))
                .collect(),
        }
    }

    /// A rank-3 hypercycle over the hypercycle relations `rels`: atom
    /// `i` holds shared variable `i`, a private variable, and the next
    /// shared variable (wrapping to close the cycle), so every variable
    /// has degree at most 2.
    pub fn hypercycle(rels: &[usize]) -> Template {
        let len = rels.len();
        Template {
            atoms: rels
                .iter()
                .enumerate()
                .map(|(i, r)| (format!("H{r}"), vec![i, len + i, (i + 1) % len]))
                .collect(),
        }
    }

    /// The query body with variable `i` named `?{prefix}{i}`.
    pub fn render(&self, prefix: &str) -> String {
        let atoms: Vec<String> = self
            .atoms
            .iter()
            .map(|(rel, vars)| {
                let terms: Vec<String> = vars.iter().map(|v| format!("?{prefix}{v}")).collect();
                format!("{rel}({})", terms.join(", "))
            })
            .collect();
        atoms.join(", ")
    }
}

/// The fixed query set: 10 chains of lengths 3 to 8 and 6 triangle
/// hypercycles over different relation runs. Shapes are part of the
/// workload definition; the seed varies the data and the request order.
/// Longer hypercycles are left out on purpose: their width-2 bags join
/// two disjoint atoms, so a single prepare costs seconds and would swamp
/// every other request.
pub fn templates(shape: &Shape) -> Vec<Template> {
    let n = shape.chain_relations;
    // Four of the chains end on the last chain relation, the one the
    // deltas touch.
    let mut out: Vec<Template> = [
        (0, 3),
        (2, 3),
        (4, 3),
        (1, 4),
        (4, 4),
        (0, 5),
        (3, 5),
        (1, 6),
    ]
    .into_iter()
    .chain([(n - 6, 6), (0, n)])
    .map(|(first, len)| Template::chain(first, len))
    .collect();
    for rels in [
        [0, 1, 2],
        [3, 4, 5],
        [1, 2, 3],
        [2, 3, 4],
        [0, 2, 4],
        [1, 3, 5],
    ] {
        out.push(Template::hypercycle(&rels));
    }
    out
}

/// What one query request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Boolean,
    Count,
    Enumerate,
}

/// Tuples an `@enumerate` request asks for: enough that answer
/// serialization and the socket show up in the round trip.
pub const ENUM_LIMIT: usize = 2000;

impl Mode {
    fn workload(self) -> cqd2::engine::Workload {
        match self {
            Mode::Boolean => cqd2::engine::Workload::Boolean,
            Mode::Count => cqd2::engine::Workload::Count,
            Mode::Enumerate => cqd2::engine::Workload::Enumerate {
                limit: Some(ENUM_LIMIT),
            },
        }
    }
}

/// The request stream of one load connection: which template to send
/// next and in which mode. Both are dealt from shuffled decks, so every
/// 16 requests use each template once and every 5 hold 2 `@boolean`, 2
/// `@count` and 1 `@enumerate`. The mix is exact; the seed only varies
/// the order, which keeps runs of different seeds comparable.
pub struct Schedule {
    rng: Rng,
    templates: usize,
    template_deck: Vec<usize>,
    mode_deck: Vec<Mode>,
}

impl Schedule {
    pub fn new(seed: u64, connection: u64, templates: usize) -> Schedule {
        Schedule {
            rng: Rng::new(seed, 100 + connection),
            templates,
            template_deck: Vec::new(),
            mode_deck: Vec::new(),
        }
    }

    pub fn next_request(&mut self) -> (usize, Mode) {
        if self.template_deck.is_empty() {
            self.template_deck = (0..self.templates).collect();
            self.rng.shuffle(&mut self.template_deck);
        }
        if self.mode_deck.is_empty() {
            self.mode_deck = vec![
                Mode::Boolean,
                Mode::Boolean,
                Mode::Count,
                Mode::Count,
                Mode::Enumerate,
            ];
            self.rng.shuffle(&mut self.mode_deck);
        }
        let template = self
            .template_deck
            .pop()
            .expect("the deck was just refilled");
        let mode = self.mode_deck.pop().expect("the deck was just refilled");
        (template, mode)
    }
}

/// The query text of request `index` on `connection`: the template's
/// fixed rendering, or on `cold-prepare` a fresh variable naming, so that
/// the request misses the prepared cache but not the plan cache.
pub fn query_text(
    workload: Workload,
    templates: &[Template],
    texts: &[String],
    template: usize,
    connection: u64,
    index: u64,
) -> String {
    match workload {
        Workload::ColdPrepare => templates[template].render(&format!("c{connection}n{index}x")),
        Workload::WarmRead | Workload::UpdateMix => texts[template].clone(),
    }
}

/// The batch text of one single-query request.
pub fn batch_text(query: &str, mode: Mode, trace: bool) -> String {
    let trace = if trace { "@trace\n" } else { "" };
    format!("{trace}{}\nQ: {query}\n", directive_for(mode.workload()))
}

/// splitmix64: a tiny, fully specified PRNG, so the same seed yields the
/// same bytes on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn relation(rng: &mut Rng, arity: usize, rows: usize, domain: u64) -> Vec<Vec<u64>> {
    let mut tuples: Vec<Vec<u64>> = (0..rows)
        .map(|_| (0..arity).map(|_| rng.below(domain)).collect())
        .collect();
    // The planted block: every tuple over the planted values.
    let mut block = vec![Vec::new()];
    for _ in 0..arity {
        block = block
            .into_iter()
            .flat_map(|t: Vec<u64>| {
                (PLANT..PLANT + BLOCK).map(move |v| {
                    let mut t = t.clone();
                    t.push(v);
                    t
                })
            })
            .collect();
    }
    tuples.extend(block);
    tuples.sort_unstable();
    tuples.dedup();
    tuples
}

/// The workload's database.
pub fn database(shape: &Shape, seed: u64) -> Database {
    let mut db = Database::new();
    let families = [
        (
            "C",
            2,
            shape.chain_relations,
            shape.chain_rows,
            shape.chain_domain,
        ),
        (
            "H",
            3,
            shape.cycle_relations,
            shape.cycle_rows,
            shape.cycle_domain,
        ),
    ];
    for (stream, (prefix, arity, count, rows, domain)) in families.into_iter().enumerate() {
        let mut rng = Rng::new(seed, stream as u64 + 1);
        for i in 0..count {
            let tuples = relation(&mut rng, arity, rows, domain);
            db.insert_sorted_relation(&format!("{prefix}{i}"), arity, tuples)
                .expect("generated relations are fresh, sorted and deduplicated");
        }
    }
    db
}

/// A delta and its exact inverse on the last chain relation: fresh
/// tuples that extend the planted block (so counts change between the
/// two states) plus deletes of existing noise tuples.
#[derive(Debug, Clone)]
pub struct DeltaPair {
    pub forward: DatabaseDelta,
    pub inverse: DatabaseDelta,
    pub forward_text: String,
    pub inverse_text: String,
}

pub fn delta_pair(shape: &Shape, db: &Database, seed: u64) -> DeltaPair {
    let rel = format!("C{}", shape.chain_relations - 1);
    let existing = &db
        .relation(&rel)
        .expect("the chain's last relation exists")
        .tuples;
    let mut rng = Rng::new(seed, 7);
    let inserts: Vec<Vec<u64>> = (0..8)
        .map(|i| vec![PLANT + rng.below(BLOCK), FRESH + i])
        .collect();
    let mut deletes: Vec<Vec<u64>> = Vec::new();
    while deletes.len() < 4 {
        let t = &existing[rng.below(existing.len() as u64) as usize];
        if t[0] < PLANT && !deletes.contains(t) {
            deletes.push(t.clone());
        }
    }
    let script = |ins: &[Vec<u64>], del: &[Vec<u64>]| {
        let mut text = String::from("@insert\n");
        for t in ins {
            text.push_str(&format!("{rel}({}, {})\n", t[0], t[1]));
        }
        text.push_str("@delete\n");
        for t in del {
            text.push_str(&format!("{rel}({}, {})\n", t[0], t[1]));
        }
        text
    };
    let mut forward = DatabaseDelta::new();
    let mut inverse = DatabaseDelta::new();
    for t in &inserts {
        forward.insert(&rel, t.clone());
        inverse.delete(&rel, t.clone());
    }
    for t in &deletes {
        forward.delete(&rel, t.clone());
        inverse.insert(&rel, t.clone());
    }
    DeltaPair {
        forward,
        inverse,
        forward_text: script(&inserts, &deletes),
        inverse_text: script(&deletes, &inserts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqd2::engine::store::encode_snapshot;

    #[test]
    fn the_seed_alone_fixes_the_data_and_the_deltas() {
        for workload in [
            Workload::WarmRead,
            Workload::ColdPrepare,
            Workload::UpdateMix,
        ] {
            let shape = shape(workload);
            let (a, b, c) = (
                database(&shape, 7),
                database(&shape, 7),
                database(&shape, 8),
            );
            assert_eq!(encode_snapshot(&a), encode_snapshot(&b));
            assert_ne!(encode_snapshot(&a), encode_snapshot(&c));
            let (da, db) = (delta_pair(&shape, &a, 7), delta_pair(&shape, &b, 7));
            assert_eq!(da.forward_text, db.forward_text);
            assert_eq!(da.inverse_text, db.inverse_text);
        }
    }
}
