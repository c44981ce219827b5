//! BCQ evaluation, #CQ counting, and answer enumeration.
//!
//! Four evaluation strategies:
//!
//! - [`bcq_naive`] / [`enumerate_naive`] / [`count_naive`]: backtracking
//!   join — correct for every CQ, exponential in general. The baseline the
//!   paper's lower bounds are about.
//! - [`bcq_via_ghd`]: Prop. 2.2 — materialize one relation per GHD bag
//!   (joining the `λ` cover and the atoms assigned to the bag), then run a
//!   Yannakakis semijoin pass over the decomposition tree. Polynomial
//!   `O(‖D‖^k)` for width-`k` GHDs.
//! - [`count_via_ghd`]: Prop. 4.14 — junction-tree counting DP over the
//!   bag relations, computing `|q(D)|` for *full* CQs without enumerating.
//! - [`enumerate_via_ghd`]: answer *enumeration* in the
//!   preprocessing-then-constant-delay shape of Durand & Grandjean and
//!   Carmeli & Kröll: semijoin-reduce the bag tree bottom-up **and**
//!   top-down (so every surviving bag row extends to a full answer), then
//!   stream answers from a [`GhdEnumerator`] that walks the reduced tree
//!   top-down through per-edge group lists — no dead-end backtracking,
//!   answers on demand.
//!
//! GHD-guided entry points return [`EvalError`] (a typed
//! `std::error::Error`) when the supplied decomposition does not fit the
//! query, instead of stringly-typed errors.
//!
//! All strategies run on the columnar [`FlatRelation`] kernel
//! ([`crate::flat`]): bags materialize through packed-key hash joins —
//! fanned out over the bags via `std::thread::scope` on databases large
//! enough to pay for the threads, since each bag joins only bound atom
//! relations. After that, the warm passes of [`MaterializedBags`] hash
//! nothing: they run over per-edge join indexes ([`EdgeIndex`]) built
//! once per bag tree.
//!
//! `bcq_auto` / `count_auto` pick the GHD route when an exact
//! decomposition is computable and fall back to naive otherwise.

use crate::database::Database;
use crate::flat::FlatRelation;
use crate::probe::KeyGroups;
use crate::query::{ConjunctiveQuery, Var};
use cqd2_decomp::ghd::GhdError;
use cqd2_decomp::widths::ghw_decomposition;
use cqd2_decomp::Ghd;
use cqd2_hypergraph::VertexId;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------
// Typed evaluation errors.
// ---------------------------------------------------------------------

/// Why a GHD-guided evaluation could not run: the supplied decomposition
/// does not fit the query. All variants are *caller* errors (a plan built
/// for a different query, or a hand-rolled GHD); a decomposition produced
/// from `q.hypergraph()` never triggers them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The decomposition fails [`Ghd::validate`] on the query's hypergraph.
    InvalidGhd(GhdError),
    /// Hypergraph edge `edge` has no source atom with the same variable
    /// set — the GHD's covers reference a relation the query cannot name.
    EdgeWithoutAtom {
        /// Index of the uncovered hypergraph edge.
        edge: usize,
    },
    /// Atom `atom`'s variables fit in no bag of the decomposition.
    AtomFitsNoBag {
        /// Index of the unplaceable atom.
        atom: usize,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::InvalidGhd(e) => write!(f, "invalid ghd for this query: {e}"),
            EvalError::EdgeWithoutAtom { edge } => {
                write!(f, "hypergraph edge e{edge} has no source atom")
            }
            EvalError::AtomFitsNoBag { atom } => write!(f, "atom #{atom} fits in no bag"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::InvalidGhd(e) => Some(e),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Naive backtracking evaluation.
// ---------------------------------------------------------------------

/// Decide `q(D) ≠ ∅` by backtracking join.
pub fn bcq_naive(q: &ConjunctiveQuery, db: &Database) -> bool {
    let mut found = false;
    backtrack(q, db, &mut |_| {
        found = true;
        false // stop at the first solution
    });
    found
}

/// Count `|q(D)|` (all-variable assignments) by backtracking.
pub fn count_naive(q: &ConjunctiveQuery, db: &Database) -> u128 {
    let mut n: u128 = 0;
    backtrack(q, db, &mut |_| {
        n += 1;
        true
    });
    n
}

/// Enumerate all solutions as assignments in `Var` id order. Intended for
/// tests/verification on small instances.
pub fn enumerate_naive(q: &ConjunctiveQuery, db: &Database) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    backtrack(q, db, &mut |sol| {
        out.push(sol.to_vec());
        true
    });
    out.sort_unstable();
    out
}

/// Enumerate up to `limit` solutions (`None` = all) in backtracking
/// search order, **unsorted**, stopping the search as soon as the limit
/// is reached. The engine's naive-plan fallback for `Enumerate`
/// workloads; [`enumerate_naive`] remains the sorted reference.
pub fn enumerate_naive_limit(
    q: &ConjunctiveQuery,
    db: &Database,
    limit: Option<usize>,
) -> Vec<Vec<u64>> {
    if limit == Some(0) {
        return Vec::new();
    }
    let mut out = Vec::new();
    backtrack(q, db, &mut |sol| {
        out.push(sol.to_vec());
        limit.is_none_or(|l| out.len() < l)
    });
    out
}

/// Core backtracking loop. `on_solution` receives the full assignment
/// (indexed by `Var` id) and returns `false` to stop the search.
fn backtrack(q: &ConjunctiveQuery, db: &Database, on_solution: &mut dyn FnMut(&[u64]) -> bool) {
    let bound: Vec<FlatRelation> = q.atoms.iter().map(|a| FlatRelation::bind(a, db)).collect();
    if bound.iter().any(FlatRelation::is_empty) {
        return;
    }
    // A variable in no atom cannot be assigned — such queries do not arise
    // from our constructors; guard anyway.
    let mut covered = vec![false; q.num_vars()];
    for r in &bound {
        for v in r.vars() {
            covered[v.idx()] = true;
        }
    }
    if covered.iter().any(|c| !c) {
        return;
    }
    // Atom order: connected, smallest-relation-first.
    let order = atom_order(q, &bound);
    let mut assignment: Vec<Option<u64>> = vec![None; q.num_vars()];
    let _ = dfs(&bound, &order, 0, &mut assignment, on_solution);
}

fn atom_order(q: &ConjunctiveQuery, bound: &[FlatRelation]) -> Vec<usize> {
    let n = q.atoms.len();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut seen_vars: std::collections::HashSet<Var> = std::collections::HashSet::new();
    for _ in 0..n {
        let next = (0..n)
            .filter(|&i| !placed[i])
            .min_by_key(|&i| {
                let overlap = bound[i]
                    .vars()
                    .iter()
                    .filter(|v| seen_vars.contains(v))
                    .count();
                (std::cmp::Reverse(overlap), bound[i].len(), i)
            })
            // cqd2-lint: allow(panic-in-hot-path, reason = "the loop runs while unplaced atoms remain, so min_by_key sees a nonempty iterator")
            .expect("unplaced atom");
        placed[next] = true;
        seen_vars.extend(bound[next].vars().iter().copied());
        order.push(next);
    }
    order
}

fn dfs(
    bound: &[FlatRelation],
    order: &[usize],
    depth: usize,
    assignment: &mut Vec<Option<u64>>,
    on_solution: &mut dyn FnMut(&[u64]) -> bool,
) -> bool {
    if depth == order.len() {
        let sol: Vec<u64> = assignment
            .iter()
            // cqd2-lint: allow(panic-in-hot-path, reason = "depth == order.len() means every variable was bound on the way down")
            .map(|a| a.expect("all assigned"))
            .collect();
        return on_solution(&sol);
    }
    let rel = &bound[order[depth]];
    'tuples: for t in rel.iter() {
        let mut newly = Vec::new();
        for (i, v) in rel.vars().iter().enumerate() {
            match assignment[v.idx()] {
                Some(val) => {
                    if val != t[i] {
                        for v in newly {
                            assignment[v] = None;
                        }
                        continue 'tuples;
                    }
                }
                None => {
                    assignment[v.idx()] = Some(t[i]);
                    newly.push(v.idx());
                }
            }
        }
        if !dfs(bound, order, depth + 1, assignment, on_solution) {
            return false;
        }
        for v in newly {
            assignment[v] = None;
        }
    }
    true
}

// ---------------------------------------------------------------------
// GHD-guided evaluation (Prop. 2.2 / Prop. 4.14).
// ---------------------------------------------------------------------

/// Total bound-atom tuples below which bag materialization stays
/// sequential: scoped-thread setup costs more than the joins it would
/// parallelize, and the serving layer already parallelizes across
/// requests.
const PARALLEL_BAG_THRESHOLD: usize = 4096;

thread_local! {
    /// When set, bag materialization on this thread stays sequential
    /// regardless of database size (see [`with_sequential_bags`]).
    static SEQUENTIAL_BAGS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with intra-query parallel bag materialization disabled on the
/// current thread. Batch executors that already fan requests out over
/// worker threads wrap per-request evaluation in this, so a large
/// database cannot trigger a second layer of thread spawning underneath
/// an already-saturated pool (threads × bags oversubscription).
pub fn with_sequential_bags<R>(f: impl FnOnce() -> R) -> R {
    SEQUENTIAL_BAGS.with(|flag| {
        let prev = flag.replace(true);
        let out = f();
        flag.set(prev);
        out
    })
}

/// Scoped-thread workers for a bag-materialization fan-out: every core
/// once there are several bags to build (`plural`) and their input
/// reaches [`PARALLEL_BAG_THRESHOLD`] rows, unless
/// [`with_sequential_bags`] opted out.
fn fan_out_workers(plural: bool, rows: usize) -> usize {
    if plural && rows >= PARALLEL_BAG_THRESHOLD && !SEQUENTIAL_BAGS.with(std::cell::Cell::get) {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        1
    }
}

/// Sparsity of one warm tree pass: how many bag nodes had their live
/// row set shrunk by a semijoin, out of the tree's total. Warm prepared
/// runs on join-consistent data shrink **zero** nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassStats {
    /// Nodes whose live row set the pass shrank.
    pub rewritten: usize,
    /// Nodes in the bag tree.
    pub total: usize,
}

/// [`EdgeIndex`] marker for a parent row with no partner in the child.
const NO_GROUP: u32 = u32::MAX;

/// The join index of one bag-tree edge (parent `u`, child `c`): the rows
/// of both bags mapped onto dense group ids of the shared-variable key.
/// One hash pass per side builds it, the first time a pass crosses the
/// edge or up front through [`MaterializedBags::index_edges`];
/// [`MaterializedBags`] caches it, so every later pass over the edge is
/// array work with no hashing at all.
#[derive(Debug)]
pub struct EdgeIndex {
    /// Group id of each row of `c` (on its `up_key` columns), dense in
    /// first-occurrence order.
    child_group: Vec<u32>,
    /// Group id of each row of `u` (on its `parent_key` columns), or
    /// [`NO_GROUP`] when no row of `c` shares the key.
    parent_group: Vec<u32>,
    /// Rows of `c` per group.
    group_rows: Vec<u32>,
    /// Every row of `u` has a partner: a semijoin against an unshrunk
    /// `c` drops nothing.
    parents_all_match: bool,
}

impl EdgeIndex {
    fn build(
        child: &FlatRelation,
        up_key: &[usize],
        parent: &FlatRelation,
        parent_key: &[usize],
    ) -> EdgeIndex {
        let (table, child_group) = KeyGroups::build(child, up_key);
        let mut group_rows = vec![0u32; table.len()];
        for &g in &child_group {
            group_rows[g as usize] += 1;
        }
        let mut scratch = vec![0u64; parent_key.len()];
        let parent_group: Vec<u32> = parent
            .iter()
            .map(|t| {
                for (s, &p) in scratch.iter_mut().zip(parent_key) {
                    *s = t[p];
                }
                table.get(&scratch).unwrap_or(NO_GROUP)
            })
            .collect();
        EdgeIndex {
            parents_all_match: !parent_group.contains(&NO_GROUP),
            child_group,
            parent_group,
            group_rows,
        }
    }

    /// Number of distinct shared-variable keys among the child's rows.
    fn groups(&self) -> usize {
        self.group_rows.len()
    }
}

/// The rows of one bag still alive in a warm pass: a bitmask over the
/// bag's rows, `None` while every row is alive (nothing allocated).
struct LiveRows {
    mask: Option<Vec<u64>>,
    /// Number of alive rows.
    count: usize,
}

impl LiveRows {
    /// Visit the alive rows of an `n`-row bag in ascending order.
    fn for_each(&self, n: usize, mut f: impl FnMut(usize)) {
        match &self.mask {
            None => (0..n).for_each(f),
            Some(words) => {
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        f(w * 64 + bits.trailing_zeros() as usize);
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// Drop the alive rows of an `n`-row bag that fail `keep`.
    fn retain(&mut self, n: usize, keep: impl Fn(usize) -> bool) {
        let mut words = self.mask.take().unwrap_or_else(|| {
            let mut full = vec![!0u64; n.div_ceil(64)];
            if let Some(last) = full.last_mut().filter(|_| !n.is_multiple_of(64)) {
                *last = (1 << (n % 64)) - 1;
            }
            full
        });
        for (w, word) in words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                if !keep(w * 64 + bit.trailing_zeros() as usize) {
                    *word &= !bit;
                    self.count -= 1;
                }
                bits &= bits - 1;
            }
        }
        self.mask = (self.count < n).then_some(words);
    }
}

/// The materialized bag tree of a `(query, database, GHD)` triple: one
/// relation per bag (the `λ` cover joined with the bag's assigned
/// atoms), rooted and ordered for tree passes.
///
/// This is the **shared preprocessing** of every GHD-guided evaluator —
/// the `O(‖D‖^width)` part. Build it once with
/// [`MaterializedBags::build`] and run as many passes as needed:
/// [`MaterializedBags::bcq`], [`MaterializedBags::count`], and
/// [`MaterializedBags::enumerator`] never copy or hash a bag. Each tree
/// edge carries a lazily built, cached [`EdgeIndex`] (dense group ids
/// on both sides of the edge), and a pass works only on per-node arrays
/// over it: live-row bitmasks for the semijoins, per-group `u128` sums
/// for the counting DP, group-sorted row lists for the enumerator. Warm
/// re-execution (and any number of concurrent cursors) therefore shares
/// one immutable bag tree. Each bottom-up pass is one sequential
/// post-order walk. The one-shot [`bcq_via_ghd`] / [`count_via_ghd`] /
/// [`enumerate_via_ghd`] wrappers build and consume in place instead.
///
/// ```
/// use cqd2_cq::eval::MaterializedBags;
/// use cqd2_cq::{ConjunctiveQuery, Database};
/// use cqd2_decomp::widths::ghw_decomposition;
///
/// let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
/// let mut db = Database::new();
/// db.insert_all("R", &[vec![1, 2]]);
/// db.insert_all("S", &[vec![2, 3], vec![2, 4]]);
/// let ghd = ghw_decomposition(&q.hypergraph()).expect("small instance");
///
/// // Pay the O(‖D‖^width) preprocessing once…
/// let bags = MaterializedBags::build(&q, &db, &ghd)?;
/// // …then run as many copy-free tree passes as needed.
/// assert!(bags.bcq());
/// assert_eq!(bags.count(), 2);
/// assert_eq!(bags.enumerator().count(), 2);
/// # Ok::<(), cqd2_cq::eval::EvalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MaterializedBags {
    /// Per-bag relations, `Arc`-shared so enumerators and refreshed
    /// trees can hold bags without copying buffers.
    relations: Vec<Arc<FlatRelation>>,
    children: Vec<Vec<usize>>,
    /// Parent of each node (`usize::MAX` at the root).
    parents: Vec<usize>,
    post_order: Vec<usize>,
    /// For each non-root node `u`: the columns of `relations[u]` whose
    /// variables also occur in the parent bag — the semijoin key, child
    /// side. Resolved once at build.
    up_key: Vec<Vec<usize>>,
    /// The matching key columns in the parent's relation (same variable
    /// order as `up_key`). Empty at the root.
    parent_key: Vec<Vec<usize>>,
    /// Lazily built join index of the edge from each non-root node to
    /// its parent. Sound to reuse across runs because passes never
    /// mutate a bag; `Arc`'d so [`MaterializedBags::refresh`] can share
    /// an index whose two bags stayed clean.
    edges: Vec<OnceLock<Arc<EdgeIndex>>>,
    /// Per-bag materialization recipe, retained so
    /// [`MaterializedBags::refresh`] can re-run exactly the build-time
    /// join/project sequence for a dirty bag against a new database.
    recipes: Vec<BagRecipe>,
    root: usize,
    /// `q.num_vars()` at build time (answer tuple width).
    num_vars: usize,
}

/// What it takes to re-materialize one bag: the atom indices joined as
/// the `λ` cover, the bag's variables (the projection between cover and
/// assigned joins), and the atoms assigned to the bag. All three are
/// data-independent — re-running the recipe against any database yields
/// a relation with the **same column layout**, which is what keeps the
/// tree's resolved semijoin keys (`up_key` / `parent_key`) valid across
/// a refresh.
#[derive(Debug, Clone)]
struct BagRecipe {
    /// Atom indices of the cover's edge representatives, in cover order.
    cover_atoms: Vec<usize>,
    /// The bag's variables, in bag order.
    bag_vars: Vec<Var>,
    /// Atom indices assigned to this bag, in assignment order.
    assigned_atoms: Vec<usize>,
}

impl BagRecipe {
    /// Every atom index this bag's materialization reads.
    fn atoms(&self) -> impl Iterator<Item = usize> + '_ {
        self.cover_atoms.iter().chain(&self.assigned_atoms).copied()
    }
}

/// Run one bag's recipe: join the cover representatives, project to the
/// bag's variables, then join the assigned atoms. `bound` resolves an
/// atom index to its bound relation. The result is bit-identical to
/// joining everything onto `unit()`, without the redundant work: the
/// first cover relation is borrowed rather than copied through a
/// cartesian product, an identity projection is skipped, an assigned
/// atom that is also a cover atom is skipped (`R ⋈ R = R`), and an
/// assigned atom that adds no column is a semijoin filter.
fn materialize_bag<'a>(
    recipe: &BagRecipe,
    bound: impl Fn(usize) -> &'a FlatRelation,
) -> FlatRelation {
    let mut rel: Cow<'a, FlatRelation> = match recipe.cover_atoms.split_first() {
        Some((&first, rest)) => rest.iter().fold(Cow::Borrowed(bound(first)), |r, &ai| {
            Cow::Owned(r.join(bound(ai)))
        }),
        None => Cow::Owned(FlatRelation::unit()),
    };
    // Project to bag variables (cover may reach outside the bag).
    let keep: Vec<Var> = recipe
        .bag_vars
        .iter()
        .copied()
        .filter(|v| rel.vars().contains(v))
        .collect();
    if keep != rel.vars() {
        rel = Cow::Owned(rel.project(&keep));
    }
    for &ai in &recipe.assigned_atoms {
        if recipe.cover_atoms.contains(&ai) {
            continue;
        }
        let atom = bound(ai);
        if atom.vars().iter().all(|v| rel.vars().contains(v)) {
            if let Some(filtered) = rel.semijoin_filter(atom) {
                rel = Cow::Owned(filtered);
            }
        } else {
            rel = Cow::Owned(rel.join(atom));
        }
    }
    rel.into_owned()
}

impl MaterializedBags {
    /// Materialize the bag tree of `q` against `db` along `ghd`
    /// (validated against `q.hypergraph()` first).
    pub fn build(
        q: &ConjunctiveQuery,
        db: &Database,
        ghd: &Ghd,
    ) -> Result<MaterializedBags, EvalError> {
        build_bag_tree(q, db, ghd)
    }

    /// Total rows across all materialized bag relations (the memory the
    /// handle pins).
    pub fn total_rows(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// Number of bag nodes in the tree.
    pub fn num_bags(&self) -> usize {
        self.relations.len()
    }

    /// A detached deep copy: fresh relation buffers, no edge indexes.
    /// This is the **clone-based execution baseline** — the consuming
    /// `into_*` passes rewrite it in place — kept public so benches and
    /// differential tests can measure and compare against it
    /// (`bags.deep_clone().into_bcq()` etc.).
    pub fn deep_clone(&self) -> MaterializedBags {
        MaterializedBags {
            relations: self
                .relations
                .iter()
                .map(|r| Arc::new(FlatRelation::clone(r)))
                .collect(),
            edges: fresh_edges(self.relations.len()),
            ..self.clone()
        }
    }

    /// **Warm maintenance** after a delta: rebuild only the bags whose
    /// materialization reads a relation in `dirty`, sharing every clean
    /// bag's relation (an `Arc` bump, no buffer copy) with `self`, and
    /// every edge index whose two bags are both clean. `q` must be the
    /// query this tree was built for and `db` the post-delta database;
    /// `dirty` holds the names of the relations the delta touched.
    ///
    /// Dirty bags re-run their retained build recipe, which reproduces
    /// the build-time column layout exactly, so the tree shape and the
    /// resolved semijoin keys carry over unchanged.
    ///
    /// Returns the refreshed tree plus the maintenance sparsity: how
    /// many bags were re-materialized out of the total. `rewritten == 0`
    /// means the delta did not intersect this query at all and the
    /// refreshed tree is a pure share of `self`.
    pub fn refresh(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
        dirty: &[String],
    ) -> (MaterializedBags, PassStats) {
        let n = self.relations.len();
        let is_dirty_rel = |name: &str| dirty.iter().any(|d| d == name);
        let dirty_bag: Vec<bool> = self
            .recipes
            .iter()
            .map(|r| r.atoms().any(|ai| is_dirty_rel(&q.atoms[ai].relation)))
            .collect();
        // Re-bind only the atoms the dirty bags actually read; clean
        // relations are never scanned.
        let mut bound: Vec<Option<FlatRelation>> = (0..q.atoms.len()).map(|_| None).collect();
        for (u, recipe) in self.recipes.iter().enumerate() {
            if !dirty_bag[u] {
                continue;
            }
            for ai in recipe.atoms() {
                if bound[ai].is_none() {
                    bound[ai] = Some(FlatRelation::bind(&q.atoms[ai], db));
                }
            }
        }
        let dirty_nodes: Vec<usize> = (0..n).filter(|&u| dirty_bag[u]).collect();
        let bound_tuples: usize = bound.iter().flatten().map(FlatRelation::len).sum();
        let workers = fan_out_workers(dirty_nodes.len() > 1, bound_tuples);
        let remat: Vec<FlatRelation> = crate::par::scoped_map(dirty_nodes.len(), workers, |i| {
            materialize_bag(&self.recipes[dirty_nodes[i]], |ai| {
                bound[ai]
                    .as_ref()
                    // cqd2-lint: allow(panic-in-hot-path, reason = "every atom a dirty bag reads was bound in the loop above")
                    .expect("dirty bag atom bound")
            })
        });
        let mut relations: Vec<Arc<FlatRelation>> = self.relations.iter().map(Arc::clone).collect();
        for (i, rel) in remat.into_iter().enumerate() {
            let u = dirty_nodes[i];
            debug_assert_eq!(
                rel.vars(),
                self.relations[u].vars(),
                "recipe re-run must reproduce the bag's column layout"
            );
            relations[u] = Arc::new(rel);
        }
        // An edge index survives iff both of its bags are clean.
        // (A filled slot is never the root's, so `parents[c]` is a node.)
        let edges = (0..n)
            .map(|c| match self.edges[c].get() {
                Some(e) if !dirty_bag[c] && !dirty_bag[self.parents[c]] => {
                    OnceLock::from(Arc::clone(e))
                }
                _ => OnceLock::new(),
            })
            .collect();
        let stats = PassStats {
            rewritten: dirty_nodes.len(),
            total: n,
        };
        (
            MaterializedBags {
                relations,
                edges,
                ..self.clone()
            },
            stats,
        )
    }

    /// `Arc` identity of bag `u`'s materialized relation — the witness
    /// differential tests use to assert that a refresh shared (rather
    /// than rebuilt) a clean bag.
    pub fn bag_arc(&self, u: usize) -> &Arc<FlatRelation> {
        &self.relations[u]
    }

    /// The join index of the edge from node `c` to its parent, built on
    /// first use (`None` at the root). Its `Arc` identity is the witness
    /// differential tests use to assert that a refresh shared an index.
    pub fn edge_index(&self, c: usize) -> Option<&Arc<EdgeIndex>> {
        (self.parents[c] != usize::MAX).then(|| self.edge(c))
    }

    /// Build every edge's join index now instead of on the first pass
    /// that crosses it, so that cost lands in preprocessing.
    pub fn index_edges(&self) {
        for c in (0..self.relations.len()).filter(|&c| self.parents[c] != usize::MAX) {
            self.edge(c);
        }
    }

    /// The cached join index of the edge from non-root node `c` to its
    /// parent, built on first use.
    fn edge(&self, c: usize) -> &Arc<EdgeIndex> {
        self.edges[c].get_or_init(|| {
            let p = self.parents[c];
            Arc::new(EdgeIndex::build(
                &self.relations[c],
                &self.up_key[c],
                &self.relations[p],
                &self.parent_key[c],
            ))
        })
    }

    /// Decide `q(D) ≠ ∅` with a warm Boolean pass (Prop. 2.2 bottom-up
    /// semijoins over live-row bitmasks).
    pub fn bcq(&self) -> bool {
        self.bcq_with_stats().0
    }

    /// [`MaterializedBags::bcq`] plus the pass's shrink sparsity.
    pub fn bcq_with_stats(&self) -> (bool, PassStats) {
        let (live, ok) = self.reduce_bottom_up();
        (ok, self.pass_stats(&live))
    }

    /// Count `|q(D)|` with a warm counting DP (Prop. 4.14 junction-tree
    /// DP over per-group `u128` sums).
    pub fn count(&self) -> u128 {
        self.count_with_stats().0
    }

    /// [`MaterializedBags::count`] plus the pass's shrink sparsity.
    pub fn count_with_stats(&self) -> (u128, PassStats) {
        // Per-row subtree extension counts (0 = dead row); `None` = all
        // ones (leaves never allocate one).
        let mut counts: Vec<Option<Vec<u128>>> = vec![None; self.relations.len()];
        let mut shrank = 0;
        for &u in self
            .post_order
            .iter()
            .filter(|&&u| !self.children[u].is_empty())
        {
            let (cnt, dropped) = self.count_node(&counts, u);
            counts[u] = Some(cnt);
            shrank += usize::from(dropped);
        }
        let total = match &counts[self.root] {
            Some(c) => c.iter().sum(),
            // A root with no children: every root row is one answer.
            None => self.relations[self.root].len() as u128,
        };
        let total_bags = self.relations.len();
        (
            total,
            PassStats {
                rewritten: shrank,
                total: total_bags,
            },
        )
    }

    /// Open a streaming answer enumerator: semijoin-reduce bottom-up
    /// over live-row bitmasks, then enumerate with constant delay over
    /// the shared bags. Any number of concurrent cursors pin one
    /// materialization.
    ///
    /// No top-down pass is needed: the walk reaches a bag's rows only
    /// through the group of its parent's chosen row, so it never visits
    /// the rows a top-down semijoin would drop, and every row it visits
    /// extends into its whole subtree. Answers and their order equal the
    /// two-pass [`MaterializedBags::into_enumerator`]'s.
    pub fn enumerator(&self) -> GhdEnumerator {
        self.enumerator_with_stats().0
    }

    /// [`MaterializedBags::enumerator`] plus the reduction's shrink
    /// sparsity.
    pub fn enumerator_with_stats(&self) -> (GhdEnumerator, PassStats) {
        if self.relations.is_empty() {
            return (GhdEnumerator::empty(), PassStats::default());
        }
        let (live, ok) = self.reduce_bottom_up();
        let stats = self.pass_stats(&live);
        if !ok {
            return (GhdEnumerator::empty(), stats);
        }
        (self.open_enumerator(&live), stats)
    }

    fn pass_stats(&self, live: &[LiveRows]) -> PassStats {
        PassStats {
            rewritten: live.iter().filter(|l| l.mask.is_some()).count(),
            total: self.relations.len(),
        }
    }

    /// Bottom-up Yannakakis pass in post-order: each internal node keeps
    /// the rows with a live partner in every child.
    /// Returns the live rows per node and whether every bag stayed
    /// nonempty (`false` → `q(D) = ∅`; the pass stops there).
    fn reduce_bottom_up(&self) -> (Vec<LiveRows>, bool) {
        let mut live: Vec<LiveRows> = self
            .relations
            .iter()
            .map(|r| LiveRows {
                mask: None,
                count: r.len(),
            })
            .collect();
        if self.relations.iter().any(|r| r.is_empty()) {
            return (live, false);
        }
        for &u in self
            .post_order
            .iter()
            .filter(|&&u| !self.children[u].is_empty())
        {
            live[u] = self.reduce_node(&live, u);
            if live[u].count == 0 {
                return (live, false);
            }
        }
        (live, true)
    }

    /// Node `u`'s live rows after semijoining it against each of its
    /// (already reduced) children.
    fn reduce_node(&self, live: &[LiveRows], u: usize) -> LiveRows {
        let n = self.relations[u].len();
        let mut out = LiveRows {
            mask: None,
            count: n,
        };
        for &c in &self.children[u] {
            let e = self.edge(c);
            if live[c].mask.is_none() && e.parents_all_match {
                continue;
            }
            let mut alive = vec![false; e.groups()];
            live[c].for_each(self.relations[c].len(), |r| {
                alive[e.child_group[r] as usize] = true;
            });
            out.retain(n, |r| {
                alive.get(e.parent_group[r] as usize).is_some_and(|&a| a)
            });
            if out.count == 0 {
                break;
            }
        }
        out
    }

    /// One counting-DP merge: node `u`'s per-row extension counts, each
    /// row's count multiplied by its group's summed child counts (a
    /// leaf child's sum is its group size). Also reports whether some
    /// row dropped to zero.
    fn count_node(&self, counts: &[Option<Vec<u128>>], u: usize) -> (Vec<u128>, bool) {
        let mut cnt = vec![1u128; self.relations[u].len()];
        let mut shrank = false;
        for &c in &self.children[u] {
            let e = self.edge(c);
            let sums: Vec<u128> = match &counts[c] {
                None => e.group_rows.iter().map(|&k| u128::from(k)).collect(),
                Some(child) => {
                    let mut sums = vec![0u128; e.groups()];
                    for (&g, &k) in e.child_group.iter().zip(child) {
                        sums[g as usize] += k;
                    }
                    sums
                }
            };
            for (k, &g) in cnt.iter_mut().zip(&e.parent_group) {
                let sum = sums.get(g as usize).copied().unwrap_or(0);
                shrank |= sum == 0 && *k != 0;
                *k *= sum;
            }
        }
        (cnt, shrank)
    }
}

/// `n` empty edge-index slots.
fn fresh_edges(n: usize) -> Vec<OnceLock<Arc<EdgeIndex>>> {
    (0..n).map(|_| OnceLock::new()).collect()
}

fn build_bag_tree(
    q: &ConjunctiveQuery,
    db: &Database,
    ghd: &Ghd,
) -> Result<MaterializedBags, EvalError> {
    let h = q.hypergraph();
    ghd.validate(&h).map_err(EvalError::InvalidGhd)?;
    let bound: Vec<FlatRelation> = q.atoms.iter().map(|a| FlatRelation::bind(a, db)).collect();
    // Representative atom for each hypergraph edge (same variable set),
    // via the shared sorted-varset map on the query (one hash probe per
    // edge instead of re-sorting every atom's variable list per edge).
    let edge_rep: Vec<usize> = q
        .edge_representatives(&h)
        .into_iter()
        .enumerate()
        .map(|(i, rep)| rep.ok_or(EvalError::EdgeWithoutAtom { edge: i }))
        .collect::<Result<_, EvalError>>()?;
    // Assign every atom to one node whose bag contains its variables.
    let bag_contains = |u: usize, vars: &[Var]| {
        vars.iter()
            .all(|v| ghd.td.bags[u].binary_search(&VertexId(v.0)).is_ok())
    };
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); ghd.td.bags.len()];
    for (ai, atom) in q.atoms.iter().enumerate() {
        let vars = atom.vars();
        let u = (0..ghd.td.bags.len())
            .find(|&u| bag_contains(u, &vars))
            .ok_or(EvalError::AtomFitsNoBag { atom: ai })?;
        assigned[u].push(ai);
    }
    // Materialize each bag: join cover representatives, project to bag,
    // then join all assigned atoms. Bags depend only on the shared
    // `bound` relations, never on each other, so on databases big enough
    // to amortize thread setup the bags materialize concurrently. The
    // recipe (which atoms, joined in which order, projected to which
    // variables) is retained on the handle so `refresh` can re-run it
    // per dirty bag after a delta.
    let n = ghd.td.bags.len();
    let recipes: Vec<BagRecipe> = (0..n)
        .map(|u| BagRecipe {
            cover_atoms: ghd.covers[u].iter().map(|e| edge_rep[e.idx()]).collect(),
            bag_vars: ghd.td.bags[u].iter().map(|v| Var(v.0)).collect(),
            assigned_atoms: assigned[u].clone(),
        })
        .collect();
    // Gate parallelism on the tuples the *query* actually touches (the
    // bound atom relations), not the whole database — a big unrelated
    // relation must not trigger thread spawns for a microsecond join.
    let bound_tuples: usize = bound.iter().map(FlatRelation::len).sum();
    let workers = fan_out_workers(n > 1, bound_tuples);
    let relations: Vec<FlatRelation> = crate::par::scoped_map(n, workers, |u| {
        materialize_bag(&recipes[u], |ai| &bound[ai])
    });
    // Root the tree at node 0 and compute a post-order.
    let adj = ghd.td.adjacency();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut parents: Vec<usize> = vec![usize::MAX; n];
    let mut post_order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    // Iterative DFS computing children, parents, and post-order.
    let root = 0usize;
    let mut stack = vec![(root, usize::MAX, false)];
    while let Some((u, parent, processed)) = stack.pop() {
        if processed {
            post_order.push(u);
            continue;
        }
        if visited[u] {
            continue;
        }
        visited[u] = true;
        parents[u] = parent;
        stack.push((u, parent, true));
        for &w in &adj[u] {
            if w != parent && !visited[w] {
                children[u].push(w);
                stack.push((w, u, false));
            }
        }
    }
    // Semijoin key columns along every tree edge, resolved once: the
    // variables a child's relation shares with its parent's relation
    // (in the child's column order), as positions on both sides.
    let mut up_key: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut parent_key: Vec<Vec<usize>> = vec![Vec::new(); n];
    for u in 0..n {
        let p = parents[u];
        if p == usize::MAX {
            continue;
        }
        let (child_rel, parent_rel) = (&relations[u], &relations[p]);
        for (c, v) in child_rel.vars().iter().enumerate() {
            if let Some(pc) = parent_rel.vars().iter().position(|w| w == v) {
                up_key[u].push(c);
                parent_key[u].push(pc);
            }
        }
    }
    Ok(MaterializedBags {
        relations: relations.into_iter().map(Arc::new).collect(),
        children,
        parents,
        post_order,
        up_key,
        parent_key,
        edges: fresh_edges(n),
        recipes,
        root,
        num_vars: q.num_vars(),
    })
}

/// Decide `q(D) ≠ ∅` using a GHD of the query's hypergraph
/// (Prop. 2.2: polynomial for bounded-width GHDs).
pub fn bcq_via_ghd(q: &ConjunctiveQuery, db: &Database, ghd: &Ghd) -> Result<bool, EvalError> {
    Ok(build_bag_tree(q, db, ghd)?.into_bcq())
}

impl MaterializedBags {
    /// Consuming Boolean pass (bottom-up semijoins, early-out on
    /// empty): like [`MaterializedBags::bcq`] but rewrites the tree in
    /// place, sequentially — the one-shot and differential-baseline
    /// path.
    pub fn into_bcq(mut self) -> bool {
        self.semijoin_up_in_place() && !self.relations[self.root].is_empty()
    }

    /// The consuming paths' bottom-up semijoin pass: children filter
    /// parents in post-order, in place. `false` as soon as a bag is (or
    /// becomes) empty. Disjoint field borrows keep the loop
    /// allocation-free.
    fn semijoin_up_in_place(&mut self) -> bool {
        let MaterializedBags {
            relations,
            children,
            post_order,
            ..
        } = self;
        for &u in post_order.iter() {
            if relations[u].is_empty() {
                return false;
            }
            for &c in &children[u] {
                let filtered = relations[u].semijoin(&relations[c]);
                relations[u] = Arc::new(filtered);
                if relations[u].is_empty() {
                    return false;
                }
            }
        }
        true
    }
}

/// Count `|q(D)|` for a full CQ using the junction-tree DP over a GHD
/// (Prop. 4.14: polynomial for bounded-width GHDs).
///
/// Subtree extension counts live in a dense `Vec<u128>` aligned with
/// each bag's row order; merging a child aggregates its counts by packed
/// shared-variable key and rewrites the parent in one pass (rows with no
/// child match drop out, exactly the Yannakakis filter).
pub fn count_via_ghd(q: &ConjunctiveQuery, db: &Database, ghd: &Ghd) -> Result<u128, EvalError> {
    Ok(build_bag_tree(q, db, ghd)?.into_count())
}

impl MaterializedBags {
    /// Consuming counting DP: like [`MaterializedBags::count`] but
    /// rewrites the tree in place, sequentially — the one-shot and
    /// differential-baseline path.
    pub fn into_count(mut self) -> u128 {
        let MaterializedBags {
            relations,
            children,
            post_order,
            root,
            ..
        } = &mut self;
        let mut counts: Vec<Vec<u128>> = relations.iter().map(|r| vec![1u128; r.len()]).collect();
        for &u in post_order.iter() {
            for &c in &children[u] {
                let (new_rel, new_counts) = {
                    let parent = &relations[u];
                    let child = &relations[c];
                    // Shared variables between bags u and c, with key
                    // positions resolved once.
                    let shared: Vec<Var> = parent
                        .vars()
                        .iter()
                        .copied()
                        .filter(|v| child.vars().contains(v))
                        .collect();
                    let c_pos: Vec<usize> = shared
                        .iter()
                        // cqd2-lint: allow(panic-in-hot-path, reason = "shared was filtered to variables present in child.vars()")
                        .map(|v| child.vars().iter().position(|w| w == v).expect("shared"))
                        .collect();
                    let u_pos: Vec<usize> = shared
                        .iter()
                        // cqd2-lint: allow(panic-in-hot-path, reason = "shared is drawn from parent.vars(), so position always finds it")
                        .map(|v| parent.vars().iter().position(|w| w == v).expect("shared"))
                        .collect();
                    let arity = parent.arity();
                    let mut data: Vec<u64> = Vec::with_capacity(parent.len() * arity);
                    let mut kept: Vec<u128> = Vec::with_capacity(parent.len());
                    if shared.len() == 1 {
                        // Single-column fast path: aggregate and probe on the
                        // raw value.
                        let (cp, up) = (c_pos[0], u_pos[0]);
                        let mut agg: HashMap<u64, u128> = HashMap::with_capacity(child.len());
                        for (i, t) in child.iter().enumerate() {
                            *agg.entry(t[cp]).or_insert(0) += counts[c][i];
                        }
                        for (i, t) in parent.iter().enumerate() {
                            if let Some(&s) = agg.get(&t[up]) {
                                data.extend_from_slice(t);
                                kept.push(counts[u][i] * s);
                            }
                        }
                    } else {
                        // General path: packed multi-column keys (also covers
                        // vacuous sharing, where every key is empty).
                        let mut agg: HashMap<Box<[u64]>, u128> =
                            HashMap::with_capacity(child.len());
                        let mut scratch: Vec<u64> = Vec::with_capacity(shared.len());
                        for (i, t) in child.iter().enumerate() {
                            scratch.clear();
                            scratch.extend(c_pos.iter().map(|&p| t[p]));
                            match agg.get_mut(scratch.as_slice()) {
                                Some(sum) => *sum += counts[c][i],
                                None => {
                                    agg.insert(scratch.as_slice().into(), counts[c][i]);
                                }
                            }
                        }
                        for (i, t) in parent.iter().enumerate() {
                            scratch.clear();
                            scratch.extend(u_pos.iter().map(|&p| t[p]));
                            if let Some(&s) = agg.get(scratch.as_slice()) {
                                data.extend_from_slice(t);
                                kept.push(counts[u][i] * s);
                            }
                        }
                    }
                    let rows = kept.len();
                    (
                        FlatRelation::from_parts(parent.vars().to_vec(), rows, data),
                        kept,
                    )
                };
                relations[u] = Arc::new(new_rel);
                counts[u] = new_counts;
            }
        }
        counts[*root].iter().sum()
    }
}

// ---------------------------------------------------------------------
// GHD-guided enumeration (preprocessing + constant-delay streaming).
// ---------------------------------------------------------------------

/// One bag of the reduced decomposition tree, prepared for top-down
/// enumeration (pre-order position).
#[derive(Debug)]
struct EnumLevel {
    /// The bag relation, shared with the materialized tree (never
    /// copied: the reduction lives in `rows`).
    rel: Arc<FlatRelation>,
    /// This bag's tree node, and its parent's (`usize::MAX` at the root).
    node: usize,
    parent: usize,
    /// Join index of the edge to the parent (`None` at the root, where
    /// every row is in group 0).
    edge: Option<Arc<EdgeIndex>>,
    /// `rows[start[g]..start[g + 1]]` are the live rows of group `g`, in
    /// ascending row order.
    start: Vec<u32>,
    rows: Vec<u32>,
}

/// A streaming answer enumerator over a semijoin-reduced GHD bag tree
/// (created by [`enumerate_via_ghd`]).
///
/// After the bottom-up reduction every live bag row extends into its
/// whole subtree, and the top-down walk reaches a bag only through its
/// parent's chosen row, so it never backtracks out of a dead end: each
/// [`Iterator::next`] call does `O(tree size)` array lookups
/// (the parent row's group on each edge, then that group's live rows)
/// and row copies, independent of the database — the constant-delay
/// regime of Durand & Grandjean / Carmeli & Kröll, with the `O(‖D‖^k)`
/// work confined to the preprocessing phase.
///
/// Answers are full assignments in `Var` id order (the same shape
/// [`enumerate_naive`] produces) but **not** in sorted order; sort the
/// collected prefix if a canonical order is needed.
#[derive(Debug, Default)]
pub struct GhdEnumerator {
    /// Bags in pre-order (parents before children).
    levels: Vec<EnumLevel>,
    /// Current answer under construction, indexed by `Var` id.
    assignment: Vec<u64>,
    /// Current match-list position per level.
    choice: Vec<usize>,
    /// Row chosen per tree node.
    row: Vec<usize>,
    started: bool,
    done: bool,
}

impl GhdEnumerator {
    /// An enumerator that yields nothing (empty result set).
    fn empty() -> GhdEnumerator {
        GhdEnumerator {
            done: true,
            ..GhdEnumerator::default()
        }
    }

    /// Move level `d` to match-list position `i`, binding the chosen row
    /// into the assignment, then settle all deeper levels on their first
    /// matches. Backtracks on exhaustion; `false` means the walk is done.
    fn search(&mut self, mut d: usize, mut i: usize) -> bool {
        loop {
            let level = &self.levels[d];
            let g = match &level.edge {
                None => 0,
                Some(e) => e.parent_group[self.row[level.parent]] as usize,
            };
            let list: &[u32] = match level.start.get(g..g + 2) {
                Some(&[from, to]) => &level.rows[from as usize..to as usize],
                _ => &[],
            };
            if i < list.len() {
                let r = list[i] as usize;
                for (v, &x) in level.rel.vars().iter().zip(level.rel.row(r)) {
                    self.assignment[v.idx()] = x;
                }
                self.row[level.node] = r;
                self.choice[d] = i;
                if d + 1 == self.levels.len() {
                    return true;
                }
                d += 1;
                i = 0;
            } else {
                // Exhausted at `d` (on a reduced tree this only happens
                // when the whole list is consumed, never on first entry).
                if d == 0 {
                    return false;
                }
                d -= 1;
                i = self.choice[d] + 1;
            }
        }
    }
}

impl Iterator for GhdEnumerator {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Vec<u64>> {
        if self.done {
            return None;
        }
        let found = if self.started {
            let last = self.levels.len() - 1;
            let i = self.choice[last] + 1;
            self.search(last, i)
        } else {
            self.started = true;
            self.search(0, 0)
        };
        if !found {
            self.done = true;
            return None;
        }
        Some(self.assignment.clone())
    }
}

/// Enumerate `q(D)` through a GHD of the query's hypergraph: materialize
/// the bag tree, semijoin-reduce it bottom-up *and* top-down (after which
/// every bag row participates in some answer), then return a
/// [`GhdEnumerator`] streaming the answers with constant delay.
///
/// The stream yields each answer exactly once (bag rows are
/// duplicate-free and an answer determines its row in every bag), in an
/// order fixed by the decomposition tree — collect and sort to compare
/// against [`enumerate_naive`].
pub fn enumerate_via_ghd(
    q: &ConjunctiveQuery,
    db: &Database,
    ghd: &Ghd,
) -> Result<GhdEnumerator, EvalError> {
    Ok(build_bag_tree(q, db, ghd)?.into_enumerator())
}

impl MaterializedBags {
    /// Consuming enumeration preprocessing (reduce the tree both ways,
    /// then index the reduced bags): like [`MaterializedBags::enumerator`]
    /// but rewrites the tree in place, sequentially — the one-shot and
    /// differential-baseline path.
    pub fn into_enumerator(mut self) -> GhdEnumerator {
        if self.relations.is_empty() || !self.semijoin_up_in_place() {
            return GhdEnumerator::empty();
        }
        // Top-down pass (parents filter children): afterwards the tree is
        // globally consistent — every surviving row extends to a full
        // answer.
        let MaterializedBags {
            relations,
            children,
            post_order,
            ..
        } = &mut self;
        for &u in post_order.iter().rev() {
            for &c in &children[u] {
                let filtered = relations[c].semijoin(&relations[u]);
                relations[c] = Arc::new(filtered);
            }
        }
        // The relations changed under any cached edge index: start over
        // (the warm passes then find nothing left to drop).
        self.edges = fresh_edges(self.relations.len());
        self.enumerator()
    }

    /// Wire up a [`GhdEnumerator`] over a bottom-up reduced tree whose
    /// surviving rows are `live`: covered-variable check,
    /// pre-order, and per bag its live rows sorted by group id on the
    /// edge to its parent (a counting sort, so each group lists its rows
    /// in ascending order).
    fn open_enumerator(&self, live: &[LiveRows]) -> GhdEnumerator {
        // Every variable must be carried by some bag; a variable outside
        // all bags (possible only for degenerate hand-built inputs)
        // cannot be assigned, so — like the naive enumerator — there are
        // no answers.
        let mut covered = vec![false; self.num_vars];
        for rel in &self.relations {
            for v in rel.vars() {
                covered[v.idx()] = true;
            }
        }
        if covered.iter().any(|c| !c) {
            return GhdEnumerator::empty();
        }
        // Pre-order over the rooted tree, parents first.
        let n = self.relations.len();
        let mut pre_order = Vec::with_capacity(n);
        let mut stack = vec![self.root];
        while let Some(u) = stack.pop() {
            pre_order.push(u);
            stack.extend(self.children[u].iter().copied());
        }
        // By the running-intersection property, every variable of bag
        // `u` already assigned by an earlier (pre-order) bag also lives
        // in `u`'s parent bag, so the parent's chosen row — through its
        // group on the edge — pins down `u`'s candidate rows.
        let levels: Vec<EnumLevel> = pre_order
            .iter()
            .map(|&u| {
                let rel = Arc::clone(&self.relations[u]);
                let p = self.parents[u];
                let edge = (p != usize::MAX).then(|| Arc::clone(self.edge(u)));
                let group = |r: usize| edge.as_ref().map_or(0, |e| e.child_group[r] as usize);
                let groups = edge.as_ref().map_or(1, |e| e.groups());
                let mut start = vec![0u32; groups + 1];
                live[u].for_each(rel.len(), |r| start[group(r) + 1] += 1);
                for g in 0..groups {
                    start[g + 1] += start[g];
                }
                let mut fill = start.clone();
                let mut rows = vec![0u32; live[u].count];
                live[u].for_each(rel.len(), |r| {
                    let g = group(r);
                    rows[fill[g] as usize] = r as u32;
                    fill[g] += 1;
                });
                EnumLevel {
                    node: u,
                    parent: p,
                    rel,
                    edge,
                    start,
                    rows,
                }
            })
            .collect();
        GhdEnumerator {
            choice: vec![0; levels.len()],
            row: vec![0; n],
            levels,
            assignment: vec![0; self.num_vars],
            started: false,
            done: false,
        }
    }
}

/// Decide BCQ, choosing the GHD route when an exact decomposition is
/// available (small hypergraph) and falling back to naive search.
pub fn bcq_auto(q: &ConjunctiveQuery, db: &Database) -> bool {
    match ghw_decomposition(&q.hypergraph()) {
        // cqd2-lint: allow(panic-in-hot-path, reason = "the GHD was just computed from this query's hypergraph")
        Some(g) => bcq_via_ghd(q, db, &g).expect("ghd is valid for this query"),
        None => bcq_naive(q, db),
    }
}

/// Count answers, choosing the GHD route when possible.
pub fn count_auto(q: &ConjunctiveQuery, db: &Database) -> u128 {
    match ghw_decomposition(&q.hypergraph()) {
        // cqd2-lint: allow(panic-in-hot-path, reason = "the GHD was just computed from this query's hypergraph")
        Some(g) => count_via_ghd(q, db, &g).expect("ghd is valid for this query"),
        None => count_naive(q, db),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DatabaseDelta;
    use crate::generate::{canonical_query, planted_database, random_database};
    use cqd2_hypergraph::generators::{hyperchain, hypercycle};

    fn path_query() -> ConjunctiveQuery {
        ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])])
    }

    #[test]
    fn naive_path_query() {
        let q = path_query();
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2], vec![4, 5]]);
        db.insert_all("S", &[vec![2, 3], vec![2, 9]]);
        assert!(bcq_naive(&q, &db));
        assert_eq!(count_naive(&q, &db), 2);
        let sols = enumerate_naive(&q, &db);
        assert_eq!(sols, vec![vec![1, 2, 3], vec![1, 2, 9]]);
    }

    #[test]
    fn naive_no_solution() {
        let q = path_query();
        let mut db = Database::new();
        db.insert("R", &[1, 2]);
        db.insert("S", &[3, 4]);
        assert!(!bcq_naive(&q, &db));
        assert_eq!(count_naive(&q, &db), 0);
    }

    #[test]
    fn ghd_agrees_with_naive_on_path() {
        let q = path_query();
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2], vec![4, 5], vec![7, 8]]);
        db.insert_all("S", &[vec![2, 3], vec![5, 6]]);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        assert!(bcq_via_ghd(&q, &db, &ghd).unwrap());
        assert_eq!(count_via_ghd(&q, &db, &ghd).unwrap(), 2);
    }

    #[test]
    fn triangle_query_with_planted_solution() {
        let q = ConjunctiveQuery::parse(&[
            ("R", &["?x", "?y"]),
            ("S", &["?y", "?z"]),
            ("T", &["?z", "?x"]),
        ]);
        let db = planted_database(&q, 20, 30, 3);
        assert!(bcq_naive(&q, &db));
        assert!(bcq_auto(&q, &db));
        assert_eq!(count_auto(&q, &db), count_naive(&q, &db));
    }

    #[test]
    fn evaluators_agree_on_random_instances() {
        for seed in 0..8 {
            let h = if seed % 2 == 0 {
                hyperchain(3, 3)
            } else {
                hypercycle(4, 2)
            };
            let q = canonical_query(&h);
            let db = random_database(&q, 6, 25, seed);
            let naive = bcq_naive(&q, &db);
            let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
            let via = bcq_via_ghd(&q, &db, &ghd).unwrap();
            assert_eq!(naive, via, "BCQ mismatch on seed {seed}");
            let cn = count_naive(&q, &db);
            let cg = count_via_ghd(&q, &db, &ghd).unwrap();
            assert_eq!(cn, cg, "#CQ mismatch on seed {seed}");
        }
    }

    #[test]
    fn ghd_route_crosses_the_parallel_threshold() {
        // A database above PARALLEL_BAG_THRESHOLD exercises the scoped-
        // thread materialization path; answers must match a full join
        // computed with the reference row store (the naive backtracker
        // has no index and would need ~n³ work at this size).
        let q = canonical_query(&hyperchain(3, 2));
        let per_relation = PARALLEL_BAG_THRESHOLD / 3 + 256;
        let db = random_database(&q, 1000, per_relation, 11);
        assert!(db.size() >= PARALLEL_BAG_THRESHOLD, "fixture too small");
        let mut joined = crate::relation::VRelation::unit();
        for atom in &q.atoms {
            joined = joined.join(&crate::relation::VRelation::bind(atom, &db));
        }
        let expected = joined.tuples.len() as u128;
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        assert_eq!(bcq_via_ghd(&q, &db, &ghd).unwrap(), expected > 0);
        assert_eq!(count_via_ghd(&q, &db, &ghd).unwrap(), expected);
        // The batch-executor opt-out must force the sequential path and
        // produce identical answers.
        let sequential = with_sequential_bags(|| count_via_ghd(&q, &db, &ghd).unwrap());
        assert_eq!(sequential, expected);
    }

    #[test]
    fn constants_and_repeats_in_evaluation() {
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?x", "5"]), ("S", &["?x", "?y"])]);
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 1, 5], vec![2, 3, 5], vec![4, 4, 6]]);
        db.insert_all("S", &[vec![1, 10], vec![1, 11], vec![4, 12]]);
        assert!(bcq_naive(&q, &db));
        assert_eq!(count_naive(&q, &db), 2); // x=1 with y in {10,11}
        assert_eq!(count_auto(&q, &db), 2);
    }

    #[test]
    fn empty_query_edge_cases() {
        // All-constant atom: acts as an existence check.
        let q = ConjunctiveQuery::parse(&[("R", &["1", "2"])]);
        let mut db = Database::new();
        db.insert("R", &[1, 2]);
        assert!(bcq_naive(&q, &db));
        assert_eq!(count_naive(&q, &db), 1); // the empty assignment
        let mut db2 = Database::new();
        db2.insert("R", &[9, 9]);
        assert!(!bcq_naive(&q, &db2));
    }

    /// Collected-and-sorted view of the streaming enumerator, for
    /// comparisons against `enumerate_naive` (which sorts).
    fn enumerate_ghd_sorted(q: &ConjunctiveQuery, db: &Database, ghd: &Ghd) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = enumerate_via_ghd(q, db, ghd).unwrap().collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn ghd_enumeration_matches_naive_on_path() {
        let q = path_query();
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2], vec![4, 5], vec![7, 8]]);
        db.insert_all("S", &[vec![2, 3], vec![2, 9], vec![5, 6]]);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        assert_eq!(
            enumerate_ghd_sorted(&q, &db, &ghd),
            enumerate_naive(&q, &db)
        );
    }

    #[test]
    fn ghd_enumeration_streams_lazily_and_completely() {
        let q = canonical_query(&hypercycle(5, 2));
        let db = planted_database(&q, 7, 30, 13);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let total = count_via_ghd(&q, &db, &ghd).unwrap();
        assert!(total > 0, "planted instance must have answers");
        // A limited pull sees exactly min(limit, total) answers…
        let mut cursor = enumerate_via_ghd(&q, &db, &ghd).unwrap();
        let first: Vec<_> = cursor.by_ref().take(2).collect();
        assert_eq!(first.len() as u128, total.min(2));
        // …and draining the rest completes the answer set, fused at the end.
        let rest: Vec<_> = cursor.by_ref().collect();
        assert_eq!((first.len() + rest.len()) as u128, total);
        assert_eq!(cursor.next(), None);
        assert_eq!(cursor.next(), None);
    }

    #[test]
    fn ghd_enumeration_empty_results() {
        let q = path_query();
        // Entirely empty database.
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let empty = Database::new();
        assert_eq!(enumerate_via_ghd(&q, &empty, &ghd).unwrap().count(), 0);
        // Non-empty relations that do not join.
        let mut db = Database::new();
        db.insert("R", &[1, 2]);
        db.insert("S", &[3, 4]);
        assert_eq!(enumerate_via_ghd(&q, &db, &ghd).unwrap().count(), 0);
    }

    #[test]
    fn ghd_enumeration_handles_constants_and_repeats() {
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?x", "5"]), ("S", &["?x", "?y"])]);
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 1, 5], vec![2, 3, 5], vec![4, 4, 6]]);
        db.insert_all("S", &[vec![1, 10], vec![1, 11], vec![4, 12]]);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        assert_eq!(
            enumerate_ghd_sorted(&q, &db, &ghd),
            enumerate_naive(&q, &db)
        );
    }

    #[test]
    fn invalid_ghd_is_a_typed_error() {
        let q = path_query();
        let other = canonical_query(&hypercycle(6, 2));
        let foreign = ghw_decomposition(&other.hypergraph()).unwrap();
        let db = Database::new();
        let err = enumerate_via_ghd(&q, &db, &foreign).unwrap_err();
        assert!(matches!(err, EvalError::InvalidGhd(_)), "{err}");
        // The hierarchy is a real `std::error::Error` with a source chain.
        let dyn_err: &dyn std::error::Error = &err;
        assert!(dyn_err.source().is_some());
        assert_eq!(bcq_via_ghd(&q, &db, &foreign).unwrap_err(), err);
    }

    #[test]
    fn cartesian_product_counting() {
        let q = ConjunctiveQuery::parse(&[("R", &["?x"]), ("S", &["?y"])]);
        let mut db = Database::new();
        db.insert_all("R", &[vec![1], vec![2], vec![3]]);
        db.insert_all("S", &[vec![7], vec![8]]);
        assert_eq!(count_naive(&q, &db), 6);
        assert_eq!(count_auto(&q, &db), 6);
    }

    /// The plain recipe: join everything onto `unit()`, project, then
    /// join every assigned atom.
    fn reference_bag(recipe: &BagRecipe, bound: &[FlatRelation]) -> FlatRelation {
        let mut rel = FlatRelation::unit();
        for &ai in &recipe.cover_atoms {
            rel = rel.join(&bound[ai]);
        }
        let keep: Vec<Var> = (recipe.bag_vars.iter().copied())
            .filter(|v| rel.vars().contains(v))
            .collect();
        rel = rel.project(&keep);
        for &ai in &recipe.assigned_atoms {
            rel = rel.join(&bound[ai]);
        }
        rel
    }

    #[test]
    fn materialize_bag_matches_join_everything_reference() {
        // A triangle R, S, T plus U parallel to R.
        let q = ConjunctiveQuery::parse(&[
            ("R", &["?x", "?y"]),
            ("S", &["?y", "?z"]),
            ("T", &["?z", "?x"]),
            ("U", &["?x", "?y"]),
        ]);
        let db = random_database(&q, 5, 40, 3);
        let bound: Vec<FlatRelation> = q.atoms.iter().map(|a| FlatRelation::bind(a, &db)).collect();
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let recipe = |cover: &[usize], bag: &[Var], assigned: &[usize]| BagRecipe {
            cover_atoms: cover.to_vec(),
            bag_vars: bag.to_vec(),
            assigned_atoms: assigned.to_vec(),
        };
        for r in [
            // R is assigned and in the cover; U adds no column.
            recipe(&[0], &[x, y], &[0, 3]),
            // T is covered by R ⋈ S but not in the cover.
            recipe(&[0, 1], &[x, y, z], &[2]),
            // S extends the bag past its cover's columns.
            recipe(&[0], &[x, y, z], &[1]),
            // The cover reaches outside the bag and is projected.
            recipe(&[0, 1], &[y, z], &[1]),
        ] {
            assert_eq!(
                materialize_bag(&r, |ai| &bound[ai]),
                reference_bag(&r, &bound)
            );
        }
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
        for (u, r) in bags.recipes.iter().enumerate() {
            assert_eq!(**bags.bag_arc(u), reference_bag(r, &bound), "bag {u}");
        }
    }

    /// Three-atom chain: R–S–T decomposes into a multi-bag tree, so a
    /// delta to one relation dirties a proper subset of bags.
    fn chain_query() -> ConjunctiveQuery {
        ConjunctiveQuery::parse(&[
            ("R", &["?x", "?y"]),
            ("S", &["?y", "?z"]),
            ("T", &["?z", "?w"]),
        ])
    }

    #[test]
    fn refresh_rebuilds_only_dirty_bags_and_matches_fresh_build() {
        let q = chain_query();
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2], vec![4, 5], vec![7, 8]]);
        db.insert_all("S", &[vec![2, 3], vec![5, 6]]);
        db.insert_all("T", &[vec![3, 30], vec![6, 60], vec![6, 61]]);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
        // Warm the caches with a full pass mix before refreshing.
        assert!(bags.bcq());
        assert!(bags.count() > 0);

        // Delta: grow T, leave R and S untouched.
        let mut delta = DatabaseDelta::new();
        delta.insert("T", vec![3, 31]);
        delta.delete("T", vec![6, 61]);
        let applied = db.apply_delta(&delta).unwrap();
        let (warm, stats) = bags.refresh(&q, &applied.db, &applied.touched);

        // Only the bags reading T were re-materialized.
        assert!(stats.rewritten >= 1, "delta must dirty at least one bag");
        assert!(
            stats.rewritten < stats.total,
            "a single-relation delta must keep some bag clean"
        );
        // Clean bags are shared by Arc identity, dirty ones are not.
        let mut shared = 0;
        for u in 0..bags.num_bags() {
            if Arc::ptr_eq(bags.bag_arc(u), warm.bag_arc(u)) {
                shared += 1;
            }
        }
        assert_eq!(shared, stats.total - stats.rewritten);

        // The refreshed tree answers exactly like a cold rebuild.
        let fresh = MaterializedBags::build(&q, &applied.db, &ghd).unwrap();
        assert_eq!(warm.bcq(), fresh.bcq());
        assert_eq!(warm.count(), fresh.count());
        let mut a: Vec<_> = warm.enumerator().collect();
        let mut b: Vec<_> = fresh.enumerator().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(b, enumerate_naive(&q, &applied.db));
    }

    #[test]
    fn refresh_with_disjoint_delta_shares_everything() {
        let q = chain_query();
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2]]);
        db.insert_all("S", &[vec![2, 3]]);
        db.insert_all("T", &[vec![3, 4]]);
        db.insert_all("Unrelated", &[vec![9]]);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let bags = MaterializedBags::build(&q, &db, &ghd).unwrap();
        let mut delta = DatabaseDelta::new();
        delta.insert("Unrelated", vec![10]);
        let applied = db.apply_delta(&delta).unwrap();
        let (warm, stats) = bags.refresh(&q, &applied.db, &applied.touched);
        assert_eq!(stats.rewritten, 0);
        for u in 0..bags.num_bags() {
            assert!(Arc::ptr_eq(bags.bag_arc(u), warm.bag_arc(u)));
        }
        assert!(warm.bcq());
    }

    #[test]
    fn refresh_carries_clean_caches_and_stays_correct_across_rounds() {
        // Several delta rounds against a planted instance, comparing the
        // warm-refreshed tree against cold rebuilds each round (caches
        // from prior rounds must never leak stale rows into answers).
        let q = chain_query();
        let mut db = planted_database(&q, 40, 120, 17);
        let ghd = ghw_decomposition(&q.hypergraph()).unwrap();
        let mut warm = MaterializedBags::build(&q, &db, &ghd).unwrap();
        for round in 0u64..4 {
            // Warm every cache family: bcq (base_tables), count
            // (leaf_aggs), enumerator (down_tables).
            let _ = warm.bcq();
            let _ = warm.count();
            let _ = warm.enumerator().count();
            let target = if round % 2 == 0 { "R" } else { "S" };
            let mut delta = DatabaseDelta::new();
            delta.insert(target, vec![1000 + round, 2000 + round]);
            if let Some(t) = db.relation(target).and_then(|r| r.tuples.first()) {
                delta.delete(target, t.clone());
            }
            let applied = db.apply_delta(&delta).unwrap();
            let (next, stats) = warm.refresh(&q, &applied.db, &applied.touched);
            assert!(stats.rewritten > 0);
            let fresh = MaterializedBags::build(&q, &applied.db, &ghd).unwrap();
            assert_eq!(next.count(), fresh.count(), "round {round}");
            assert_eq!(next.bcq(), fresh.bcq(), "round {round}");
            assert_eq!(
                next.enumerator().count(),
                fresh.enumerator().count(),
                "round {round}"
            );
            db = applied.db;
            warm = next;
        }
    }
}
