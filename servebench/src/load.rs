//! The closed-loop load: each connection sends its next request only
//! after the previous reply arrived, and checks every answer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cqd2::engine::server::client::Client;
use cqd2::engine::server::wire::WireTrace;
use cqd2::engine::server::ServerError;

use crate::gen::{batch_text, query_text, DeltaPair, Mode, Schedule, Template, Workload};
use crate::oracle::{Oracle, States};
use crate::server::DB;
use crate::Failure;

/// Queries connection B sends between two deltas on `update-mix`.
const QUERIES_PER_DELTA: usize = 4;
/// In a traced run, traced and untraced stretches alternate at this
/// period, so both see the same server state.
const TRACE_BLOCK: Duration = Duration::from_millis(500);

/// Everything a connection needs to build and check its requests.
pub struct Plan<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub templates: &'a [Template],
    /// Each template rendered once; the prepared-cache keys of
    /// `warm-read` and `update-mix`.
    pub texts: &'a [String],
    pub oracle: &'a Oracle,
    pub deltas: &'a DeltaPair,
}

pub struct QuerySample {
    pub mode: Mode,
    /// When the answer arrived.
    pub done: Instant,
    pub rtt_us: f64,
    pub server_us: u64,
    pub cache_hit: bool,
    pub trace: Option<WireTrace>,
}

pub struct DeltaSample {
    /// When the reply arrived.
    pub done: Instant,
    pub rtt_us: f64,
    pub server_us: u64,
    pub bags_remat: u64,
}

/// What one connection did in the timed window.
#[derive(Default)]
pub struct Tally {
    pub queries: Vec<QuerySample>,
    /// Queries sent in untraced stretches of a traced run.
    pub untraced_rtt_us: Vec<f64>,
    pub deltas: Vec<DeltaSample>,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.queries.extend(other.queries);
        self.untraced_rtt_us.extend(other.untraced_rtt_us);
        self.deltas.extend(other.deltas);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1000.0
}

/// One bound load connection. `state` is the database state this
/// connection last moved the server to with a delta.
pub struct Conn {
    client: Client,
    state: usize,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, Failure> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        client.bind_db(DB).map_err(|e| format!("bind {DB}: {e}"))?;
        Ok(Conn { client, state: 0 })
    }

    pub fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    /// Send one query and check its answer. `Ok(None)` is an error frame;
    /// `Err` is a wrong answer or a broken connection, which end the run.
    pub fn query(
        &mut self,
        plan: &Plan<'_>,
        template: usize,
        text: &str,
        mode: Mode,
        states: States,
        trace: bool,
    ) -> Result<Option<QuerySample>, Failure> {
        let batch = batch_text(text, mode, trace);
        let start = Instant::now();
        let reply = self.client.request(&batch);
        let done = Instant::now();
        let rtt_us = micros(done - start);
        let mut reply = match reply {
            Ok(reply) => reply,
            Err(ServerError::Rejected(_)) => return Ok(None),
            Err(e) => return Err(Failure::Error(format!("query request failed: {e}"))),
        };
        let result = match (reply.results.pop(), reply.results.is_empty()) {
            (Some(result), true) => result,
            _ => {
                return Err(Failure::Incorrect(
                    "a single-query batch got other than one result".to_string(),
                ))
            }
        };
        plan.oracle.check(template, mode, states, &result.answer)?;
        Ok(Some(QuerySample {
            mode,
            done,
            rtt_us,
            server_us: result.server_micros,
            cache_hit: result.cache_hit,
            trace: result.trace,
        }))
    }

    /// Send the next delta of the forward/inverse alternation.
    pub fn delta(&mut self, deltas: &DeltaPair) -> Result<Option<DeltaSample>, Failure> {
        let script = if self.state == 0 {
            &deltas.forward_text
        } else {
            &deltas.inverse_text
        };
        let start = Instant::now();
        let reply = self.client.delta(DB, script);
        let done = Instant::now();
        let rtt_us = micros(done - start);
        match reply {
            Ok(applied) => {
                self.state = 1 - self.state;
                Ok(Some(DeltaSample {
                    done,
                    rtt_us,
                    server_us: applied.server_micros,
                    bags_remat: applied.bags_remat,
                }))
            }
            Err(ServerError::Rejected(_)) => Ok(None),
            Err(e) => Err(Failure::Error(format!("delta request failed: {e}"))),
        }
    }

    pub fn state(&self) -> usize {
        self.state
    }

    /// Run the closed loop until `stop` is set. Connection 1 of `update-mix`
    /// alternates one delta with [`QUERIES_PER_DELTA`] queries; every
    /// other connection only queries. With `trace`, requests in every
    /// second [`TRACE_BLOCK`] carry `@trace`.
    pub fn run_window(
        &mut self,
        plan: &Plan<'_>,
        connection: u64,
        start: Instant,
        stop: &AtomicBool,
        trace: bool,
    ) -> Result<Tally, Failure> {
        let mut tally = Tally::default();
        let mut schedule = Schedule::new(plan.seed, connection, plan.templates.len());
        let writer = plan.workload == Workload::UpdateMix && connection == 1;
        let mut index = 0u64;
        while !stop.load(Ordering::Relaxed) {
            tally.attempted += 1;
            if writer && index.is_multiple_of(QUERIES_PER_DELTA as u64 + 1) {
                match self.delta(plan.deltas)? {
                    Some(sample) => tally.deltas.push(sample),
                    None => tally.failed += 1,
                }
                index += 1;
                continue;
            }
            let (template, mode) = schedule.next_request();
            let text = query_text(
                plan.workload,
                plan.templates,
                plan.texts,
                template,
                connection,
                index,
            );
            // Connection 1 knows which state its own last delta left;
            // connection 0 races with it and may see either.
            let states = match plan.workload {
                Workload::UpdateMix if !writer => States::Either,
                _ => States::Only(self.state),
            };
            let traced = trace && (start.elapsed().as_nanos() / TRACE_BLOCK.as_nanos()) % 2 == 1;
            match self.query(plan, template, &text, mode, states, traced)? {
                Some(sample) if trace && !traced => tally.untraced_rtt_us.push(sample.rtt_us),
                Some(sample) => tally.queries.push(sample),
                None => tally.failed += 1,
            }
            index += 1;
        }
        Ok(tally)
    }
}
