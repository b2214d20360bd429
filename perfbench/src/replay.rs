//! The traced run: the socket phase's inputs replayed in-process.
//!
//! Each replayed request is first answered by the real
//! [`Engine::handle`] — the `engine.handle` span — and then walked
//! through the same layers by calling their public functions from here
//! (decode, ids, normalize, build, freeze, fingerprint, cache, solve,
//! cost, render, session), each call wrapped in a span whose parent is
//! that request's `engine.handle` span. The walk must produce the very
//! bytes the engine answered, so the layer spans time exactly the work
//! the handler did; whatever the handler spends outside those calls is
//! `engine.unattributed_us`. No code inside the program is traced.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dwm_core::algorithms::standard_suite;
use dwm_core::anytime::{self, AnytimeSolver, Tier};
use dwm_core::{Placement, TopologyCost};
use dwm_device::{Topology, TrackTopology};
use dwm_foundation::json::{Number, Object, Value};
use dwm_foundation::net::Request;
use dwm_foundation::par;
use dwm_graph::fingerprint::fingerprint_csr;
use dwm_graph::{fingerprint_retag, AccessGraph, CsrGraph};
use dwm_serve::cache::{CacheKey, CacheRecord};
use dwm_serve::engine::ANYTIME_ALGORITHM;
use dwm_serve::protocol::{
    opt_str, opt_u64, parse_body, parse_ids, parse_tier_knobs, parse_topology, parse_workloads,
    ProtocolError,
};
use dwm_serve::{Engine, EngineConfig, SessionConfig, SessionState, SolveCache};
use dwm_trace::Trace;

use crate::load::{hot_rng, without_session_id, Answers, Observed, RoundEnd, Streams};
use crate::metrics::{self, par_efficiency, self_time, Samples, Span, TAIL_PCT};
use crate::verify::{self, parse_object, results_portion};
use crate::workloads::{chunks_per_round, cold_batch, stream_of, HotPool, READ_EVERY, SESSIONS};

/// In-memory span recorder shared by every replay thread.
pub struct Tracer {
    epoch: Instant,
    /// `None` for the no-op tracer, which reads no clock and records
    /// nothing (see [`tracing_overhead`]).
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    /// A tracer whose spans cost nothing and are not kept.
    pub fn noop() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: None,
        }
    }

    /// Whether spans are recorded.
    pub fn records(&self) -> bool {
        self.spans.is_some()
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its id.
    pub fn open(&self, name: &'static str, parent: Option<usize>, request_id: u64) -> usize {
        let Some(spans) = &self.spans else {
            return 0;
        };
        let start = self.now();
        let mut spans = spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request_id,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&self, id: usize) {
        if let Some(spans) = &self.spans {
            let end = self.now();
            spans.lock().expect("span list poisoned")[id].end = end;
        }
    }

    /// Runs `f` inside a span; `f` gets the span id for its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: usize,
        request_id: u64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = self.open(name, Some(parent), request_id);
        let out = f(id);
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .map(|s| s.into_inner().expect("span list poisoned"))
            .unwrap_or_default()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Counts made where the work happens.
#[derive(Default)]
pub struct Counters {
    decode_bytes: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
    tiers: [AtomicU64; 3],
}

fn bump(c: &AtomicU64, by: u64) {
    c.fetch_add(by, Ordering::Relaxed);
}

/// One workload of a solve request between keying and rendering.
struct Keyed {
    slot: usize,
    key: CacheKey,
    graph: AccessGraph,
    tier: Option<(Tier, usize)>,
}

/// Walks one `/solve` request through the layers, mirroring the
/// engine's legacy and tiered solve paths. Returns the response body.
fn mirror_solve(
    t: &Tracer,
    root: usize,
    rid: u64,
    body: &[u8],
    cache: &SolveCache,
    counters: &Counters,
) -> Result<String, ProtocolError> {
    let obj = t.span("protocol.decode", root, rid, |_| parse_body(body))?;
    bump(&counters.decode_bytes, body.len() as u64);
    let (knobs, algorithm, seed, topology, workloads) =
        t.span("protocol.ids", root, rid, |_| -> Result<_, ProtocolError> {
            let knobs = parse_tier_knobs(&obj)?;
            let algorithm = match knobs {
                Some(_) => ANYTIME_ALGORITHM.to_owned(),
                None => opt_str(&obj, "algorithm", "hybrid")?,
            };
            let seed = opt_u64(&obj, "seed", 1)?;
            let topology = parse_topology(&obj)?;
            Ok((knobs, algorithm, seed, topology, parse_workloads(&obj)?))
        })?;
    let canonical = topology.canonical();

    let mut labels: Vec<Option<Value>> = Vec::with_capacity(workloads.len());
    let mut results: Vec<Option<Arc<Value>>> = Vec::with_capacity(workloads.len());
    let mut misses: Vec<Keyed> = Vec::new();
    for (slot, ids) in workloads.iter().enumerate() {
        let (graph, fingerprint) = t.span("graph.keying", root, rid, |k| {
            let trace = t.span("trace.normalize", k, rid, |_| {
                Trace::from_ids(ids.iter().copied()).normalize()
            });
            let graph = t.span("graph.build", k, rid, |_| AccessGraph::from_trace(&trace));
            let csr = t.span("graph.freeze", k, rid, |_| CsrGraph::freeze(&graph));
            let fp = t.span("graph.fingerprint", k, rid, |_| {
                fingerprint_retag(fingerprint_csr(&csr, graph.frequencies()), &canonical)
            });
            (graph, fp)
        });
        let key = CacheKey {
            fingerprint,
            algorithm: algorithm.clone(),
            seed,
        };
        let tier = knobs.map(|k| {
            let plan = anytime::plan(
                k.quality,
                k.deadline_us,
                graph.num_items(),
                graph.num_edges(),
            );
            (plan.tier, plan.passes)
        });
        let resident = t.span("cache.lookup", root, rid, |_| cache.get(&key));
        bump(&counters.lookups, 1);
        match resident {
            Some(record) => {
                bump(&counters.hits, 1);
                labels.push(Some(match knobs {
                    Some(_) => cache_label("hit", &record),
                    None => Value::Str("hit".into()),
                }));
                results.push(Some(record.value));
            }
            None => {
                labels.push(None);
                results.push(None);
                misses.push(Keyed {
                    slot,
                    key,
                    graph,
                    tier,
                });
            }
        }
    }

    if !misses.is_empty() {
        let solved = t.span("par.map", root, rid, |p| {
            par::par_map(&misses, |m| {
                let n = m.graph.num_items();
                let (placement, tier, solver) = t.span("core.solve", p, rid, |_| match m.tier {
                    Some((tier, passes)) => {
                        let o = AnytimeSolver::new(seed).solve(&m.graph, tier, passes);
                        (o.placement, Some(o.tier), o.solver.to_owned())
                    }
                    None => {
                        let algo = standard_suite(seed)
                            .into_iter()
                            .find(|a| a.name() == m.key.algorithm)
                            .expect("the benchmark only requests suite algorithms");
                        (algo.place(&m.graph), None, m.key.algorithm.clone())
                    }
                });
                let (naive, cost) = t.span("core.cost_eval", p, rid, |_| {
                    let model = TopologyCost::single_port(topology, n);
                    (
                        model.graph_cost(&Placement::identity(n), &m.graph),
                        model.graph_cost(&placement, &m.graph),
                    )
                });
                let value = result_value(&m.graph, &m.key, &placement, &topology, naive, cost);
                (Arc::new(value), cost, tier, solver)
            })
        });
        for (m, (value, cost, tier, solver)) in misses.into_iter().zip(solved) {
            if let Some(tier) = tier {
                bump(&counters.tiers[usize::from(tier.index()).min(2)], 1);
            }
            let record = CacheRecord::fresh(
                Arc::clone(&value),
                cost,
                tier.map_or(0, Tier::index),
                solver,
            );
            labels[m.slot] = Some(match knobs {
                Some(_) => cache_label("miss", &record),
                None => Value::Str("miss".into()),
            });
            t.span("cache.insert", root, rid, |_| cache.insert(m.key, record));
            results[m.slot] = Some(value);
        }
    }

    Ok(t.span("json.render", root, rid, |_| {
        let mut body = Object::new();
        body.insert(
            "cache",
            Value::Arr(
                labels
                    .into_iter()
                    .map(|l| l.expect("every workload labeled"))
                    .collect(),
            ),
        );
        body.insert(
            "results",
            Value::Arr(
                results
                    .into_iter()
                    .map(|r| (*r.expect("every workload resolved")).clone())
                    .collect(),
            ),
        );
        Value::Obj(body).to_compact()
    }))
}

fn num(v: u64) -> Value {
    Value::Num(Number::U(v))
}

/// The per-workload result object of a solve response.
fn result_value(
    graph: &AccessGraph,
    key: &CacheKey,
    placement: &Placement,
    topology: &Topology,
    naive: u64,
    cost: u64,
) -> Value {
    let reduction = if naive > 0 {
        ((naive - naive.min(cost)) as f64) * 100.0 / naive as f64
    } else {
        0.0
    };
    let mut obj = Object::new();
    obj.insert("fingerprint", Value::Str(key.fingerprint.to_hex()));
    obj.insert("algorithm", Value::Str(key.algorithm.clone()));
    obj.insert("seed", num(key.seed));
    if !topology.is_linear() {
        obj.insert("topology", Value::Str(topology.canonical()));
    }
    obj.insert("items", num(graph.num_items() as u64));
    obj.insert("edges", num(graph.num_edges() as u64));
    obj.insert("naive_cost", num(naive));
    obj.insert("cost", num(cost));
    obj.insert("reduction_percent", Value::Num(Number::F(reduction)));
    obj.insert(
        "placement",
        Value::Arr(placement.offsets().iter().map(|&o| num(o as u64)).collect()),
    );
    Value::Obj(obj)
}

/// The tiered `cache` label of a record.
fn cache_label(status: &str, record: &CacheRecord) -> Value {
    let mut obj = Object::new();
    obj.insert("status", Value::Str(status.into()));
    obj.insert("tier", num(u64::from(record.tier)));
    obj.insert("solver", Value::Str(record.solver.clone()));
    obj.insert("version", num(record.version));
    obj.insert("upgrades", num(record.upgrades));
    Value::Obj(obj)
}

/// Walks one session ingest through the layers.
fn mirror_ingest(
    t: &Tracer,
    root: usize,
    rid: u64,
    body: &[u8],
    state: &mut SessionState,
    sid: &str,
    counters: &Counters,
) -> Result<String, ProtocolError> {
    let obj = t.span("protocol.decode", root, rid, |_| parse_body(body))?;
    bump(&counters.decode_bytes, body.len() as u64);
    let ids = t.span("protocol.ids", root, rid, |_| parse_ids(&obj))?;
    let report = t.span("session.ingest", root, rid, |_| state.ingest(&ids));
    Ok(t.span("json.render", root, rid, |_| {
        let mut b = Object::new();
        b.insert("session", Value::Str(sid.to_owned()));
        b.insert("accepted", num(report.accepted));
        b.insert("new_items", num(report.new_items));
        b.insert("items", num(state.num_items() as u64));
        b.insert("accesses", num(state.totals().accesses));
        b.insert("windows_completed", num(report.windows_completed));
        b.insert("phase_changes", num(report.phase_changes));
        b.insert("replacements", num(report.replacements));
        b.insert("suppressed", num(report.suppressed));
        b.insert("refreezes", num(report.refreezes));
        b.insert("placement_version", num(state.placement_version()));
        Value::Obj(b).to_compact()
    }))
}

/// Walks one session placement read through the layers.
fn mirror_read(t: &Tracer, root: usize, rid: u64, state: &SessionState, sid: &str) -> String {
    let obj = t.span("session.read", root, rid, |_| {
        let mut b = Object::new();
        b.insert("session", Value::Str(sid.to_owned()));
        b.insert("items", num(state.num_items() as u64));
        b.insert("accesses", num(state.totals().accesses));
        b.insert("placement_version", num(state.placement_version()));
        b.insert("fingerprint", Value::Str(state.fingerprint().to_hex()));
        b.insert(
            "ids",
            Value::Arr(state.raw_ids().iter().map(|&r| num(u64::from(r))).collect()),
        );
        b.insert(
            "placement",
            Value::Arr(state.placement().iter().map(|&o| num(o as u64)).collect()),
        );
        b.insert("cost", num(state.current_cost()));
        b.insert("naive_cost", num(state.naive_cost()));
        Value::Obj(b)
    });
    t.span("json.render", root, rid, |_| obj.to_compact())
}

/// Everything a replay produced.
pub struct Replay {
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// Counts made at the layer boundaries.
    pub counters: Counters,
    /// Cache evictions during the replay.
    pub evictions: u64,
    /// Replay-side checks (mirror bytes, cross-checks with the socket).
    pub obs: Observed,
    /// The spans' own cost, percent (see [`tracing_overhead`]).
    pub overhead_pct: f64,
}

/// Share of a replay's time spent measuring [`tracing_overhead`].
const OVERHEAD_SHARE: f64 = 0.2;
/// Fewest walk pairs [`tracing_overhead`] times.
const OVERHEAD_MIN_PAIRS: usize = 20;

/// The cost of the spans themselves, in percent. The same layer walks
/// are timed once under a recording tracer and once under a no-op one,
/// alternating which goes first, until `seconds` pass: `walk(t, i)`
/// runs walk `i` under `t` and returns its duration, and both calls
/// with one `i` must do the same work. Returns the median traced walk
/// over the median untraced one, minus one.
fn tracing_overhead(seconds: f64, mut walk: impl FnMut(&Tracer, usize) -> Duration) -> f64 {
    let (traced, noop) = (Tracer::new(), Tracer::noop());
    let (mut on, mut off) = (Samples::new(), Samples::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < OVERHEAD_MIN_PAIRS || Instant::now() < deadline {
        let order = if i % 2 == 0 {
            [&traced, &noop]
        } else {
            [&noop, &traced]
        };
        for t in order {
            let ns = u64::try_from(walk(t, i).as_nanos()).unwrap_or(u64::MAX);
            if t.records() {
                on.push(ns);
            } else {
                off.push(ns);
            }
        }
        i += 1;
    }
    match (on.p50(), off.p50()) {
        (Some(traced), Some(plain)) if plain > 0 => (traced as f64 / plain as f64 - 1.0) * 100.0,
        _ => 0.0,
    }
}

/// Times one layer walk of a solve body under `t`, its root span
/// included, as the replay records it.
fn timed_solve_walk(t: &Tracer, body: &[u8], cache: &SolveCache, counters: &Counters) -> Duration {
    let started = Instant::now();
    let root = t.open("engine.handle", None, 0);
    let walked = mirror_solve(t, root, 0, body, cache, counters);
    t.close(root);
    let took = started.elapsed();
    drop(walked);
    took
}

/// Shared state of one replay.
struct Run<'a> {
    t: &'a Tracer,
    engine: &'a Engine,
    cache: &'a SolveCache,
    counters: &'a Counters,
    next_rid: AtomicU64,
}

impl Run<'_> {
    /// Answers `req` with the real engine inside an `engine.handle`
    /// span; returns the span id, the request id and the body.
    fn handle(&self, req: &Request) -> (usize, u64, Vec<u8>) {
        let rid = self.next_rid.fetch_add(1, Ordering::Relaxed);
        let root = self.t.open("engine.handle", None, rid);
        let resp = self.engine.handle(req);
        self.t.close(root);
        (root, rid, resp.body)
    }

    /// Handles `req` on the engine and the mirror and compares bytes.
    fn solve(&self, req: &Request, obs: &mut Observed) -> Option<String> {
        let (root, rid, want) = self.handle(req);
        obs.attempted += 1;
        match mirror_solve(self.t, root, rid, &req.body, self.cache, self.counters) {
            Ok(text) if text.as_bytes() == want.as_slice() => Some(text),
            Ok(_) => {
                obs.fail(format!("{}: layer walk and engine disagree", req.path));
                None
            }
            Err(e) => {
                obs.fail(format!("{}: layer walk failed: {e}", req.path));
                None
            }
        }
    }
}

fn engine() -> Engine {
    Engine::with_config(EngineConfig::default())
}

fn new_cache() -> SolveCache {
    SolveCache::new(EngineConfig::default().cache_capacity)
}

/// Cross-checks one replayed solve body's fingerprints and costs
/// against the socket phase's answers under `(index, j)`.
fn cross_check(text: &str, index: usize, answers: &Answers, obs: &mut Observed) -> usize {
    let results = parse_object(text).and_then(|o| {
        verify::objects(&o, "results")?
            .into_iter()
            .map(|r| {
                Ok((
                    verify::str_field(r, "fingerprint")?.to_owned(),
                    verify::u64_field(r, "cost")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()
    });
    let Some(results) = obs.check("replayed body", results) else {
        return 0;
    };
    let mut compared = 0;
    for (j, got) in results.into_iter().enumerate() {
        if let Some(want) = answers.get(&(index, j)) {
            compared += 1;
            if *want != got {
                obs.fail(format!(
                    "replay of ({index},{j}) answered {got:?}, socket {want:?}"
                ));
            }
        }
    }
    compared
}

/// Replays `solve_hot`: the pool primed, then `clients` threads walk the
/// same request sequences as the socket clients until `seconds` pass.
pub fn replay_hot(
    seed: u64,
    pool: &HotPool,
    reference: &[String],
    answers: &Answers,
    clients: usize,
    seconds: f64,
) -> Replay {
    let engine = engine();
    let cache = new_cache();
    let requests: Vec<Request> = pool
        .bodies
        .iter()
        .map(|b| Request::post("/solve", b.as_bytes()))
        .collect();
    let mut obs = Observed::default();
    {
        let scratch = Tracer::new();
        let prime = Run {
            t: &scratch,
            engine: &engine,
            cache: &cache,
            counters: &Counters::default(),
            next_rid: AtomicU64::new(0),
        };
        for (k, req) in requests.iter().enumerate() {
            if let Some(text) = prime.solve(req, &mut obs) {
                if cross_check(&text, k, answers, &mut obs) != 1 {
                    obs.fail(format!("hot workload {k} has no socket answer to compare"));
                }
            }
        }
    }
    let t = Tracer::new();
    let counters = Counters::default();
    let base_evictions = cache.stats().evictions;
    let run = Run {
        t: &t,
        engine: &engine,
        cache: &cache,
        counters: &counters,
        next_rid: AtomicU64::new(0),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - OVERHEAD_SHARE));
    let parts: Vec<Observed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (run, requests) = (&run, &requests);
                s.spawn(move || {
                    let mut obs = Observed::default();
                    let mut rng = hot_rng(seed, c);
                    while Instant::now() < deadline {
                        let w = rng.gen_range(0..requests.len());
                        if let Some(text) = run.solve(&requests[w], &mut obs) {
                            if results_portion(&text) != Some(reference[w].as_str()) {
                                obs.fail(format!(
                                    "replayed hot workload {w} differs from the socket"
                                ));
                            }
                        }
                    }
                    obs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    for p in parts {
        obs.merge(p);
    }
    let evictions = cache.stats().evictions - base_evictions;
    // Every pool workload is resident: each walk is the same hit path.
    let scratch = Counters::default();
    let overhead_pct = tracing_overhead(seconds * OVERHEAD_SHARE, |t, i| {
        timed_solve_walk(t, &requests[i % requests.len()].body, &cache, &scratch)
    });
    Replay {
        spans: t.into_spans(),
        counters,
        evictions,
        obs,
        overhead_pct,
    }
}

/// Replays `solve_cold`: the socket phase's batch sequence from the
/// start, until `seconds` pass. Batches the socket phase also sent are
/// cross-checked workload by workload.
pub fn replay_cold(seed: u64, answers: &Answers, seconds: f64) -> Replay {
    let engine = engine();
    let cache = new_cache();
    let t = Tracer::new();
    let counters = Counters::default();
    let run = Run {
        t: &t,
        engine: &engine,
        cache: &cache,
        counters: &counters,
        next_rid: AtomicU64::new(0),
    };
    let mut obs = Observed::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - OVERHEAD_SHARE));
    let mut compared = 0;
    let mut b = 0;
    while Instant::now() < deadline || b == 0 {
        let batch = cold_batch(seed, b);
        let req = Request::post("/solve", batch.body.into_bytes());
        if let Some(text) = run.solve(&req, &mut obs) {
            compared += cross_check(&text, b, answers, &mut obs);
        }
        b += 1;
    }
    if compared == 0 {
        obs.fail("no replayed cold workload overlapped the socket phase".into());
    }
    let evictions = cache.stats().evictions;
    // Each batch is walked twice, each time into an empty cache, so both
    // walks miss and solve.
    let scratch = Counters::default();
    let mut body: (usize, Vec<u8>) = (usize::MAX, Vec::new());
    let overhead_pct = tracing_overhead(seconds * OVERHEAD_SHARE, |t, i| {
        if body.0 != i {
            body = (i, cold_batch(seed, i).body.into_bytes());
        }
        timed_solve_walk(t, &body.1, &new_cache(), &scratch)
    });
    Replay {
        spans: t.into_spans(),
        counters,
        evictions,
        obs,
        overhead_pct,
    }
}

/// Replays `session_stream`: each thread drives the same sessions in
/// the same order as the matching socket client, on the engine and on
/// its own [`SessionState`]s. Round ends are compared with the socket
/// phase's.
pub fn replay_sessions(
    streams: &Streams,
    rounds: &[Option<RoundEnd>],
    clients: usize,
    seconds: f64,
) -> Replay {
    let engine = engine();
    let cache = new_cache();
    let t = Tracer::new();
    let counters = Counters::default();
    let run = Run {
        t: &t,
        engine: &engine,
        cache: &cache,
        counters: &counters,
        next_rid: AtomicU64::new(0),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - OVERHEAD_SHARE));
    let parts: Vec<(Observed, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let run = &run;
                s.spawn(move || replay_session_client(run, streams, rounds, clients, c, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut obs = Observed::default();
    let mut compared = 0;
    for (p, n) in parts {
        obs.merge(p);
        compared += n;
    }
    if compared == 0 {
        obs.fail("no replayed session round finished to compare".into());
    }
    let overhead_pct = session_overhead(streams, seconds * OVERHEAD_SHARE);
    Replay {
        spans: t.into_spans(),
        counters,
        evictions: 0,
        obs,
        overhead_pct,
    }
}

/// [`tracing_overhead`] of the session layer walks: two sessions fed the
/// same chunks, one walked under each tracer, with a placement read
/// every [`READ_EVERY`] ingests.
fn session_overhead(streams: &Streams, seconds: f64) -> f64 {
    let per = chunks_per_round();
    let scratch = Counters::default();
    let fresh = || SessionState::new(SessionConfig::default());
    let mut states = [fresh(), fresh()];
    tracing_overhead(seconds, |t, i| {
        let state = &mut states[usize::from(t.records())];
        let (stream, chunk) = ((i / per) % streams.chunks.len(), i % per);
        if chunk == 0 {
            *state = fresh();
        }
        let body = &streams.chunks[stream][chunk];
        let started = Instant::now();
        let root = t.open("engine.handle", None, 0);
        let walked = mirror_ingest(t, root, 0, body, state, "s-0", &scratch);
        t.close(root);
        if (i + 1).is_multiple_of(READ_EVERY) {
            let root = t.open("engine.handle", None, 0);
            mirror_read(t, root, 0, state, "s-0");
            t.close(root);
        }
        let took = started.elapsed();
        drop(walked);
        took
    })
}

fn create(engine: &Engine, obs: &mut Observed) -> Option<String> {
    let resp = engine.handle(&Request::post("/session", Vec::new()));
    let id = std::str::from_utf8(&resp.body)
        .map_err(|e| e.to_string())
        .and_then(parse_object)
        .and_then(|o| verify::str_field(&o, "session").map(str::to_owned));
    obs.check("replayed session create", id)
}

fn replay_session_client(
    run: &Run<'_>,
    streams: &Streams,
    rounds: &[Option<RoundEnd>],
    clients: usize,
    c: usize,
    deadline: Instant,
) -> (Observed, usize) {
    let mut obs = Observed::default();
    let mut compared = 0;
    // (slot, round, engine session id, mirrored state, next chunk)
    let mut mine: Vec<(usize, usize, String, SessionState, usize)> = Vec::new();
    for slot in (0..SESSIONS).filter(|k| k % clients == c) {
        let Some(id) = create(run.engine, &mut obs) else {
            return (obs, 0);
        };
        mine.push((slot, 0, id, SessionState::new(SessionConfig::default()), 0));
    }
    let mut ingests = 0usize;
    let mut turn = 0usize;
    while !mine.is_empty() && Instant::now() < deadline && obs.failed == 0 {
        let at = turn % mine.len();
        turn += 1;
        let (slot, round, id, state, chunk) = &mut mine[at];
        let stream = stream_of(*slot, *round);
        let body = streams.chunks[stream][*chunk].clone();
        *chunk += 1;
        let req = Request::post(&format!("/session/{id}/accesses"), body);
        let (root, rid, want) = run.handle(&req);
        obs.attempted += 1;
        match mirror_ingest(run.t, root, rid, &req.body, state, id, run.counters) {
            Ok(text) if text.as_bytes() == want.as_slice() => {}
            Ok(_) => obs.fail(format!("session {id}: ingest walk and engine disagree")),
            Err(e) => obs.fail(format!("session {id}: ingest walk failed: {e}")),
        }
        ingests += 1;
        if ingests.is_multiple_of(READ_EVERY) {
            let (root, rid, want) =
                run.handle(&Request::new("GET", &format!("/session/{id}/placement")));
            obs.attempted += 1;
            if mirror_read(run.t, root, rid, state, id).as_bytes() != want.as_slice() {
                obs.fail(format!("session {id}: read walk and engine disagree"));
            }
        }
        if *chunk == chunks_per_round() {
            let get = |path: String| run.engine.handle(&Request::new("GET", &path)).body;
            let stats = get(format!("/session/{id}/stats"));
            let placement = get(format!("/session/{id}/placement"));
            let end = std::str::from_utf8(&stats)
                .ok()
                .and_then(without_session_id)
                .zip(
                    std::str::from_utf8(&placement)
                        .ok()
                        .and_then(without_session_id),
                );
            obs.attempted += 1;
            match (end, &rounds[stream]) {
                (Some((s, p)), Some(socket)) if s == socket.stats && p == socket.placement => {
                    compared += 1;
                }
                (_, None) => {}
                _ => obs.fail(format!(
                    "stream {stream}: replayed round end differs from the socket"
                )),
            }
            run.engine
                .handle(&Request::new("DELETE", &format!("/session/{id}")));
            let Some(fresh) = create(run.engine, &mut obs) else {
                break;
            };
            *id = fresh;
            *state = SessionState::new(SessionConfig::default());
            *chunk = 0;
            *round += 1;
        }
    }
    (obs, compared)
}

/// One per-layer metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// Median of `samples` in µs (0 when empty).
fn p50_us(samples: &mut Samples) -> f64 {
    samples.p50().map_or(0.0, |ns| ns as f64 / 1e3)
}

/// Derives the per-layer metrics from a replay and the socket phase.
/// `net.rtt_us_p95` is percentile [`TAIL_PCT`] of the socket round
/// trips, as in `latency_p95_us`; too few of them for it is a failure.
pub fn layer_metrics(
    replay: &Replay,
    socket: &mut Observed,
    session_counts: [u64; 5],
    threads: usize,
) -> Vec<Metric> {
    let spans = &replay.spans;
    let mut by_name: HashMap<&str, Samples> = HashMap::new();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        by_name.entry(s.name).or_default().push(s.duration());
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut dur = |name: &str| by_name.remove(name).unwrap_or_default();
    let mut handle = dur("engine.handle");
    let mut decode = dur("protocol.decode");
    let mut solve = dur("core.solve");
    let mut par_map = dur("par.map");

    let mut unattributed: Vec<i64> = Vec::new();
    let mut keying = Samples::new();
    let mut par_self = Samples::new();
    for (i, s) in spans.iter().enumerate() {
        let kids: Vec<&Span> = children[i].iter().map(|&c| &spans[c]).collect();
        match s.name {
            "engine.handle" if !kids.is_empty() => {
                let layers: u64 = kids.iter().map(|k| k.duration()).sum();
                unattributed.push(s.duration() as i64 - layers as i64);
            }
            "graph.keying" => keying.push(kids.iter().map(|k| k.duration()).sum()),
            "par.map" => par_self.push(self_time(s, &kids)),
            _ => {}
        }
    }
    unattributed.sort_unstable();
    let unattributed_us =
        metrics::percentile(&unattributed, 5_000).map_or(0.0, |ns| ns as f64 / 1e3);

    let c = &replay.counters;
    let lookups = c.lookups.load(Ordering::Relaxed);
    let hits = c.hits.load(Ordering::Relaxed);
    let decode_ns = decode.sum();
    let decode_mb_s = if decode_ns > 0 {
        c.decode_bytes.load(Ordering::Relaxed) as f64 * 1e3 / decode_ns as f64
    } else {
        0.0
    };
    let handle_p50 = p50_us(&mut handle);
    let mut rtt: Samples = socket.events.iter().map(|&(_, ns)| ns).collect();
    let rtt_tail = rtt.tail_at(TAIL_PCT).map_or_else(
        || {
            socket.fail(format!(
                "{} socket requests cannot support a {}; run longer",
                rtt.len(),
                metrics::pct_label(TAIL_PCT)
            ));
            0.0
        },
        |ns| ns as f64 / 1e3,
    );
    let outside = socket.outside_us.p50().map_or(0.0, |us| us as f64);
    let tier = |i: usize| c.tiers[i].load(Ordering::Relaxed) as f64;

    vec![
        ("net.rtt_us_p50", "us", p50_us(&mut rtt)),
        ("net.rtt_us_p95", "us", rtt_tail),
        ("net.outside_handler_us_p50", "us", outside),
        ("net.failed", "count", socket.failed as f64),
        ("engine.requests", "count", handle.len() as f64),
        ("engine.handle_us_p50", "us", handle_p50),
        ("engine.unattributed_us_p50", "us", unattributed_us),
        ("protocol.decode_us_p50", "us", p50_us(&mut decode)),
        ("protocol.decode_mb_s", "MB/s", decode_mb_s),
        (
            "protocol.ids_us_p50",
            "us",
            p50_us(&mut dur("protocol.ids")),
        ),
        (
            "trace.normalize_us_p50",
            "us",
            p50_us(&mut dur("trace.normalize")),
        ),
        ("graph.build_us_p50", "us", p50_us(&mut dur("graph.build"))),
        (
            "graph.freeze_us_p50",
            "us",
            p50_us(&mut dur("graph.freeze")),
        ),
        (
            "graph.fingerprint_us_p50",
            "us",
            p50_us(&mut dur("graph.fingerprint")),
        ),
        ("graph.keying_us_p50", "us", p50_us(&mut keying)),
        (
            "cache.lookup_us_p50",
            "us",
            p50_us(&mut dur("cache.lookup")),
        ),
        (
            "cache.insert_us_p50",
            "us",
            p50_us(&mut dur("cache.insert")),
        ),
        ("cache.lookups", "count", lookups as f64),
        (
            "cache.hit_ratio",
            "ratio",
            if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                0.0
            },
        ),
        ("cache.evictions", "count", replay.evictions as f64),
        ("core.solve_us_p50", "us", p50_us(&mut solve)),
        (
            "core.cost_eval_us_p50",
            "us",
            p50_us(&mut dur("core.cost_eval")),
        ),
        ("core.solves_tier0", "count", tier(0)),
        ("core.solves_tier1", "count", tier(1)),
        ("core.solves_tier2", "count", tier(2)),
        ("par.map_us_p50", "us", p50_us(&mut par_map)),
        ("par.self_us_p50", "us", p50_us(&mut par_self)),
        (
            "par.efficiency",
            "ratio",
            par_efficiency(solve.sum(), par_map.sum(), threads).unwrap_or(0.0),
        ),
        ("json.render_us_p50", "us", p50_us(&mut dur("json.render"))),
        (
            "session.ingest_us_p50",
            "us",
            p50_us(&mut dur("session.ingest")),
        ),
        (
            "session.read_us_p50",
            "us",
            p50_us(&mut dur("session.read")),
        ),
        ("session.windows", "count", session_counts[0] as f64),
        ("session.phase_changes", "count", session_counts[1] as f64),
        ("session.replacements", "count", session_counts[2] as f64),
        ("session.suppressed", "count", session_counts[3] as f64),
        ("session.refreezes", "count", session_counts[4] as f64),
        ("tracing.overhead_pct", "%", replay.overhead_pct),
        ("tracing.spans", "count", spans.len() as f64),
    ]
}

/// Writes `spans` as a JSON array of `{id, name, start, end, parent,
/// request_id}` objects (times in ns since the trace epoch).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            r#"{{"id":{i},"name":"{}","start":{},"end":{},"parent":{parent},"request_id":{}}}{sep}"#,
            s.name, s.start, s.end, s.request_id
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}

/// Sums the session counters over every stream's first round, from the
/// socket phase's stats bodies: windows, phase changes, replacements,
/// suppressed, refreezes.
pub fn session_counts(rounds: &[Option<RoundEnd>]) -> Result<[u64; 5], String> {
    let mut totals = [0u64; 5];
    for round in rounds.iter().flatten() {
        let stats = parse_object(&format!(r#"{{"session":"x",{}"#, round.stats))?;
        for (slot, key) in [
            "windows",
            "phase_changes",
            "replacements",
            "suppressed",
            "refreezes",
        ]
        .iter()
        .enumerate()
        {
            totals[slot] += verify::u64_field(&stats, key)?;
        }
    }
    Ok(totals)
}
