//! The closed-loop socket phase: priming and measuring each workload
//! against a running daemon, checking every response as it goes.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dwm_foundation::json::Object;
use dwm_foundation::net::{Request, Response};
use dwm_foundation::par;
use dwm_foundation::rng::Rng;
use dwm_serve::engine::ELAPSED_HEADER;
use dwm_serve::ClientConn;

use crate::metrics::{Samples, ShiftTally};
use crate::verify::{
    self, check_session_read, check_solve_result, parse_object, results_portion, PrefixGraph,
};
use crate::workloads::{
    self, chunk_body, chunks_per_round, cold_batch, derive_seed, stream_of, ColdBatch, HotPool,
    CHUNK, COLD_BATCH, COLD_SHIFT_BATCHES, READ_EVERY, SESSIONS, STREAM_ROUNDS,
};

/// Failure messages kept for the report (the count is always exact).
const KEEP_FAILURES: usize = 8;

/// Per-workload answer the traced replay must reproduce:
/// `(fingerprint, cost)` keyed by `(hot pool index, 0)`, `(cold request,
/// workload in it)` or `(session stream, 0)`.
pub type Answers = BTreeMap<(usize, usize), (String, u64)>;

/// What one client (or the whole phase, once merged) observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// Round trip minus server-side handler time (`x-dwm-elapsed-us`),
    /// µs (saturating).
    pub outside_us: Samples,
    /// Requests sent (and checks made on responses).
    pub attempted: u64,
    /// Failed requests and failed checks.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Placement quality over the workload's fixed counting set.
    pub shift: ShiftTally,
    /// Answers for the replay cross-check.
    pub answers: Answers,
    /// `(completion time on the phase clock, client-observed round
    /// trip)` per timed request, ns — the input of
    /// [`crate::metrics::sliced`].
    pub events: Vec<(u64, u64)>,
    /// Start of the phase clock.
    clock: Option<Instant>,
    /// Time the phase clock was stopped (the cold client's gaps).
    paused_ns: u64,
}

impl Observed {
    /// Records one failure.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < KEEP_FAILURES {
            self.failures.push(message);
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Observed) {
        self.outside_us.extend(&other.outside_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(f);
            }
        }
        self.shift.served += other.shift.served;
        self.shift.naive += other.shift.naive;
        self.shift.workloads += other.shift.workloads;
        self.answers.extend(other.answers);
        self.events.extend(other.events);
    }

    /// Starts the phase clock at `at`.
    pub fn start_clock(&mut self, at: Instant) {
        self.clock = Some(at);
    }

    /// Sends `req` and returns the 2xx response body, recording the
    /// round trip when `timed`; transport errors and non-2xx count as
    /// failures.
    fn send(&mut self, conn: &mut ClientConn, req: &Request, timed: bool) -> Option<String> {
        self.attempted += 1;
        let started = Instant::now();
        let resp = conn.request(req);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match resp {
            Ok(r) if r.is_success() => {
                if timed {
                    self.record(ns, &r);
                }
                match String::from_utf8(r.body) {
                    Ok(body) => Some(body),
                    Err(_) => {
                        self.fail(format!("{} {}: body is not UTF-8", req.method, req.path));
                        None
                    }
                }
            }
            Ok(r) => {
                self.fail(format!("{} {} answered {}", req.method, req.path, r.status));
                None
            }
            Err(e) => {
                self.fail(format!("{} {} failed: {e}", req.method, req.path));
                None
            }
        }
    }

    fn record(&mut self, rtt_ns: u64, resp: &Response) {
        let clock = self
            .clock
            .expect("timed requests run on a started phase clock");
        let at = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.events
            .push((at.saturating_sub(self.paused_ns), rtt_ns));
        if let Some(us) = resp
            .header(ELAPSED_HEADER)
            .and_then(|v| v.parse::<u64>().ok())
        {
            self.outside_us.push((rtt_ns / 1_000).saturating_sub(us));
        }
    }

    /// Records `check`'s error, if any.
    pub fn check<T>(&mut self, what: &str, check: Result<T, String>) -> Option<T> {
        check.map_err(|e| self.fail(format!("{what}: {e}"))).ok()
    }
}

fn connect(addr: SocketAddr, obs: &mut Observed) -> Option<ClientConn> {
    match ClientConn::connect(addr) {
        Ok(c) => Some(c),
        Err(e) => {
            obs.fail(format!("cannot connect to {addr}: {e}"));
            None
        }
    }
}

/// Accepted-connection count per acceptor shard, from `/metrics`.
fn shard_accepts(probe: &mut ClientConn) -> Result<Vec<u64>, String> {
    let resp = probe
        .get("/metrics")
        .map_err(|e| format!("metrics scrape failed: {e}"))?;
    let text = resp.body_str().ok_or("metrics body is not UTF-8")?;
    let mut shards: Vec<(usize, u64)> = text
        .lines()
        .filter_map(|l| l.strip_prefix(r#"dwm_net_shard_accepted_total{shard=""#))
        .filter_map(|rest| {
            let (shard, value) = rest.split_once(r#""} "#)?;
            Some((shard.parse().ok()?, value.trim().parse().ok()?))
        })
        .collect();
    shards.sort_unstable();
    Ok(shards.into_iter().map(|(_, v)| v).collect())
}

/// Opens `clients` measuring connections spread evenly over the
/// daemon's acceptor shards, each proven live with `/health`.
///
/// The kernel assigns a connection to one of the daemon's per-core
/// `SO_REUSEPORT` acceptor shards by hashing its source port, so two
/// plain connections share a shard half the time on a two-shard daemon
/// and runs would measure one event loop or two at random. A
/// candidate's shard is read from the `dwm_net_shard_accepted_total`
/// deltas in `/metrics` (scraped over a separate probe connection); a
/// candidate landing on a full shard is closed and replaced. Returns
/// the connections and how many landed on each shard.
pub fn connect_spread(
    addr: SocketAddr,
    clients: usize,
) -> Result<(Vec<ClientConn>, Vec<usize>), String> {
    let open = || -> Result<ClientConn, String> {
        let mut conn = ClientConn::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        match conn.get("/health") {
            Ok(r) if r.status == 200 => Ok(conn),
            Ok(r) => Err(format!("health probe answered {}", r.status)),
            Err(e) => Err(format!("health probe failed: {e}")),
        }
    };
    let mut probe = open()?;
    let mut before = shard_accepts(&mut probe)?;
    let shards = before.len().max(1);
    let per_shard = clients.div_ceil(shards);
    let mut used = vec![0usize; shards];
    let mut conns = Vec::with_capacity(clients);
    for _ in 0..64 * clients {
        if conns.len() == clients {
            break;
        }
        let conn = open()?;
        let after = shard_accepts(&mut probe)?;
        let landed = (0..after.len().min(before.len())).find(|&s| after[s] > before[s]);
        before = after;
        match landed {
            Some(s) if used[s] < per_shard => {
                used[s] += 1;
                conns.push(conn);
            }
            // No shard metrics: nothing to balance against.
            None if shards == 1 => {
                used[0] += 1;
                conns.push(conn);
            }
            _ => {}
        }
    }
    if conns.len() < clients {
        return Err(format!(
            "could not spread {clients} connections over {shards} shards"
        ));
    }
    Ok((conns, used))
}

/// The `solve_hot` references: each pool workload's `"results":…` text
/// as first served.
pub type HotReference = Vec<String>;

/// Primes a fresh daemon with one pass over the hot pool (every request
/// a miss) and returns the answers unchecked, so a set-up clock running
/// around this call times the daemon, not the benchmark's checks.
pub fn prime_hot(addr: SocketAddr, pool: &HotPool, obs: &mut Observed) -> Vec<Option<String>> {
    let Some(mut conn) = connect(addr, obs) else {
        return Vec::new();
    };
    pool.bodies
        .iter()
        .map(|body| obs.send(&mut conn, &Request::post("/solve", body.as_bytes()), false))
        .collect()
}

/// Checks one priming pass's answers: each a single miss whose result
/// passes [`check_solve_result`]. The first priming fixes the reference
/// bytes (and the shift tally and answers); every later one must
/// reproduce them.
pub fn check_hot_priming(
    texts: Vec<Option<String>>,
    pool: &HotPool,
    reference: &mut Option<HotReference>,
    obs: &mut Observed,
) {
    if texts.len() != pool.bodies.len() {
        obs.fail(format!(
            "hot priming answered {} of {} workloads",
            texts.len(),
            pool.bodies.len()
        ));
        return;
    }
    let mut served = Vec::with_capacity(texts.len());
    let mut shift = ShiftTally::default();
    let mut answers = Answers::new();
    for (k, text) in texts.into_iter().enumerate() {
        let Some(text) = text else {
            served.push(String::new());
            continue;
        };
        if !text.starts_with(r#"{"cache":["miss"],"#) {
            obs.fail(format!("hot priming of workload {k} was not a single miss"));
        }
        let checked = parse_object(&text).and_then(|obj| {
            verify::objects(&obj, "results").and_then(|r| match r.as_slice() {
                [one] => check_solve_result(&pool.traces[k], one),
                _ => Err("expected one result".into()),
            })
        });
        if let Some(c) = obs.check(&format!("hot workload {k}"), checked) {
            shift.add(c.cost, c.naive);
            answers.insert((k, 0), (c.fingerprint, c.cost));
        }
        served.push(results_portion(&text).unwrap_or_default().to_owned());
    }
    match reference {
        None => {
            obs.shift = shift;
            obs.answers = answers;
            *reference = Some(served);
        }
        Some(first) => {
            for (k, (a, b)) in first.iter().zip(&served).enumerate() {
                if a != b {
                    obs.fail(format!(
                        "hot workload {k}: a fresh daemon served different bytes"
                    ));
                }
            }
        }
    }
}

/// Measures `solve_hot`: `clients` closed-loop clients pick pool
/// workloads at random until `deadline`; every answer must be a hit
/// whose results are byte-identical to the reference.
pub fn run_hot(
    conns: Vec<ClientConn>,
    seed: u64,
    pool: &HotPool,
    reference: &HotReference,
    seconds: f64,
) -> (Observed, Duration) {
    let requests: Vec<Request> = pool
        .bodies
        .iter()
        .map(|b| Request::post("/solve", b.as_bytes()))
        .collect();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let parts: Vec<Observed> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let requests = &requests;
                s.spawn(move || {
                    let mut obs = Observed::default();
                    obs.start_clock(started);
                    let mut rng = hot_rng(seed, c);
                    while Instant::now() < deadline {
                        let w = rng.gen_range(0..requests.len());
                        let Some(text) = obs.send(&mut conn, &requests[w], true) else {
                            continue;
                        };
                        if !text.starts_with(r#"{"cache":["hit"],"#) {
                            obs.fail(format!("hot workload {w} was not served from cache"));
                        } else if results_portion(&text) != Some(reference[w].as_str()) {
                            obs.fail(format!(
                                "hot workload {w}: results differ from the reference"
                            ));
                        }
                    }
                    obs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hot client panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut all = Observed::default();
    for p in parts {
        all.merge(p);
    }
    (all, elapsed)
}

/// The request-picking RNG of hot client `c` (shared with the replay so
/// both walk the same request sequence).
pub fn hot_rng(seed: u64, c: usize) -> Rng {
    Rng::seed_from_u64(derive_seed(seed, 10, c as u64))
}

/// Requests the cold client renders ahead, and checks after, per pause.
const COLD_CHUNK: usize = 32;

/// Measures `solve_cold`: one closed-loop client sends never-seen
/// batches in sequence. Inputs are rendered [`COLD_CHUNK`] requests at
/// a time and each chunk's answers checked after it, both with the
/// clock stopped and spread over the benchmark's own thread pool, so
/// the measured time is the client's busy time; sending a
/// chunk back to back keeps the daemon from idling between requests.
/// It keeps going past `seconds` until the [`COLD_SHIFT_BATCHES`]
/// prefix that defines `shift_ratio` is done.
pub fn run_cold(mut conn: ClientConn, seed: u64, seconds: f64) -> (Observed, Duration, usize) {
    let mut obs = Observed::default();
    let budget = Duration::from_secs_f64(seconds);
    let mut busy = Duration::ZERO;
    let mut sent = 0;
    let mut idle_since = Instant::now();
    obs.start_clock(idle_since);
    while busy < budget || sent < COLD_SHIFT_BATCHES {
        let indices: Vec<usize> = (sent..sent + COLD_CHUNK).collect();
        let chunk: Vec<ColdBatch> = par::par_map(&indices, |&b| cold_batch(seed, b));
        let requests: Vec<Request> = chunk
            .iter()
            .map(|batch| Request::post("/solve", batch.body.as_bytes()))
            .collect();
        let mut answers = Vec::with_capacity(COLD_CHUNK);
        for req in &requests {
            if busy >= budget && sent + answers.len() >= COLD_SHIFT_BATCHES {
                break;
            }
            let started = Instant::now();
            obs.paused_ns += u64::try_from((started - idle_since).as_nanos()).unwrap_or(u64::MAX);
            answers.push(obs.send(&mut conn, req, true));
            idle_since = Instant::now();
            busy += idle_since - started;
        }
        let done = answers.len();
        let answered: Vec<(&ColdBatch, Option<String>)> = chunk.iter().zip(answers).collect();
        let checks = par::par_map(&answered, |(batch, text)| {
            text.as_deref()
                .map(|text| check_cold_answer(text, &batch.traces))
        });
        for (i, checked) in checks.into_iter().enumerate() {
            let Some(checked) = checked else { continue };
            let b = sent + i;
            if let Some(results) = obs.check(&format!("cold batch {b}"), checked) {
                for (j, c) in results.into_iter().enumerate() {
                    if b < COLD_SHIFT_BATCHES {
                        obs.shift.add(c.cost, c.naive);
                    }
                    obs.answers.insert((b, j), (c.fingerprint, c.cost));
                }
            }
        }
        sent += done;
    }
    (obs, busy, sent)
}

/// Checks one cold answer: every workload a tier-1 miss whose result
/// passes [`check_solve_result`].
fn check_cold_answer(text: &str, traces: &[Vec<u32>]) -> Result<Vec<verify::Checked>, String> {
    let obj = parse_object(text)?;
    let labels = verify::objects(&obj, "cache")?;
    let results = verify::objects(&obj, "results")?;
    if labels.len() != COLD_BATCH || results.len() != COLD_BATCH {
        return Err(format!("expected {COLD_BATCH} labels and results"));
    }
    for label in &labels {
        let status = verify::str_field(label, "status")?;
        let tier = verify::u64_field(label, "tier")?;
        if status != "miss" || tier != 1 {
            return Err(format!(
                "expected a tier-1 miss, got {status} at tier {tier}"
            ));
        }
    }
    traces
        .iter()
        .zip(&results)
        .map(|(ids, r)| check_solve_result(ids, r))
        .collect()
}

/// Creates one session with the default configuration; returns its id.
pub fn create_session(conn: &mut ClientConn, obs: &mut Observed, timed: bool) -> Option<String> {
    let text = obs.send(conn, &Request::post("/session", Vec::new()), timed)?;
    session_id(&text, obs)
}

/// The id in a session-create answer.
fn session_id(text: &str, obs: &mut Observed) -> Option<String> {
    let id = parse_object(text).and_then(|o| verify::str_field(&o, "session").map(str::to_owned));
    obs.check("session create", id)
}

/// Primes a fresh daemon for `session_stream`: creates the sessions and
/// returns the answers unchecked (see [`session_ids`]).
pub fn prime_sessions(addr: SocketAddr, obs: &mut Observed) -> Vec<Option<String>> {
    let Some(mut conn) = connect(addr, obs) else {
        return Vec::new();
    };
    (0..SESSIONS)
        .map(|_| obs.send(&mut conn, &Request::post("/session", Vec::new()), false))
        .collect()
}

/// The session ids in [`prime_sessions`]' answers.
pub fn session_ids(texts: Vec<Option<String>>, obs: &mut Observed) -> Vec<String> {
    texts
        .into_iter()
        .flatten()
        .filter_map(|t| session_id(&t, obs))
        .collect()
}

/// A session body with its leading `"session":"s-N",` member removed,
/// so bodies of different sessions fed the same stream compare equal.
pub fn without_session_id(body: &str) -> Option<&str> {
    let rest = body.strip_prefix(r#"{"session":""#)?;
    let comma = rest.find(',')?;
    Some(&rest[comma + 1..])
}

/// One finished round of a session stream: its final stats and
/// placement bodies (session id stripped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundEnd {
    /// `/session/{id}/stats` body.
    pub stats: String,
    /// `/session/{id}/placement` body.
    pub placement: String,
}

/// A placement read kept for checking after the clock stops.
pub struct Read {
    /// Stream the session was fed.
    pub stream: usize,
    /// The read's body.
    pub body: String,
}

/// The streams of `session_stream`, pre-rendered into ingest bodies.
pub struct Streams {
    /// Raw id sequence per stream.
    pub ids: Vec<Vec<u32>>,
    /// Ingest body per stream and chunk.
    pub chunks: Vec<Vec<Vec<u8>>>,
}

impl Streams {
    /// Generates and renders the streams for `seed`.
    pub fn new(seed: u64) -> Streams {
        let ids = workloads::session_streams(seed);
        let chunks = ids
            .iter()
            .map(|s| {
                (0..chunks_per_round())
                    .map(|c| chunk_body(s, c).into_bytes())
                    .collect()
            })
            .collect();
        Streams { ids, chunks }
    }
}

/// Everything the `session_stream` socket phase produced.
pub struct SessionRun {
    /// Merged observations.
    pub obs: Observed,
    /// Wall time of the measured phase.
    pub elapsed: Duration,
    /// The first finished round of every stream.
    pub rounds: Vec<Option<RoundEnd>>,
}

/// Measures `session_stream`: client `c` drives the session slots `k`
/// with `k % clients == c`, one chunk per turn in round-robin order,
/// and reads a placement every [`READ_EVERY`] ingests. A session that
/// reaches the end of its stream reports its stats and final
/// placement, is closed, and is replaced by a fresh session for the
/// slot's next stream ([`stream_of`]). Once a slot has cycled through
/// its streams it repeats them, and a repeated stream's round end must
/// match its first byte for byte. The phase runs until `seconds` have
/// passed and every stream has finished at least once.
pub fn run_sessions(
    conns: Vec<ClientConn>,
    streams: &Streams,
    ids: &[String],
    seconds: f64,
) -> SessionRun {
    let clients = conns.len();
    let rounds: Mutex<Vec<Option<RoundEnd>>> = Mutex::new(vec![None; SESSIONS * STREAM_ROUNDS]);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let parts: Vec<(Observed, Vec<Read>)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let rounds = &rounds;
                s.spawn(move || {
                    let mut obs = Observed::default();
                    obs.start_clock(started);
                    let mut reads = Vec::new();
                    let mut mine: Vec<SessionCursor> = (0..SESSIONS)
                        .filter(|k| k % clients == c)
                        .filter_map(|k| Some(SessionCursor::new(k, ids.get(k)?.clone())))
                        .collect();
                    let mut ingests = 0usize;
                    let mut turn = 0usize;
                    while !mine.is_empty()
                        && (Instant::now() < deadline
                            || mine.iter().any(|m| m.round < STREAM_ROUNDS))
                        && obs.failed == 0
                    {
                        let slot = turn % mine.len();
                        let cur = &mut mine[slot];
                        turn += 1;
                        cur.ingest(&mut conn, &mut obs, streams);
                        ingests += 1;
                        if ingests.is_multiple_of(READ_EVERY) {
                            let req =
                                Request::new("GET", &format!("/session/{}/placement", cur.id));
                            if let Some(body) = obs.send(&mut conn, &req, true) {
                                reads.push(Read {
                                    stream: cur.stream(),
                                    body,
                                });
                            }
                        }
                        if cur.chunk == chunks_per_round() {
                            cur.finish_round(&mut conn, &mut obs, rounds, &mut reads);
                        }
                    }
                    (obs, reads)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session client panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let rounds = rounds.into_inner().expect("round table poisoned");
    let mut all = Observed::default();
    let mut reads = Vec::new();
    for (obs, r) in parts {
        all.merge(obs);
        reads.extend(r);
    }
    // Reads are checked after the clock stopped, each against the
    // stream prefix it covers, stream by stream in prefix order.
    let mut by_stream: BTreeMap<usize, Vec<(u64, Object)>> = BTreeMap::new();
    for read in &reads {
        all.attempted += 1;
        let parsed =
            parse_object(&read.body).and_then(|o| Ok((verify::u64_field(&o, "accesses")?, o)));
        if let Some(entry) = all.check(&format!("session read of stream {}", read.stream), parsed) {
            by_stream.entry(read.stream).or_default().push(entry);
        }
    }
    for (stream, mut objs) in by_stream {
        objs.sort_by_key(|(accesses, _)| *accesses);
        let mut prefix = PrefixGraph::new(&streams.ids[stream]);
        for (_, obj) in &objs {
            let checked = check_session_read(&mut prefix, obj);
            all.check(&format!("session read of stream {stream}"), checked);
        }
    }
    for (k, round) in rounds.iter().enumerate() {
        let Some(round) = round else {
            all.fail(format!("stream {k} never finished a round"));
            continue;
        };
        let stats = parse_object(&format!(r#"{{"session":"x",{}"#, round.stats));
        let placement = parse_object(&format!(r#"{{"session":"x",{}"#, round.placement));
        let tally = stats.and_then(|s| {
            let served = verify::u64_field(&s, "access_shifts")?
                + verify::u64_field(&s, "migration_shifts")?;
            Ok((served, verify::u64_field(&s, "naive_shifts")?))
        });
        let answer = placement.and_then(|p| {
            Ok((
                verify::str_field(&p, "fingerprint")?.to_owned(),
                verify::u64_field(&p, "cost")?,
            ))
        });
        if let Some((served, naive)) = all.check(&format!("stream {k} stats"), tally) {
            all.shift.add(served, naive);
        }
        if let Some(answer) = all.check(&format!("stream {k} placement"), answer) {
            all.answers.insert((k, 0), answer);
        }
    }
    SessionRun {
        obs: all,
        elapsed,
        rounds,
    }
}

/// One client's view of one session slot.
struct SessionCursor {
    slot: usize,
    round: usize,
    id: String,
    chunk: usize,
}

impl SessionCursor {
    fn new(slot: usize, id: String) -> Self {
        SessionCursor {
            slot,
            round: 0,
            id,
            chunk: 0,
        }
    }

    /// The stream the slot's current session is fed.
    fn stream(&self) -> usize {
        stream_of(self.slot, self.round)
    }

    fn ingest(&mut self, conn: &mut ClientConn, obs: &mut Observed, streams: &Streams) {
        let stream = self.stream();
        let body = streams.chunks[stream][self.chunk].clone();
        let req = Request::post(&format!("/session/{}/accesses", self.id), body);
        self.chunk += 1;
        let Some(text) = obs.send(conn, &req, true) else {
            return;
        };
        let want = (self.chunk * CHUNK).min(streams.ids[stream].len()) as u64;
        let got = parse_object(&text).and_then(|o| verify::u64_field(&o, "accesses"));
        if got != Ok(want) {
            obs.fail(format!(
                "session {}: ingest reported {got:?} accesses, expected {want}",
                self.id
            ));
        }
    }

    /// Stats, final placement, close, and a fresh session for the slot's
    /// next round.
    fn finish_round(
        &mut self,
        conn: &mut ClientConn,
        obs: &mut Observed,
        rounds: &Mutex<Vec<Option<RoundEnd>>>,
        reads: &mut Vec<Read>,
    ) {
        let stats = obs.send(
            conn,
            &Request::new("GET", &format!("/session/{}/stats", self.id)),
            true,
        );
        let placement = obs.send(
            conn,
            &Request::new("GET", &format!("/session/{}/placement", self.id)),
            true,
        );
        if let (Some(stats), Some(placement)) = (stats, placement) {
            let end = without_session_id(&stats).zip(without_session_id(&placement));
            match end {
                Some((s, p)) => {
                    let end = RoundEnd {
                        stats: s.to_owned(),
                        placement: p.to_owned(),
                    };
                    let mut table = rounds.lock().expect("round table poisoned");
                    match &table[self.stream()] {
                        None => table[self.stream()] = Some(end),
                        Some(first) if *first == end => {}
                        Some(_) => obs.fail(format!(
                            "stream {}: a repeated round ended differently from the first",
                            self.stream()
                        )),
                    }
                }
                None => obs.fail(format!("session {}: malformed round-end bodies", self.id)),
            }
            reads.push(Read {
                stream: self.stream(),
                body: placement,
            });
        }
        let close = Request::new("DELETE", &format!("/session/{}", self.id));
        obs.send(conn, &close, true);
        if let Some(id) = create_session(conn, obs, true) {
            self.id = id;
        }
        self.chunk = 0;
        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_ids_are_stripped_from_bodies() {
        assert_eq!(
            without_session_id(r#"{"session":"s-12","items":3}"#),
            Some(r#""items":3}"#)
        );
        assert_eq!(without_session_id(r#"{"items":3}"#), None);
    }
}
