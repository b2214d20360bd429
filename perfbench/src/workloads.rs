//! The three named workloads and the inputs each generates from the
//! benchmark seed. The daemon only ever sees the rendered request
//! bodies; the raw traces stay here for the independent cost checks.

use std::fmt::Write as _;

use dwm_trace::synth::{MarkovGen, PhasedGen, TraceGenerator, ZipfGen};

/// Distinct workloads in the `solve_hot` pool.
pub const HOT_POOL: usize = 16;
/// Items per `solve_hot` workload.
pub const HOT_ITEMS: usize = 48;
/// Accesses per `solve_hot` workload.
pub const HOT_LEN: usize = 2_400;

/// Workloads per `solve_cold` request.
pub const COLD_BATCH: usize = 4;
/// Items per `solve_cold` workload.
pub const COLD_ITEMS: usize = 128;
/// Accesses per `solve_cold` workload.
pub const COLD_LEN: usize = 8_000;
/// `solve_cold` batches whose placements make up its `shift_ratio`: a
/// fixed prefix of the request sequence, so the ratio repeats exactly
/// for a seed however many requests a run completes.
pub const COLD_SHIFT_BATCHES: usize = 24;

/// Concurrent sessions in `session_stream`.
pub const SESSIONS: usize = 8;
/// Distinct streams each session slot cycles through, one per round:
/// slot `k` replays stream `k + SESSIONS * (round % STREAM_ROUNDS)`, so
/// `shift_ratio` covers `SESSIONS * STREAM_ROUNDS` streams and every
/// later round repeats a stream whose end state must match. 256 streams
/// rather than 64 keep how many re-placements one seed happens to draw
/// from moving the tail (and `shift_ratio`) between seeds.
pub const STREAM_ROUNDS: usize = 32;
/// Items per session stream.
pub const SESSION_ITEMS: usize = 64;
/// Phases per session stream.
pub const SESSION_PHASES: usize = 4;
/// Accesses per session stream (one round of a session).
pub const SESSION_LEN: usize = 16_384;
/// Accesses per `POST /session/{id}/accesses` chunk.
pub const CHUNK: usize = 256;
/// Ingests per client between two placement reads.
pub const READ_EVERY: usize = 16;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated cache hits on a pre-primed pool (legacy hybrid form).
    SolveHot,
    /// Never-seen tiered batches; every lookup misses.
    SolveCold,
    /// Streaming sessions with periodic placement reads.
    SessionStream,
}

impl Workload {
    /// Every workload: `solve_hot` (run by hand; not in
    /// `BENCHMARK.json`), then the gated two in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SolveHot,
        Workload::SolveCold,
        Workload::SessionStream,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in the output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveHot => "solve_hot",
            Workload::SolveCold => "solve_cold",
            Workload::SessionStream => "session_stream",
        }
    }

    /// Closed-loop clients (connections) driving the workload.
    pub fn clients(self) -> usize {
        match self {
            Workload::SolveCold => 1,
            Workload::SolveHot | Workload::SessionStream => 2,
        }
    }

    /// Shape of the inputs, for the run header.
    pub fn shape(self) -> String {
        match self {
            Workload::SolveHot => format!(
                "pool of {HOT_POOL} workloads, {HOT_ITEMS} items x {HOT_LEN} accesses, \
                 zipf/markov alternating, legacy algorithm=hybrid bodies"
            ),
            Workload::SolveCold => format!(
                "batches of {COLD_BATCH} never-seen workloads, {COLD_ITEMS} items x \
                 {COLD_LEN} accesses, zipf/markov/phased mix, quality=balanced"
            ),
            Workload::SessionStream => format!(
                "{SESSIONS} sessions cycling through {} phased streams of {SESSION_ITEMS} \
                 items x {SESSION_PHASES} phases x {SESSION_LEN} accesses, {CHUNK}-access \
                 ingests, one placement read per {READ_EVERY} ingests",
                SESSIONS * STREAM_ROUNDS
            ),
        }
    }
}

/// splitmix64: derives independent sub-seeds from the benchmark seed.
pub fn derive_seed(master: u64, stream: u64, index: u64) -> u64 {
    let mut z = master
        .wrapping_add(stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn ids_of(gen: &dyn TraceGenerator, len: usize) -> Vec<u32> {
    gen.generate(len)
        .iter()
        .map(|a| u32::try_from(a.item.index()).expect("generated ids fit in u32"))
        .collect()
}

/// Appends `[a,b,c]`.
fn push_ids(out: &mut String, ids: &[u32]) {
    out.push('[');
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{id}").expect("writing to a String cannot fail");
    }
    out.push(']');
}

/// The `solve_hot` pool: traces and their legacy-form bodies.
pub struct HotPool {
    /// Raw id sequence per workload.
    pub traces: Vec<Vec<u32>>,
    /// `{"algorithm":"hybrid","ids":[…]}` per workload.
    pub bodies: Vec<String>,
}

/// Generates the `solve_hot` pool for `seed`.
pub fn hot_pool(seed: u64) -> HotPool {
    let traces: Vec<Vec<u32>> = (0..HOT_POOL)
        .map(|k| {
            let s = derive_seed(seed, 1, k as u64);
            if k % 2 == 0 {
                ids_of(&ZipfGen::new(HOT_ITEMS, s), HOT_LEN)
            } else {
                ids_of(&MarkovGen::new(HOT_ITEMS, 4, s), HOT_LEN)
            }
        })
        .collect();
    let bodies = traces
        .iter()
        .map(|ids| {
            let mut body = String::from(r#"{"algorithm":"hybrid","ids":"#);
            push_ids(&mut body, ids);
            body.push('}');
            body
        })
        .collect();
    HotPool { traces, bodies }
}

/// One `solve_cold` request.
pub struct ColdBatch {
    /// Raw id sequence per workload in the batch.
    pub traces: Vec<Vec<u32>>,
    /// `{"quality":"balanced","workloads":[{"ids":[…]},…]}`.
    pub body: String,
}

/// Generates `solve_cold` request number `index` for `seed`. Workload
/// `g` of the sequence cycles Zipf, Markov, Phased.
pub fn cold_batch(seed: u64, index: usize) -> ColdBatch {
    let traces: Vec<Vec<u32>> = (0..COLD_BATCH)
        .map(|j| {
            let g = (index * COLD_BATCH + j) as u64;
            let s = derive_seed(seed, 2, g);
            match g % 3 {
                0 => ids_of(&ZipfGen::new(COLD_ITEMS, s), COLD_LEN),
                1 => ids_of(&MarkovGen::new(COLD_ITEMS, 8, s), COLD_LEN),
                _ => ids_of(&PhasedGen::new(COLD_ITEMS, 4, s), COLD_LEN),
            }
        })
        .collect();
    let mut body = String::from(r#"{"quality":"balanced","workloads":["#);
    for (j, ids) in traces.iter().enumerate() {
        if j > 0 {
            body.push(',');
        }
        body.push_str(r#"{"ids":"#);
        push_ids(&mut body, ids);
        body.push('}');
    }
    body.push_str("]}");
    ColdBatch { traces, body }
}

/// The `session_stream` streams, indexed as [`stream_of`] says.
pub fn session_streams(seed: u64) -> Vec<Vec<u32>> {
    (0..SESSIONS * STREAM_ROUNDS)
        .map(|k| {
            let s = derive_seed(seed, 3, k as u64);
            ids_of(
                &PhasedGen::new(SESSION_ITEMS, SESSION_PHASES, s),
                SESSION_LEN,
            )
        })
        .collect()
}

/// The ingest body for chunk `chunk` of `stream`.
pub fn chunk_body(stream: &[u32], chunk: usize) -> String {
    let mut body = String::from(r#"{"ids":"#);
    push_ids(&mut body, chunk_ids(stream, chunk));
    body.push('}');
    body
}

/// Chunk `chunk` of `stream`.
pub fn chunk_ids(stream: &[u32], chunk: usize) -> &[u32] {
    let start = chunk * CHUNK;
    &stream[start..(start + CHUNK).min(stream.len())]
}

/// The stream session slot `slot` replays in round `round`.
pub fn stream_of(slot: usize, round: usize) -> usize {
    slot + SESSIONS * (round % STREAM_ROUNDS)
}

/// Chunks per session round.
pub fn chunks_per_round() -> usize {
    SESSION_LEN.div_ceil(CHUNK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(hot_pool(3).bodies, hot_pool(3).bodies);
        assert_ne!(hot_pool(3).bodies, hot_pool(4).bodies);
        assert_eq!(cold_batch(3, 5).body, cold_batch(3, 5).body);
        assert_ne!(cold_batch(3, 5).body, cold_batch(3, 6).body);
        assert_eq!(session_streams(9), session_streams(9));
    }

    #[test]
    fn shapes_match_the_documented_sizes() {
        let pool = hot_pool(1);
        assert_eq!(pool.traces.len(), HOT_POOL);
        assert!(pool.traces.iter().all(|t| t.len() == HOT_LEN));
        let size = pool.bodies.iter().map(String::len).sum::<usize>() / HOT_POOL;
        assert!(
            (4_000..8_000).contains(&size),
            "hot body ~5.6 KB, got {size}"
        );
        let batch = cold_batch(1, 0);
        assert_eq!(batch.traces.len(), COLD_BATCH);
        assert!(batch.traces.iter().all(|t| t.len() == COLD_LEN));
        let streams = session_streams(1);
        assert_eq!(streams.len(), SESSIONS * STREAM_ROUNDS);
        assert_eq!(stream_of(3, 0), 3);
        assert_eq!(stream_of(3, STREAM_ROUNDS + 1), 3 + SESSIONS);
        assert_eq!(chunk_ids(&streams[0], chunks_per_round() - 1).len(), CHUNK);
        assert_eq!(Workload::parse("solve_cold"), Some(Workload::SolveCold));
        assert_eq!(Workload::parse("nope"), None);
    }
}
