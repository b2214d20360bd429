//! End-to-end benchmark of the `dwmplace serve` placement daemon.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve_hot --seed 7 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against the real daemon
//! over loopback; `--trace 1` gives the per-layer breakdown from a short
//! socket phase plus a traced in-process replay. Every response is
//! checked; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod daemon;
mod load;
mod metrics;
mod replay;
mod verify;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use daemon::{Daemon, THREADS};
use load::Observed;
use metrics::{pct_label, Samples, TAIL_PCT};
use workloads::{Workload, COLD_BATCH, COLD_SHIFT_BATCHES, HOT_POOL, SESSIONS, STREAM_ROUNDS};

/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Share of a traced run spent in its socket phase (the rest replays).
const TRACE_SOCKET_SHARE: f64 = 0.4;

const USAGE: &str = "usage: perfbench --workload <solve_hot|solve_cold|session_stream> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric: name, unit, value, sample note.
struct Line {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

fn line(name: &'static str, unit: &'static str, value: f64, note: impl Into<String>) -> Line {
    Line {
        name,
        unit,
        value,
        note: note.into(),
    }
}

/// Spawns the daemon `reps` times and runs `prime` on each, timing
/// both; `check` then verifies the priming result with the clock
/// stopped. Keeps the last daemon (and its checked priming result) for
/// measuring and drains the others. Returns the set-up times too.
fn set_up<T, U>(
    exe: &Path,
    reps: usize,
    obs: &mut Observed,
    mut prime: impl FnMut(&Daemon, &mut Observed) -> T,
    mut check: impl FnMut(T, &mut Observed) -> U,
) -> Result<(Daemon, U, Samples), String> {
    let mut setups = Samples::new();
    for rep in 0..reps {
        let started = Instant::now();
        let daemon = Daemon::spawn(exe)?;
        let primed = prime(&daemon, obs);
        setups.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let checked = check(primed, obs);
        if rep + 1 == reps {
            return Ok((daemon, checked, setups));
        }
        daemon.drain()?;
    }
    Err("no set-up repetitions".into())
}

/// The measuring connections, spread over the daemon's acceptor shards.
fn spread(daemon: &Daemon, clients: usize) -> Result<Vec<dwm_serve::ClientConn>, String> {
    let (conns, per_shard) = load::connect_spread(daemon.addr, clients)?;
    println!("  connections: {clients}, per acceptor shard {per_shard:?}");
    Ok(conns)
}

/// Final daemon checks: still alive, its peak RSS, a clean drain.
fn finish(mut daemon: Daemon, obs: &mut Observed) -> f64 {
    if let Err(e) = daemon.ensure_alive() {
        obs.fail(e);
    }
    let rss = daemon.peak_rss_mb().unwrap_or_else(|e| {
        obs.fail(e);
        0.0
    });
    if let Err(e) = daemon.drain() {
        obs.fail(e);
    }
    rss
}

/// The end-to-end run (`--trace 0`).
fn end_to_end(args: &Args, exe: &Path) -> Result<(Observed, Vec<Line>), String> {
    let mut obs = Observed::default();
    let clients = args.workload.clients();
    let (mut setups, elapsed, rss, counted) = match args.workload {
        Workload::SolveHot => {
            let pool = workloads::hot_pool(args.seed);
            let mut reference = None;
            let (daemon, (), setups) = set_up(
                exe,
                SETUP_REPS,
                &mut obs,
                |d, obs| load::prime_hot(d.addr, &pool, obs),
                |texts, obs| load::check_hot_priming(texts, &pool, &mut reference, obs),
            )?;
            let reference = reference.ok_or("hot priming produced no reference")?;
            let conns = spread(&daemon, clients)?;
            let (run, elapsed) = load::run_hot(conns, args.seed, &pool, &reference, args.seconds);
            obs.merge(run);
            let rss = finish(daemon, &mut obs);
            (setups, elapsed, rss, format!("{HOT_POOL} pool workloads"))
        }
        Workload::SolveCold => {
            let (daemon, (), setups) = set_up(exe, SETUP_REPS, &mut obs, |_, _| {}, |(), _| {})?;
            let conn = spread(&daemon, clients)?.pop().ok_or("no connection")?;
            let (run, busy, batches) = load::run_cold(conn, args.seed, args.seconds);
            obs.merge(run);
            let rss = finish(daemon, &mut obs);
            println!(
                "  cold requests: {batches} batches, {} workloads",
                batches * COLD_BATCH
            );
            let counted = format!(
                "first {COLD_SHIFT_BATCHES} requests ({} workloads)",
                COLD_SHIFT_BATCHES * COLD_BATCH
            );
            (setups, busy, rss, counted)
        }
        Workload::SessionStream => {
            let streams = load::Streams::new(args.seed);
            let (daemon, ids, setups) = set_up(
                exe,
                SETUP_REPS,
                &mut obs,
                |d, obs| load::prime_sessions(d.addr, obs),
                load::session_ids,
            )?;
            let conns = spread(&daemon, clients)?;
            let run = load::run_sessions(conns, &streams, &ids, args.seconds);
            obs.merge(run.obs);
            let rss = finish(daemon, &mut obs);
            (
                setups,
                run.elapsed,
                rss,
                format!("{} streams", SESSIONS * STREAM_ROUNDS),
            )
        }
    };
    let requests = obs.events.len();
    let secs = elapsed.as_secs_f64();
    let timing = metrics::sliced(
        &obs.events,
        u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        TAIL_PCT,
    );
    let (slices, throughput, p50_ns, tail_ns) = match timing {
        Ok(t) => (t.slices, t.throughput, t.p50_ns, t.tail_ns),
        Err(e) => {
            obs.fail(e);
            (0, 0.0, 0, 0)
        }
    };
    let per = format!("{requests} requests in {secs:.3} s");
    let sliced = format!("{per}, median of {slices} slice(s)");
    let lines = vec![
        line(
            "setup_s",
            "s",
            setups.p50().unwrap_or(0) as f64 / 1e9,
            format!("median of {} set-ups", setups.len()),
        ),
        line("throughput_rps", "1/s", throughput, sliced.clone()),
        line(
            "latency_p50_us",
            "us",
            p50_ns as f64 / 1e3,
            format!("p50, {sliced}"),
        ),
        line(
            "latency_p95_us",
            "us",
            tail_ns as f64 / 1e3,
            format!("{} of all {per}", pct_label(TAIL_PCT)),
        ),
        line(
            "error_rate",
            "ratio",
            obs.failed as f64 / obs.attempted.max(1) as f64,
            format!("{} failed / {} attempted", obs.failed, obs.attempted),
        ),
        line(
            "shift_ratio",
            "ratio",
            obs.shift.ratio().unwrap_or(0.0),
            format!(
                "{} / {} shifts, {counted}",
                obs.shift.served, obs.shift.naive
            ),
        ),
        line(
            "peak_rss_mb",
            "MB",
            rss,
            "daemon VmHWM at the end of the run",
        ),
    ];
    Ok((obs, lines))
}

/// The traced run (`--trace 1`).
fn traced(args: &Args, exe: &Path) -> Result<(Observed, Vec<Line>), String> {
    let mut obs = Observed::default();
    let clients = args.workload.clients();
    let socket_secs = args.seconds * TRACE_SOCKET_SHARE;
    let replay_secs = args.seconds - socket_secs;
    let (mut socket, replay, counts) = match args.workload {
        Workload::SolveHot => {
            let pool = workloads::hot_pool(args.seed);
            let mut reference = None;
            let (daemon, (), _) = set_up(
                exe,
                1,
                &mut obs,
                |d, obs| load::prime_hot(d.addr, &pool, obs),
                |texts, obs| load::check_hot_priming(texts, &pool, &mut reference, obs),
            )?;
            let reference = reference.ok_or("hot priming produced no reference")?;
            let conns = spread(&daemon, clients)?;
            let (run, _) = load::run_hot(conns, args.seed, &pool, &reference, socket_secs);
            finish(daemon, &mut obs);
            let answers = std::mem::take(&mut obs.answers);
            let replay =
                replay::replay_hot(args.seed, &pool, &reference, &answers, clients, replay_secs);
            (run, replay, [0; 5])
        }
        Workload::SolveCold => {
            let (daemon, (), _) = set_up(exe, 1, &mut obs, |_, _| {}, |(), _| {})?;
            let conn = spread(&daemon, clients)?.pop().ok_or("no connection")?;
            let (run, _, _) = load::run_cold(conn, args.seed, socket_secs);
            finish(daemon, &mut obs);
            let replay = replay::replay_cold(args.seed, &run.answers, replay_secs);
            (run, replay, [0; 5])
        }
        Workload::SessionStream => {
            let streams = load::Streams::new(args.seed);
            let (daemon, ids, _) = set_up(
                exe,
                1,
                &mut obs,
                |d, obs| load::prime_sessions(d.addr, obs),
                load::session_ids,
            )?;
            let conns = spread(&daemon, clients)?;
            let run = load::run_sessions(conns, &streams, &ids, socket_secs);
            finish(daemon, &mut obs);
            let counts = replay::session_counts(&run.rounds)?;
            let replay = replay::replay_sessions(&streams, &run.rounds, clients, replay_secs);
            (run.obs, replay, counts)
        }
    };
    // One file per workload, overwritten by its next traced run, so
    // repeated runs cannot fill the disk.
    let spans_path =
        daemon::repo_root().join(format!("perfbench/out/spans-{}.json", args.workload.name()));
    replay::write_spans(&spans_path, &replay.spans)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    println!(
        "  spans: {} written to {}",
        replay.spans.len(),
        spans_path.display()
    );
    let rtt_n = socket.events.len();
    let metrics = replay::layer_metrics(&replay, &mut socket, counts, THREADS);
    let handled = replay
        .spans
        .iter()
        .filter(|s| s.name == "engine.handle")
        .count();
    let lines = metrics
        .into_iter()
        .map(|(name, unit, value)| {
            let note = if name.starts_with("net.") {
                format!("socket, {rtt_n} requests")
            } else if name.starts_with("session.") && unit == "count" {
                "socket, first round of every stream".to_owned()
            } else if name == "tracing.overhead_pct" {
                "layer walks, recording vs no-op tracer, p50".to_owned()
            } else {
                format!("replay, {handled} requests")
            };
            line(name, unit, value, note)
        })
        .collect();
    obs.merge(socket);
    obs.merge(replay.obs);
    Ok((obs, lines))
}

fn print_header(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  shape: {}", args.workload.shape());
    println!(
        "  load: {} closed-loop client(s), one connection each",
        args.workload.clients()
    );
    println!(
        "  nproc {nproc}, commit {}, sources {}, daemon: DWM_THREADS={THREADS} dwmplace {}",
        daemon::commit(),
        daemon::source_digest(),
        daemon::flags().join(" ")
    );
}

fn json_result(obs: &Observed, lines: &[Line]) -> String {
    let metrics: Vec<String> = lines
        .iter()
        .filter(|l| l.name != "error_rate")
        .map(|l| {
            let v = if l.value.is_finite() { l.value } else { 0.0 };
            format!(r#""{}":{{"value":{v:?},"unit":"{}"}}"#, l.name, l.unit)
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        obs.failed == 0,
        obs.attempted.max(1),
        obs.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The benchmark's own solver pool matches the daemon's.
    let _threads = dwm_foundation::par::override_threads(THREADS);
    let exe = match daemon::build() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    print_header(&args);
    let started = Instant::now();
    let outcome = if args.trace {
        traced(&args, &exe)
    } else {
        end_to_end(&args, &exe)
    };
    let (obs, lines) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{:<28} {:>16} {:<6} samples", "metric", "value", "unit");
    for l in &lines {
        println!("{:<28} {:>16.4} {:<6} {}", l.name, l.value, l.unit, l.note);
    }
    for f in &obs.failures {
        println!("  FAILED: {f}");
    }
    println!("  wall time {:.1} s", started.elapsed().as_secs_f64());
    // `error_rate` is printed above; in the result line it is carried by
    // `attempted`/`failed` (a metric that is 0 on healthy code has no
    // relative bound).
    println!("{}", json_result(&obs, &lines));
    if obs.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
