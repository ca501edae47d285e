//! End-to-end benchmark of the symbolic co-simulation.
//!
//! ```text
//! perfbench --workload <op_deep|csr_catalogue|bug_hunt|serve_reverify>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-out <file>]
//! ```
//!
//! Each workload sets up (several times; the median is `setup_s`), then
//! repeats whole rounds of the same tasks until `--seconds` have passed.
//! Every task's output is checked against the paper's tables, the fault
//! catalogue, concrete replay and opcode-mask arithmetic. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (derived from in-memory spans and
//! the program's own counters) with `--trace 1`. See `README.md`.

mod serve;
mod sweeps;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Tracer;

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced inputs for the benchmark's own tests.
    pub smoke: bool,
    pub trace_out: Option<String>,
}

/// Everything one round of a workload produced.
#[derive(Default)]
pub struct Round {
    /// Host time from each task's start to its verdict, summed over the
    /// round's tasks.
    pub verdict: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// Deterministic work counts (identical in every round and run).
    pub counts: BTreeMap<&'static str, u64>,
    /// The program's own counters, summed over the round's tasks.
    pub counters: BTreeMap<&'static str, u64>,
    /// Per-layer times the program reports itself (serve slice busy time)
    /// or that only exist per workload (job latencies).
    pub times: BTreeMap<&'static str, Duration>,
}

impl Round {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn add(&mut self, key: &'static str, value: u64) {
        *self.counters.entry(key).or_insert(0) += value;
    }

    pub fn count(&mut self, key: &'static str, value: u64) {
        *self.counts.entry(key).or_insert(0) += value;
    }

    pub fn time(&mut self, key: &'static str, value: Duration) {
        *self.times.entry(key).or_insert(Duration::ZERO) += value;
    }
}

/// A benchmark workload: set-up work before the first timed task, then
/// rounds of identical tasks.
pub trait Workload: Sized {
    fn setup(opts: &Opts, tracer: &mut Tracer) -> Result<Self, String>;
    fn round(&mut self, index: u64, tracer: &mut Tracer) -> Round;
    /// Releases what set-up acquired (threads, sockets).
    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}

/// Set-up repeats at least this many times and for at least
/// `SETUP_WINDOW`; `setup_s` is the median. One set-up takes well under a
/// millisecond, so a single one is a snapshot of the host's speed at that
/// instant; the window spreads the samples over a steadier stretch.
const SETUP_MIN: usize = 21;
const SETUP_WINDOW: Duration = Duration::from_millis(200);

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload.as_str() {
        "op_deep" => run::<sweeps::OpDeep>(&opts),
        "csr_catalogue" => run::<sweeps::CsrCatalogue>(&opts),
        "bug_hunt" => run::<sweeps::BugHunt>(&opts),
        "serve_reverify" => run::<serve::ServeReverify>(&opts),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            "--trace-out" => opts.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(opts)
}

fn run<W: Workload>(opts: &Opts) -> Result<(), String> {
    let mut tracer = Tracer::new(opts.trace);

    let mut setup_times = Vec::new();
    let mut workload = None;
    let window = Instant::now();
    while setup_times.len() < SETUP_MIN || window.elapsed() < SETUP_WINDOW {
        if let Some(previous) = workload.take() {
            W::teardown(previous)?;
        }
        let start = Instant::now();
        workload = Some(W::setup(opts, &mut tracer)?);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set-up ran at least once");

    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let index = rounds.len() as u64;
        rounds.push(workload.round(index, &mut tracer));
    }
    workload.teardown()?;

    let mut errors: Vec<String> = rounds.iter().flat_map(|r| r.errors.clone()).collect();
    for (index, round) in rounds.iter().enumerate().skip(1) {
        if round.counts != rounds[0].counts || round.counters != rounds[0].counters {
            errors.push(format!(
                "round {index} did different work than round 0: {:?} vs {:?}",
                round.counts, rounds[0].counts
            ));
        }
    }
    for error in &errors {
        eprintln!("CHECK FAILED: {error}");
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();

    let counts = rounds[0]
        .counts
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!("work counts per round: {{{counts}}}");
    println!(
        "rounds: {}, verdict per round [s]: {:?}",
        rounds.len(),
        rounds
            .iter()
            .map(|r| r.verdict.as_secs_f64())
            .collect::<Vec<_>>()
    );

    let verdict_s = median(rounds.iter().map(|r| r.verdict.as_secs_f64()).collect());
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if opts.trace {
        metrics = layer_metrics(&rounds, &tracer, setup_times.len(), verdict_s);
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, tracer.to_json())
                .map_err(|e| format!("writing the trace to {path}: {e}"))?;
        }
    } else {
        metrics.push(("setup_s", median(setup_times), "s"));
        metrics.push(("verdict_s", verdict_s, "s"));
        metrics.push(("peak_rss_mb", peak_rss_mb()?, "MB"));
    }

    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        errors.is_empty()
    );
    Ok(())
}

/// The per-layer metrics of a traced run: times from the spans, counts
/// from the program's own counters, per round.
fn layer_metrics(
    rounds: &[Round],
    tracer: &Tracer,
    setups: usize,
    verdict_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let n = rounds.len() as f64;
    let first = &rounds[0];
    let counter = |key: &str| first.counters.get(key).copied().unwrap_or(0) as f64;
    let per_round = |name: &str| tracer.total(name).as_secs_f64() / n;
    let reported = |key: &str| {
        rounds
            .iter()
            .map(|r| {
                r.times
                    .get(key)
                    .copied()
                    .unwrap_or(Duration::ZERO)
                    .as_secs_f64()
            })
            .sum::<f64>()
            / n
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let records = first.counts.get("records").copied().unwrap_or(0) as f64;
    // Served sessions run inside the server: their exploration time is the
    // slice busy time the server reports.
    let explore_s = per_round("session.run") + reported("serve.slice_busy");
    let workers = counter("serve.workers");
    vec![
        ("session.explore_s", explore_s, "s"),
        ("session.records_per_s", ratio(records, explore_s), "1/s"),
        ("certify.certify_s", per_round("certify.certify"), "s"),
        (
            "certify.domain_s",
            tracer.total("certify.domain").as_secs_f64() / setups as f64,
            "s",
        ),
        ("replay.replay_s", per_round("replay.replay"), "s"),
        (
            "fork.physical_paths",
            counter("fork.physical_paths"),
            "count",
        ),
        (
            "fork.records_per_physical",
            ratio(records, counter("fork.physical_paths")),
            "ratio",
        ),
        ("chain.queries", counter("chain.queries"), "count"),
        (
            "chain.preflight_hits",
            counter("chain.preflight_hits"),
            "count",
        ),
        ("chain.slice_hits", counter("chain.slice_hits"), "count"),
        ("chain.solves", counter("chain.solves"), "count"),
        (
            "chain.kill_ratio",
            ratio(
                counter("chain.queries") - counter("chain.solves"),
                counter("chain.queries"),
            ),
            "ratio",
        ),
        (
            "cache.hit_ratio",
            ratio(
                counter("cache.hits"),
                counter("cache.hits") + counter("cache.misses"),
            ),
            "ratio",
        ),
        ("sat.solves", counter("sat.solves"), "count"),
        ("sat.decisions", counter("sat.decisions"), "count"),
        ("sat.propagations", counter("sat.propagations"), "count"),
        ("sat.conflicts", counter("sat.conflicts"), "count"),
        ("testvec.vectors", counter("testvec.vectors"), "count"),
        ("serve.submit_s", per_round("serve.submit"), "s"),
        ("serve.slice_busy_s", reported("serve.slice_busy"), "s"),
        (
            "serve.parallel_eff",
            ratio(
                reported("serve.slice_busy"),
                workers * reported("serve.job_wall"),
            ),
            "ratio",
        ),
        ("serve.finalise_s", per_round("serve.finalise"), "s"),
        (
            "serve.warm_ratio",
            ratio(reported("serve.warm_job"), reported("serve.cold_job")),
            "ratio",
        ),
        ("serve.warm_slices", counter("serve.warm_slices"), "count"),
        ("serve.chain_solves", counter("serve.chain_solves"), "count"),
        ("trace.verdict_s", verdict_s, "s"),
        ("trace.overhead_s", tracer.cost().as_secs_f64() / n, "s"),
    ]
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
