//! `serve_reverify`: an in-process `symcosim-serve` daemon on loopback and
//! one closed-loop client speaking its HTTP API.
//!
//! Each round submits a sharded BRANCH job (cold: the daemon has not seen
//! its configuration), waits on its event stream and fetches the
//! certificate; resubmits the identical job (warm: every slice replays the
//! seed store); and submits the same job under the other preset (cold).
//! Every round uses its own job seed, so its first job is cold even though
//! the daemon outlives the round.

use std::io;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use symcosim_core::json::JsonValue;
use symcosim_core::{InstrConstraint, JobSpec};
use symcosim_isa::opcodes;
use symcosim_serve::http::{request, stream_lines};
use symcosim_serve::{Server, ServerConfig};

use crate::trace::Tracer;
use crate::{Opts, Round, Workload};

pub struct ServeReverify {
    addr: String,
    server: JoinHandle<io::Result<()>>,
    workers: usize,
    seed: u64,
    instr_limit: u32,
    slices: usize,
    domain_words: u64,
}

/// One job of a round.
struct Job {
    preset: &'static str,
    /// An identical resubmission of the previous job.
    warm: bool,
}

const ROUND: [Job; 3] = [
    Job {
        preset: "rv32i-only",
        warm: false,
    },
    Job {
        preset: "rv32i-only",
        warm: true,
    },
    Job {
        preset: "table1",
        warm: false,
    },
];

/// How long set-up waits for the daemon to answer `/healthz`.
const READY_TIMEOUT: Duration = Duration::from_secs(10);

fn number(value: &JsonValue, key: &str) -> u64 {
    value.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

impl Workload for ServeReverify {
    fn setup(opts: &Opts, tracer: &mut Tracer) -> Result<ServeReverify, String> {
        let workers = thread::available_parallelism().map_or(1, |n| n.get());
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            verify_workers: workers,
        })
        .map_err(|e| format!("binding the daemon: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("daemon address: {e}"))?
            .to_string();
        let handle = thread::spawn(move || server.run());
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            match request(&addr, "GET", "/healthz", None) {
                Ok(response) if response.status == 200 => break,
                _ if Instant::now() < deadline => thread::sleep(Duration::from_millis(1)),
                _ => return Err("the daemon never answered /healthz".to_string()),
            }
        }
        let (domain_words, _) =
            crate::sweeps::domain_words(InstrConstraint::OnlyOpcode(opcodes::BRANCH), None, tracer);
        Ok(ServeReverify {
            addr,
            server: handle,
            workers,
            seed: opts.seed,
            instr_limit: if opts.smoke { 1 } else { 2 },
            slices: if opts.smoke { 2 } else { 8 },
            domain_words,
        })
    }

    fn teardown(self) -> Result<(), String> {
        request(&self.addr, "POST", "/shutdown", None)
            .map_err(|e| format!("shutting the daemon down: {e}"))?;
        self.server
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?
            .map_err(|e| format!("the daemon failed: {e}"))
    }

    fn round(&mut self, index: u64, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        round.add("serve.workers", self.workers as u64);
        let expected_words = crate::sweeps::words_per_opcode();
        round.check(self.domain_words == expected_words, || {
            format!(
                "BRANCH domain has {} words, expected {expected_words}",
                self.domain_words
            )
        });
        let mut previous_certificate: Option<String> = None;
        for (offset, job) in ROUND.iter().enumerate() {
            let task = index * ROUND.len() as u64 + offset as u64;
            let spec = JobSpec {
                preset: job.preset.to_string(),
                opcode: Some(opcodes::BRANCH),
                instr_limit: self.instr_limit,
                seed: self.seed.wrapping_add(index),
                slices: self.slices,
                ..JobSpec::default()
            };
            round.attempted += 1;
            match self.run_job(&spec, task, tracer, &mut round) {
                Ok((latency, certificate, status)) => {
                    round.verdict += latency;
                    round.time("serve.job_wall", latency);
                    let label = format!(
                        "{} job ({})",
                        job.preset,
                        if job.warm { "warm" } else { "cold" }
                    );
                    println!(
                        "  {label}: submit to certificate {:.3} s",
                        latency.as_secs_f64()
                    );
                    self.check_job(&mut round, &label, &certificate, &status);
                    if job.warm {
                        round.time("serve.warm_job", latency);
                        round.add("serve.warm_slices", number(&status, "warm_slices"));
                        round.add("serve.chain_solves", number(&status, "chain_solves"));
                        round.check(number(&status, "warm_slices") == self.slices as u64, || {
                            format!(
                                "{label}: {} of {} slices warm",
                                number(&status, "warm_slices"),
                                self.slices
                            )
                        });
                        round.check(
                            previous_certificate.as_deref() == Some(certificate.as_str()),
                            || format!("{label}: certificate differs from the cold run's"),
                        );
                    } else if offset == 0 {
                        round.time("serve.cold_job", latency);
                    }
                    previous_certificate = Some(certificate);
                }
                Err(message) => {
                    eprintln!("job failed: {message}");
                    round.failed += 1;
                    previous_certificate = None;
                }
            }
        }
        round
    }
}

impl ServeReverify {
    /// Submits one job, follows its event stream to the end and fetches
    /// the certificate and the final status. Returns the latency from
    /// submission to certificate.
    fn run_job(
        &self,
        spec: &JobSpec,
        task: u64,
        tracer: &mut Tracer,
        round: &mut Round,
    ) -> Result<(Duration, String, JsonValue), String> {
        let start = Instant::now();
        let job_span = tracer.enter("serve.job", task, None);
        let submit_span = tracer.enter("serve.submit", task, job_span);
        let response = request(&self.addr, "POST", "/jobs", Some(&spec.to_json()))
            .map_err(|e| format!("POST /jobs: {e}"))?;
        tracer.exit(submit_span);
        if response.status != 201 {
            return Err(format!(
                "POST /jobs answered {}: {}",
                response.status, response.body
            ));
        }
        let id = JsonValue::parse(&response.body)
            .ok()
            .and_then(|status| status.get("id").and_then(JsonValue::as_u64))
            .ok_or_else(|| format!("no job id in {}", response.body))?;

        let events_span = tracer.enter("serve.events", task, job_span);
        let mut last_slice_done = start;
        let mut slice_events = Vec::new();
        let code = stream_lines(&self.addr, &format!("/jobs/{id}/events"), |line| {
            if line.contains("\"event\":\"worker_done\"") {
                last_slice_done = Instant::now();
                slice_events.push(line.to_string());
            }
        })
        .map_err(|e| format!("GET /jobs/{id}/events: {e}"))?;
        let closed = Instant::now();
        tracer.exit(events_span);
        tracer.record("serve.finalise", task, job_span, last_slice_done, closed);
        if code != 200 {
            return Err(format!("GET /jobs/{id}/events answered {code}"));
        }

        let certificate_span = tracer.enter("serve.certificate", task, job_span);
        let certificate = request(&self.addr, "GET", &format!("/jobs/{id}/certificate"), None)
            .map_err(|e| format!("GET /jobs/{id}/certificate: {e}"))?;
        tracer.exit(certificate_span);
        let latency = start.elapsed();
        tracer.exit(job_span);
        if certificate.status != 200 {
            return Err(format!(
                "job {id}: certificate answered {}: {}",
                certificate.status, certificate.body
            ));
        }

        let status = request(&self.addr, "GET", &format!("/jobs/{id}"), None)
            .map_err(|e| format!("GET /jobs/{id}: {e}"))?;
        let status = JsonValue::parse(&status.body).map_err(|e| format!("job {id} status: {e}"))?;

        for line in &slice_events {
            let event = JsonValue::parse(line).map_err(|e| format!("job {id} event: {e}"))?;
            round.add("sat.solves", number(&event, "solves"));
            round.add("sat.decisions", number(&event, "decisions"));
            round.add("sat.propagations", number(&event, "propagations"));
            round.add("sat.conflicts", number(&event, "conflicts"));
            round.add("chain.slice_hits", number(&event, "chain_slice_hits"));
        }
        let records = number(&status, "paths_complete") + number(&status, "paths_partial");
        let physical = records.saturating_sub(number(&status, "merged_paths"));
        round.count("records", records);
        round.count("physical_paths", physical);
        round.count("findings", number(&status, "findings"));
        round.add("fork.physical_paths", physical);
        round.add("chain.queries", number(&status, "chain_queries"));
        round.add(
            "chain.preflight_hits",
            number(&status, "chain_preflight_hits"),
        );
        round.add("chain.solves", number(&status, "chain_solves"));
        round.add("cache.hits", number(&status, "cache_hits"));
        round.add("cache.misses", number(&status, "cache_misses"));
        round.time(
            "serve.slice_busy",
            Duration::from_millis(number(&status, "busy_ms")),
        );
        Ok((latency, certificate.body, status))
    }

    /// A served job must be done, verdict complete, with every BRANCH word
    /// of every fetch slot certified.
    fn check_job(&self, round: &mut Round, label: &str, certificate: &str, status: &JsonValue) {
        let state = status.get("state").and_then(JsonValue::as_str);
        let verdict = status.get("verdict").and_then(JsonValue::as_str);
        round.check(state == Some("done") && verdict == Some("complete"), || {
            format!("{label}: state {state:?}, verdict {verdict:?}")
        });
        let words = crate::sweeps::words_per_opcode();
        let slots = JsonValue::parse(certificate)
            .ok()
            .and_then(|c| {
                c.get("slots")
                    .and_then(JsonValue::as_array)
                    .map(<[JsonValue]>::to_vec)
            })
            .unwrap_or_default();
        // Taken branches fetch from symbolic targets: more slots than
        // instructions, each holding any BRANCH word.
        round.check(slots.len() >= self.instr_limit as usize, || {
            format!(
                "{label}: {} fetch slots certified, expected at least {}",
                slots.len(),
                self.instr_limit
            )
        });
        for slot in &slots {
            round.check(
                number(slot, "domain_words") == words && number(slot, "certified_words") == words,
                || {
                    format!(
                        "{label}: slot certifies {} of {} words, expected {words}",
                        number(slot, "certified_words"),
                        number(slot, "domain_words")
                    )
                },
            );
        }
    }
}
