//! The in-process workloads: `op_deep`, `csr_catalogue` and `bug_hunt`.
//! Each calls `VerifySession::run`, `Certificate::certify`,
//! `project_domain` and `replay` directly.

use std::time::{Duration, Instant};

use symcosim_core::{
    project_domain, replay, Certificate, FindingClass, InstrConstraint, SessionConfig, Verdict,
    VerifyReport, VerifySession,
};
use symcosim_isa::{opcodes, Pattern, PatternSet};
use symcosim_microrv32::InjectedError;
use symcosim_symex::SearchStrategy;

use crate::trace::Tracer;
use crate::{Opts, Round, Workload};

/// Bits of an instruction word that hold the major opcode.
const OPCODE_MASK: u32 = 0x7f;

/// Words a fetch slot can hold once its major opcode is fixed, worked out
/// from the opcode mask alone: 2^(32 - 7) = 2^25.
pub fn words_per_opcode() -> u64 {
    1u64 << (32 - OPCODE_MASK.count_ones())
}

/// Projects the legal decode domain (the set-up step every workload
/// shares) and returns its word count.
pub fn domain_words(
    constraint: InstrConstraint,
    slice: Option<Pattern>,
    tracer: &mut Tracer,
) -> (u64, bool) {
    let span = tracer.enter("certify.domain", 0, None);
    let (cubes, exact) = project_domain(constraint, slice);
    tracer.exit(span);
    let mut set = PatternSet::empty();
    for cube in &cubes {
        set.insert(cube);
    }
    (set.count(), exact)
}

/// Folds one session report into the round's counts and counters.
fn add_report(round: &mut Round, report: &VerifyReport) {
    let records = report.total_paths() as u64;
    let physical = records - report.merged_paths as u64;
    round.count("records", records);
    round.count("physical_paths", physical);
    round.count("instructions", report.instructions_executed);
    round.count("cycles", report.cycles);
    round.count("test_vectors", report.test_vectors as u64);
    round.count("findings", report.findings.len() as u64);

    round.add("fork.physical_paths", physical);
    let chain = &report.chain_stats;
    round.add("chain.queries", chain.queries);
    round.add("chain.preflight_hits", chain.preflight_hits);
    round.add("chain.slice_hits", chain.slice_hits);
    round.add("chain.solves", chain.solves);
    round.add("cache.hits", report.query_cache.hits);
    round.add("cache.misses", report.query_cache.misses);
    let sat = &report.solver_stats;
    round.add("sat.solves", sat.solves);
    round.add("sat.decisions", sat.decisions);
    round.add("sat.propagations", sat.propagations);
    round.add("sat.conflicts", sat.conflicts);
    round.add("testvec.vectors", report.test_vectors as u64);
}

/// Runs one session, timed and traced. `None` when the configuration is
/// rejected (the task counts as failed).
fn run_session(
    config: &SessionConfig,
    task: u64,
    tracer: &mut Tracer,
    round: &mut Round,
) -> Option<(VerifyReport, Duration)> {
    let start = Instant::now();
    let span = tracer.enter("session.run", task, None);
    let report = VerifySession::new(config.clone()).map(VerifySession::run);
    tracer.exit(span);
    let elapsed = start.elapsed();
    match report {
        Ok(report) => {
            add_report(round, &report);
            Some((report, elapsed))
        }
        Err(error) => {
            eprintln!("session rejected: {error}");
            round.failed += 1;
            None
        }
    }
}

/// A certified sweep: session start to certificate.
fn certified_sweep(
    config: &SessionConfig,
    task: u64,
    tracer: &mut Tracer,
    round: &mut Round,
) -> Option<(VerifyReport, Certificate)> {
    round.attempted += 1;
    let (report, explored) = run_session(config, task, tracer, round)?;
    let start = Instant::now();
    let span = tracer.enter("certify.certify", task, None);
    let certificate = report.coverage.as_ref().map(Certificate::certify);
    tracer.exit(span);
    round.verdict += explored + start.elapsed();
    match certificate {
        Some(certificate) => Some((report, certificate)),
        None => {
            round.check(false, || "the sweep collected no coverage".to_string());
            None
        }
    }
}

/// Checks a certificate: verdict complete and, per fetch slot, exactly
/// `words` domain words, all of them certified.
fn check_certificate(round: &mut Round, certificate: &Certificate, slots: usize, words: u64) {
    round.check(certificate.verdict == Verdict::Complete, || {
        format!("verdict {} (expected complete)", certificate.verdict)
    });
    round.check(certificate.slots.len() == slots, || {
        format!(
            "{} fetch slots certified (expected {slots})",
            certificate.slots.len()
        )
    });
    for slot in &certificate.slots {
        round.check(
            slot.domain_words == words && slot.certified_words == words,
            || {
                format!(
                    "{}: {}/{} words certified (expected {words})",
                    slot.slot, slot.certified_words, slot.domain_words
                )
            },
        );
    }
}

/// `op_deep`: OP at instruction limit 4 on the corrected models, catalogue
/// mode, certified.
pub struct OpDeep {
    config: SessionConfig,
}

impl Workload for OpDeep {
    fn setup(opts: &Opts, tracer: &mut Tracer) -> Result<OpDeep, String> {
        let limit = if opts.smoke { 2 } else { 4 };
        let mut config = SessionConfig::rv32i_only();
        config.constraint = InstrConstraint::OnlyOpcode(opcodes::OP);
        config.instr_limit = limit;
        config.cycle_limit = 64 * u64::from(limit);
        config.stop_at_first_mismatch = false;
        config.collect_coverage = true;
        config.seed = opts.seed;
        let (words, exact) = domain_words(config.constraint, None, tracer);
        if words != words_per_opcode() || !exact {
            return Err(format!(
                "OP domain has {words} words (exact: {exact}), expected {}",
                words_per_opcode()
            ));
        }
        Ok(OpDeep { config })
    }

    fn round(&mut self, index: u64, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        if let Some((report, certificate)) =
            certified_sweep(&self.config, index, tracer, &mut round)
        {
            round.check(report.findings.is_empty(), || {
                format!("{} findings on corrected models", report.findings.len())
            });
            let slots = self.config.instr_limit as usize;
            check_certificate(&mut round, &certificate, slots, words_per_opcode());
        }
        round
    }
}

/// The SYSTEM/CSR rows of the paper's Table I: (subject, description).
const TABLE1_SYSTEM_ROWS: [(&str, &str); 13] = [
    ("WFI", "Missing WFI instruction"),
    ("mip", "Trap at write access"),
    ("mcycle", "Trap at write access"),
    ("minstret", "Trap at write access"),
    ("mcycleh", "Trap at write access"),
    ("minstreth", "Trap at write access"),
    ("mvendorid", "Missing trap at write"),
    ("marchid", "Missing trap at write"),
    ("mhartid", "Missing trap at write"),
    ("unimpl. CSRs", "Missing trap at access"),
    ("medeleg", "VP traps at medeleg read"),
    ("mideleg", "VP traps at mideleg read"),
    ("mcycle", "Cycle Count Mismatch"),
];

/// `csr_catalogue`: SYSTEM at limit 1 on the shipped MicroRV32 and VP
/// (Table I mode), certified, every witness replayed.
pub struct CsrCatalogue {
    config: SessionConfig,
    smoke: bool,
    words: u64,
}

impl Workload for CsrCatalogue {
    fn setup(opts: &Opts, tracer: &mut Tracer) -> Result<CsrCatalogue, String> {
        let mut config = SessionConfig::table1();
        config.constraint = InstrConstraint::OnlyOpcode(opcodes::SYSTEM);
        config.collect_coverage = true;
        config.seed = opts.seed;
        if opts.smoke {
            // funct3 = 0: ECALL, EBREAK, MRET, WFI and the illegal rest of
            // the privileged space, without the CSR address space.
            config.slice = Some(Pattern::new(0x7000, 0));
        }
        let (words, _) = domain_words(config.constraint, config.slice, tracer);
        Ok(CsrCatalogue {
            config,
            smoke: opts.smoke,
            words,
        })
    }

    fn round(&mut self, index: u64, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        let Some((report, certificate)) = certified_sweep(&self.config, index, tracer, &mut round)
        else {
            return round;
        };
        let expected_words = if self.smoke {
            words_per_opcode() >> 3
        } else {
            words_per_opcode()
        };
        round.check(self.words == expected_words, || {
            format!(
                "SYSTEM domain has {} words, expected {expected_words}",
                self.words
            )
        });
        check_certificate(&mut round, &certificate, 1, expected_words);

        let rows: &[(&str, &str)] = if self.smoke {
            &TABLE1_SYSTEM_ROWS[..1]
        } else {
            &TABLE1_SYSTEM_ROWS
        };
        for (subject, label) in rows {
            let present = report
                .findings
                .iter()
                .any(|f| f.subject == *subject && f.label == *label);
            round.check(present, || {
                format!("Table I row `{subject}: {label}` missing")
            });
        }
        if !self.smoke {
            round.check(
                report
                    .findings
                    .iter()
                    .any(|f| f.label == "unimpl. Unprivileged CSR"),
                || "Table I unprivileged-counter row missing".to_string(),
            );
            let mut iss_errors: Vec<&str> = report
                .findings
                .iter()
                .filter(|f| f.class == FindingClass::IssError)
                .map(|f| f.subject.as_str())
                .collect();
            iss_errors.sort_unstable();
            round.check(iss_errors == ["medeleg", "mideleg"], || {
                format!("ISS errors {iss_errors:?}, expected exactly medeleg and mideleg")
            });
        }

        for finding in &report.findings {
            let Some(witness) = &finding.witness else {
                round.check(false, || format!("`{finding}` has no witness"));
                continue;
            };
            let span = tracer.enter("replay.replay", index, None);
            let rerun = replay(&self.config, witness);
            tracer.exit(span);
            round.check(rerun.mismatch.is_some(), || {
                format!("`{finding}` does not reproduce under concrete replay")
            });
        }
        round
    }
}

/// The injected errors the hunt looks for, with the instruction each one
/// is injected into.
const HUNTS: [(InjectedError, &str); 4] = [
    (InjectedError::E6BneBehavesLikeBeq, "BNE"),
    (InjectedError::E7LbuEndiannessFlip, "LBU"),
    (InjectedError::E8LbNoSignExtension, "LB"),
    (InjectedError::E9LwOnlyLow16, "LW"),
];

/// `bug_hunt`: the paper's Table II setting — corrected models, RV32I
/// only, stop at the first mismatch — for E6–E9 at limit 1 (DFS) and
/// limit 2 (BFS).
pub struct BugHunt {
    hunts: Vec<(SessionConfig, &'static str)>,
}

impl Workload for BugHunt {
    fn setup(opts: &Opts, tracer: &mut Tracer) -> Result<BugHunt, String> {
        let limits: &[u32] = if opts.smoke { &[1] } else { &[1, 2] };
        let errors = if opts.smoke { &HUNTS[..1] } else { &HUNTS[..] };
        let mut hunts = Vec::new();
        for &limit in limits {
            for &(error, instruction) in errors {
                let mut config = SessionConfig::rv32i_only();
                config.inject = Some(error);
                config.instr_limit = limit;
                config.cycle_limit = 64 * u64::from(limit);
                if limit > 1 {
                    // As Table II: depth-first search at limit 2 drains
                    // whole second-instruction subtrees before reaching
                    // later opcodes.
                    config.strategy = SearchStrategy::Bfs;
                }
                config.seed = opts.seed;
                hunts.push((config, instruction));
            }
        }
        // Every instruction but SYSTEM: the domain the hunt draws from.
        let (words, _) = domain_words(InstrConstraint::BlockSystem, None, tracer);
        let expected = (1u64 << 32) - words_per_opcode();
        if words != expected {
            return Err(format!(
                "RV32I-only domain has {words} words, expected {expected}"
            ));
        }
        Ok(BugHunt { hunts })
    }

    fn round(&mut self, index: u64, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        for (hunt, (config, instruction)) in self.hunts.iter().enumerate() {
            let task = index * self.hunts.len() as u64 + hunt as u64;
            round.attempted += 1;
            let Some((report, detect)) = run_session(config, task, tracer, &mut round) else {
                continue;
            };
            round.verdict += detect;
            let name = config.inject.map_or("?", InjectedError::id);
            let limit = config.instr_limit;
            println!(
                "  {name} at limit {limit}: hunt ended after {:.3} s",
                detect.as_secs_f64()
            );
            let Some(finding) = report.first_mismatch() else {
                round.check(false, || format!("{name} at limit {limit} not detected"));
                continue;
            };
            round.check(finding.subject == *instruction, || {
                format!(
                    "{name} at limit {limit} found on {} (injected into {instruction})",
                    finding.subject
                )
            });
            let Some(witness) = &finding.witness else {
                round.check(false, || format!("{name}: finding has no witness"));
                continue;
            };
            let span = tracer.enter("replay.replay", task, None);
            let faulty = replay(config, witness);
            let mut clean_config = config.clone();
            clean_config.inject = None;
            let clean = replay(&clean_config, witness);
            tracer.exit(span);
            round.check(faulty.mismatch.is_some(), || {
                format!("{name}: witness does not reproduce with the fault injected")
            });
            round.check(clean.mismatch.is_none(), || {
                format!("{name}: witness mismatches without the fault")
            });
        }
        round
    }
}
