//! `verify-dlx`: the full `autopipe verify` path on the DLX design —
//! parse, lint, synth, the 27 obligations at k = 2, then the default
//! 10,000-cycle cosim — once at `-j 1` and once at `-j nproc`.
//!
//! The traced run also replays the obligation batch through the public
//! `verify::bmc` and `verify::sat` calls (clause cache, cached
//! unroller, solver) to split the obligations phase into encode,
//! ingest and solve time, and checks that those layers account for the
//! phases the program's own spans record.

use crate::machine::{self, DLX};
use crate::stats::{ms_since, Samples, Spans};
use crate::{Config, Report};
use autopipe_hdl::{AigLit, Lowered};
use autopipe_synth::{ObligationClass, PipelinedMachine};
use autopipe_trace::Trace;
use autopipe_verify::{
    verify_machine_traced, BmcOutcome, ClauseCache, SatResult, SolveBudget, SolveStats,
    VerificationReport, VerifySettings,
};
use std::time::Instant;

const OBLIGATIONS: usize = 27;
const MAX_K: usize = 2;
const COSIM_CYCLES: u64 = 10_000;
/// Instructions the DLX IMEM program retires in the first 10,000
/// cycles (CPI 1.33) on the seed code.
const COSIM_RETIRED: u64 = 7496;

struct Verified {
    ms: f64,
    report: VerificationReport,
    pm: PipelinedMachine,
}

/// Source text to verdict, as `autopipe verify -j <jobs>` runs it.
fn verify_once(src: &str, jobs: usize, trace: &Trace) -> Result<Verified, String> {
    let t0 = Instant::now();
    let pm = machine::build(src, DLX, trace)?;
    let settings = VerifySettings {
        max_k: MAX_K,
        equiv_writes: 0,
        equiv_depth: 0,
        cosim_cycles: COSIM_CYCLES,
        jobs,
        timeout: None,
    };
    let report = verify_machine_traced(&pm, settings, trace);
    Ok(Verified {
        ms: ms_since(t0),
        report,
        pm,
    })
}

fn proved(o: BmcOutcome) -> bool {
    matches!(o, BmcOutcome::Proved { .. })
}

fn check(rep: &mut Report, v: &Verified, jobs: usize) {
    let r = &v.report;
    let n_proved = r.obligations.iter().filter(|o| proved(o.outcome)).count();
    let cosim = r.cosim.as_ref().map(|c| (c.cycles, c.retired));
    rep.check(
        r.obligations.len() == OBLIGATIONS
            && n_proved == OBLIGATIONS
            && r.ok()
            && r.complete()
            && cosim == Some((COSIM_CYCLES, COSIM_RETIRED)),
        || {
            format!(
                "verify -j {jobs}: {n_proved}/{} proved (want {OBLIGATIONS}/{OBLIGATIONS}), \
cosim (cycles, retired) {cosim:?} (want ({COSIM_CYCLES}, {COSIM_RETIRED})), violation {:?}",
                r.obligations.len(),
                r.cosim_violation
            )
        },
    );
}

pub fn run(cfg: &Config, rep: &mut Report) -> Result<(), String> {
    let src = cfg.source(DLX)?;
    // Set-up: warm the front end (parse, lint, synth) before timing.
    let (setup_s, _) = machine::median_setup(machine::SETUP_REPS, || {
        machine::build(&src, DLX, &Trace::disabled())
    })?;
    rep.set("setup_s", setup_s);
    if cfg.trace {
        return layers(cfg, rep, &src);
    }
    let (mut j1, mut jn) = (Samples::default(), Samples::default());
    let t0 = Instant::now();
    loop {
        for (jobs, samples) in [(1, &mut j1), (cfg.nproc, &mut jn)] {
            let v = verify_once(&src, jobs, &Trace::disabled())?;
            check(rep, &v, jobs);
            samples.push(v.ms);
        }
        if t0.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let (label, tail) = j1.tail();
    rep.set("latency_ms", j1.median());
    rep.set("throughput_per_s", OBLIGATIONS as f64 / (jn.median() / 1e3));
    rep.line(format!(
        "verify-dlx setup_s {setup_s:.6} s (median of {})",
        machine::SETUP_REPS
    ));
    rep.line(format!(
        "verify-dlx verify_s {:.3} s (-j 1, median of {n}; {label} {:.3} s)",
        j1.median() / 1e3,
        tail / 1e3,
        n = j1.len()
    ));
    rep.line(format!(
        "verify-dlx verify_jn_s {:.3} s (-j {}, median of {})",
        jn.median() / 1e3,
        cfg.nproc,
        jn.len()
    ));
    rep.line(format!(
        "verify-dlx obligations_per_s {:.3} 1/s (-j {})",
        OBLIGATIONS as f64 / (jn.median() / 1e3),
        cfg.nproc
    ));
    rep.line(format!(
        "verify-dlx speedup {:.4} (verify_s / verify_jn_s, both from this run)",
        j1.median() / jn.median()
    ));
    Ok(())
}

/// The traced run: one untraced pass at each `-j` (bases for the
/// speedup and the tracing overhead), one traced `-j 1` pass, and the
/// layer replay.
fn layers(cfg: &Config, rep: &mut Report, src: &str) -> Result<(), String> {
    let base = verify_once(src, 1, &Trace::disabled())?;
    check(rep, &base, 1);
    let par = verify_once(src, cfg.nproc, &Trace::disabled())?;
    check(rep, &par, cfg.nproc);
    let trace = Trace::new();
    let traced = verify_once(src, 1, &trace)?;
    check(rep, &traced, 1);
    let spans = Spans(trace.events());
    machine::front_layers(rep, &spans, &traced.pm);
    machine::overhead(rep, "verify -j 1", traced.ms, base.ms);

    // Solver counters the obligation reports already carry.
    let mut work = SolveStats::default();
    for o in &traced.report.obligations {
        work.merge(o.stats);
    }
    rep.set("verify.bmc.frames", work.frames as f64);
    rep.set("verify.bmc.clauses_ingested", work.clauses as f64);
    rep.set("verify.sat.decisions", work.decisions as f64);
    rep.set("verify.sat.propagations", work.propagations as f64);
    rep.set("verify.sat.conflicts", work.conflicts as f64);
    rep.set("verify.sat.attempts", work.attempts as f64);
    let requests = spans.counter_sum("cache", None, "requests");
    rep.set(
        "verify.bmc.cache_hit_ratio",
        spans.counter_sum("cache", None, "hits") / requests.max(1.0),
    );

    let per_ob = spans.durations("obligation");
    let obligations_ms = spans.ms("phase", "obligations");
    let cosim_ms = spans.ms("phase", "cosim");
    rep.set("verify.obligation.p50_ms", per_ob.median());
    rep.set("verify.obligation.max_ms", per_ob.max());
    rep.set("verify.obligations_ms", obligations_ms);
    rep.set(
        "verify.obligations.self_ms",
        spans.self_ms("phase", "obligations", "obligation"),
    );
    rep.set("verify.cosim_ms", cosim_ms);
    if let Some(c) = &traced.report.cosim {
        rep.set("verify.cosim.retired", c.retired as f64);
        rep.set("verify.cosim.cpi", c.cpi());
    }

    // Parallel speedup from two wall times of this run, never from the
    // timing table's task-sum / wall (which measures concurrency).
    let speedup = base.ms / par.ms;
    rep.set("verify.pool.speedup", speedup);
    rep.line(format!(
        "verify.pool.speedup {speedup:.4} (verify_s {:.3} s at -j 1 / verify_jn_s {:.3} s at -j {})",
        base.ms / 1e3,
        par.ms / 1e3,
        cfg.nproc
    ));
    let task_ms: f64 = par
        .report
        .obligations
        .iter()
        .map(|o| o.micros as f64 / 1e3)
        .sum();
    let pool_wall_ms = (par.report.timings.wall_millis - par.report.timings.cosim_millis) as f64;
    rep.set(
        "verify.pool.busy_share",
        task_ms / (pool_wall_ms.max(1.0) * cfg.nproc as f64),
    );

    // Layer replay: lower, encode, ingest, solve.
    let (lower_ms, low) = machine::aig_layer(rep, &traced.pm)?;
    let frames = [
        spans.counter_sum("cache", Some("base"), "encoded"),
        spans.counter_sum("cache", Some("step"), "encoded"),
    ];
    let r = replay(rep, &traced, &low, frames)?;
    if !r.diverged.is_empty() {
        // The program now issues other queries than the replay: its
        // timings would describe the old queries, not the program's.
        rep.line(format!(
            "layer replay diverged from the batch (verdict, decisions or clauses differ) on: {}",
            r.diverged.join(", ")
        ));
        for name in [
            "verify.bmc.encode_ms",
            "verify.bmc.ingest_ms",
            "verify.sat.solve_ms",
            "layers.accounted_share",
        ] {
            rep.omit(name, "the layer replay is stale");
        }
        return Ok(());
    }
    rep.set("verify.bmc.encode_ms", r.encode_ms);
    rep.set("verify.bmc.ingest_ms", r.ingest_ms);
    rep.set("verify.sat.solve_ms", r.solve_ms);

    // Layer accounting: lowering, encode, ingest, solve and cosim
    // should cover the obligations and cosim phases.
    let covered = lower_ms + r.encode_ms + r.ingest_ms + r.solve_ms + cosim_ms;
    let phases = obligations_ms + cosim_ms;
    machine::accounting(rep, "verify-dlx", covered, phases, traced.ms / base.ms);
    Ok(())
}

struct Replay {
    encode_ms: f64,
    ingest_ms: f64,
    solve_ms: f64,
    /// Obligations whose replayed verdict, decisions or ingested clauses
    /// differ from the batch's.
    diverged: Vec<String>,
}

/// Re-discharges every obligation on fresh clause caches through the
/// public encoder, unroller and solver calls, timing each layer. The
/// queries mirror the obligation batch: a 0-induction tautology check
/// for combinational obligations (falling back to k-induction), base
/// case then induction step for inductive ones.
fn replay(
    rep: &mut Report,
    v: &Verified,
    low: &Lowered,
    frames: [f64; 2],
) -> Result<Replay, String> {
    let budget = SolveBudget::unlimited();
    let base = ClauseCache::new(&low.aig, false);
    let step = ClauseCache::new(&low.aig, true);
    // Encode the frames the batch encoded: a cold load encodes and
    // ingests, a second (warm) load only ingests.
    let mut encode_ms = 0.0;
    for (cache, n) in [(&base, frames[0]), (&step, frames[1])] {
        if n < 1.0 {
            continue;
        }
        let last = n as usize - 1;
        let t0 = Instant::now();
        cache.unroller().lit(last, AigLit::FALSE);
        let cold = ms_since(t0);
        let t0 = Instant::now();
        cache.unroller().lit(last, AigLit::FALSE);
        encode_ms += cold - ms_since(t0);
    }

    let (mut ingest_ms, mut solve_ms) = (0.0, 0.0);
    let mut diverged = Vec::new();
    for (ob, want) in v.pm.obligations.iter().zip(&v.report.obligations) {
        let prop = low.net_lits(ob.net)[0];
        let mut work = SolveStats::default();
        // Combinational: tautology over every state first.
        let comb = if ob.class == ObligationClass::Combinational {
            let mut u = step.unroller();
            let t0 = Instant::now();
            let p = u.lit(0, prop);
            ingest_ms += ms_since(t0);
            let t0 = Instant::now();
            let r = u.solver.solve_bounded(&[p.not()], &budget);
            solve_ms += ms_since(t0);
            work.merge(u.work());
            r == SatResult::Unsat
        } else {
            false
        };
        let outcome = if comb {
            BmcOutcome::Proved { k: 0 }
        } else {
            kinduction(&base, &step, prop, &mut ingest_ms, &mut solve_ms, &mut work)
        };
        rep.check(outcome == want.outcome, || {
            format!(
                "replay of `{}`: {outcome:?}, the batch said {:?}",
                ob.name, want.outcome
            )
        });
        if outcome != want.outcome
            || work.decisions != want.stats.decisions
            || work.clauses != want.stats.clauses
        {
            diverged.push(ob.name.clone());
        }
    }
    Ok(Replay {
        encode_ms,
        ingest_ms,
        solve_ms,
        diverged,
    })
}

fn kinduction(
    base: &ClauseCache<'_>,
    step: &ClauseCache<'_>,
    prop: AigLit,
    ingest_ms: &mut f64,
    solve_ms: &mut f64,
    work: &mut SolveStats,
) -> BmcOutcome {
    let budget = SolveBudget::unlimited();
    let mut u = base.unroller();
    for t in 0..=MAX_K {
        let t0 = Instant::now();
        let p = u.lit(t, prop);
        *ingest_ms += ms_since(t0);
        let t0 = Instant::now();
        let r = u.solver.solve_bounded(&[p.not()], &budget);
        *solve_ms += ms_since(t0);
        if r == SatResult::Sat {
            work.merge(u.work());
            return BmcOutcome::Violated { frame: t };
        }
    }
    work.merge(u.work());
    let mut u = step.unroller();
    let mut assumed = Vec::new();
    let mut outcome = BmcOutcome::BoundedOk { depth: MAX_K };
    for k in 0..=MAX_K {
        let t0 = Instant::now();
        let goal = u.lit(k, prop);
        *ingest_ms += ms_since(t0);
        let mut q = assumed.clone();
        q.push(goal.not());
        let t0 = Instant::now();
        let r = u.solver.solve_bounded(&q, &budget);
        *solve_ms += ms_since(t0);
        if r == SatResult::Unsat {
            outcome = BmcOutcome::Proved { k };
            break;
        }
        assumed.push(goal);
    }
    work.merge(u.work());
    outcome
}
