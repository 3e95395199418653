//! `cosim-dlx`: the consistency checker (`verify::Cosim`, default
//! backend) runs the DLX design's looping IMEM program against the
//! sequential machine, checking every cycle. The unit of work is the
//! default `verify --cycles` run: 10,000 cycles from reset on a freshly
//! built checker. No solver runs; `hdl` simulation and the cosim
//! checks do the work.

use crate::machine::{self, DLX};
use crate::stats::{ms_since, Samples, Spans};
use crate::{Config, Report};
use autopipe_hdl::Backend;
use autopipe_psm::SequentialMachine;
use autopipe_synth::PipelinedMachine;
use autopipe_trace::Trace;
use autopipe_verify::{Cosim, CosimStats};
use std::time::Instant;

const CYCLES: u64 = 10_000;
/// Instructions retired in the first 10,000 cycles on the seed code.
const RETIRED: u64 = 7496;
/// Prefix over which the default backend must agree with `interp`.
const PREFIX: u64 = 2_000;

/// One unit: a fresh checker (not timed) running [`CYCLES`] cycles
/// (timed).
fn unit(pm: &PipelinedMachine) -> Result<(f64, CosimStats), String> {
    let mut cosim = Cosim::new(pm).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let stats = cosim
        .run(CYCLES)
        .map_err(|e| format!("consistency violation: {e}"))?
        .clone();
    Ok((ms_since(t0), stats))
}

fn check(rep: &mut Report, s: &CosimStats) {
    rep.check(s.cycles == CYCLES && s.retired == RETIRED, || {
        format!(
            "cosim: {} retired in {} cycles (want {RETIRED} in {CYCLES})",
            s.retired, s.cycles
        )
    });
}

fn prefix(pm: &PipelinedMachine, backend: Backend) -> Result<CosimStats, String> {
    let mut cosim = Cosim::with_backend(pm, backend).map_err(|e| e.to_string())?;
    cosim
        .run(PREFIX)
        .cloned()
        .map_err(|e| format!("consistency violation on {backend}: {e}"))
}

pub fn run(cfg: &Config, rep: &mut Report) -> Result<(), String> {
    let src = cfg.source(DLX)?;
    // Set-up: compile, synth and simulator build.
    let (setup_s, pm) = machine::median_setup(machine::SETUP_REPS, || {
        let pm = machine::build(&src, DLX, &Trace::disabled())?;
        Cosim::new(&pm).map_err(|e| e.to_string())?;
        Ok(pm)
    })?;
    rep.set("setup_s", setup_s);
    if cfg.trace {
        layers(rep, &src, &pm)?;
    } else {
        let mut times = Samples::default();
        let t0 = Instant::now();
        while times.len() == 0 || t0.elapsed().as_secs_f64() < cfg.seconds {
            let (ms, stats) = unit(&pm)?;
            check(rep, &stats);
            times.push(ms);
        }
        let cycles_per_s = (times.len() as u64 * CYCLES) as f64 / (times.sum() / 1e3);
        let (label, tail) = times.tail();
        rep.set("latency_ms", times.median());
        rep.set("throughput_per_s", cycles_per_s);
        rep.line(format!(
            "cosim-dlx setup_s {setup_s:.6} s (median of {})",
            machine::SETUP_REPS
        ));
        rep.line(format!(
            "cosim-dlx cosim_cycles_per_s {cycles_per_s:.1} cycles/s ({} runs of {CYCLES} cycles; \
median {:.3} ms, {label} {tail:.3} ms)",
            times.len(),
            times.median()
        ));
    }
    let (auto, interp) = (prefix(&pm, Backend::Auto)?, prefix(&pm, Backend::Interp)?);
    rep.check(auto == interp, || {
        format!("default backend and interp disagree over {PREFIX} cycles: {auto:?} vs {interp:?}")
    });
    Ok(())
}

fn layers(rep: &mut Report, src: &str, pm: &PipelinedMachine) -> Result<(), String> {
    let build = |trace: &Trace| {
        let t0 = Instant::now();
        machine::build(src, DLX, trace).map(|_| ms_since(t0))
    };
    let mut untraced = Samples::default();
    for _ in 0..3 {
        untraced.push(build(&Trace::disabled())?);
    }
    let trace = Trace::new();
    let traced_ms = build(&trace)?;
    machine::front_layers(rep, &Spans(trace.events()), pm);
    machine::aig_layer(rep, pm)?;
    machine::overhead(rep, "parse+lint+synth", traced_ms, untraced.median());

    let (compile_ms, _) =
        machine::median_setup(3, || pm.sim(Backend::Auto).map_err(|e| e.to_string()))?;
    rep.set("hdl.compile_ms", compile_ms * 1e3);

    let mut cosim = Samples::default();
    let mut last = None;
    for _ in 0..3 {
        let (ms, stats) = unit(pm)?;
        check(rep, &stats);
        cosim.push(ms);
        last = Some(stats);
    }
    let stats = last.expect("three units ran");
    rep.set("verify.cosim_ms", cosim.median());
    rep.set("verify.cosim.retired", stats.retired as f64);
    rep.set("verify.cosim.cpi", stats.cpi());

    // Bare engines: the pipelined netlist for the same cycles, the
    // sequential reference for the same instructions.
    let mut sim = pm.sim(Backend::Auto).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    sim.run(CYCLES);
    let pipe_ms = ms_since(t0);
    let mut seq = SequentialMachine::with_backend(pm.plan.clone(), Backend::Auto)
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    for _ in 0..stats.retired {
        seq.step_instruction();
    }
    let seq_ms = ms_since(t0);
    let seq_cycles = stats.retired * pm.n_stages() as u64;
    rep.set("hdl.sim.pipe_cycles_per_s", CYCLES as f64 / (pipe_ms / 1e3));
    rep.set(
        "hdl.sim.seq_cycles_per_s",
        seq_cycles as f64 / (seq_ms / 1e3),
    );
    rep.set(
        "verify.cosim.check_share",
        1.0 - (pipe_ms + seq_ms) / cosim.median(),
    );
    Ok(())
}
