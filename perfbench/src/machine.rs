//! What the workloads share: source text to a synthesized, lint-clean
//! pipelined machine, exactly as `autopipe verify`/`sta` build it, the
//! set-up timing, and the per-layer readings common to several
//! workloads.

use crate::stats::{ms_since, Samples, Spans};
use crate::Report;
use autopipe_analyze::{lint_design_traced, LintConfig};
use autopipe_hdl::{aig, Lowered, NetlistStats};
use autopipe_synth::PipelinedMachine;
use autopipe_trace::Trace;
use std::time::Instant;

/// Path of the DLX design, relative to the repository root.
pub const DLX: &str = "examples/programs/dlx.psm";
/// Path of the toy accumulator design.
pub const TOY: &str = "examples/programs/toy.psm";

/// Parse, lower, lint and synthesize `src` (named `file`) into a
/// pipelined machine, recording the program's own spans into `trace`.
pub fn build(src: &str, file: &str, trace: &Trace) -> Result<PipelinedMachine, String> {
    let c = autopipe_front::compile_traced(src, file, trace).map_err(|d| d.render())?;
    let plan = c.spec.plan().map_err(|e| format!("plan: {e}"))?;
    let (lint, pm) = lint_design_traced(&plan, &c.options, &LintConfig::default(), trace)
        .map_err(|e| format!("synthesis: {e}"))?;
    if lint.has_errors() {
        return Err(format!("{file}: {}", lint.summary_line()));
    }
    pm.ok_or_else(|| format!("{file}: synthesis blocked by lint"))
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 200;

/// Median wall time in seconds of `reps` calls of `f`, and the last
/// value it produced.
pub fn median_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let value = f()?;
        times.push(t0.elapsed().as_secs_f64());
        // The previous value is dropped here, outside the timed part.
        last = Some(value);
    }
    Ok((times.median(), last.expect("at least one repetition")))
}

/// Front-end, lint and synthesis layers of one traced [`build`].
pub fn front_layers(rep: &mut Report, spans: &Spans, pm: &PipelinedMachine) {
    rep.set("front.parse_ms", spans.ms("phase", "parse"));
    rep.set("front.lower_ms", spans.ms("phase", "lower"));
    rep.set("analyze.lint_ms", spans.ms_prefix("phase", "lint:"));
    rep.set("core.synth_ms", spans.ms("phase", "synth"));
    rep.set("core.obligations", pm.obligations.len() as f64);
    rep.set(
        "core.gate_equivalents",
        NetlistStats::of(&pm.netlist).gates as f64,
    );
}

/// Times the AIG lowering of `pm`'s netlist (the first step of every
/// SAT-based check) and records its size.
pub fn aig_layer(rep: &mut Report, pm: &PipelinedMachine) -> Result<(f64, Lowered), String> {
    let t0 = Instant::now();
    let low = aig::lower(&pm.netlist).map_err(|e| format!("AIG lowering: {e}"))?;
    let ms = ms_since(t0);
    rep.set("hdl.aig.lower_ms", ms);
    rep.set("hdl.aig.ands", low.aig.and_count() as f64);
    rep.set("hdl.aig.latches", low.aig.latches().len() as f64);
    Ok((ms, low))
}

/// Ratio of a traced to an untraced time, and the matching line.
pub fn overhead(rep: &mut Report, what: &str, traced_ms: f64, untraced_ms: f64) {
    let ratio = traced_ms / untraced_ms;
    rep.set("trace.overhead_ratio", ratio);
    rep.line(format!(
        "trace.overhead_ratio {ratio:.4} ({what}: traced {traced_ms:.3} ms / untraced {untraced_ms:.3} ms)"
    ));
}

/// Records `layers.accounted_share` and flags a gap wider than the
/// tracing overhead (with a floor for run-to-run noise).
pub fn accounting(rep: &mut Report, workload: &str, covered: f64, phases: f64, overhead: f64) {
    let share = covered / phases;
    rep.set("layers.accounted_share", share);
    let tolerance = (overhead - 1.0).abs().max(0.10);
    let verdict = if (share - 1.0).abs() <= tolerance {
        "ok"
    } else {
        "GAP"
    };
    rep.line(format!(
        "layer accounting {workload}: layers {covered:.3} ms / phases {phases:.3} ms = {share:.4} \
(tolerance +-{tolerance:.3}) {verdict}"
    ));
}
