//! `sta-dlx`: `autopipe sta --top 3 --audit 0` on the DLX design,
//! source text to report. The SAT-backed false-path pruning issues
//! single-frame free-state sensitization queries against the same
//! clause cache and solver `verify-dlx` uses for two-frame induction.

use crate::machine::{self, DLX};
use crate::stats::{ms_since, Samples, Spans};
use crate::{Config, Report};
use autopipe_analyze::sta::{self, StaOptions, StaReport};
use autopipe_analyze::LintConfig;
use autopipe_hdl::NetAnalysis;
use autopipe_serve::cache::fnv64;
use autopipe_trace::Trace;
use std::time::Instant;

/// Critical paths reported (`--top`).
const TOP: usize = 3;
/// The seed code's clock period for DLX, in levels.
const PERIOD: u32 = 68;
/// FNV-64 of the seed code's top-path set (see [`fingerprint`]).
const PATHS_FNV: u64 = 0xe852_eea7_23ed_d467;

/// Every reported path as `autopipe sta` prints it: endpoint, delay,
/// slack, verdict and each step's description and levels, in rank
/// order. Net ids are left out, so renumbering nets changes nothing.
fn fingerprint(r: &StaReport) -> u64 {
    let text: Vec<String> = r
        .paths
        .iter()
        .map(|p| {
            let steps: Vec<String> = p
                .steps
                .iter()
                .map(|s| format!("{} +{}", s.desc, s.levels))
                .collect();
            format!(
                "{}:{}:{}:{:?}:{}",
                p.endpoint,
                p.delay,
                p.slack,
                p.verdict,
                steps.join(" -> ")
            )
        })
        .collect();
    fnv64(text.join(";").as_bytes())
}

fn sta_once(src: &str, trace: &Trace) -> Result<(f64, StaReport), String> {
    let t0 = Instant::now();
    let pm = machine::build(src, DLX, trace)?;
    let analysis = NetAnalysis::of(&pm.netlist);
    let opts = StaOptions {
        top: TOP,
        jobs: 1,
        audit: 0,
        ..StaOptions::default()
    };
    let report = sta::analyze(&pm, &analysis, &opts, &LintConfig::default(), trace);
    Ok((ms_since(t0), report))
}

fn check(rep: &mut Report, r: &StaReport) {
    let fp = fingerprint(r);
    rep.check(
        r.period == PERIOD && r.paths.len() == TOP && fp == PATHS_FNV,
        || {
            format!(
                "sta: period {} (want {PERIOD}), {} paths (want {TOP}), path-set fnv {fp:#018x} \
(want {PATHS_FNV:#018x})",
                r.period,
                r.paths.len()
            )
        },
    );
}

pub fn run(cfg: &Config, rep: &mut Report) -> Result<(), String> {
    let src = cfg.source(DLX)?;
    let (setup_s, _) = machine::median_setup(machine::SETUP_REPS, || {
        machine::build(&src, DLX, &Trace::disabled())
    })?;
    rep.set("setup_s", setup_s);
    if cfg.trace {
        return layers(rep, &src);
    }
    let mut times = Samples::default();
    let t0 = Instant::now();
    loop {
        let (ms, r) = sta_once(&src, &Trace::disabled())?;
        check(rep, &r);
        times.push(ms);
        if t0.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    // Paths over the whole loop's wall time, checks included: the mean
    // rate, where `latency_ms` is the median unit.
    let loop_s = t0.elapsed().as_secs_f64();
    let paths_per_s = (TOP * times.len()) as f64 / loop_s;
    let (label, tail) = times.tail();
    rep.set("latency_ms", times.median());
    rep.set("throughput_per_s", paths_per_s);
    rep.line(format!(
        "sta-dlx setup_s {setup_s:.6} s (median of {})",
        machine::SETUP_REPS
    ));
    rep.line(format!(
        "sta-dlx sta_s {:.3} s (--top {TOP} --audit 0, median of {}; {label} {:.3} s)",
        times.median() / 1e3,
        times.len(),
        tail / 1e3
    ));
    rep.line(format!(
        "sta-dlx paths_per_s {paths_per_s:.4} 1/s ({} paths in {loop_s:.3} s of loop wall time)",
        TOP * times.len()
    ));
    Ok(())
}

fn layers(rep: &mut Report, src: &str) -> Result<(), String> {
    let (base_ms, r) = sta_once(src, &Trace::disabled())?;
    check(rep, &r);
    let trace = Trace::new();
    let (traced_ms, r) = sta_once(src, &trace)?;
    check(rep, &r);
    let spans = Spans(trace.events());
    let pm = machine::build(src, DLX, &Trace::disabled())?;
    machine::front_layers(rep, &spans, &pm);
    machine::aig_layer(rep, &pm)?;
    machine::overhead(rep, "sta", traced_ms, base_ms);
    let paths_ms = spans.ms("phase", "sta:paths");
    let sat_ms = spans.ms("phase", "sta:sat");
    rep.set("analyze.sta.paths_ms", paths_ms);
    rep.set("analyze.sta.sat_ms", sat_ms);
    rep.set("analyze.sta.paths", r.paths.len() as f64);
    rep.set("analyze.sta.audited_paths", r.audited_paths as f64);
    rep.set("analyze.sta.pruned", r.pruned() as f64);
    rep.set("analyze.sta.audit_pruned", r.audit_pruned.len() as f64);
    // sta:paths + sta:sat should cover source-to-report time.
    machine::accounting(
        rep,
        "sta-dlx",
        paths_ms + sat_ms,
        traced_ms,
        traced_ms / base_ms,
    );
    Ok(())
}
