//! The autopipe benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <verify-dlx|sta-dlx|edit-loop|cosim-dlx> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One workload runs per invocation, in
//! this process, from one client thread (plus the `-j` workers that
//! `verify-dlx` asks for). Human-readable lines go to stdout first; the
//! last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! With `--trace 0` the metrics are the end-to-end set, with `--trace 1`
//! the per-layer set (see `README.md` in this directory).

mod cosim_dlx;
mod edit_loop;
mod machine;
mod sta_dlx;
mod stats;
mod verify_dlx;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports all of them, from
/// untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, named by crate, from the traced run. A workload
/// reports 0 for a layer it does not exercise, and leaves out a metric
/// it could not measure (see [`Report::omit`]).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("front.parse_ms", "ms"),
    ("front.lower_ms", "ms"),
    ("analyze.lint_ms", "ms"),
    ("core.synth_ms", "ms"),
    ("core.obligations", "count"),
    ("core.gate_equivalents", "count"),
    ("hdl.aig.lower_ms", "ms"),
    ("hdl.aig.ands", "count"),
    ("hdl.aig.latches", "count"),
    ("verify.bmc.encode_ms", "ms"),
    ("verify.bmc.ingest_ms", "ms"),
    ("verify.bmc.frames", "count"),
    ("verify.bmc.clauses_ingested", "count"),
    ("verify.bmc.cache_hit_ratio", "ratio"),
    ("verify.sat.solve_ms", "ms"),
    ("verify.sat.decisions", "count"),
    ("verify.sat.propagations", "count"),
    ("verify.sat.conflicts", "count"),
    ("verify.sat.attempts", "count"),
    ("verify.obligation.p50_ms", "ms"),
    ("verify.obligation.max_ms", "ms"),
    ("verify.obligations_ms", "ms"),
    ("verify.obligations.self_ms", "ms"),
    ("verify.pool.speedup", "ratio"),
    ("verify.pool.busy_share", "ratio"),
    ("verify.cosim_ms", "ms"),
    ("verify.cosim.retired", "count"),
    ("verify.cosim.cpi", "ratio"),
    ("verify.cosim.check_share", "ratio"),
    ("hdl.compile_ms", "ms"),
    ("hdl.sim.pipe_cycles_per_s", "1/s"),
    ("hdl.sim.seq_cycles_per_s", "1/s"),
    ("analyze.sta.paths_ms", "ms"),
    ("analyze.sta.sat_ms", "ms"),
    ("analyze.sta.paths", "count"),
    ("analyze.sta.audited_paths", "count"),
    ("analyze.sta.pruned", "count"),
    ("analyze.sta.audit_pruned", "count"),
    ("serve.elaborate_ms", "ms"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.warm_us", "us"),
    ("serve.cold_ms", "ms"),
    ("hdl.hash.cone_digest_us", "us"),
    ("edit.identical.count", "count"),
    ("edit.identical.hit_ratio", "ratio"),
    ("edit.identical.p50_ms", "ms"),
    ("edit.datapath.count", "count"),
    ("edit.datapath.hit_ratio", "ratio"),
    ("edit.datapath.p50_ms", "ms"),
    ("edit.hazard.count", "count"),
    ("edit.hazard.hit_ratio", "ratio"),
    ("edit.hazard.p50_ms", "ms"),
    ("edit.annotation.count", "count"),
    ("edit.annotation.hit_ratio", "ratio"),
    ("edit.annotation.p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("layers.accounted_share", "ratio"),
];

/// Run settings from the command line.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Repository root (the working directory).
    pub root: PathBuf,
    /// Worker count for the `-j nproc` runs.
    pub nproc: usize,
}

impl Config {
    /// Reads a design shipped with the repository.
    pub fn source(&self, rel: &str) -> Result<String, String> {
        std::fs::read_to_string(self.root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer metrics the traced run could not measure; they are
    /// left out of the JSON line rather than reported as 0.
    pub omitted: BTreeSet<&'static str>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines, printed before the JSON line.
    pub lines: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Leaves the per-layer metric `name` out of the JSON line, saying
    /// why on a `GAP` line.
    pub fn omit(&mut self, name: &'static str, why: &str) {
        self.metrics.remove(name);
        self.omitted.insert(name);
        self.line(format!("GAP: {name} not measured: {why}"));
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Counts one checked operation; a wrong answer is counted as
    /// failed and described.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            self.line(format!("WRONG ANSWER: {msg}"));
        }
    }
}

fn usage() -> String {
    "usage: perfbench --workload <verify-dlx|sta-dlx|edit-loop|cosim-dlx> \
--seed <n> --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_args() -> Result<(String, Config), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Ok((
        workload,
        Config {
            seed,
            seconds: seconds.max(0.1),
            trace,
            root,
            nproc,
        },
    ))
}

fn json_line(cfg: &Config, report: &Report) -> Result<String, String> {
    let names = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        if cfg.trace && report.omitted.contains(name) {
            continue;
        }
        let value =
            report
                .metrics
                .get(name)
                .copied()
                .unwrap_or(if cfg.trace { 0.0 } else { f64::NAN });
        if !value.is_finite() {
            return Err(format!("metric {name} was not measured"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let run = match workload.as_str() {
        "verify-dlx" => verify_dlx::run,
        "sta-dlx" => sta_dlx::run,
        "edit-loop" => edit_loop::run,
        "cosim-dlx" => cosim_dlx::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = run(&cfg, &mut report).and_then(|()| {
        report.set("peak_rss_mb", stats::peak_rss_mb());
        if report.attempted == 0 {
            return Err("no operation was attempted".to_string());
        }
        report.line(format!(
            "{workload} error_rate {} ratio ({} failed / {} attempted)",
            report.failed as f64 / report.attempted as f64,
            report.failed,
            report.attempted
        ));
        json_line(&cfg, &report)
    });
    for line in &report.lines {
        println!("{line}");
    }
    match outcome {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
