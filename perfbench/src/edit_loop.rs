//! `edit-loop`: one client in a closed loop feeds an in-process
//! `serve::Server` a seeded session of `submit` requests on the toy
//! accumulator and its edits, with the proof cache on disk in a fresh
//! scratch directory: elaboration, cone digests, cache lookups, the JSON
//! protocol, and the toy's small solves on a miss. The session is played
//! on a fresh server and cache again and again for the run length, so
//! every pass sees the same cache behaviour.
//!
//! The edit generator keeps one current design and, per request, picks
//! an edit class: an identical resubmit, a data-path edit (an IMEM word
//! or the PC increment immediate), a hazard edit (the EX-stage
//! register-file read-address field) or an annotation flip
//! (`forward RF;` to `interlock RF;` and back).

use crate::machine::{self, TOY};
use crate::stats::{ms_since, Rng, Samples, Spans};
use crate::{Config, Report};
use autopipe_hdl::cone_digest;
use autopipe_serve::server::elaborate;
use autopipe_serve::{Json, ServeConfig, Server};
use autopipe_trace::ndjson::escape;
use autopipe_trace::Trace;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The toy design's seed values, as they appear in its source.
const IMEM: [u8; 8] = [16, 33, 54, 75, 92, 17, 38, 59];
const IMEM_TEXT: &str = "{ 16, 33, 54, 75, 92, 17, 38, 59 }";
const PC_TEXT: &str = "PC = PC + 4'd1;";
const READ_TEXT: &str = "RF[IR[3:2]]";
const FORWARD_TEXT: &str = "  forward RF;";

/// Edit classes, in report order: name, then the count, hit-ratio and
/// median-latency metrics.
const CLASSES: [(&str, &str, &str, &str); 4] = [
    (
        "identical",
        "edit.identical.count",
        "edit.identical.hit_ratio",
        "edit.identical.p50_ms",
    ),
    (
        "datapath",
        "edit.datapath.count",
        "edit.datapath.hit_ratio",
        "edit.datapath.p50_ms",
    ),
    (
        "hazard",
        "edit.hazard.count",
        "edit.hazard.hit_ratio",
        "edit.hazard.p50_ms",
    ),
    (
        "annotation",
        "edit.annotation.count",
        "edit.annotation.hit_ratio",
        "edit.annotation.p50_ms",
    ),
];
/// Requests of each class in one session, in [`CLASSES`] order: 25%,
/// 45%, 15% and 15%. The mix is assumed, not taken from recorded editor
/// or CI traffic; the per-class counts, hit ratios and median latencies
/// are reported so that a result can be weighed under another mix.
const MIX: [usize; 4] = [75, 135, 45, 45];
/// Requests in one session pass.
const SESSION: usize = MIX[0] + MIX[1] + MIX[2] + MIX[3];
/// Cached answers re-checked against a `"fresh": true` resubmit: at
/// most this many, each picked with probability 1/16.
const FRESH_CHECKS: usize = 24;

/// The current design of the session.
struct Toy {
    imem: [u8; 8],
    pc_step: u8,
    read_lo: u8,
    forward: bool,
}

impl Toy {
    fn seed() -> Toy {
        Toy {
            imem: IMEM,
            pc_step: 1,
            read_lo: 2,
            forward: true,
        }
    }

    /// Applies one edit of class `class` (an index into [`CLASSES`]).
    fn edit(&mut self, class: usize, rng: &mut Rng) {
        match class {
            0 => {}
            1 if rng.below(4) > 0 => {
                let i = rng.below(8) as usize;
                self.imem[i] = (u64::from(self.imem[i]) + 1 + rng.below(255)) as u8;
            }
            1 => self.pc_step = 1 + (self.pc_step + rng.below(2) as u8) % 3,
            2 => self.read_lo = (self.read_lo + 1 + rng.below(6) as u8) % 7,
            _ => self.forward = !self.forward,
        }
    }

    fn render(&self, template: &str) -> String {
        let words: Vec<String> = self.imem.iter().map(u8::to_string).collect();
        template
            .replacen(IMEM_TEXT, &format!("{{ {} }}", words.join(", ")), 1)
            .replacen(PC_TEXT, &format!("PC = PC + 4'd{};", self.pc_step), 1)
            .replacen(
                READ_TEXT,
                &format!("RF[IR[{}:{}]]", self.read_lo + 1, self.read_lo),
                1,
            )
            .replacen(
                FORWARD_TEXT,
                if self.forward {
                    FORWARD_TEXT
                } else {
                    "  interlock RF;"
                },
                1,
            )
    }
}

/// Removes the scratch cache directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
        settle_fs();
    }
}

/// Flushes pending filesystem work, such as an earlier pass's cache
/// writes and deletions, so that it does not land inside a timed pass
/// or the next run's set-up.
fn settle_fs() {
    let _ = std::process::Command::new("sync").status();
}

/// A server on a new, empty cache directory `dir`.
fn start_server(dir: &Path) -> Result<Server, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Server::new(ServeConfig {
        cache_dir: Some(dir.to_path_buf()),
        jobs: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

fn submit_line(id: u64, src: &str, fresh: bool) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"submit\",\"source\":\"{}\"{}}}",
        escape(src),
        if fresh { ",\"fresh\":true" } else { "" }
    )
}

/// A submit answer reduced to what must not depend on the cache: per
/// obligation its name, cone digest, outcome and depth.
fn verdicts(resp: &Json) -> Vec<String> {
    resp.get("obligations")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|o| {
            let field = |k: &str| {
                o.get(k)
                    .map(|v| {
                        v.as_str().map_or_else(
                            || v.as_u64().map_or(String::new(), |n| n.to_string()),
                            str::to_string,
                        )
                    })
                    .unwrap_or_default()
            };
            format!(
                "{}|{}|{}|{}",
                field("name"),
                field("digest"),
                field("outcome"),
                field("k")
            )
        })
        .collect()
}

struct Answer {
    json: Json,
    total: u64,
    cached: u64,
}

/// Sends one submit and checks that every obligation proved.
fn submit(rep: &mut Report, server: &Server, line: &str) -> Result<Answer, String> {
    let text = server.handle_line(line);
    let json = Json::parse(&text).map_err(|e| format!("bad response `{text}`: {e}"))?;
    let n = |k: &str| json.get(k).and_then(Json::as_u64).unwrap_or(0);
    let total = json
        .get("obligations")
        .and_then(Json::as_arr)
        .map_or(0, |a| a.len() as u64);
    let ok = json.get("ok").and_then(Json::as_bool) == Some(true);
    rep.check(ok && total > 0 && n("proved") == total, || {
        format!("submit answered `{text}`, want every obligation proved")
    });
    Ok(Answer {
        total,
        cached: n("cached"),
        json,
    })
}

/// The seeded session: per request, its edit class and source. The
/// class counts are fixed ([`MIX`]), so every seed plays the same mix;
/// the seed picks their order and the edits.
fn generate(seed: u64, template: &str) -> Vec<(usize, String)> {
    let mut rng = Rng::new(seed);
    let mut classes: Vec<usize> = MIX
        .iter()
        .enumerate()
        .flat_map(|(class, &n)| std::iter::repeat_n(class, n))
        .collect();
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut toy = Toy::seed();
    classes
        .into_iter()
        .map(|class| {
            toy.edit(class, &mut rng);
            (class, toy.render(template))
        })
        .collect()
}

#[derive(Default)]
struct Session {
    latency_ms: Samples,
    warm_ms: Samples,
    cold_ms: Samples,
    /// Time spent in the submit loops (server starts and checks
    /// excluded).
    wall_s: f64,
    passes: usize,
    /// Per class, first pass: submits, obligations, cached obligations.
    classes: [(u64, u64, u64); 4],
    /// Per class, every pass: submit latencies.
    class_ms: [Samples; 4],
    /// Proof-cache hits and misses, first pass.
    hits: u64,
    misses: u64,
    fresh_checks: usize,
}

/// Plays the session on a fresh server and an empty cache directory
/// under `scratch`, again and again until the run length is spent, so
/// every pass sees the same cache behaviour. After the first pass a
/// seeded sample of its cached answers is checked against fresh solves.
fn play(
    cfg: &Config,
    rep: &mut Report,
    scratch: &Path,
    requests: &[(usize, String)],
) -> Result<Session, String> {
    let mut s = Session::default();
    let mut pick = Rng::new(cfg.seed.wrapping_add(1));
    let t0 = Instant::now();
    while s.passes == 0 || t0.elapsed().as_secs_f64() < cfg.seconds {
        let dir = scratch.join(format!("pass-{}", s.passes));
        let server = start_server(&dir)?;
        let first = s.passes == 0;
        let mut sampled = Vec::new();
        let pass = Instant::now();
        for (id, (class, src)) in requests.iter().enumerate() {
            let t = Instant::now();
            let a = submit(rep, &server, &submit_line(id as u64 + 1, src, false))?;
            let ms = ms_since(t);
            s.latency_ms.push(ms);
            s.class_ms[*class].push(ms);
            if a.cached == a.total {
                s.warm_ms.push(ms);
            } else {
                s.cold_ms.push(ms);
            }
            if first {
                let c = &mut s.classes[*class];
                c.0 += 1;
                c.1 += a.total;
                c.2 += a.cached;
                if a.cached > 0 && sampled.len() < FRESH_CHECKS && pick.below(16) == 0 {
                    sampled.push((src, verdicts(&a.json)));
                }
            }
        }
        s.wall_s += pass.elapsed().as_secs_f64();
        if first {
            let stats = server.cache().stats();
            (s.hits, s.misses) = (stats.hits, stats.misses);
            // Sampled cached answers must equal a fresh solve of the
            // same source.
            for (i, (src, want)) in sampled.iter().enumerate() {
                let line = submit_line((SESSION + i) as u64 + 1, src, true);
                let got = verdicts(&submit(rep, &server, &line)?.json);
                rep.check(&got == want, || {
                    format!("cached answer {want:?} differs from a fresh resubmit {got:?}")
                });
            }
            s.fresh_checks = sampled.len();
        }
        server.close();
        let _ = std::fs::remove_dir_all(&dir);
        settle_fs();
        s.passes += 1;
    }
    Ok(s)
}

pub fn run(cfg: &Config, rep: &mut Report) -> Result<(), String> {
    let template = cfg.source(TOY)?;
    for anchor in [IMEM_TEXT, PC_TEXT, READ_TEXT, FORWARD_TEXT] {
        if template.matches(anchor).count() != 1 {
            return Err(format!("{TOY}: expected exactly one `{anchor}` to edit"));
        }
    }
    let scratch = Scratch(
        cfg.root
            .join(".bench_scratch")
            .join(format!("edit-loop-{}", std::process::id())),
    );
    // Set-up: the session, a new empty cache directory and a server on
    // it.
    settle_fs();
    let mut reps = 0;
    let (setup_s, (requests, server)) = machine::median_setup(machine::SETUP_REPS, || {
        reps += 1;
        let requests = generate(cfg.seed, &template);
        let server = start_server(&scratch.0.join(format!("setup-{reps}")))?;
        Ok((requests, server))
    })?;
    server.close();
    rep.set("setup_s", setup_s);

    let s = play(cfg, rep, &scratch.0, &requests)?;
    for ((name, count, hit, p50), ((n, obligations, cached), ms)) in
        CLASSES.iter().zip(s.classes.iter().zip(&s.class_ms))
    {
        let ratio = *cached as f64 / (*obligations).max(1) as f64;
        rep.set(count, *n as f64);
        rep.set(hit, ratio);
        rep.set(p50, ms.median());
        rep.line(format!(
            "edit-loop class {name:<10} {n:>4} of {SESSION} submits, obligation hit ratio {ratio:.4}, \
median submit {:.4} ms ({} samples)",
            ms.median(),
            ms.len()
        ));
    }
    let hit_ratio = s.hits as f64 / (s.hits + s.misses).max(1) as f64;
    rep.line(format!(
        "edit-loop cache {} hits / {} misses per pass (hit ratio {hit_ratio:.4}); {} fresh re-checks",
        s.hits, s.misses, s.fresh_checks
    ));
    if cfg.trace {
        rep.set("serve.cache.hits", s.hits as f64);
        rep.set("serve.cache.misses", s.misses as f64);
        rep.set("serve.cache.hit_ratio", hit_ratio);
        rep.set("serve.warm_us", s.warm_ms.median() * 1e3);
        rep.set("serve.cold_ms", s.cold_ms.median());
        let mut sources: Vec<&str> = requests.iter().map(|(_, src)| src.as_str()).collect();
        sources.dedup();
        sources.truncate(20);
        return layers(rep, &template, &sources);
    }
    let (label, tail) = s.latency_ms.tail();
    let per_s = s.latency_ms.len() as f64 / s.wall_s;
    rep.set("latency_ms", s.latency_ms.median());
    rep.set("throughput_per_s", per_s);
    rep.line(format!(
        "edit-loop setup_s {setup_s:.6} s (median of {})",
        machine::SETUP_REPS
    ));
    rep.line(format!(
        "edit-loop submit_p50_ms {:.4} ms, submit_{label}_ms {tail:.4} ms ({} submits in {} \
passes: {} warm, {} cold)",
        s.latency_ms.median(),
        s.latency_ms.len(),
        s.passes,
        s.warm_ms.len(),
        s.cold_ms.len()
    ));
    rep.line(format!(
        "edit-loop submits_per_s {per_s:.2} 1/s (one client, closed loop)"
    ));
    Ok(())
}

/// Elaboration, cone digests and the front end, timed from outside on
/// the session's first distinct sources.
fn layers(rep: &mut Report, template: &str, sources: &[&str]) -> Result<(), String> {
    let mut elab = Samples::default();
    let mut digest_us = Samples::default();
    for src in sources {
        let t0 = Instant::now();
        let d = elaborate(src, TOY)?;
        elab.push(ms_since(t0));
        for ob in &d.obligations {
            let t0 = Instant::now();
            std::hint::black_box(cone_digest(&d.netlist, &[ob.net]));
            digest_us.push(ms_since(t0) * 1e3);
        }
    }
    rep.set("serve.elaborate_ms", elab.median());
    rep.set("hdl.hash.cone_digest_us", digest_us.median());

    let build = |trace: &Trace| {
        let t0 = Instant::now();
        machine::build(template, TOY, trace).map(|pm| (ms_since(t0), pm))
    };
    let mut untraced = Samples::default();
    for _ in 0..20 {
        untraced.push(build(&Trace::disabled())?.0);
    }
    let mut traced = Samples::default();
    let mut last = None;
    for _ in 0..20 {
        let trace = Trace::new();
        let (ms, pm) = build(&trace)?;
        traced.push(ms);
        last = Some((trace, pm));
    }
    let (trace, pm) = last.expect("twenty traced builds ran");
    machine::front_layers(rep, &Spans(trace.events()), &pm);
    machine::aig_layer(rep, &pm)?;
    machine::overhead(rep, "parse+lint+synth", traced.median(), untraced.median());
    Ok(())
}
