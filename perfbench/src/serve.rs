//! The `serve_mix` workload: open-loop NDJSON over TCP to a spawned
//! `xlda-serve --store <segment>`.
//!
//! The segment is pre-populated with a seeded hot set. Traffic is
//! mostly repeats of that hot set (store reads), a share of fresh
//! unique points (evaluate and append), a small triage and mann_mc
//! share and rare `refine` requests.
//!
//! A timed run alternates two kinds of block. Open-loop blocks send
//! Poisson arrivals at [`FIXED_RATE`] and give the wall-clock latency a
//! client sees (printed, not gated: on a shared host it follows the
//! host's load). Closed-loop *solo* blocks send one request at a time
//! and read the daemon's CPU clock after each answer; the gated figures
//! are that CPU cost per request, which depends on the program alone.
//! Every response is checked against the library after the timed
//! window.

use crate::calib;
use crate::grid::{self, HdcParams, MannParams, Rng, TECHS};
use crate::loadgen::{self, Observed, Planned};
use crate::oracle::{self, Expected};
use crate::report::{peak_rss_mb, Metric, Outcome};
use crate::stats::{median, summarize, Summary};
use crate::sys::{self, CpuClock};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use xlda_core::evaluate::{Evaluation, Scenario};
use xlda_core::mc::MannAccuracyMcScenario;
use xlda_core::store::ResultStore;
use xlda_core::sweep::par_map;
use xlda_core::triage::Objective;
use xlda_serve::json::Json;

/// Client connections (and threads) of the open-loop blocks: the
/// box's two vCPUs.
pub const CONNS: usize = 2;
/// Offered load of the open-loop blocks, requests per second.
pub const FIXED_RATE: f64 = 1500.0;
/// Rounds of a timed run; each is an open-loop block, a solo block and
/// [`SETUP_PER_ROUND`] set-up repetitions.
const ROUNDS: usize = 6;
const SETUP_PER_ROUND: usize = 2;
/// Share of each round spent in its open-loop block.
const OPEN_SHARE: f64 = 0.4;
/// A solo block samples the reference kernel after every this many
/// requests.
const SOLO_REF_EVERY: usize = 16;
/// A generator whose p99 lateness exceeds this fell behind: the run is
/// invalid.
pub const LATE_LIMIT_MS: f64 = 20.0;
/// Hot-set size written to the segment before the server starts.
const HOT: usize = 2048;
/// Trials of the mann_mc share.
const MC_TRIALS: usize = 64;

/// A deterministic design point as the serve protocol spells it.
#[derive(Clone)]
pub enum Point {
    Hdc(HdcParams),
    Mann(MannParams),
    Tpu(HdcParams, usize),
    Edge(HdcParams),
}

impl Point {
    fn random(r: &mut Rng) -> Point {
        let tech = r.pick(&TECHS);
        match r.below(8) {
            0..=2 => Point::Hdc(grid::hdc(r, tech)),
            3..=5 => Point::Mann(grid::mann(r, tech)),
            6 => {
                let (p, b) = grid::tpu_nvm(r, tech);
                Point::Tpu(p, b)
            }
            _ => Point::Edge(grid::hdc(r, tech)),
        }
    }

    pub fn scenario(&self) -> Box<dyn Scenario> {
        match self {
            Point::Hdc(p) => Box::new(p.s.clone()),
            Point::Mann(p) => Box::new(p.s.clone()),
            Point::Tpu(p, b) => Box::new(grid::tpu_scenario(&(p.clone(), *b))),
            Point::Edge(p) => Box::new(grid::edge_scenario(p)),
        }
    }

    /// Request body after the id.
    pub fn body(&self) -> String {
        match self {
            Point::Hdc(p) => format!("\"kind\":\"hdc\",\"scenario\":{}", grid::hdc_json(p)),
            Point::Mann(p) => format!("\"kind\":\"mann\",\"scenario\":{}", grid::mann_json(p)),
            Point::Tpu(p, b) => format!(
                "\"kind\":\"tpu_nvm\",\"batch\":{b},\"scenario\":{}",
                grid::hdc_json(p)
            ),
            Point::Edge(p) => format!("\"kind\":\"edge\",\"scenario\":{}", grid::hdc_json(p)),
        }
    }
}

/// Which share of the mix a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hot,
    Fresh,
    Triage,
    Mc,
    Refine,
}

/// What a request must answer.
pub enum Want {
    /// An evaluation whose result is already known (hot set).
    Known(&'static str, usize, Option<Objective>),
    /// A scenario the oracle evaluates after the window.
    Eval(Box<dyn Scenario>, Option<Objective>),
    /// A full-mode refine over these points.
    Refine(Vec<Box<dyn Scenario>>, Objective),
}

/// One request of the mix.
pub struct Req {
    pub class: Class,
    pub body: String,
    pub want: Want,
    /// The fresh point or MC scenario sent, for the layer timings.
    pub fresh: Option<Point>,
    pub mc: Option<MannAccuracyMcScenario>,
}

/// The pre-populated hot set and the library's results for it.
pub struct HotSet {
    pub points: Vec<Point>,
    pub evals: Vec<Evaluation>,
    pub kinds: Vec<&'static str>,
}

impl HotSet {
    /// Seeded distinct points the library evaluates without error.
    pub fn build(seed: u64) -> HotSet {
        let mut r = Rng::stream(seed, 0x407);
        let cands: Vec<Point> = (0..HOT + HOT / 4).map(|_| Point::random(&mut r)).collect();
        let evals = par_map(&cands, |p| p.scenario().evaluate().ok());
        let mut hot = HotSet {
            points: Vec::new(),
            evals: Vec::new(),
            kinds: Vec::new(),
        };
        for (p, e) in cands.into_iter().zip(evals) {
            if let Some(e) = e {
                if hot.points.len() < HOT {
                    hot.kinds.push(p.scenario().kind());
                    hot.points.push(p);
                    hot.evals.push(e);
                }
            }
        }
        hot
    }

    /// Writes the hot set as a fresh store segment at `path`.
    pub fn write_segment(&self, path: &Path) -> io::Result<()> {
        let _ = std::fs::remove_file(path);
        let store = ResultStore::open(path)?;
        for (p, e) in self.points.iter().zip(&self.evals) {
            let s = p.scenario();
            let digest = s.store_key().expect("built-in scenarios have store keys");
            store.insert(digest, s.kind(), e);
        }
        store.flush();
        Ok(())
    }
}

/// Share (per mille) of each class in the mix.
const MIX: [(Class, u32); 5] = [
    (Class::Hot, 700),
    (Class::Fresh, 200),
    (Class::Triage, 60),
    (Class::Mc, 38),
    (Class::Refine, 2),
];

fn pick_class(r: &mut Rng) -> Class {
    let mut x = r.below(1000) as u32;
    for (c, w) in MIX {
        if x < w {
            return c;
        }
        x -= w;
    }
    Class::Hot
}

fn objective(r: &mut Rng) -> (Objective, &'static str) {
    if r.below(2) == 0 {
        (
            Objective::latency_first(Some(0.9)),
            "\"objective\":\"latency_first\",\"floor\":0.9",
        )
    } else {
        (
            Objective::energy_first(None),
            "\"objective\":\"energy_first\"",
        )
    }
}

/// The `i`-th request of a phase's mix.
pub fn request(r: &mut Rng, hot: &HotSet) -> Req {
    let class = pick_class(r);
    match class {
        Class::Hot => {
            let h = r.below(hot.points.len());
            Req {
                class,
                body: hot.points[h].body(),
                want: Want::Known(hot.kinds[h], h, None),
                fresh: None,
                mc: None,
            }
        }
        Class::Fresh => {
            let p = Point::random(r);
            Req {
                class,
                body: p.body(),
                want: Want::Eval(p.scenario(), None),
                fresh: Some(p),
                mc: None,
            }
        }
        Class::Triage => {
            // Triage ranks a hot hdc point (an hdc lookup plus a rank).
            let h = loop {
                let h = r.below(hot.points.len());
                if matches!(hot.points[h], Point::Hdc(_)) {
                    break h;
                }
            };
            let Point::Hdc(p) = &hot.points[h] else {
                unreachable!("picked an hdc point")
            };
            let (obj, spec) = objective(r);
            Req {
                class,
                body: format!(
                    "\"kind\":\"triage\",{spec},\"scenario\":{}",
                    grid::hdc_json(p)
                ),
                want: Want::Known("hdc", h, Some(obj)),
                fresh: None,
                mc: None,
            }
        }
        Class::Mc => {
            // One array shape for the whole share, so the requests in the
            // tail cost the same on every seed.
            let s = MannAccuracyMcScenario {
                hash_bits: 128,
                entries: 50,
                ..grid::mann_mc(r, MC_TRIALS)
            };
            Req {
                class,
                body: format!(
                    "\"kind\":\"mann_mc\",\"scenario\":{}",
                    grid::mann_mc_json(&s)
                ),
                want: Want::Eval(Box::new(s.clone()), None),
                fresh: None,
                mc: Some(s),
            }
        }
        Class::Refine => {
            let tech = r.pick(&TECHS);
            let base = grid::hdc(r, tech);
            // Axis-major expansion: classes vary fastest.
            let mut pts: Vec<Box<dyn Scenario>> = Vec::new();
            for t in ["n40", "n22"] {
                for c in [10, 26] {
                    let mut s = base.s.clone();
                    s.classes = c;
                    s.tech = grid::tech(t);
                    pts.push(Box::new(s));
                }
            }
            Req {
                class,
                body: format!(
                    "\"kind\":\"refine\",\"base\":\"hdc\",\"scenario\":{},\
                     \"grid\":{{\"classes\":[10,26],\"tech\":[\"n40\",\"n22\"]}},\
                     \"objective\":\"latency_first\"",
                    grid::hdc_json(&base)
                ),
                want: Want::Refine(pts, Objective::latency_first(None)),
                fresh: None,
                mc: None,
            }
        }
    }
}

/// A phase: the schedule plus what each request must answer.
pub struct Phase {
    pub name: String,
    pub plan: Vec<Planned>,
    pub reqs: Vec<Req>,
    pub obs: Vec<Observed>,
}

/// Seeded Poisson arrivals at `rate` for `secs`.
pub fn phase(name: &str, seed: u64, stream: u64, rate: f64, secs: f64, hot: &HotSet) -> Phase {
    let mut r = Rng::stream(seed, stream);
    let mut t = 0.0;
    let mut plan = Vec::new();
    let mut reqs = Vec::new();
    loop {
        t += r.exp_gap(rate);
        if t >= secs {
            break;
        }
        let req = request(&mut r, hot);
        plan.push(Planned {
            due: Duration::from_secs_f64(t),
            line: format!("{{\"id\":\"{name}-{}\",{}}}", plan.len(), req.body),
        });
        reqs.push(req);
    }
    Phase {
        name: name.to_string(),
        plan,
        reqs,
        obs: Vec::new(),
    }
}

/// A running `xlda-serve` process.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// The daemon's process CPU clock.
    pub cpu: CpuClock,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral port, confined to the
    /// placement's daemon CPU. Deployment settings only: listen address,
    /// store path and (traced runs) the access log.
    pub fn spawn(bin: &str, store: &Path, access_log: Option<&Path>) -> io::Result<Daemon> {
        let mut cmd = Command::new(bin);
        cmd.args(["--listen", "127.0.0.1:0", "--store"]).arg(store);
        if let Some(log) = access_log {
            cmd.arg("--access-log").arg(log);
        }
        // The child inherits this thread's CPU mask. No pre_exec hook:
        // it would force a full fork of this (large) process, and set-up
        // time would grow with the benchmark's own memory instead of
        // measuring the daemon.
        let mut child = sys::on_cpus(&[sys::placement().daemon], || {
            cmd.stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
        })?;
        let cpu = match CpuClock::of(child.id()) {
            Ok(c) => c,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr).lines();
        let mut seen = Vec::new();
        let addr = loop {
            match lines.next() {
                Some(Ok(l)) => {
                    if let Some(a) = l.split("listening on ").nth(1) {
                        break a.trim().parse::<SocketAddr>().ok();
                    }
                    seen.push(l);
                }
                _ => break None,
            }
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "xlda-serve did not start: {}",
                seen.join(" | ")
            )));
        };
        // Keep the pipe drained so the daemon never blocks on stderr.
        let drain = std::thread::spawn(move || for _ in lines {});
        Ok(Daemon {
            child,
            addr,
            cpu,
            drain: Some(drain),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request on its own connection; returns the response line.
    pub fn call(&self, line: &str) -> io::Result<String> {
        let mut s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        s.write_all(line.as_bytes())?;
        s.write_all(b"\n")?;
        let mut out = String::new();
        BufReader::new(s).read_line(&mut out)?;
        Ok(out.trim_end().to_string())
    }

    /// The `stats` response.
    pub fn stats(&self) -> io::Result<Json> {
        let line = self.call("{\"id\":\"stats-0\",\"kind\":\"stats\"}")?;
        Json::parse(&line).map_err(|e| io::Error::other(format!("bad stats: {e}")))
    }

    /// Graceful shutdown, then reap the process.
    pub fn shutdown(mut self) -> io::Result<()> {
        let r = self.call("{\"id\":\"bye-0\",\"kind\":\"shutdown\"}");
        self.reap(Duration::from_secs(10));
        r.map(|_| ())
    }

    /// Waits up to `grace` for the process to exit, then kills it.
    fn reap(&mut self, grace: Duration) {
        let end = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < end => std::thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.drain.is_some() {
            self.reap(Duration::ZERO);
        }
    }
}

/// Spawn → first successful response: the daemon's CPU seconds by
/// then (start-up, segment recovery, the first request), and its wall
/// seconds.
fn timed_start(
    bin: &str,
    seg: &Path,
    log: Option<&Path>,
    probe: &str,
) -> io::Result<(f64, f64, Daemon)> {
    let t = Instant::now();
    let d = Daemon::spawn(bin, seg, log)?;
    let line = d.call(probe)?;
    let cpu = d.cpu.secs();
    if !line.contains("\"ok\":true") {
        return Err(io::Error::other(format!(
            "first request failed: {line:.200}"
        )));
    }
    Ok((cpu, t.elapsed().as_secs_f64(), d))
}

fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for k in path {
        match cur.get(k) {
            Some(n) => cur = n,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Latency summaries of one phase.
pub struct PhaseStats {
    pub late: Summary,
    pub sent: usize,
    pub answered: usize,
    pub rejected: usize,
    /// Latencies (ms) of all requests and of fresh requests; a refused
    /// or unanswered request reads infinite.
    pub all_ms: Vec<f64>,
    pub fresh_ms: Vec<f64>,
}

fn is_rejection(line: &str) -> bool {
    line.contains("\"code\":\"queue_full\"")
}

pub fn phase_stats(ph: &Phase) -> PhaseStats {
    let mut late = Vec::new();
    let (mut all_ms, mut fresh_ms) = (Vec::new(), Vec::new());
    let (mut sent, mut answered, mut rejected) = (0, 0, 0);
    for ((p, o), req) in ph.plan.iter().zip(&ph.obs).zip(&ph.reqs) {
        // Refused or unanswered: misses any limit.
        let ms = match (o.latency(p), o.response.as_deref()) {
            (Some(l), Some(r)) if !is_rejection(r) => l.as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        };
        all_ms.push(ms);
        if req.class == Class::Fresh {
            fresh_ms.push(ms);
        }
        if let Some(l) = o.lateness(p) {
            sent += 1;
            late.push(l.as_secs_f64() * 1e3);
        }
        if o.latency(p).is_some() {
            answered += 1;
            rejected += o.response.as_deref().is_some_and(is_rejection) as usize;
        }
    }
    PhaseStats {
        late: summarize(&mut late),
        sent,
        answered,
        rejected,
        all_ms,
        fresh_ms,
    }
}

fn drive(d: &Daemon, ph: &mut Phase, grace: Duration) -> io::Result<()> {
    ph.obs = sys::on_all_cpus(|| loadgen::run(d.addr, &ph.plan, CONNS, grace))?;
    Ok(())
}

/// What a solo block sent and measured.
struct Solo {
    /// The requests and answers, for the oracle.
    phase: Phase,
    /// Daemon CPU seconds per request.
    cpu: Vec<f64>,
    /// Reference kernel samples on the daemon's CPU.
    refs: Vec<f64>,
}

/// A closed-loop block: requests of the mix sent one at a time on one
/// connection, each after the previous answer, for `secs`. Each request
/// is charged the daemon's CPU clock between consecutive answers, so all
/// the daemon did in the block is charged to some request.
///
/// The client runs on the daemon's CPU, so that CPU hands straight from
/// one side to the other and never idles. An idle vCPU halts, and the
/// daemon's cost after a halt (cold caches, a slow wake) follows what
/// the host ran meanwhile. On a 2-vCPU KVM guest, with the client on the
/// other CPU the cost per request moved 15% when two busy loops ran
/// beside the benchmark; with the client here it moved 2-4%.
fn solo(
    d: &Daemon,
    name: &str,
    seed: u64,
    stream: u64,
    secs: f64,
    hot: &HotSet,
) -> io::Result<Solo> {
    sys::on_cpus(&[sys::placement().daemon], || {
        solo_loop(d, name, seed, stream, secs, hot)
    })
}

fn solo_loop(
    d: &Daemon,
    name: &str,
    seed: u64,
    stream: u64,
    secs: f64,
    hot: &HotSet,
) -> io::Result<Solo> {
    let mut r = Rng::stream(seed, stream);
    let mut ph = Phase {
        name: name.to_string(),
        plan: Vec::new(),
        reqs: Vec::new(),
        obs: Vec::new(),
    };
    let (mut cpu, mut refs) = (Vec::new(), Vec::new());
    let sock = TcpStream::connect(d.addr)?;
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut tx = sock.try_clone()?;
    let mut rx = BufReader::new(sock);
    let start = Instant::now();
    let end = Duration::from_secs_f64(secs);
    let mut last = d.cpu.secs();
    while start.elapsed() < end {
        let req = request(&mut r, hot);
        let line = format!("{{\"id\":\"{name}-{}\",{}}}\n", ph.plan.len(), req.body);
        let due = start.elapsed();
        tx.write_all(line.as_bytes())?;
        let mut resp = String::new();
        if rx.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let now = d.cpu.secs();
        cpu.push(now - last);
        last = now;
        ph.obs.push(Observed {
            sent: Some(due),
            recv: Some(start.elapsed()),
            response: Some(resp.trim_end().to_string()),
        });
        ph.plan.push(Planned {
            due,
            line: line.trim_end().to_string(),
        });
        ph.reqs.push(req);
        if ph.reqs.len().is_multiple_of(SOLO_REF_EVERY) {
            refs.push(calib::sample(CpuClock::thread(), ph.reqs.len() as u64));
            last = d.cpu.secs();
        }
    }
    Ok(Solo {
        phase: ph,
        cpu,
        refs,
    })
}

/// The response to check for request `i`: answered and admitted.
fn checked_response(ph: &Phase, i: usize) -> Option<&str> {
    ph.obs
        .get(i)?
        .response
        .as_deref()
        .filter(|l| !is_rejection(l))
}

/// Checks every answered, admitted response against the library;
/// returns how many were checked.
pub fn verify(phases: &[&Phase], hot: &HotSet, out: &mut Outcome) -> u64 {
    // Oracle results for everything not in the hot set, in parallel.
    let jobs: Vec<(usize, usize)> = phases
        .iter()
        .enumerate()
        .flat_map(|(k, ph)| {
            (0..ph.reqs.len())
                .filter(|&i| {
                    !matches!(ph.reqs[i].want, Want::Known(..)) && checked_response(ph, i).is_some()
                })
                .map(move |i| (k, i))
        })
        .collect();
    let evaluated = par_map(&jobs, |&(k, i)| match &phases[k].reqs[i].want {
        Want::Eval(s, _) => vec![(s.store_key(), s.evaluate())],
        Want::Refine(pts, _) => pts.iter().map(|s| (s.store_key(), s.evaluate())).collect(),
        Want::Known(..) => Vec::new(),
    });
    let mut results = evaluated.into_iter();
    let mut checked = 0u64;
    let mut mismatched = 0;
    for ph in phases {
        for (i, req) in ph.reqs.iter().enumerate() {
            let Some(line) = checked_response(ph, i) else {
                continue;
            };
            let want = match &req.want {
                Want::Known(kind, h, ranking) => Expected::Eval {
                    kind,
                    result: Ok(hot.evals[*h].clone()),
                    ranking: *ranking,
                },
                Want::Eval(s, ranking) => {
                    let (_, r) = results
                        .next()
                        .and_then(|mut v| v.pop())
                        .expect("one oracle result per request");
                    Expected::Eval {
                        kind: s.kind(),
                        result: r,
                        ranking: *ranking,
                    }
                }
                Want::Refine(_, obj) => {
                    let points = results
                        .next()
                        .expect("one oracle result per request")
                        .into_iter()
                        .map(|(d, r)| (d.map(|d| d.to_hex()).unwrap_or_default(), r))
                        .collect();
                    Expected::Refine {
                        points,
                        objective: *obj,
                    }
                }
            };
            checked += 1;
            if let Err(e) = oracle::check_response(line, &want) {
                mismatched += 1;
                if mismatched <= 5 {
                    out.fail(&ph.name, format!("request {}-{i}: {e}", ph.name));
                } else {
                    out.failed += 1;
                }
            }
        }
    }
    out.info.push(format!(
        "oracle: {checked} responses checked bit-exact against the library, {mismatched} mismatched"
    ));
    checked
}

/// A fresh work directory holding the segment (and access log).
fn workdir(root: &str, seed: u64) -> io::Result<PathBuf> {
    let dir = Path::new(root).join(format!("serve-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Lateness check over all open-loop traffic: a generator that did not
/// send every request, or whose p99 lateness passed [`LATE_LIMIT_MS`],
/// fell behind, and the run is invalid. Pooled over the whole run so a
/// brief host stall in one short window does not void it.
fn check_generator<'a>(phases: impl Iterator<Item = &'a Phase>, out: &mut Outcome) {
    let mut planned = 0;
    let mut late = Vec::new();
    for ph in phases {
        planned += ph.plan.len();
        late.extend(
            ph.plan
                .iter()
                .zip(&ph.obs)
                .filter_map(|(p, o)| o.lateness(p))
                .map(|l| l.as_secs_f64() * 1e3),
        );
    }
    let sent = late.len();
    let p99 = summarize(&mut late).p99_or_tail().1;
    if sent < planned || p99.is_nan() || p99 > LATE_LIMIT_MS {
        out.fail(
            "open",
            format!(
                "generator fell behind: sent {sent}/{planned}, late p99 {p99} ms \
                 (limit {LATE_LIMIT_MS} ms); run invalid"
            ),
        );
    }
}

/// The timed `serve_mix` run: [`ROUNDS`] rounds of an open-loop block,
/// a solo block and set-up repetitions, on one daemon.
///
/// The gated figures are daemon CPU time scaled to the nominal CPU
/// ([`calib`]): per solo request (`cpu_p50_ms`, `cpu_p95_ms`,
/// `fresh_cpu_p50_ms`), solo requests per daemon CPU second
/// (`throughput_per_cpu_s`) and daemon CPU from spawn to first answer
/// (`setup_s`). The open-loop blocks' wall-clock latencies are printed.
pub fn timed(bin: &str, work: &str, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let dir = workdir(work, seed)?;
    let seg = dir.join("store.seg");
    let hot = sys::on_all_cpus(|| HotSet::build(seed));
    hot.write_segment(&seg)?;
    let probe = format!("{{\"id\":\"setup-0\",{}}}", hot.points[0].body());
    // Set-up repetitions run on an untouched copy of the segment.
    let seg_setup = dir.join("setup.seg");
    std::fs::copy(&seg, &seg_setup)?;
    // Set-up CPU seconds, each with the round whose reference samples
    // scale it.
    let mut setup_raw: Vec<(usize, f64)> = Vec::new();
    let mut setup_wall = Vec::new();
    let mut setup_rep = |round: usize| -> io::Result<()> {
        let (cpu, wall, d) = timed_start(bin, &seg_setup, None, &probe)?;
        setup_raw.push((round, cpu));
        setup_wall.push(wall);
        d.shutdown()
    };
    for _ in 0..SETUP_PER_ROUND {
        setup_rep(0)?;
    }
    let (_, _, d) = timed_start(bin, &seg, None, &probe)?;
    let before = d.stats()?;
    let round = seconds / ROUNDS as f64;
    let (mut open, mut solos) = (Vec::new(), Vec::<Solo>::new());
    let mut open_cpu = 0.0;
    let mut rss = f64::NAN;
    for k in 0..ROUNDS {
        let mut ph = phase(
            &format!("open{k}"),
            seed,
            1 + k as u64,
            FIXED_RATE,
            round * OPEN_SHARE,
            &hot,
        );
        let c = d.cpu.secs();
        drive(&d, &mut ph, Duration::from_secs(5))?;
        open_cpu += d.cpu.secs() - c;
        open.push(ph);
        if k == 0 {
            // Memory after a fixed amount of traffic: the solo blocks'
            // request count (and so the store's growth) follows speed.
            rss = peak_rss_mb(&d.pid().to_string()).unwrap_or(f64::NAN);
        }
        solos.push(solo(
            &d,
            &format!("solo{k}"),
            seed,
            100 + k as u64,
            round * (1.0 - OPEN_SHARE),
            &hot,
        )?);
        for _ in 0..SETUP_PER_ROUND {
            setup_rep(k)?;
        }
    }
    let after = d.stats()?;
    d.shutdown()?;

    let lookups = num(&after, &["store", "hits"]) + num(&after, &["store", "misses"])
        - num(&before, &["store", "hits"])
        - num(&before, &["store", "misses"]);
    let hits = num(&after, &["store", "hits"]) - num(&before, &["store", "hits"]);
    out.info.push(format!(
        "store hit share {:.3}, fresh share {:.3} (server stats, whole run)",
        hits / lookups.max(1.0),
        1.0 - hits / lookups.max(1.0),
    ));
    let stats: Vec<PhaseStats> = open.iter().map(phase_stats).collect();
    let mut wall: Vec<f64> = stats
        .iter()
        .flat_map(|s| s.all_ms.iter().copied())
        .collect();
    let mut wall_fresh: Vec<f64> = stats
        .iter()
        .flat_map(|s| s.fresh_ms.iter().copied())
        .collect();
    let n_open = wall.len();
    out.info.push(format!(
        "open loop at {FIXED_RATE} req/s, wall clock (not gated): {}; fresh p50 {:.4} ms; \
         {:.0} requests per unscaled daemon CPU second",
        crate::stats::tails(&mut wall),
        median(&mut wall_fresh),
        n_open as f64 / open_cpu
    ));
    out.info.push(format!(
        "set-up wall clock (not gated): median {:.5} s of {:?}",
        median(&mut setup_wall.clone()),
        setup_wall
    ));

    // Every daemon CPU time scaled to the nominal CPU by its round.
    let scales: Vec<f64> = solos
        .iter_mut()
        .map(|s| calib::scale(&mut s.refs))
        .collect();
    let raw: f64 = solos.iter().flat_map(|s| &s.cpu).sum();
    let n_solo: usize = solos.iter().map(|s| s.cpu.len()).sum();
    out.info.push(format!(
        "unscaled daemon CPU (not gated): {:.0} solo requests per CPU second; scale to the \
         nominal CPU per round {scales:.3?}",
        n_solo as f64 / raw
    ));
    let mut setups: Vec<f64> = setup_raw.iter().map(|&(k, c)| c * scales[k]).collect();
    let n_setup = setups.len();
    out.push(
        Metric::new("setup_s", median(&mut setups), "s", n_setup).note(format!(
            "daemon nominal CPU s, median of {n_setup} spawns -> first response, \
             incl. segment recovery"
        )),
    );
    let scaled = |fresh_only: bool| -> Vec<f64> {
        solos
            .iter()
            .zip(&scales)
            .flat_map(|(s, &f)| {
                s.phase
                    .reqs
                    .iter()
                    .zip(&s.cpu)
                    .filter(move |(r, _)| !fresh_only || r.class == Class::Fresh)
                    .map(move |(_, c)| c * f * 1e3)
            })
            .collect()
    };
    let mut per = scaled(false);
    let total_s: f64 = per.iter().sum::<f64>() * 1e-3;
    out.push(
        Metric::new(
            "throughput_per_cpu_s",
            per.len() as f64 / total_s,
            "1/s",
            per.len(),
        )
        .note("solo requests per daemon nominal CPU second"),
    );
    let all = summarize(&mut per);
    out.push(
        Metric::new("cpu_p50_ms", all.p50, "ms", all.n).note("daemon nominal CPU per solo request"),
    );
    out.push(
        Metric::new("cpu_p95_ms", all.p95.unwrap_or(f64::NAN), "ms", all.n)
            .note("daemon nominal CPU per solo request, p95"),
    );
    let fresh = summarize(&mut scaled(true));
    out.push(
        Metric::new("fresh_cpu_p50_ms", fresh.p50, "ms", fresh.n)
            .note("daemon nominal CPU per solo store-miss point (evaluate and append)"),
    );
    out.push(Metric::new("peak_rss_mb", rss, "MB", 1).note("VmHWM of the xlda-serve process"));

    // Requests refused or unanswered are failures.
    check_generator(open.iter(), &mut out);
    let mut lost = stats
        .iter()
        .zip(&open)
        .map(|(s, ph)| ph.plan.len() - (s.answered - s.rejected))
        .sum::<usize>();
    lost += solos
        .iter()
        .map(|s| {
            (0..s.phase.plan.len())
                .filter(|&i| checked_response(&s.phase, i).is_none())
                .count()
        })
        .sum::<usize>();
    if lost > 0 {
        out.fail("window", format!("{lost} requests refused or unanswered"));
        out.failed += lost as u64 - 1;
    }
    let phases: Vec<&Phase> = open.iter().chain(solos.iter().map(|s| &s.phase)).collect();
    out.attempted += lost as u64 + sys::on_all_cpus(|| verify(&phases, &hot, &mut out));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Per-stage `(p50, p99-or-tail, n)` in ms from the access log, over
/// requests whose id starts with `prefix`.
fn stage_quantiles(log: &Path, prefix: &str) -> Vec<(&'static str, f64, f64, usize)> {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let stages = ["decode", "queue", "batch", "eval", "write"];
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); stages.len()];
    for line in text.lines() {
        let Ok(v) = Json::parse(line) else { continue };
        if !v
            .get("id")
            .and_then(Json::as_str)
            .is_some_and(|id| id.starts_with(prefix))
        {
            continue;
        }
        let Some(ns) = v.get("stages_ns") else {
            continue;
        };
        for (k, s) in stages.iter().enumerate() {
            if let Some(x) = ns.get(s).and_then(Json::as_f64) {
                per[k].push(x * 1e-6);
            }
        }
    }
    stages
        .iter()
        .zip(per.iter_mut())
        .map(|(s, xs)| {
            let q = summarize(xs);
            (*s, q.p50, q.p99_or_tail().1, q.n)
        })
        .collect()
}

/// `(name, hits, misses)` and total entries of the server's memo caches.
fn server_caches(stats: &Json) -> (Vec<(String, u64, u64)>, u64) {
    let mut out = Vec::new();
    let mut entries = 0;
    for c in stats
        .get("caches")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let name = c.get("name").and_then(Json::as_str).unwrap_or_default();
        out.push((
            name.to_string(),
            num(c, &["hits"]) as u64,
            num(c, &["misses"]) as u64,
        ));
        entries += num(c, &["entries"]) as u64;
    }
    (out, entries)
}

/// What a traced serve run measured and the traffic it sent.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub phase: Phase,
    pub outcome: Outcome,
}

/// The traced serve run: one fixed-rate phase with the access log on,
/// read back with the `stats` endpoint and the segment.
pub fn traced(bin: &str, work: &str, seed: u64, seconds: f64) -> io::Result<Traced> {
    let mut outcome = Outcome::default();
    let dir = workdir(work, seed)?;
    let seg = dir.join("store.seg");
    let log = dir.join("access.ndjson");
    let hot = sys::on_all_cpus(|| HotSet::build(seed));
    hot.write_segment(&seg)?;
    let probe = format!("{{\"id\":\"setup-0\",{}}}", hot.points[0].body());
    let (_, _, d) = timed_start(bin, &seg, Some(&log), &probe)?;
    let before = d.stats()?;
    let mut ph = phase("fixed", seed, 1, FIXED_RATE, seconds, &hot);
    drive(&d, &mut ph, Duration::from_secs(5))?;
    let after = d.stats()?;
    d.shutdown()?;
    let s = phase_stats(&ph);
    check_generator(std::iter::once(&ph), &mut outcome);
    let lost = ph.plan.len() - (s.answered - s.rejected);
    if lost > 0 {
        outcome.fail("traced", format!("{lost} requests refused or unanswered"));
    }
    outcome.attempted += lost as u64 + sys::on_all_cpus(|| verify(&[&ph], &hot, &mut outcome));

    let mut out = Vec::new();
    let metric = |name: &str, v: f64, unit: &'static str, n: usize| Metric::new(name, v, unit, n);
    for (stage, p50, p99, n) in stage_quantiles(&log, "fixed-") {
        out.push(metric(&format!("serve.{stage}_ms.p50"), p50, "ms", n));
        out.push(metric(&format!("serve.{stage}_ms.p99"), p99, "ms", n));
    }
    let delta = |path: &[&str]| num(&after, path) - num(&before, path);
    out.push(metric(
        "serve.rejected",
        delta(&["rejected"]),
        "count",
        ph.plan.len(),
    ));
    let lookups = delta(&["store", "hits"]) + delta(&["store", "misses"]);
    out.push(metric("store.lookups", lookups, "count", lookups as usize));
    out.push(metric(
        "store.hit_rate",
        delta(&["store", "hits"]) / lookups.max(1.0),
        "ratio",
        lookups as usize,
    ));
    out.push(metric(
        "store.appends",
        delta(&["store", "inserted"]),
        "count",
        1,
    ));
    out.push(metric(
        "store.append_bytes",
        delta(&["store", "persisted_bytes"]),
        "bytes",
        1,
    ));
    let mut opens: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let st = ResultStore::open(&seg);
            let dt = t.elapsed().as_secs_f64();
            drop(st);
            dt
        })
        .collect();
    out.push(metric("store.open_s", median(&mut opens), "s", 3));
    let (c0, _) = server_caches(&before);
    let (c1, entries) = server_caches(&after);
    let caches: Vec<(String, u64, u64)> = c1
        .into_iter()
        .map(|(n, h, m)| {
            let (h0, m0) = c0.iter().find(|c| c.0 == n).map_or((0, 0), |c| (c.1, c.2));
            (n, h.saturating_sub(h0), m.saturating_sub(m0))
        })
        .collect();
    out.extend(crate::layers::memo_metrics(&caches, entries));
    out.push(metric(
        "loadgen.late_p99_ms",
        s.late.p99_or_tail().1,
        "ms",
        s.late.n,
    ));
    out.push(metric(
        "loadgen.sent",
        s.sent as f64,
        "count",
        ph.plan.len(),
    ));
    out.push(metric(
        "loadgen.answered",
        s.answered as f64,
        "count",
        ph.plan.len(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Traced {
        metrics: out,
        phase: ph,
        outcome,
    })
}

/// Model-layer inputs from the fresh points and MC requests a phase sent.
pub fn layer_inputs(ph: &Phase) -> crate::layers::Inputs {
    let mut inp = crate::layers::Inputs::default();
    for r in &ph.reqs {
        match &r.fresh {
            Some(Point::Hdc(p)) => inp.hdc.push(p.s.clone()),
            Some(Point::Mann(p)) => inp.mann.push(p.s.clone()),
            Some(Point::Tpu(p, b)) => inp.tpu.push(grid::tpu_scenario(&(p.clone(), *b))),
            Some(Point::Edge(p)) => inp.edge.push(grid::edge_scenario(p)),
            None => {}
        }
        if let Some(s) = &r.mc {
            inp.mann_mc.push(s.clone());
        }
    }
    inp
}

/// Monte-Carlo trials the phase's answered mann_mc requests asked for.
pub fn mc_trials(ph: &Phase) -> u64 {
    ph.reqs
        .iter()
        .zip(&ph.obs)
        .filter(|(_, o)| o.response.is_some())
        .filter_map(|(r, _)| r.mc.as_ref())
        .map(|s| s.mc.trials as u64)
        .sum()
}
