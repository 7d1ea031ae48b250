//! The two serving workloads: an in-process `Daemon` on loopback TCP, fed
//! by an open-loop load generator with one persistent connection per
//! available CPU.
//!
//! * `serve-short` — 1 Product session (~18 events) per request: per-request
//!   overhead dominates.
//! * `serve-long` — 64 `podcast` sessions (~80 events each) per request,
//!   one full default micro-batch: scorer compute dominates.
//!
//! A run opens fresh connections to measure `connect_ms`, then runs the
//! reference rate (`p50_ms`, `p90_ms`) and an ascending ladder of fixed
//! rates (`capacity_rps`), all on connections opened and warmed before
//! timing starts. Every request is timed from its due time.

use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use uae_core::{AttentionEstimator, Uae, UaeConfig};
use uae_data::{generate, infer_seq_batches, split_by_ratio, Dataset, FlatData, SimConfig};
use uae_runtime::UaeError;
use uae_serve::wire::{self, Request, Response};
use uae_serve::{
    Daemon, DaemonConfig, FaultPlan, FrozenModel, Scorer, ScorerConfig, ServeClient, SessionScores,
    StatsSnapshot, WireHist, WireSession,
};
use uae_tensor::Rng;

use crate::fit::{
    arena_heap_allocs, optim_step, replica_step, seeds, tensor_counters, time_us, FULL_SCALE,
    GAMMA, THROUGHPUT_WINDOW,
};
use crate::stats::{self, judge_rung, mean, median, ms, Clock, Ledger, Sample, Tail};
use crate::trace::EventLog;
use crate::{Ctx, Report, SETUPS};

/// One serving workload's request mix, reference rate and latency limit.
pub struct Mix {
    pub name: &'static str,
    scenario: &'static str,
    sessions_per_request: usize,
    /// Distinct requests drawn from the session pool (cycled).
    pool: usize,
    /// Fixed rate at about half the closed-loop saturation (req/s).
    ref_rate: f64,
    /// Latency limit on the p99 for `capacity_rps` (ms).
    limit_ms: f64,
    /// Ascending ladder: first rate, last rate, ratio between steps.
    ladder: (f64, f64, f64),
    /// Seconds per ladder rung.
    rung_s: f64,
    /// Algorithm 1 epochs of the set-up fit that produces the served model.
    fit_epochs: usize,
}

impl Mix {
    pub fn short() -> Mix {
        Mix {
            name: "serve-short",
            scenario: "baseline",
            sessions_per_request: 1,
            pool: 4096,
            ref_rate: 8000.0,
            limit_ms: 2.0,
            ladder: (10_000.0, 30_000.0, 1.05),
            rung_s: 1.5,
            fit_epochs: 2,
        }
    }

    pub fn long() -> Mix {
        Mix {
            name: "serve-long",
            scenario: "podcast",
            sessions_per_request: 64,
            pool: 2048,
            ref_rate: 50.0,
            limit_ms: 50.0,
            ladder: (80.0, 240.0, 1.05),
            rung_s: 2.0,
            fit_epochs: 4,
        }
    }
}

/// The request mix: seeded draws of session ids from the served dataset.
/// Request `g` carries the sessions of draw `g mod pool`; it is assembled
/// from the pre-extracted wire sessions when it is sent, so a large pool
/// costs no memory and the mix of request sizes barely moves between seeds.
struct Traffic {
    wire: Vec<WireSession>,
    draws: Vec<Vec<usize>>,
}

impl Traffic {
    fn new(ds: &Dataset, mix: &Mix, seed: u64) -> Traffic {
        let mut rng = Rng::seed_from_u64(seed ^ 0x7265_7173);
        let draws = (0..mix.pool)
            .map(|_| {
                (0..mix.sessions_per_request)
                    .map(|_| rng.below(ds.sessions.len()))
                    .collect()
            })
            .collect();
        let wire = (0..ds.sessions.len())
            .map(|s| WireSession::from_dataset(ds, s))
            .collect();
        Traffic { wire, draws }
    }

    fn sessions(&self, g: u64) -> &[usize] {
        &self.draws[(g % self.draws.len() as u64) as usize]
    }

    fn request(&self, g: u64) -> Request {
        Request::Score {
            deadline_ms: 0,
            sessions: self
                .sessions(g)
                .iter()
                .map(|&s| self.wire[s].clone())
                .collect(),
        }
    }
}

/// Samples at least this many requests at the reference rate, so its p99
/// has ≥ 10 samples beyond it.
const REF_MIN_SAMPLES: usize = 1100;
/// Fresh connections opened to measure `connect_ms`.
const PROBE_CONNECTIONS: usize = 24;
/// Replies bit-compared against in-process scoring: every Nth request.
const CHECK_EVERY: u64 = 53;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Tightens this thread's timer slack to 1 µs so the generator's sleeps end
/// on time (the default 50 µs slack would show up as lateness).
fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes the calling thread's timer slack; it touches no memory.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Wall clock from a shared origin.
struct WallClock {
    origin: Instant,
}

impl Clock for WallClock {
    fn now(&mut self) -> Duration {
        self.origin.elapsed()
    }
    fn sleep_until(&mut self, t: Duration) {
        let now = self.origin.elapsed();
        if t > now {
            thread::sleep(t - now);
        }
    }
}

/// Per-request client-side timings of a traced rung (µs).
#[derive(Default)]
struct ClientTimes {
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    req_bytes: Vec<f64>,
    resp_bytes: Vec<f64>,
}

/// Outcome of one rung.
#[derive(Default)]
struct RungOut {
    samples: Vec<Sample>,
    /// `(request index, reply)` of the sampled requests.
    replies: Vec<(u64, Vec<SessionScores>)>,
    errors: Vec<String>,
    times: ClientTimes,
}

/// One request/reply exchange on a persistent connection through the
/// public wire codec. Returns the reply sessions or a failure description.
fn exchange(
    stream: &mut TcpStream,
    req: &Request,
    times: Option<&mut ClientTimes>,
) -> Result<Vec<SessionScores>, String> {
    let t = Instant::now();
    let frame = wire::encode_request(req);
    let enc = t.elapsed();
    wire::write_frame(stream, &frame).map_err(|e| e.to_string())?;
    let payload = wire::read_frame(stream)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "daemon closed the connection".to_string())?;
    let t = Instant::now();
    let resp = wire::decode_response(&payload);
    let dec = t.elapsed();
    if let Some(tm) = times {
        tm.encode_us.push(enc.as_secs_f64() * 1e6);
        tm.decode_us.push(dec.as_secs_f64() * 1e6);
        tm.req_bytes.push(frame.len() as f64 + 4.0);
        tm.resp_bytes.push(payload.len() as f64 + 4.0);
    }
    let Request::Score { sessions: sent, .. } = req else {
        return Err("not a score request".into());
    };
    match resp {
        Ok(Response::Scored { sessions, .. }) => {
            let shapes_match = sessions.len() == sent.len()
                && sessions
                    .iter()
                    .zip(sent)
                    .all(|(s, w)| s.attention.len() == w.len());
            if shapes_match {
                Ok(sessions)
            } else {
                Err("reply shape differs from the request".into())
            }
        }
        Ok(other) => Err(format!("unexpected reply {other:?}")),
        Err(e) => Err(classify(&e)),
    }
}

fn classify(e: &UaeError) -> String {
    match e {
        UaeError::Overload { .. } => format!("shed: {e}"),
        UaeError::DeadlineExceeded { .. } => format!("deadline: {e}"),
        _ => e.to_string(),
    }
}

/// Runs one fixed-rate rung: each connection takes every `conns.len()`-th
/// due time of the schedule, open loop.
fn run_rung(
    conns: &mut [TcpStream],
    traffic: &Traffic,
    rate: f64,
    dur: Duration,
    first: u64,
    traced: bool,
) -> RungOut {
    let n = conns.len();
    let lead = Duration::from_millis(5);
    let origin = Instant::now();
    let outs: Vec<RungOut> = thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, stream)| {
                s.spawn(move || {
                    tight_timer_slack();
                    let due = stats::due_times(rate, lead, lead + dur, k, n);
                    let mut out = RungOut::default();
                    let mut clock = WallClock { origin };
                    let mut replies = Vec::new();
                    let mut errors = Vec::new();
                    let mut times = ClientTimes::default();
                    out.samples = stats::run_schedule(&mut clock, &due, |j, _| {
                        let g = first + (k + j * n) as u64;
                        let req = traffic.request(g);
                        match exchange(stream, &req, traced.then_some(&mut times)) {
                            Ok(scores) => {
                                if g.is_multiple_of(CHECK_EVERY) {
                                    replies.push((g, scores));
                                }
                                true
                            }
                            Err(e) => {
                                errors.push(e);
                                false
                            }
                        }
                    });
                    out.replies = replies;
                    out.errors = errors;
                    out.times = times;
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut all = RungOut::default();
    for o in outs {
        all.samples.extend(o.samples);
        all.replies.extend(o.replies);
        all.errors.extend(o.errors);
        all.times.encode_us.extend(o.times.encode_us);
        all.times.decode_us.extend(o.times.decode_us);
        all.times.req_bytes.extend(o.times.req_bytes);
        all.times.resp_bytes.extend(o.times.resp_bytes);
    }
    all.samples.sort_by_key(|s| s.due);
    all
}

/// Everything set-up produces.
struct Served {
    ds: Dataset,
    test: Vec<usize>,
    uae: Uae,
    path: std::path::PathBuf,
    daemon: Daemon,
}

fn daemon_config(ctx: &Ctx) -> DaemonConfig {
    DaemonConfig {
        flight_dir: ctx.work.clone(),
        ..DaemonConfig::default()
    }
}

/// Data generation, a short fit of the served model, export, open and
/// daemon bind. Records the per-stage times into `t`.
/// The served model and its session pool are the same in every run (a
/// deployed artifact); the workload seed draws the traffic.
fn setup(ctx: &Ctx, mix: &Mix, t: &mut SetupTimes) -> Served {
    let (data_seed, model_seed) = seeds(0);
    let s = Instant::now();
    let sim = SimConfig::scenario(mix.scenario, FULL_SCALE).expect("scenario");
    let ds = generate(&sim, data_seed);
    t.generate_s.push(s.elapsed().as_secs_f64());
    let mut rng = Rng::seed_from_u64(data_seed ^ 0x73_706c);
    let split = split_by_ratio(&ds, 0.8, 0.1, &mut rng);
    let cfg = UaeConfig {
        seed: model_seed,
        epochs: mix.fit_epochs,
        ..UaeConfig::default()
    };
    let s = Instant::now();
    let mut uae = Uae::new(&ds.schema, cfg);
    t.build_ms.push(ms(s.elapsed()));
    let s = Instant::now();
    uae.fit(&ds, &split.train);
    t.epoch_s
        .push(s.elapsed().as_secs_f64() / mix.fit_epochs as f64);
    let s = Instant::now();
    let path = ctx.work.join(format!("{}.uaem", mix.name));
    std::fs::write(
        &path,
        FrozenModel::from_uae(&uae, &ds.schema, GAMMA).encode(),
    )
    .expect("write artifact");
    t.encode_ms.push(ms(s.elapsed()));
    let s = Instant::now();
    let frozen = FrozenModel::open(&path).expect("open artifact");
    t.open_ms.push(ms(s.elapsed()));
    let daemon = Daemon::bind(frozen, daemon_config(ctx), FaultPlan::none()).expect("bind daemon");
    Served {
        ds,
        test: split.test,
        uae,
        path,
        daemon,
    }
}

#[derive(Default)]
struct SetupTimes {
    generate_s: Vec<f64>,
    build_ms: Vec<f64>,
    epoch_s: Vec<f64>,
    encode_ms: Vec<f64>,
    open_ms: Vec<f64>,
}

/// A daemon running on its own thread.
struct Running {
    addr: String,
    handle: thread::JoinHandle<Result<(), UaeError>>,
}

fn start(daemon: Daemon) -> Running {
    let addr = daemon.local_addr().to_string();
    let handle = thread::Builder::new()
        .name("bench-daemon".into())
        .spawn(move || daemon.run())
        .expect("spawn daemon thread");
    Running { addr, handle }
}

/// Asks the daemon to drain and waits for its thread.
fn stop(r: Running) -> Result<(), String> {
    let mut c = ServeClient::connect(&r.addr).map_err(|e| e.to_string())?;
    c.shutdown().map_err(|e| e.to_string())?;
    drop(c);
    match r.handle.join() {
        Ok(res) => res.map_err(|e| e.to_string()),
        Err(_) => Err("daemon thread panicked".into()),
    }
}

/// Stats once every minted trace has closed (the daemon closes a trace
/// just after writing the reply, so give it a moment).
fn settled_stats(addr: &str) -> Result<StatsSnapshot, String> {
    let mut c = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let s = c.stats().map_err(|e| e.to_string())?;
        if s.traces_started == s.traces_completed || Instant::now() > deadline {
            return Ok(s);
        }
        thread::sleep(Duration::from_millis(5));
    }
}

fn open_conns(addr: &str, traffic: &Traffic, n: usize) -> Vec<TcpStream> {
    (0..n)
        .map(|i| {
            let mut s = TcpStream::connect(addr).expect("connect to daemon");
            let _ = s.set_nodelay(true);
            // Warm the connection (and the daemon's first-batch path) before
            // any timing starts, so connection cost never lands in a rung.
            for j in 0..3 {
                exchange(&mut s, &traffic.request((i + j) as u64), None).expect("warm-up request");
            }
            s
        })
        .collect()
}

/// Fresh connections: connect, one request, first scored reply. Arrivals
/// are spread evenly over a 20 ms window after each reply, so their phase
/// against any periodic accept loop is sampled uniformly rather than
/// locked to it.
fn connect_probe(
    addr: &str,
    traffic: &Traffic,
    rep: &mut Report,
    failures: &mut Vec<String>,
) -> Vec<f64> {
    let mut out = Vec::new();
    for i in 0..PROBE_CONNECTIONS {
        let stratum = (i * 7) % PROBE_CONNECTIONS;
        thread::sleep(Duration::from_secs_f64(
            0.020 * stratum as f64 / PROBE_CONNECTIONS as f64,
        ));
        let t = Instant::now();
        rep.attempted += 1;
        let res = TcpStream::connect(addr)
            .map_err(|e| e.to_string())
            .and_then(|mut s| {
                let _ = s.set_nodelay(true);
                exchange(&mut s, &traffic.request(i as u64), None)
            });
        match res {
            Ok(_) => out.push(ms(t.elapsed())),
            Err(e) => failures.push(format!("connect probe: {e}")),
        }
    }
    out
}

fn hist<'a>(s: &'a StatsSnapshot, name: &str) -> Option<&'a WireHist> {
    s.hists.iter().find(|h| h.name == name)
}

fn hist_mean(s: &StatsSnapshot, name: &str) -> f64 {
    hist(s, name)
        .map(|h| h.sum as f64 / h.count.max(1) as f64)
        .unwrap_or(0.0)
}

pub fn run(ctx: &Ctx, rep: &mut Report, mix: Mix) {
    // ---- set-up, several times; the last one is served.
    let mut times = SetupTimes::default();
    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        served = Some(setup(ctx, &mix, &mut times));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Served {
        ds,
        test,
        uae,
        path,
        daemon,
    } = served.expect("at least one set-up");
    rep.metric("setup_s", median(&setup_s), setup_s.len());
    rep.metric("epoch_s", median(&times.epoch_s), times.epoch_s.len());
    rep.metric(
        "data.generate_s",
        median(&times.generate_s),
        times.generate_s.len(),
    );
    rep.metric(
        "model.build_ms",
        median(&times.build_ms),
        times.build_ms.len(),
    );
    rep.metric(
        "model.encode_ms",
        median(&times.encode_ms),
        times.encode_ms.len(),
    );
    rep.metric("model.open_ms", median(&times.open_ms), times.open_ms.len());

    // ---- the request mix: seeded draws from the whole session pool.
    let traffic = Traffic::new(&ds, &mix, ctx.seed);
    let events_per_req: f64 = traffic
        .draws
        .iter()
        .flatten()
        .map(|&s| ds.sessions[s].len())
        .sum::<usize>() as f64
        / mix.pool as f64;
    rep.note(format!(
        "mix {}: {} sessions/request, {:.1} events/request, reference {} req/s, limit {} ms",
        mix.name, mix.sessions_per_request, events_per_req, mix.ref_rate, mix.limit_ms
    ));

    // The in-process reference scorer the replies are checked against.
    let reference = Scorer::with_config(
        FrozenModel::open(&path).expect("open artifact"),
        ScorerConfig::default(),
    )
    .expect("build reference scorer");
    let held_out = reference.score(&ds, &test);
    let truth = FlatData::from_sessions(&ds, &test);
    rep.metric(
        "auc",
        uae_metrics::auc(&held_out.attention, &truth.true_attention).unwrap_or(0.5),
        truth.len(),
    );
    let mut per_s = Vec::new();
    let s = Instant::now();
    let mut k = 0;
    while per_s.len() < 5 || s.elapsed() < THROUGHPUT_WINDOW {
        let t = Instant::now();
        let out = reference.score(&ds, traffic.sessions(k));
        per_s.push(out.len() as f64 / t.elapsed().as_secs_f64());
        k += 1;
    }
    rep.metric("score_events_per_s", median(&per_s), per_s.len());

    let nconn = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    // The traced run compares p50s only, so its reference rungs are shorter.
    let (share, min_samples) = if ctx.trace {
        (0.2, REF_MIN_SAMPLES / 2)
    } else {
        (0.3, REF_MIN_SAMPLES)
    };
    let ref_dur =
        Duration::from_secs_f64((ctx.seconds * share).max(min_samples as f64 / mix.ref_rate + 0.5));
    let mut failures: Vec<String> = Vec::new();
    let mut checked = Vec::new();
    let mut sent = 0u64;
    let mut next = 0u64;

    let running = start(daemon);
    let probe = connect_probe(&running.addr, &traffic, rep, &mut failures);
    sent += PROBE_CONNECTIONS as u64;
    rep.metric("connect_ms", median(&probe), probe.len());
    let mut conns = open_conns(&running.addr, &traffic, nconn);
    sent += 3 * nconn as u64;

    // ---- reference rate.
    let r = run_rung(&mut conns, &traffic, mix.ref_rate, ref_dur, next, false);
    next += r.samples.len() as u64;
    sent += r.samples.len() as u64;
    let lat: Vec<f64> = r.samples.iter().map(Sample::latency_ms).collect();
    let tail = rep.latencies(&format!("reference {} req/s", mix.ref_rate), &lat);
    if tail.n < min_samples {
        failures.push(format!("reference rate ran only {} requests", tail.n));
    }
    let late = Tail::of(&r.samples.iter().map(Sample::late_ms).collect::<Vec<_>>());
    rep.note(format!(
        "reference lateness: p50 {:.3} ms max {:.3} ms",
        late.p50,
        r.samples.iter().map(Sample::late_ms).fold(0.0, f64::max)
    ));
    failures.extend(r.errors.iter().map(|e| format!("reference rate: {e}")));
    checked.extend(r.replies);

    if ctx.trace {
        // Untraced reference for the tracing overhead, then the traced run.
        let untraced_p50 = tail.p50;
        drop(conns);
        stop(running).unwrap_or_else(|e| failures.push(format!("shutdown: {e}")));
        sent += traced(
            ctx,
            rep,
            &mix,
            &ds,
            &uae,
            &traffic,
            &reference,
            untraced_p50,
            ref_dur,
            &mut failures,
        );
        finish(rep, failures, sent);
        return;
    }

    // ---- capacity ladder.
    let (lo, hi, step) = mix.ladder;
    let mut rungs = Vec::new();
    for (trial, rate) in stats::ladder(lo, hi, step)
        .into_iter()
        .flat_map(|rate| [(1, rate), (2, rate)])
    {
        if trial == 2 && rungs.last().is_some_and(|r: &stats::Rung| r.pass) {
            continue;
        }
        thread::sleep(Duration::from_millis(30));
        let r = run_rung(
            &mut conns,
            &traffic,
            rate,
            Duration::from_secs_f64(mix.rung_s),
            next,
            false,
        );
        next += r.samples.len() as u64;
        sent += r.samples.len() as u64;
        let verdict = judge_rung(rate, &r.samples, mix.limit_ms);
        let lat = Tail::of(&r.samples.iter().map(Sample::latency_ms).collect::<Vec<_>>());
        let late = Tail::of(&r.samples.iter().map(Sample::late_ms).collect::<Vec<_>>());
        rep.note(format!(
            "rung {:.0} req/s trial {trial}: sent {} misses {} windows passed {}/{} backlog {} p50 {:.3} ms p{} {:.3} ms late p{} {:.3} ms -> {}",
            rate,
            verdict.attempted,
            verdict.misses,
            verdict.windows_passed,
            verdict.windows,
            verdict.backlog,
            lat.p50,
            lat.pct.unwrap_or(0.0),
            lat.value,
            late.pct.unwrap_or(0.0),
            late.value,
            if verdict.pass { "pass" } else { "FAIL" }
        ));
        // Failures beyond the reference rate are expected under overload;
        // they count as misses in the rung verdict, not as run failures.
        checked.extend(r.replies);
        let pass = verdict.pass;
        if trial == 2 {
            rungs.pop();
        }
        rungs.push(verdict);
        // A rung fails only when its confirming trial fails too, so one
        // transient stall on a shared host does not end the ladder.
        if !pass && trial == 2 {
            break;
        }
    }
    let capacity = stats::capacity(&rungs).unwrap_or(0.0);
    rep.metric("capacity_rps", capacity, rungs.len());
    if capacity == 0.0 {
        failures.push(format!(
            "lowest ladder rung {lo} req/s already misses the limit"
        ));
    }

    // ---- checks: ledger of requests, orphaned traces, bit-identity.
    drop(conns);
    match settled_stats(&running.addr) {
        Ok(s) => {
            rep.check(
                "no_orphan_traces",
                s.traces_started == s.traces_completed,
                format!(
                    "traces started {} completed {}",
                    s.traces_started, s.traces_completed
                ),
            );
            rep.note(format!(
                "daemon requests {} shed {} deadline_miss {} protocol_errors {}",
                s.requests, s.shed, s.deadline_miss, s.protocol_errors
            ));
        }
        Err(e) => failures.push(format!("stats: {e}")),
    }
    stop(running).unwrap_or_else(|e| failures.push(format!("shutdown: {e}")));
    bit_check(rep, &ds, &traffic, &reference, &checked);
    finish(rep, failures, sent);
}

/// Compares sampled replies with in-process `Scorer::score` on the same
/// sessions, bit for bit.
fn bit_check(
    rep: &mut Report,
    ds: &Dataset,
    traffic: &Traffic,
    reference: &Scorer,
    replies: &[(u64, Vec<SessionScores>)],
) {
    let mut mismatched = 0;
    for (g, got) in replies {
        let want = reference.score(ds, traffic.sessions(*g));
        let flat = |f: fn(&SessionScores) -> &Vec<f32>| -> Vec<u32> {
            got.iter()
                .flat_map(|s| f(s).iter().map(|x| x.to_bits()))
                .collect()
        };
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        if flat(|s| &s.attention) != bits(&want.attention)
            || flat(|s| &s.propensity) != bits(&want.propensity)
            || flat(|s| &s.weights) != bits(&want.weights)
        {
            mismatched += 1;
        }
    }
    rep.check(
        "replies_match_scorer",
        mismatched == 0 && !replies.is_empty(),
        format!(
            "{mismatched} of {} sampled replies differ from in-process Scorer::score",
            replies.len()
        ),
    );
    rep.failed += mismatched;
}

/// Folds transport and typed failures into the report: every failure
/// counts in `failed` and fails the run.
fn finish(rep: &mut Report, failures: Vec<String>, sent: u64) {
    rep.attempted += sent;
    rep.failed += failures.len() as u64;
    for f in failures.iter().take(5) {
        rep.note(format!("failure: {f}"));
    }
    rep.check(
        "no_failed_requests",
        failures.is_empty(),
        format!("{} failures among {sent} requests sent", failures.len()),
    );
    rep.note(format!("loadgen sent {sent}"));
}

/// The traced run: the reference rate again on a fresh daemon whose
/// threads emit into a telemetry sink, with client-side wire timings,
/// daemon stage histograms and in-process replicas of each layer. Returns
/// the requests it sent.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    rep: &mut Report,
    mix: &Mix,
    ds: &Dataset,
    uae: &Uae,
    traffic: &Traffic,
    reference: &Scorer,
    untraced_p50: f64,
    ref_dur: Duration,
    failures: &mut Vec<String>,
) -> u64 {
    let log = EventLog::new();
    let frozen =
        FrozenModel::open(&ctx.work.join(format!("{}.uaem", mix.name))).expect("open artifact");
    let daemon = uae_obs::with_sink(log.clone(), || {
        Daemon::bind(frozen, daemon_config(ctx), FaultPlan::none())
    })
    .expect("bind traced daemon");
    let running = start(daemon);
    let nconn = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let mut conns = open_conns(&running.addr, traffic, nconn);
    let r = run_rung(&mut conns, traffic, mix.ref_rate, ref_dur, 0, true);
    drop(conns);
    failures.extend(
        r.errors
            .iter()
            .map(|e| format!("traced reference rate: {e}")),
    );
    let lat = Tail::of(&r.samples.iter().map(Sample::latency_ms).collect::<Vec<_>>());
    let service = Tail::of(&r.samples.iter().map(Sample::service_ms).collect::<Vec<_>>());
    let late = Tail::of(&r.samples.iter().map(Sample::late_ms).collect::<Vec<_>>());
    rep.metric(
        "obs.trace_overhead_pct",
        (lat.p50 - untraced_p50) / untraced_p50 * 100.0,
        lat.n,
    );
    rep.metric(
        "loadgen.late_ms.p99",
        stats::p99_supported(&r.samples.iter().map(Sample::late_ms).collect::<Vec<_>>())
            .map(|(v, _)| v)
            .unwrap_or(late.value),
        late.n,
    );
    rep.metric("loadgen.sent", r.samples.len() as f64, 1);
    let t = &r.times;
    rep.metric("wire.encode_us", median(&t.encode_us), t.encode_us.len());
    rep.metric("wire.decode_us", median(&t.decode_us), t.decode_us.len());
    rep.metric("wire.req_bytes", median(&t.req_bytes), t.req_bytes.len());
    rep.metric("wire.resp_bytes", median(&t.resp_bytes), t.resp_bytes.len());

    match settled_stats(&running.addr) {
        Ok(s) => {
            let q = |name: &str, f: fn(&WireHist) -> u64| hist(&s, name).map(f).unwrap_or(0) as f64;
            let n = s.requests as usize;
            rep.metric("daemon.request_us.p50", q("request_us", |h| h.p50), n);
            rep.metric("daemon.request_us.p99", q("request_us", |h| h.p99), n);
            rep.metric("daemon.queue_wait_us.p50", q("queue_wait_us", |h| h.p50), n);
            rep.metric("daemon.queue_wait_us.p99", q("queue_wait_us", |h| h.p99), n);
            rep.metric(
                "daemon.batch_assemble_us.p50",
                q("batch_assemble_us", |h| h.p50),
                n,
            );
            rep.metric("daemon.score_us.p50", q("score_us", |h| h.p50), n);
            rep.metric("daemon.score_us.p99", q("score_us", |h| h.p99), n);
            rep.metric(
                "daemon.reply_write_us.p50",
                q("reply_write_us", |h| h.p50),
                n,
            );
            rep.metric(
                "daemon.batch_sessions.mean",
                hist_mean(&s, "batch_sessions"),
                n,
            );
            rep.metric("daemon.shed", s.shed as f64, 1);
            rep.metric("daemon.deadline_miss", s.deadline_miss as f64, 1);
            rep.metric(
                "daemon.transport_us.p50",
                service.p50 * 1e3 - q("request_us", |h| h.p50),
                service.n,
            );
            let daemon_ledger =
                Ledger::new("daemon request_us (mean)", hist_mean(&s, "request_us"))
                    .part("queue_wait", hist_mean(&s, "queue_wait_us"))
                    .part("batch_assemble", hist_mean(&s, "batch_assemble_us"))
                    .part("score", hist_mean(&s, "score_us"))
                    .part("reply_write", hist_mean(&s, "reply_write_us"));
            let client_mean = r.samples.iter().map(Sample::service_ms).sum::<f64>() * 1e3
                / r.samples.len().max(1) as f64;
            let client_ledger = Ledger::new("client service latency us (mean)", client_mean)
                .part("daemon_request", hist_mean(&s, "request_us"))
                .part("client_encode", mean(&t.encode_us))
                .part("client_decode", mean(&t.decode_us));
            rep.metric(
                "ledger.daemon.unattributed_us",
                daemon_ledger.unattributed(),
                n,
            );
            rep.metric(
                "ledger.client.unattributed_us",
                client_ledger.unattributed(),
                r.samples.len(),
            );
            rep.check(
                "ledger_daemon_closes",
                daemon_ledger.closes(),
                daemon_ledger.render("us"),
            );
            rep.check(
                "ledger_client_closes",
                client_ledger.closes(),
                client_ledger.render("us"),
            );
            rep.check(
                "no_orphan_traces",
                s.traces_started == s.traces_completed,
                format!(
                    "traces started {} completed {}",
                    s.traces_started, s.traces_completed
                ),
            );
        }
        Err(e) => failures.push(format!("stats: {e}")),
    }
    stop(running).unwrap_or_else(|e| failures.push(format!("shutdown: {e}")));
    bit_check(rep, ds, traffic, reference, &r.replies);

    // ---- in-process replicas on the same request mix.
    let per_req: Vec<Vec<uae_data::SeqBatch>> = (0..64)
        .map(|g| infer_seq_batches(ds, traffic.sessions(g), 64, None))
        .collect();
    let batch_us = time_us(per_req.len().min(64), {
        let mut i = 0;
        move || {
            std::hint::black_box(infer_seq_batches(ds, traffic.sessions(i), 64, None));
            i += 1;
        }
    });
    rep.metric("data.batch_us", median(&batch_us), batch_us.len());
    let valid: usize = per_req.iter().flatten().map(|b| b.valid_steps()).sum();
    let padded: usize = per_req.iter().flatten().map(|b| b.batch * b.steps).sum();
    rep.metric(
        "data.pad_ratio",
        valid as f64 / padded.max(1) as f64,
        per_req.len(),
    );
    let first = &per_req[0][0];
    let infer = time_us(50, || {
        std::hint::black_box(uae.infer_batch(first));
    });
    rep.metric("core.infer_batch_us", median(&infer[5..]), infer.len() - 5);
    let mut spans = crate::trace::Spans::new();
    replica_step(rep, &mut spans, ds, first, uae.config(), false);
    let mut params = uae.attention_params().clone();
    optim_step(rep, &mut params);
    let n_reqs = 200;
    for g in 0..4 {
        std::hint::black_box(reference.score(ds, traffic.sessions(g)));
    }
    let (us, heap) = uae_obs::with_sink(log.clone(), || {
        tensor_counters(rep, n_reqs as f64, || {
            arena_heap_allocs(|| {
                let mut i = 0;
                time_us(n_reqs, || {
                    std::hint::black_box(reference.score(ds, traffic.sessions(i)));
                    i += 1;
                })
            })
        })
    });
    let events: f64 = (0..n_reqs as u64)
        .map(|i| {
            traffic
                .sessions(i)
                .iter()
                .map(|&s| ds.sessions[s].len())
                .sum::<usize>() as f64
        })
        .sum();
    rep.metric("tensor.arena_heap_allocs", heap as f64, n_reqs);
    rep.check(
        "scoring_heap_allocs_zero",
        heap == 0,
        format!("{heap} arena heap allocations over {n_reqs} scoring calls"),
    );
    rep.metric("scorer.us_per_request", median(&us), us.len());
    rep.metric(
        "scorer.events_per_s",
        events / (us.iter().sum::<f64>() / 1e6),
        us.len(),
    );
    crate::fit::print_spans(rep, &spans);
    (r.samples.len() + 3 * nconn) as u64
}
