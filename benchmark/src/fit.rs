//! The two training workloads.
//!
//! * `fit-uae` — Algorithm 1 (UAE dual estimator) on the `baseline`
//!   scenario at full harness scale, 80/10/10 split, then offline scoring of
//!   the held-out split with `Scorer`.
//! * `fit-rec` — Eq. 18 attention-weighted DCN-V2 training on Product flat
//!   events for a fixed number of epochs (no early stop), then batch
//!   scoring of the test events with `RecScorer`. The Eq. 19 weights come
//!   from a UAE fitted during set-up.

use std::time::{Duration, Instant};

use uae_core::{AttentionEstimator, AttentionNet, Uae, UaeConfig};
use uae_data::{
    generate, seq_batches, split_by_day, split_by_ratio, Dataset, FlatData, SimConfig, Split,
};
use uae_models::{LabelMode, ModelConfig, ModelKind, Recommender, TrainConfig};
use uae_nn::{Adam, GruCell, Optimizer};
use uae_obs::Event;
use uae_serve::{FrozenModel, FrozenRecommender, RecScorer, Scorer, ScorerConfig};
use uae_tensor::{Exec, Matrix, Params, Rng, Tape, ValueExec};

use crate::stats::{mean, median, ms, Ledger};
use crate::trace::{EventLog, Spans};
use crate::{Ctx, Report, SETUPS};

/// `HarnessConfig::full()` data scale.
pub const FULL_SCALE: f64 = 0.35;
/// Eq. 19's γ used by the harness.
pub const GAMMA: f32 = 15.0;
/// Held-out attention AUC below which `fit-uae` fails its check.
pub const UAE_AUC_FLOOR: f64 = 0.80;
/// Test AUC below which `fit-rec` fails its check.
pub const REC_AUC_FLOOR: f64 = 0.60;
/// Downstream epochs per `fit-rec` training run.
pub const REC_EPOCHS: usize = 3;
/// UAE epochs of the set-up fit that produces `fit-rec`'s weights.
pub const REC_SETUP_UAE_EPOCHS: usize = 2;
/// Single-session scoring calls per run: five windows of 1100, each with
/// a supported p99.
const SCORE_CALLS: usize = 5500;
/// Wall time spent measuring batch-scoring throughput.
pub const THROUGHPUT_WINDOW: Duration = Duration::from_millis(1000);
/// Cold starts timed per run for `connect_ms`: enough that a burst of
/// host contention during a few of them leaves the median alone.
const COLD_STARTS: usize = 101;

/// Workload seed → data seed, model seed.
pub fn seeds(seed: u64) -> (u64, u64) {
    (2024 ^ seed.wrapping_mul(0x9e37_79b9), 11 + seed)
}

/// Times `f` `reps` times and returns per-call microseconds.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Tensor-backend counter deltas of this thread over `f`, normalised by
/// `per`.
pub fn tensor_counters<R>(rep: &mut Report, per: f64, f: impl FnOnce() -> R) -> R {
    uae_tensor::reset_dispatch_stats();
    uae_tensor::reset_scratch_stats();
    let out = f();
    let d = uae_tensor::dispatch_stats();
    let s = uae_tensor::scratch_stats();
    let per = per.max(1.0);
    rep.metric("tensor.kernel_calls", d.kernel_calls as f64 / per, 1);
    rep.metric("tensor.kernel_ms", d.kernel_nanos as f64 / 1e6 / per, 1);
    rep.metric("tensor.par_regions", d.par_regions as f64 / per, 1);
    rep.metric("tensor.serial_regions", d.serial_regions as f64 / per, 1);
    rep.metric("tensor.mean_par_workers", d.mean_par_workers(), 1);
    rep.metric("tensor.scratch_hit_rate", s.hit_rate(), 1);
    out
}

/// Alternates untraced and traced runs of `run` (which returns its output
/// and its time per epoch) and records `obs.trace_overhead_pct` from the
/// two medians. The backend counters cover the last traced run, normalised
/// per epoch; its output is returned.
fn overhead_pairs<T>(
    rep: &mut Report,
    pairs: usize,
    epochs: f64,
    mut run: impl FnMut(bool) -> (T, f64),
) -> T {
    let (mut untraced, mut traced, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..pairs {
        untraced.push(run(false).1);
        let (out, e) = tensor_counters(rep, epochs, || run(true));
        traced.push(e);
        last = Some(out);
    }
    let (u, t) = (median(&untraced), median(&traced));
    rep.metric("obs.trace_overhead_pct", (t - u) / u * 100.0, 2 * pairs);
    last.expect("at least one pair")
}

/// Arena heap allocations of this thread over `f` (after the caller's
/// warm-up): the steady-state scoring path must perform none.
pub fn arena_heap_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    uae_tensor::reset_arena_stats();
    let out = f();
    (out, uae_tensor::arena_stats().heap_allocs)
}

/// A traced training run's start and the trainer events it emitted.
type Traced = Option<(Instant, Vec<(Instant, Event)>)>;

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs `f` until `budget` is spent (at least once, and never starting a
/// repetition that would overrun by its own expected length).
fn repeat_for<T>(budget: Duration, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = Duration::ZERO;
    while out.is_empty() || start.elapsed() + last <= budget {
        let t = Instant::now();
        out.push(f(out.len()));
        last = t.elapsed();
    }
    out
}

/// Offline closed-loop scoring of single sessions through `score_one`:
/// records per-call latency (`p50_ms`, `p90_ms`) and calls per second
/// (`capacity_rps`). Sessions are drawn from the whole dataset, so the mix
/// of session lengths barely moves between seeds.
fn single_session_calls(
    rep: &mut Report,
    n_sessions: usize,
    seed: u64,
    mut score_one: impl FnMut(usize),
) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x63_616c6c);
    let order: Vec<usize> = (0..SCORE_CALLS).map(|_| rng.below(n_sessions)).collect();
    for &i in order.iter().take(20) {
        score_one(i);
    }
    let start = Instant::now();
    let lat: Vec<f64> = order
        .iter()
        .map(|&i| {
            let t = Instant::now();
            score_one(i);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let wall = start.elapsed().as_secs_f64();
    rep.latencies("single-session scoring calls", &lat);
    rep.metric("capacity_rps", lat.len() as f64 / wall, lat.len());
    rep.attempted += lat.len() as u64;
}

struct UaeData {
    ds: Dataset,
    split: Split,
}

fn uae_setup(data_seed: u64, generate_s: &mut Vec<f64>) -> UaeData {
    let t = Instant::now();
    let sim = SimConfig::scenario("baseline", FULL_SCALE).expect("baseline scenario");
    let ds = generate(&sim, data_seed);
    generate_s.push(t.elapsed().as_secs_f64());
    // The same 80/10/10 split `uae fit` uses.
    let mut rng = Rng::seed_from_u64(data_seed ^ 0x73_706c);
    let split = split_by_ratio(&ds, 0.8, 0.1, &mut rng);
    UaeData { ds, split }
}

/// Per-epoch timings from a traced fit's events: epoch wall times (between
/// consecutive `FitEpoch` events, the first from `start`) and the phase
/// micros and steps of each epoch.
struct FitTrace {
    epoch_ms: Vec<f64>,
    attention_ms: Vec<f64>,
    propensity_ms: Vec<f64>,
    steps: Vec<f64>,
}

fn fit_trace(start: Instant, events: &[(Instant, Event)]) -> FitTrace {
    let mut out = FitTrace {
        epoch_ms: Vec::new(),
        attention_ms: Vec::new(),
        propensity_ms: Vec::new(),
        steps: Vec::new(),
    };
    let mut prev = start;
    let mut steps = 0.0;
    for (at, ev) in events {
        match ev {
            Event::PhaseEnd {
                name,
                micros,
                steps: s,
                ..
            } => {
                steps += *s as f64;
                let v = *micros as f64 / 1e3;
                if name == "attention" {
                    out.attention_ms.push(v);
                } else {
                    out.propensity_ms.push(v);
                }
            }
            Event::FitEpoch { .. } => {
                out.epoch_ms.push(ms(at.duration_since(prev)));
                out.steps.push(steps);
                steps = 0.0;
                prev = *at;
            }
            _ => {}
        }
    }
    out
}

pub fn fit_uae(ctx: &Ctx, rep: &mut Report) {
    let (data_seed, model_seed) = seeds(ctx.seed);
    let cfg = UaeConfig {
        seed: model_seed,
        ..UaeConfig::default()
    };
    // ---- set-up: data generation and split, several times. It takes
    // milliseconds here, so more repetitions steady its median for free.
    let mut generate_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut data = None;
    for _ in 0..3 * SETUPS {
        let t = Instant::now();
        data = Some(uae_setup(data_seed, &mut generate_s));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let UaeData { ds, split } = data.expect("at least one set-up");
    rep.metric("setup_s", median(&setup_s), setup_s.len());
    rep.metric("data.generate_s", median(&generate_s), generate_s.len());
    rep.note(format!(
        "data baseline sessions {} (train {} val {} test {}) events {}",
        ds.sessions.len(),
        split.train.len(),
        split.val.len(),
        split.test.len(),
        ds.num_events()
    ));

    // ---- measure: complete Algorithm 1 fits, repeated for the budget.
    let epochs = cfg.epochs as f64;
    let fit_once = |traced: bool| -> (Uae, f64, Traced) {
        let mut est = Uae::new(&ds.schema, cfg.clone());
        let t = Instant::now();
        let events = if traced {
            let log = EventLog::new();
            uae_obs::with_sink(log.clone(), || est.fit(&ds, &split.train));
            Some((t, log.take()))
        } else {
            est.fit(&ds, &split.train);
            None
        };
        (est, t.elapsed().as_secs_f64() / epochs, events)
    };
    // A traced run keeps most of its budget for the traced/untraced pairs.
    let budget = ctx.budget(if ctx.trace { 0.2 } else { 1.0 });
    let mut model = None;
    let epoch_s: Vec<f64> = repeat_for(budget, |i| {
        let (est, e, _) = fit_once(false);
        if i == 0 {
            model = Some(est);
        }
        e
    });
    let est = model.expect("one fit");
    rep.attempted += epoch_s.len() as u64;
    rep.metric("epoch_s", median(&epoch_s), epoch_s.len());

    // ---- offline scoring of the held-out split.
    let test = FlatData::from_sessions(&ds, &split.test);
    let path = ctx.work.join("fit-uae.uaem");
    let t = Instant::now();
    let frozen = FrozenModel::from_uae(&est, &ds.schema, GAMMA);
    let bytes = frozen.encode();
    std::fs::write(&path, &bytes).expect("write artifact");
    rep.metric("model.encode_ms", ms(t.elapsed()), 1);
    // Cold start: open the artifact, build the scorer, score one session.
    let mut connect = Vec::new();
    let mut open_ms = Vec::new();
    let mut scorer = None;
    for _ in 0..COLD_STARTS {
        let t = Instant::now();
        let frozen = FrozenModel::open(&path).expect("open artifact");
        open_ms.push(ms(t.elapsed()));
        let s = Scorer::with_config(frozen, ScorerConfig::default()).expect("build scorer");
        std::hint::black_box(s.score(&ds, &split.test[..1]));
        connect.push(ms(t.elapsed()));
        scorer = Some(s);
    }
    let scorer = scorer.expect("scorer");
    rep.metric("connect_ms", median(&connect), connect.len());
    rep.metric("model.open_ms", median(&open_ms), open_ms.len());

    let out = scorer.score(&ds, &split.test);
    let mut per_s = Vec::new();
    let start = Instant::now();
    while per_s.len() < 5 || start.elapsed() < THROUGHPUT_WINDOW {
        let t = Instant::now();
        std::hint::black_box(scorer.score(&ds, &split.test));
        per_s.push(out.len() as f64 / t.elapsed().as_secs_f64());
    }
    rep.metric("score_events_per_s", median(&per_s), per_s.len());
    single_session_calls(rep, ds.sessions.len(), ctx.seed, |i| {
        std::hint::black_box(scorer.score(&ds, &[i]));
    });

    // ---- checks.
    let predicted = est.predict(&ds, &split.test);
    rep.check(
        "scorer_matches_predict",
        bits_equal(&out.attention, &predicted),
        format!("{} events bit-compared", predicted.len()),
    );
    let auc = uae_metrics::auc(&out.attention, &test.true_attention).unwrap_or(0.5);
    rep.metric("auc", auc, test.len());
    rep.check(
        "auc_floor",
        auc >= UAE_AUC_FLOOR,
        format!("held-out attention AUC {auc:.4} vs floor {UAE_AUC_FLOOR}"),
    );

    if !ctx.trace {
        return;
    }
    // ---- traced run: the same fit with the trainer's events captured and
    // the backend's kernel timers on, plus replicas of one layer each.
    let events = overhead_pairs(rep, 2, epochs, |traced| {
        let (_, e, events) = fit_once(traced);
        (events, e)
    });
    let (start, events) = events.expect("traced fit events");
    let ft = fit_trace(start, &events);
    rep.metric(
        "core.attention_phase_ms",
        mean(&ft.attention_ms),
        ft.attention_ms.len(),
    );
    rep.metric(
        "core.propensity_phase_ms",
        mean(&ft.propensity_ms),
        ft.propensity_ms.len(),
    );
    rep.metric("core.steps", mean(&ft.steps), ft.steps.len());
    let ledger = Ledger::new("epoch_ms (per epoch)", mean(&ft.epoch_ms))
        .part("attention_phase", mean(&ft.attention_ms))
        .part("propensity_phase", mean(&ft.propensity_ms));
    rep.metric(
        "ledger.train.unattributed_ms",
        ledger.unattributed(),
        ft.epoch_ms.len(),
    );
    rep.check("ledger_train_closes", ledger.closes(), ledger.render("ms"));

    let mut spans = Spans::new();
    let mut rng = Rng::seed_from_u64(model_seed);
    let batches = seq_batches(&ds, &split.train, cfg.session_batch, cfg.max_len, &mut rng);
    let batch_us = time_us(5, || {
        let mut rng = Rng::seed_from_u64(model_seed);
        std::hint::black_box(seq_batches(
            &ds,
            &split.train,
            cfg.session_batch,
            cfg.max_len,
            &mut rng,
        ));
    });
    rep.metric("data.batch_us", median(&batch_us), batch_us.len());
    let valid: usize = batches.iter().map(|b| b.valid_steps()).sum();
    let padded: usize = batches.iter().map(|b| b.batch * b.steps).sum();
    rep.metric(
        "data.pad_ratio",
        valid as f64 / padded.max(1) as f64,
        batches.len(),
    );

    let build = time_us(3, || {
        std::hint::black_box(Uae::new(&ds.schema, cfg.clone()));
    });
    rep.metric("model.build_ms", median(&build) / 1e3, build.len());
    replica_step(rep, &mut spans, &ds, &batches[0], &cfg, true);
    let mut params = est.attention_params().clone();
    optim_step(rep, &mut params);

    let serve_batch =
        uae_data::infer_seq_batches(&ds, &split.test[..64.min(split.test.len())], 64, None);
    let infer = time_us(20, || {
        std::hint::black_box(est.infer_batch(&serve_batch[0]));
    });
    rep.metric("core.infer_batch_us", median(&infer), infer.len());
    let req = &split.test[..64.min(split.test.len())];
    let events_req: usize = req.iter().map(|&s| ds.sessions[s].len()).sum();
    std::hint::black_box(scorer.score(&ds, req));
    let (us, heap) = arena_heap_allocs(|| {
        time_us(20, || {
            std::hint::black_box(scorer.score(&ds, req));
        })
    });
    rep.metric("tensor.arena_heap_allocs", heap as f64, us.len());
    rep.check(
        "scoring_heap_allocs_zero",
        heap == 0,
        format!(
            "{heap} arena heap allocations over {} scoring calls",
            us.len()
        ),
    );
    rep.metric("scorer.us_per_request", median(&us), us.len());
    rep.metric(
        "scorer.events_per_s",
        events_req as f64 / (median(&us) / 1e6),
        us.len(),
    );
    print_spans(rep, &spans);
}

/// One replica Algorithm-1 step built from public calls: `AttentionNet`
/// forward on a `Tape`, the masked sequence BCE, `Tape::backward`; plus one
/// GRU step at the batch's shape.
pub fn replica_step(
    rep: &mut Report,
    spans: &mut Spans,
    ds: &Dataset,
    batch: &uae_data::SeqBatch,
    cfg: &UaeConfig,
    tape_gru: bool,
) {
    let mut params = Params::new();
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let net = AttentionNet::new(
        "bench.g",
        &ds.schema,
        cfg.embed_dim,
        cfg.gru_hidden,
        &cfg.mlp_hidden,
        None,
        &mut params,
        &mut rng,
    );
    let pos: Vec<Vec<f32>> = batch
        .e
        .iter()
        .zip(&batch.mask)
        .map(|(e, m)| e.iter().zip(m).map(|(a, b)| a * b).collect())
        .collect();
    let neg: Vec<Vec<f32>> = batch
        .e
        .iter()
        .zip(&batch.mask)
        .map(|(e, m)| e.iter().zip(m).map(|(a, b)| (1.0 - a) * b).collect())
        .collect();
    let divisor = batch.valid_steps().max(1) as f32;
    let mut tape = Tape::new();
    for _ in 0..20 {
        spans.span("core.step", |sp| {
            tape.clear();
            let gf = sp.span("core.forward", |_| net.forward(&mut tape, &params, batch));
            let loss =
                uae_core::masked_sequence_bce(&mut tape, &gf.logits, &pos, &neg, divisor, true);
            params.zero_grads();
            sp.span("core.backward", |_| tape.backward(loss, &mut params));
        });
    }
    let fwd = spans.durations("core.forward");
    let bwd = spans.durations("core.backward");
    rep.metric("core.forward_ms", median(&fwd[5..]), fwd.len() - 5);
    rep.metric("core.backward_ms", median(&bwd[5..]), bwd.len() - 5);

    let in_dim = ds.schema.num_cat_fields() * cfg.embed_dim + ds.schema.num_dense();
    let mut gp = Params::new();
    let gru = GruCell::new("bench.gru", in_dim, cfg.gru_hidden, &mut gp, &mut rng);
    let x = Matrix::randn(batch.batch, in_dim, 1.0, &mut rng);
    let step_us = if tape_gru {
        let mut tape = Tape::new();
        time_us(200, || {
            tape.clear();
            let vars = gru.param_vars(&mut tape, &gp);
            let xv = tape.input(x.clone());
            let h = gru.zero_state(&mut tape, batch.batch);
            std::hint::black_box(gru.step_with(&mut tape, &vars, &xv, &h));
        })
    } else {
        time_us(200, || {
            let mut vx = ValueExec::new();
            let vars = gru.param_vars(&mut vx, &gp);
            let xv = vx.input(x.clone());
            let h = gru.zero_state(&mut vx, batch.batch);
            std::hint::black_box(gru.step_with(&mut vx, &vars, &xv, &h));
        })
    };
    rep.metric("nn.gru_step_us", median(&step_us[20..]), step_us.len() - 20);
}

/// One Adam update over a model's parameter arena.
pub fn optim_step(rep: &mut Report, params: &mut Params) {
    let mut opt = Adam::new(1e-3);
    let us = time_us(30, || opt.step(params));
    rep.metric("nn.optim_step_us", median(&us[5..]), us.len() - 5);
}

/// Prints the span table: total and self time per span name.
pub fn print_spans(rep: &mut Report, spans: &Spans) {
    for (name, (total, own)) in spans.self_times() {
        rep.note(format!("span {name} total_ms {total:.3} self_ms {own:.3}"));
    }
}

struct RecData {
    ds: Dataset,
    train: FlatData,
    val: FlatData,
    test: FlatData,
    test_sessions: Vec<usize>,
    weights: Vec<f32>,
}

fn rec_setup(data_seed: u64, model_seed: u64, generate_s: &mut Vec<f64>) -> RecData {
    let t = Instant::now();
    let ds = generate(&SimConfig::product(FULL_SCALE), data_seed);
    generate_s.push(t.elapsed().as_secs_f64());
    // Product's paper split: 7 + 1 + 1 days.
    let split = split_by_day(&ds, 7, 1);
    let mut est = Uae::new(
        &ds.schema,
        UaeConfig {
            seed: model_seed,
            epochs: REC_SETUP_UAE_EPOCHS,
            ..UaeConfig::default()
        },
    );
    est.fit(&ds, &split.train);
    let weights = uae_core::downstream_weights(&est.predict(&ds, &split.train), GAMMA);
    RecData {
        train: FlatData::from_sessions(&ds, &split.train),
        val: FlatData::from_sessions(&ds, &split.val),
        test: FlatData::from_sessions(&ds, &split.test),
        test_sessions: split.test.clone(),
        weights,
        ds,
    }
}

pub fn fit_rec(ctx: &Ctx, rep: &mut Report) {
    let (data_seed, model_seed) = seeds(ctx.seed);
    let kind = ModelKind::DcnV2;
    let mcfg = ModelConfig::default();
    let tcfg = TrainConfig {
        epochs: REC_EPOCHS,
        batch_size: 512,
        early_stop_patience: None,
        seed: model_seed,
        ..TrainConfig::default()
    };
    let mut generate_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut data = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        data = Some(rec_setup(data_seed, model_seed, &mut generate_s));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let d = data.expect("at least one set-up");
    rep.metric("setup_s", median(&setup_s), setup_s.len());
    rep.metric("data.generate_s", median(&generate_s), generate_s.len());
    rep.note(format!(
        "data Product train {} val {} test {} events",
        d.train.len(),
        d.val.len(),
        d.test.len()
    ));

    let build = |seed: u64| {
        let mut rng = Rng::seed_from_u64(seed ^ 0x6d6f_6465);
        kind.build(&d.ds.schema, &mcfg, &mut rng)
    };
    let train_once = |traced: bool| -> (Box<dyn Recommender + Send + Sync>, Params, f64, Traced) {
        let (model, mut params) = build(model_seed);
        let t = Instant::now();
        let run = |params: &mut Params| {
            uae_models::train(
                model.as_ref(),
                params,
                &d.train,
                Some(&d.weights),
                Some(&d.val),
                LabelMode::Observed,
                &tcfg,
            )
        };
        let events = if traced {
            let log = EventLog::new();
            uae_obs::with_sink(log.clone(), || run(&mut params));
            Some((t, log.take()))
        } else {
            run(&mut params);
            None
        };
        let e = t.elapsed().as_secs_f64() / REC_EPOCHS as f64;
        (model, params, e, events)
    };
    let budget = ctx.budget(if ctx.trace { 0.2 } else { 1.0 });
    let mut trained = None;
    let epoch_s: Vec<f64> = repeat_for(budget, |i| {
        let (model, params, e, _) = train_once(false);
        if i == 0 {
            trained = Some((model, params));
        }
        e
    });
    let (model, params) = trained.expect("one training run");
    rep.attempted += epoch_s.len() as u64;
    rep.metric("epoch_s", median(&epoch_s), epoch_s.len());

    // ---- batch scoring through the frozen artifact.
    let path = ctx.work.join("fit-rec.uaem");
    let t = Instant::now();
    let frozen = FrozenRecommender::new(&d.ds.schema, kind, &mcfg, &params);
    std::fs::write(&path, frozen.encode()).expect("write artifact");
    rep.metric("model.encode_ms", ms(t.elapsed()), 1);
    let one = FlatData::from_sessions(&d.ds, &d.test_sessions[..1]);
    let mut connect = Vec::new();
    let mut open_ms = Vec::new();
    let mut scorer = None;
    for _ in 0..COLD_STARTS {
        let t = Instant::now();
        let frozen = FrozenRecommender::read_from(&path).expect("read artifact");
        open_ms.push(ms(t.elapsed()));
        let s = RecScorer::with_batch_size(frozen, tcfg.batch_size).expect("build scorer");
        std::hint::black_box(s.score(&one));
        connect.push(ms(t.elapsed()));
        scorer = Some(s);
    }
    let scorer = scorer.expect("scorer");
    rep.metric("connect_ms", median(&connect), connect.len());
    rep.metric("model.open_ms", median(&open_ms), open_ms.len());
    let scores = scorer.score(&d.test);
    let mut per_s = Vec::new();
    let start = Instant::now();
    while per_s.len() < 5 || start.elapsed() < THROUGHPUT_WINDOW {
        let t = Instant::now();
        std::hint::black_box(scorer.score(&d.test));
        per_s.push(scores.len() as f64 / t.elapsed().as_secs_f64());
    }
    rep.metric("score_events_per_s", median(&per_s), per_s.len());
    let singles: Vec<FlatData> = (0..d.ds.sessions.len())
        .map(|s| FlatData::from_sessions(&d.ds, &[s]))
        .collect();
    single_session_calls(rep, singles.len(), ctx.seed, |i| {
        std::hint::black_box(scorer.score(&singles[i]));
    });

    let predicted = uae_models::predict(model.as_ref(), &params, &d.test, tcfg.batch_size);
    rep.check(
        "recscorer_matches_predict",
        bits_equal(&scores, &predicted),
        format!("{} events bit-compared", predicted.len()),
    );
    let auc = uae_metrics::auc(&scores, &d.test.label).unwrap_or(0.5);
    rep.metric("auc", auc, d.test.len());
    rep.check(
        "auc_floor",
        auc >= REC_AUC_FLOOR,
        format!("test AUC {auc:.4} vs floor {REC_AUC_FLOOR}"),
    );

    if !ctx.trace {
        return;
    }
    let (tparams, events) = overhead_pairs(rep, 4, REC_EPOCHS as f64, |traced| {
        let (_, params, e, events) = train_once(traced);
        ((params, events), e)
    });
    let (start, events) = events.expect("traced events");
    // Epoch walls from `Epoch` events; step walls between consecutive
    // `TrainStep` events inside an epoch.
    let mut epoch_ms = Vec::new();
    let mut step_ms = Vec::new();
    let mut steps_in_epoch = Vec::new();
    let (mut prev_epoch, mut prev_step) = (start, start);
    let mut step_sum = 0.0;
    for (at, ev) in &events {
        match ev {
            Event::TrainStep { .. } => {
                let v = ms(at.duration_since(prev_step));
                step_ms.push(v);
                step_sum += v;
                prev_step = *at;
            }
            Event::Epoch { .. } => {
                epoch_ms.push(ms(at.duration_since(prev_epoch)));
                steps_in_epoch.push(step_sum);
                step_sum = 0.0;
                prev_epoch = *at;
                prev_step = *at;
            }
            _ => {}
        }
    }
    rep.metric("models.epoch_ms", mean(&epoch_ms), epoch_ms.len());
    rep.metric("models.step_ms", median(&step_ms), step_ms.len());
    let ledger = Ledger::new("epoch_ms (per epoch)", mean(&epoch_ms))
        .part("train_steps", mean(&steps_in_epoch));
    rep.metric(
        "ledger.train.unattributed_ms",
        ledger.unattributed(),
        epoch_ms.len(),
    );
    rep.check("ledger_train_closes", ledger.closes(), ledger.render("ms"));

    let batches = d.test.len().div_ceil(tcfg.batch_size) as f64;
    let us = time_us(5, || {
        std::hint::black_box(scorer.score(&d.test));
    });
    rep.metric("models.score_us_per_batch", median(&us) / batches, us.len());
    let idx: Vec<usize> = (0..tcfg.batch_size.min(d.train.len())).collect();
    let gather = time_us(50, || {
        std::hint::black_box(d.train.gather(&idx));
    });
    rep.metric("data.batch_us", median(&gather), gather.len());
    rep.metric("data.pad_ratio", 1.0, 1);
    let build_ms = time_us(3, || {
        std::hint::black_box(build(model_seed));
    });
    rep.metric("model.build_ms", median(&build_ms) / 1e3, build_ms.len());
    let mut p = tparams;
    optim_step(rep, &mut p);
    std::hint::black_box(scorer.score(&singles[0]));
    let (us, heap) = arena_heap_allocs(|| {
        time_us(50, || {
            std::hint::black_box(scorer.score(&singles[0]));
        })
    });
    rep.metric("tensor.arena_heap_allocs", heap as f64, us.len());
    rep.check(
        "scoring_heap_allocs_zero",
        heap == 0,
        format!(
            "{heap} arena heap allocations over {} scoring calls",
            us.len()
        ),
    );
    rep.metric("scorer.us_per_request", median(&us), us.len());
    rep.metric(
        "scorer.events_per_s",
        singles[0].len() as f64 / (median(&us) / 1e6),
        us.len(),
    );
}
