//! One repeatable benchmark for UAE training, batch scoring and the serving
//! daemon.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <fit-uae|fit-rec|serve-short|serve-long> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, sets up (timed as `setup_s`),
//! measures for about `--seconds`, checks that the program's outputs are
//! correct, prints a human-readable record (host fingerprint, every metric
//! with its unit and sample count, checks, ledgers) and ends with one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics of
//! a separately instrumented run with `--trace 1`. See `README.md` beside
//! this crate for the metric definitions.

mod fit;
mod host;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics every `--trace 0` run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("epoch_s", "s"),
    ("auc", "ratio"),
    ("score_events_per_s", "events/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("connect_ms", "ms"),
    ("capacity_rps", "req/s"),
];

/// Per-layer metrics every `--trace 1` run reports (0 where a layer does
/// not run on the workload).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("data.batch_us", "us"),
    ("data.pad_ratio", "ratio"),
    ("tensor.kernel_calls", "count"),
    ("tensor.kernel_ms", "ms"),
    ("tensor.par_regions", "count"),
    ("tensor.serial_regions", "count"),
    ("tensor.mean_par_workers", "count"),
    ("tensor.scratch_hit_rate", "ratio"),
    ("tensor.arena_heap_allocs", "count"),
    ("nn.gru_step_us", "us"),
    ("nn.optim_step_us", "us"),
    ("core.attention_phase_ms", "ms"),
    ("core.propensity_phase_ms", "ms"),
    ("core.steps", "count"),
    ("core.forward_ms", "ms"),
    ("core.backward_ms", "ms"),
    ("core.infer_batch_us", "us"),
    ("models.epoch_ms", "ms"),
    ("models.step_ms", "ms"),
    ("models.score_us_per_batch", "us"),
    ("model.encode_ms", "ms"),
    ("model.open_ms", "ms"),
    ("model.build_ms", "ms"),
    ("scorer.us_per_request", "us"),
    ("scorer.events_per_s", "events/s"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.req_bytes", "B"),
    ("wire.resp_bytes", "B"),
    ("daemon.request_us.p50", "us"),
    ("daemon.request_us.p99", "us"),
    ("daemon.queue_wait_us.p50", "us"),
    ("daemon.queue_wait_us.p99", "us"),
    ("daemon.batch_assemble_us.p50", "us"),
    ("daemon.score_us.p50", "us"),
    ("daemon.score_us.p99", "us"),
    ("daemon.reply_write_us.p50", "us"),
    ("daemon.batch_sessions.mean", "count"),
    ("daemon.shed", "count"),
    ("daemon.deadline_miss", "count"),
    ("daemon.transport_us.p50", "us"),
    ("loadgen.late_ms.p99", "ms"),
    ("loadgen.sent", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("ledger.train.unattributed_ms", "ms"),
    ("ledger.daemon.unattributed_us", "us"),
    ("ledger.client.unattributed_us", "us"),
];

pub const WORKLOADS: &[&str] = &["fit-uae", "fit-rec", "serve-short", "serve-long"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What one run was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout for exported artifacts.
    pub work: PathBuf,
}

impl Ctx {
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, usize)>,
    checks: Vec<(String, bool, String)>,
    notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records a metric value with its sample count.
    pub fn metric(&mut self, name: &str, value: f64, n: usize) {
        self.metrics.insert(name.to_string(), (value, n));
    }

    /// Records a correctness check; a failed check fails the run and counts
    /// as a failed operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.to_string(), ok, detail));
    }

    /// Records `p50_ms` and `p90_ms` of a latency sample (ms) and notes its
    /// p99 — the median p99 of consecutive windows of ≥ 1100 samples, so
    /// each has ≥ 10 samples beyond it — with the sample count. The p99 is
    /// not an end-to-end metric: on two shared cores its run-to-run spread
    /// exceeds any usable regression bound.
    pub fn latencies(&mut self, what: &str, lat: &[f64]) -> stats::Tail {
        let tail = stats::Tail::of(lat);
        let mut sorted = lat.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.metric("p50_ms", tail.p50, tail.n);
        self.metric("p90_ms", stats::quantile_sorted(&sorted, 0.90), tail.n);
        let p99 = match stats::windowed_p99(lat, 1100) {
            Some((v, w)) => format!("p99 {v:.4} ms (median of {w} windows)"),
            None => "p99 unsupported".to_string(),
        };
        self.note(format!(
            "{what}: n {} p50 {:.4} ms {p99}; highest supported p{} {:.4} ms with {} beyond",
            tail.n,
            tail.p50,
            tail.pct.unwrap_or(0.0),
            tail.value,
            tail.beyond
        ));
        tail
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: uae-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload").unwrap_or_else(|| usage()).to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let seed = get("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: f64 = get("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s > 0.0)
        .unwrap_or_else(|| usage());
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    let work = std::env::current_dir()
        .expect("current directory")
        .join(".bench_work")
        .join(format!("{}-{}", workload, std::process::id()));
    Ctx {
        workload,
        seed,
        seconds,
        trace,
        work,
    }
}

fn main() {
    let ctx = parse_args();
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("cannot create {}: {e}", ctx.work.display());
        std::process::exit(1);
    }
    println!("host {}", host::fingerprint());
    println!(
        "run workload {} seed {} seconds {} trace {}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8
    );
    let mut rep = Report::default();
    match ctx.workload.as_str() {
        "fit-uae" => fit::fit_uae(&ctx, &mut rep),
        "fit-rec" => fit::fit_rec(&ctx, &mut rep),
        "serve-short" => serve::run(&ctx, &mut rep, serve::Mix::short()),
        "serve-long" => serve::run(&ctx, &mut rep, serve::Mix::long()),
        _ => unreachable!("validated in parse_args"),
    }
    rep.metric("rss_mb", host::peak_rss_mb(), 1);
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Some(parent) = ctx.work.parent() {
        // Only succeeds once no other run is using the directory.
        let _ = std::fs::remove_dir(parent);
    }

    for line in &rep.notes {
        println!("{line}");
    }
    for (name, ok, detail) in &rep.checks {
        println!(
            "check {name} {} {detail}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let wanted = if ctx.trace { PER_LAYER } else { END_TO_END };
    for (name, (value, n)) in &rep.metrics {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(m, _)| m == name)
            .map_or("", |(_, u)| *u);
        println!("metric {name} {value:.6} {unit} n={n}");
    }
    let attempted = rep.attempted.max(1);
    println!(
        "failed_frac {:.6} ({} of {} attempted)",
        rep.failed as f64 / attempted as f64,
        rep.failed,
        attempted
    );
    let mut fields = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in wanted {
        let value = match rep.metrics.get(*name) {
            Some(&(v, _)) => v,
            None if ctx.trace => 0.0,
            None => {
                missing.push(*name);
                continue;
            }
        };
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if !missing.is_empty() {
        eprintln!(
            "internal error: metrics not measured: {}",
            missing.join(", ")
        );
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.correct(),
        attempted,
        rep.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units declared in the repository's
    /// `BENCHMARK.json` must be exactly the ones this program reports.
    #[test]
    fn benchmark_json_matches_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..]
                .find(']')
                .map(|e| start + e)
                .expect("section end");
            let body = &text[start..end];
            let field = |obj: &str, k: &str| -> String {
                let i = obj.find(&format!("\"{k}\"")).expect("field") + k.len() + 2;
                let rest = &obj[i..];
                let q = rest.find('"').expect("value start") + 1;
                let e = rest[q..].find('"').expect("value end");
                rest[q..q + e].to_string()
            };
            body.split('{')
                .skip(1)
                .map(|obj| (field(obj, "name"), field(obj, "unit")))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
        let workloads = {
            let start = text.find("\"workloads\"").expect("workloads");
            let end = text[start..].find(']').expect("end") + start;
            text[start..end].matches("\"name\"").count()
        };
        assert_eq!(workloads, WORKLOADS.len());
    }
}
