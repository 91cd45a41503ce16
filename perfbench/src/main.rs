//! One benchmark for the cholcomm workspace: in-core, out-of-core, served
//! and paper-report Cholesky, measured end to end and per layer.
//!
//! ```text
//! perfbench --workload <dense_incore|ooc_file|serve_mix|paper_report>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload generates its inputs from `--seed`, calls the library
//! only through its public functions, checks every output, and prints
//! human-readable lines followed by one JSON object on the last line.
//! With `--trace 0` the JSON carries the end-to-end metrics; with
//! `--trace 1` the per-layer metrics, measured with spans recorded around
//! the library calls (written as Chrome trace-event JSON).

mod dense;
mod ooc;
mod report;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;
use trace::Trace;
use util::{json_num, json_str};

/// End-to-end metrics: `(name, unit)`.  Every workload reports each one,
/// with the workload's own meaning of "job" (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
];

/// Per-layer metrics: `(name, unit)`.  A workload that does not reach a
/// layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-specific end-to-end timings (untraced half of the run).
    ("dense.factor_s", "s"),
    ("dense.factor_1w_s", "s"),
    ("ooc.factor_s", "s"),
    ("serve.p50_ms_lo", "ms"),
    ("serve.p99_ms_lo", "ms"),
    ("serve.p50_ms_hi", "ms"),
    ("serve.p99_ms_hi", "ms"),
    ("serve.capacity_rps", "1/s"),
    ("report.report_s", "s"),
    ("trace.overhead", "ratio"),
    // kernels_fast
    ("kernels_fast.potf2_gflops", "GF/s"),
    ("kernels_fast.trsm_gflops", "GF/s"),
    ("kernels_fast.gemm_nt_gflops", "GF/s"),
    ("kernels_fast.busy_s", "s"),
    // par::dag
    ("dag.overhead_s", "s"),
    ("dag.idle_share", "share"),
    ("dag.wall_speedup", "ratio"),
    ("dag.model_speedup", "ratio"),
    ("dag.tasks", "count"),
    // filemat
    ("filemat.read_mb", "MB"),
    ("filemat.write_mb", "MB"),
    ("filemat.reads", "count"),
    ("filemat.writes", "count"),
    ("filemat.seeks", "count"),
    ("filemat.io_busy_s", "s"),
    // ooc, ooc::pipeline
    ("ooc.words_over_bound", "ratio"),
    ("ooc.compute_s", "s"),
    ("pipeline.prefetch_hit_rate", "share"),
    ("pipeline.stalls", "count"),
    ("pipeline.exposed_io_s", "s"),
    // serve
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("batcher.fill", "count"),
    ("batcher.batched_share", "share"),
    ("batcher.batches", "count"),
    ("cache.hit_rate", "share"),
    ("cache.hits", "count"),
    ("serve.direct_compute_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.gen_late_ms_p99", "ms"),
    ("serve.submitted", "count"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.refused", "count"),
    ("serve.cancelled", "count"),
    ("serve.failed", "count"),
    ("serve.phases_valid", "count"),
    // core, seq, cachesim
    ("core.table1_s", "s"),
    ("core.table2_s", "s"),
    ("core.theorem1_s", "s"),
    ("core.multilevel_s", "s"),
    ("seq.record_events_per_s", "1/s"),
    ("cachesim.lru_replay_events_per_s", "1/s"),
    ("cachesim.stackdist_replay_events_per_s", "1/s"),
    // Exact counts (repeat bit for bit for a given seed).
    ("count.flops", "count"),
    ("count.trace_events", "count"),
    ("count.spans", "count"),
    // Self time per traced layer.
    ("self_s.dag", "s"),
    ("self_s.kernels_fast", "s"),
    ("self_s.pipeline", "s"),
    ("self_s.filemat", "s"),
    ("self_s.ooc_compute", "s"),
    ("self_s.serve_submit", "s"),
    ("self_s.serve_request", "s"),
    ("self_s.serve_direct", "s"),
    ("self_s.core", "s"),
    ("self_s.seq", "s"),
    ("self_s.cachesim", "s"),
];

/// Span layer name -> self-time metric.
const SELF_TIME: &[(&str, &str)] = &[
    ("dag", "self_s.dag"),
    ("kernels_fast", "self_s.kernels_fast"),
    ("pipeline", "self_s.pipeline"),
    ("filemat", "self_s.filemat"),
    ("ooc_compute", "self_s.ooc_compute"),
    ("serve.submit", "self_s.serve_submit"),
    ("serve.request", "self_s.serve_request"),
    ("serve.direct", "self_s.serve_direct"),
    ("core", "self_s.core"),
    ("seq", "self_s.seq"),
    ("cachesim", "self_s.cachesim"),
];

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry fails the run.
    pub errors: Vec<String>,
    /// End-to-end values with their sample counts.
    pub e2e: BTreeMap<&'static str, (f64, usize)>,
    /// Per-layer values.
    pub layer: BTreeMap<&'static str, f64>,
    /// Exact counts, which must repeat bit for bit for a given seed.
    pub counts: Vec<(String, u64)>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        self.e2e.insert(name, (value, samples));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    pub fn count(&mut self, name: impl ToString, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Settings and shared state of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: Trace,
    /// Run-local scratch directory inside the checkout.
    pub scratch: PathBuf,
    /// `key=value` configuration facts, printed and written with the trace.
    pub config: Vec<(String, String)>,
}

impl Ctx {
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <dense_incore|ooc_file|serve_mix|paper_report> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => traced = value == "1",
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }

    let scratch =
        PathBuf::from(".perfbench_out").join(format!("{workload}-{seed}-{}", std::process::id()));
    let mut ctx = Ctx {
        seed,
        seconds,
        trace: Trace::new(traced),
        scratch,
        config: Vec::new(),
    };
    ctx.note("workload", &workload);
    ctx.note("seed", seed);
    ctx.note("seconds", seconds);
    ctx.note("trace", u8::from(traced));
    ctx.note("nproc", util::nproc());
    ctx.note("cpu", util::cpu_model());
    let jiffies = util::cpu_jiffies();

    let run = match workload.as_str() {
        "dense_incore" => dense::run,
        "ooc_file" => ooc::run,
        "serve_mix" => serve::run,
        "paper_report" => report::run,
        _ => usage(),
    };
    let mut out = match run(&mut ctx) {
        Ok(out) => out,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&ctx.scratch);
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    out.e2e("peak_rss_mb", util::peak_rss_mb(), 1);
    let ok_share = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
    out.e2e("ok_share", ok_share, out.attempted as usize);

    let config_json = format!(
        "{{{}}}",
        ctx.config
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("config {config_json}");
    // Time the hypervisor ran something else on this machine's CPUs: the
    // main outside source of noise on a shared virtual machine.
    let (steal, total) = util::cpu_jiffies();
    let steal_share = (steal - jiffies.0) as f64 / (total - jiffies.1).max(1) as f64;
    println!("host steal_share = {steal_share:.4}");

    if traced {
        for (layer, s) in ctx.trace.self_times() {
            if let Some((_, metric)) = SELF_TIME.iter().find(|(l, _)| *l == layer) {
                out.layer(metric, s);
            }
        }
        out.layer("count.spans", ctx.trace.spans().len() as f64);
        let path = PathBuf::from(".perfbench_out").join(format!("trace-{workload}-{seed}.json"));
        match ctx.trace.write_chrome(&path, &config_json) {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    // FNV-1a over every exact count: equal digests for equal seeds is the
    // run's determinism self-check.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, v) in &out.counts {
        println!("count {name} = {v}");
        for byte in name.bytes().chain(v.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("counts_digest = {h:016x} ({} counts)", out.counts.len());
    for (name, unit) in END_TO_END {
        let (v, n) = out.e2e.get(name).copied().unwrap_or((0.0, 0));
        println!("metric {name} = {v:.6} {unit} (samples={n})");
    }
    if traced {
        for (name, unit) in PER_LAYER {
            let v = out.layer.get(name).copied().unwrap_or(0.0);
            println!("layer {name} = {v:.6} {unit}");
        }
    }
    if out.attempted == 0 {
        out.errors.push("no job was attempted".to_string());
    }

    let table = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let v = if traced {
            out.layer.get(name).copied()
        } else {
            out.e2e.get(name).map(|e| e.0)
        }
        .unwrap_or(0.0);
        // A failed request counts as infinite latency, so a quantile that
        // falls on failures is not finite: that run missed every limit.
        out.check(v.is_finite(), || format!("metric {name} is {v}"));
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        ));
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
