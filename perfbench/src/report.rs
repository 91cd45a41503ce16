//! `paper_report`: regenerate the paper's tables through `cholcomm_core`.
//!
//! One job is a full regeneration — Table 1 (the four `(n, M)` points of
//! the `table1` driver, sharing one fresh trace cache, plus the extended
//! rows), Table 2, the Theorem 1 reduction and the multilevel experiment —
//! on a 2-worker pool.  Every rendered table must appear byte for byte,
//! in order, in the matching `results/*.txt`.  The inputs are the fixed
//! seeds those published outputs were made with.

use crate::trace::{SpanId, Trace};
use crate::util::{median, secs, spd_input, timed_setups};
use crate::{Ctx, Outcome};
use cholcomm_core::matrix::spd;
use cholcomm_core::multilevel::{render_multilevel, run_multilevel};
use cholcomm_core::seq::zoo::{price_trace, record_algorithm, Algorithm, LayoutKind, ModelKind};
use cholcomm_core::sweep::TraceCache;
use cholcomm_core::table1::{
    render_table1, render_table1_extended, run_table1_extended, table1_at_with, Table1Config,
};
use cholcomm_core::table2::{render_table2, run_table2};
use cholcomm_core::theorem1::{render_reduction, run_reduction};
use rayon::ThreadPoolBuilder;
use std::time::Instant;

const WORKERS: usize = 2;
const SETUP_REPS: usize = 51;

/// `(results file, per-layer metric)` of each section, in run order.
const SECTIONS: [(&str, &str); 4] = [
    ("table1", "core.table1_s"),
    ("table2", "core.table2_s"),
    ("theorem1", "core.theorem1_s"),
    ("multilevel", "core.multilevel_s"),
];

/// The rendered blocks of section `s`, as the drivers print them.
fn section(s: usize) -> Vec<String> {
    match s {
        0 => {
            let cache = TraceCache::new();
            let points = [(64usize, 192usize), (128, 768), (128, 192), (256, 3072)];
            let mut blocks: Vec<String> = points
                .iter()
                .enumerate()
                .map(|(i, &(n, m))| {
                    let (cfg, rows) = table1_at_with(n, m, 1000 + i as u64, &cache);
                    render_table1(cfg, &rows)
                })
                .collect();
            let cfg = Table1Config {
                n: 128,
                m: 768,
                leaf: 4,
            };
            let a = spd::random_spd(128, &mut spd::test_rng(1100));
            blocks.push(render_table1_extended(cfg, &run_table1_extended(cfg, &a)));
            blocks
        }
        1 => [96usize, 192]
            .iter()
            .map(|&n| render_table2(n, &run_table2(n, &[1, 4, 16, 64], 2000 + n as u64)))
            .collect(),
        2 => [(16usize, 96usize), (32, 96), (32, 384)]
            .iter()
            .map(|&(n, m)| render_reduction(n, m, &run_reduction(n, m, 3000 + n as u64)))
            .collect(),
        _ => {
            let configs: [(usize, Vec<usize>); 2] =
                [(64, vec![48, 96, 512]), (128, vec![48, 640, 4096])];
            configs
                .iter()
                .map(|(n, caps)| {
                    render_multilevel(*n, caps, &run_multilevel(*n, caps, 5000 + *n as u64))
                })
                .collect()
        }
    }
}

/// True when every block, followed by a newline, occurs in `expected`
/// in order.
fn blocks_match(expected: &str, blocks: &[String]) -> bool {
    let mut at = 0;
    for b in blocks {
        match expected[at..].find(&format!("{b}\n")) {
            Some(i) => at += i + b.len() + 1,
            None => return false,
        }
    }
    true
}

/// One full regeneration; returns per-section seconds.
fn regenerate(
    expected: &[String],
    trace: &Trace,
    parent: Option<SpanId>,
    out: &mut Outcome,
) -> Vec<f64> {
    out.attempted += 1;
    let mut ok = true;
    let times = (0..SECTIONS.len())
        .map(|s| {
            let start = Instant::now();
            let blocks = trace.span(parent, "core", SECTIONS[s].0, |_| section(s));
            let dt = secs(start);
            if !blocks_match(&expected[s], &blocks) {
                ok = false;
                out.errors.push(format!(
                    "regenerated {} differs from results/{}.txt",
                    SECTIONS[s].0, SECTIONS[s].0
                ));
            }
            dt
        })
        .collect();
    if !ok {
        out.failed += 1;
    }
    times
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    ctx.note("pool_workers", WORKERS);
    let mut out = Outcome::default();

    // Set-up: start the pool and load the published outputs.
    let ((pool, expected), setup) = timed_setups(SETUP_REPS, || {
        let pool = ThreadPoolBuilder::new()
            .num_threads(WORKERS)
            .build()
            .map_err(|e| e.to_string())?;
        let expected = SECTIONS
            .iter()
            .map(|(f, _)| {
                let path = format!("results/{f}.txt");
                std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((pool, expected))
    })?;
    out.e2e("setup_s", median(&setup), setup.len());

    let trace = &ctx.trace;
    let traced = trace.on();
    let off = Trace::new(false);
    let regen = |trace: &Trace, out: &mut Outcome| {
        let parent = trace.on().then(|| trace.id());
        let start = Instant::now();
        let times = pool.install(|| regenerate(&expected, trace, parent, out));
        if let Some(p) = parent {
            trace.record(p, None, "bench", "regenerate", start, Instant::now());
        }
        times
    };
    // One untimed warm-up regeneration (checked like the rest).  In the
    // traced run, untraced and traced regenerations alternate so that the
    // overhead ratio compares samples taken side by side.
    regen(&off, &mut out);
    let (mut runs, mut traced_runs): (Vec<Vec<f64>>, Vec<f64>) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed() < ctx.budget(if traced { 0.7 } else { 1.0 }) || runs.len() < 2 {
        runs.push(regen(&off, &mut out));
        if traced {
            traced_runs.push(regen(trace, &mut out).iter().sum());
        }
    }
    let totals: Vec<f64> = runs.iter().map(|r| r.iter().sum()).collect();
    let report_s = median(&totals);
    out.e2e("job_ms", report_s * 1e3, totals.len());
    println!(
        "metric report_s = {report_s:.6} s (samples={})",
        totals.len()
    );
    out.layer("report.report_s", report_s);
    for (s, (_, metric)) in SECTIONS.iter().enumerate() {
        out.layer(
            metric,
            median(&runs.iter().map(|r| r[s]).collect::<Vec<_>>()),
        );
    }

    if traced {
        out.layer("trace.overhead", median(&traced_runs) / report_s);

        // Layer rates on one recorded schedule: AP00 on recursive blocks
        // at n = 128, replayed through an LRU cache and a 3-level
        // stack-distance hierarchy.
        let a = spd_input(128, ctx.seed);
        let alg = Algorithm::Ap00 { leaf: 4 };
        let (mut rec, mut lru, mut sd) = (Vec::new(), Vec::new(), Vec::new());
        let mut events = None;
        let t0 = Instant::now();
        while rec.len() < 3 || (t0.elapsed() < ctx.budget(0.25) && rec.len() < 50) {
            let start = Instant::now();
            let r = trace
                .span(None, "seq", "record_algorithm", |_| {
                    record_algorithm(alg, &a, LayoutKind::Morton)
                })
                .map_err(|e| format!("record_algorithm: {e}"))?;
            rec.push(secs(start));
            let n_events = r.trace.len() as f64;
            let first = *events.get_or_insert((n_events, r.trace.digest()));
            out.check((n_events, r.trace.digest()) == first, || {
                "recorded trace differs between repetitions".to_string()
            });
            let start = Instant::now();
            trace.span(None, "cachesim", "lru_replay", |_| {
                price_trace(&r.trace, &ModelKind::Lru { m: 768 })
            });
            lru.push(secs(start));
            let start = Instant::now();
            let capacities = vec![48, 640, 4096];
            trace.span(None, "cachesim", "stackdist_replay", |_| {
                price_trace(&r.trace, &ModelKind::Hierarchy { capacities })
            });
            sd.push(secs(start));
        }
        let n_events = events.map_or(0.0, |e| e.0);
        out.layer("seq.record_events_per_s", n_events / median(&rec));
        out.layer("cachesim.lru_replay_events_per_s", n_events / median(&lru));
        out.layer(
            "cachesim.stackdist_replay_events_per_s",
            n_events / median(&sd),
        );
        out.layer("count.trace_events", n_events);
        out.count("seq.trace_events", n_events as u64);
        out.count("seq.trace_digest", events.map_or(0, |e| e.1));
    }
    Ok(out)
}
