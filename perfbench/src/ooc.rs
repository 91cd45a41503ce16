//! `ooc_file`: the pipelined out-of-core POTRF on a real file.
//!
//! One job is `FileMatrix::create` of the input (set-up) followed by
//! `ooc::ooc_potrf_pipelined_with` from file to file at n = 3072,
//! b = 128 with 32 tiles of fast memory (4 MiB against a 72 MiB matrix),
//! 2 I/O workers and an explicit lookahead.  Every factor is read back
//! and checked (probe residual, one digest for every repetition), and the
//! tile I/O counts must repeat exactly.

use crate::dense::{assemble, serial_replay, B, KERNEL};
use crate::trace::{Span, SpanId, Trace};
use crate::util::{median, probe_residual, residual_limit, secs, spd_input};
use crate::{Ctx, Outcome};
use cholcomm_core::matrix::{lower_digest, Matrix};
use cholcomm_core::ooc::{
    ooc_potrf_pipelined_with, FileMatrix, IoBackend, IoStats, LatencyModel, PipelineConfig,
    PipelineStats,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Matrix order: 72 MiB on file against 4 MiB of fast memory.
const N: usize = 3072;
const CAPACITY_TILES: usize = 32;
const IO_WORKERS: usize = 2;
/// The library's default prefetch depth for this capacity, pinned.
const LOOKAHEAD: usize = CAPACITY_TILES - 3;

/// An `IoBackend` that times every tile transfer of the file it wraps
/// (traced run only).
struct Timed<'a> {
    inner: &'a mut FileMatrix,
    trace: &'a Trace,
    parent: SpanId,
    spans: Vec<Span>,
    busy_s: f64,
}

impl Timed<'_> {
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut FileMatrix) -> R) -> R {
        let start = Instant::now();
        let r = f(self.inner);
        let end = Instant::now();
        self.busy_s += (end - start).as_secs_f64();
        self.spans.push(
            self.trace
                .make_span(Some(self.parent), "filemat", name, start, end),
        );
        r
    }
}

impl IoBackend for Timed<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn b(&self) -> usize {
        self.inner.b()
    }
    fn nb(&self) -> usize {
        self.inner.nb()
    }
    fn read_tile(&mut self, bi: usize, bj: usize) -> std::io::Result<Matrix<f64>> {
        self.timed("read_tile", |f| f.read_tile(bi, bj))
    }
    fn write_tile(&mut self, bi: usize, bj: usize, tile: &Matrix<f64>) -> std::io::Result<()> {
        self.timed("write_tile", |f| f.write_tile(bi, bj, tile))
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
    fn path(&self) -> Option<&Path> {
        Some(self.inner.path())
    }
    fn storage_restored(&mut self) {
        IoBackend::storage_restored(self.inner)
    }
    fn barrier(&mut self) -> std::io::Result<()> {
        self.timed("barrier", |f| f.barrier())
    }
    fn latency_model(&self) -> LatencyModel {
        IoBackend::latency_model(self.inner)
    }
}

fn io_delta(after: IoStats, before: IoStats) -> IoStats {
    IoStats {
        bytes_read: after.bytes_read - before.bytes_read,
        bytes_written: after.bytes_written - before.bytes_written,
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        seeks: after.seeks - before.seeks,
        seek_distance: after.seek_distance - before.seek_distance,
    }
}

/// Everything one loop of file-to-file factorizations measured.
#[derive(Default)]
struct Loop {
    setup: Vec<f64>,
    factor: Vec<f64>,
    io: Vec<IoStats>,
    pipe: Vec<PipelineStats>,
    io_busy: Vec<f64>,
}

impl Loop {
    fn extend(&mut self, other: Loop) {
        self.setup.extend(other.setup);
        self.factor.extend(other.factor);
        self.io.extend(other.io);
        self.pipe.extend(other.pipe);
        self.io_busy.extend(other.io_busy);
    }
}

struct Shared<'a> {
    a: &'a Matrix<f64>,
    cfg: &'a PipelineConfig,
    seed: u64,
    digest: Option<u64>,
    /// The first repetition's file I/O; every later one must match it.
    io: Option<IoStats>,
    rep: usize,
}

fn factor_loop(
    ctx: &Ctx,
    sh: &mut Shared<'_>,
    budget: Duration,
    traced: bool,
    out: &mut Outcome,
) -> Result<Loop, String> {
    let mut lp = Loop::default();
    let t0 = Instant::now();
    while t0.elapsed() < budget || lp.factor.is_empty() {
        sh.rep += 1;
        let path = ctx.scratch.join(format!("ooc-{}.bin", sh.rep));
        let start = Instant::now();
        let mut fm =
            FileMatrix::create(&path, sh.a, B).map_err(|e| format!("FileMatrix::create: {e}"))?;
        lp.setup.push(secs(start));

        let before = fm.stats();
        out.attempted += 1;
        let start = Instant::now();
        let res = if traced {
            let trace = &ctx.trace;
            let parent = trace.id();
            let mut timed = Timed {
                inner: &mut fm,
                trace,
                parent,
                spans: Vec::new(),
                busy_s: 0.0,
            };
            let res = ooc_potrf_pipelined_with(&mut timed, sh.cfg);
            trace.record(
                parent,
                None,
                "pipeline",
                "ooc_potrf_pipelined_with",
                start,
                Instant::now(),
            );
            lp.io_busy.push(timed.busy_s);
            trace.extend(std::mem::take(&mut timed.spans));
            res
        } else {
            ooc_potrf_pipelined_with(&mut fm, sh.cfg)
        };
        let dt = secs(start);
        let stats = match res {
            Ok(s) => s,
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("ooc_potrf_pipelined_with: {e}"));
                continue;
            }
        };
        lp.factor.push(dt);
        lp.pipe.push(stats);
        let io = io_delta(fm.stats(), before);
        let first = *sh.io.get_or_insert(io);
        out.check(
            (io.bytes_read, io.bytes_written, io.reads, io.writes)
                == (
                    first.bytes_read,
                    first.bytes_written,
                    first.reads,
                    first.writes,
                ),
            || "file I/O counts differ between repetitions".to_string(),
        );
        lp.io.push(io);

        let l = fm
            .to_matrix()
            .map_err(|e| format!("reading the factor back: {e}"))?;
        let r = probe_residual(sh.a, &l, sh.seed);
        out.check(r < residual_limit(N), || {
            format!("ooc factor residual {r:e}")
        });
        let d = lower_digest(&l);
        let first = *sh.digest.get_or_insert(d);
        out.check(d == first, || {
            format!("ooc factor digest {d:016x} != {first:016x}")
        });
    }
    Ok(lp)
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    ctx.note("n", N);
    ctx.note("b", B);
    ctx.note("kernel", KERNEL.name());
    ctx.note("capacity_tiles", CAPACITY_TILES);
    ctx.note("io_workers", IO_WORKERS);
    ctx.note("lookahead", LOOKAHEAD);
    std::fs::create_dir_all(&ctx.scratch).map_err(|e| format!("{}: {e}", ctx.scratch.display()))?;
    let mut out = Outcome::default();
    let a = spd_input(N, ctx.seed);
    let cfg = PipelineConfig::new(CAPACITY_TILES)
        .with_io_workers(IO_WORKERS)
        .with_lookahead(LOOKAHEAD)
        .with_kernel(KERNEL)
        .with_sleep_latency(false)
        .with_parallel_kernels(false);
    let mut sh = Shared {
        a: &a,
        cfg: &cfg,
        seed: ctx.seed,
        digest: None,
        io: None,
        rep: 0,
    };

    let traced = ctx.trace.on();
    // One untimed warm-up repetition (checked like the rest).
    factor_loop(ctx, &mut sh, Duration::ZERO, false, &mut out)?;
    let (mut lp, mut tl, mut compute) = (Loop::default(), Loop::default(), Vec::new());
    if traced {
        // Rounds of an untraced repetition, a traced one (file I/O timed
        // through the `Timed` wrapper) and the same tile-op sequence on
        // in-RAM tiles, so that every ratio compares samples taken side
        // by side.  The in-RAM factor must equal the file's bit for bit.
        let t0 = Instant::now();
        while t0.elapsed() < ctx.budget(0.8) || compute.len() < 2 {
            lp.extend(factor_loop(ctx, &mut sh, Duration::ZERO, false, &mut out)?);
            tl.extend(factor_loop(ctx, &mut sh, Duration::ZERO, true, &mut out)?);
            let start = Instant::now();
            let tiles = serial_replay(&a, B, &ctx.trace, "ooc_compute")?;
            compute.push(secs(start));
            let d = lower_digest(&assemble(&tiles, N, B));
            out.check(Some(d) == sh.digest, || {
                format!("in-RAM replay digest {d:016x} differs from the file factor")
            });
        }
    } else {
        lp = factor_loop(ctx, &mut sh, ctx.budget(1.0), false, &mut out)?;
    }
    let factor_s = median(&lp.factor);
    out.e2e("setup_s", median(&lp.setup), lp.setup.len());
    out.e2e("job_ms", factor_s * 1e3, lp.factor.len());
    println!(
        "metric factor_s = {factor_s:.6} s (samples={})",
        lp.factor.len()
    );
    out.layer("ooc.factor_s", factor_s);

    let io = sh.io.ok_or("no repetition")?;
    let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    out.layer("filemat.read_mb", mb(io.bytes_read));
    out.layer("filemat.write_mb", mb(io.bytes_written));
    out.layer("filemat.reads", io.reads as f64);
    out.layer("filemat.writes", io.writes as f64);
    out.layer(
        "filemat.seeks",
        median(&lp.io.iter().map(|s| s.seeks as f64).collect::<Vec<_>>()),
    );
    let m_words = (CAPACITY_TILES * B * B) as f64;
    let bound = (N as f64).powi(3) / m_words.sqrt();
    let words_over_bound = (io.bytes_read + io.bytes_written) as f64 / 8.0 / bound;
    out.layer("ooc.words_over_bound", words_over_bound);
    let pipe_med =
        |f: fn(&PipelineStats) -> f64| median(&lp.pipe.iter().map(f).collect::<Vec<_>>());
    out.layer("pipeline.prefetch_hit_rate", pipe_med(|p| p.hit_rate()));
    out.layer("pipeline.stalls", pipe_med(|p| p.prefetch_stalls as f64));
    out.count("filemat.bytes_read", io.bytes_read);
    out.count("filemat.bytes_written", io.bytes_written);
    out.count("filemat.reads", io.reads);
    out.count("filemat.writes", io.writes);
    out.count("pipeline.fetches", lp.pipe[0].fetches);
    out.count("factor_digest", sh.digest.unwrap_or(0));
    println!("ooc.words_over_bound = {words_over_bound:.6}");
    let nb = (N / B) as u64;
    let b3 = (B * B * B) as u64;
    // Tile flops of the op list: potf2 b³/3, trsm b³, gemm_nt 2b³.
    let flops =
        nb * b3.div_ceil(3) + nb * (nb - 1) / 2 * b3 + nb * (nb - 1) * (nb + 1) / 6 * 2 * b3;
    out.count("flops", flops);

    if traced {
        out.layer("trace.overhead", median(&tl.factor) / factor_s);
        out.layer("filemat.io_busy_s", median(&tl.io_busy));
        let compute_s = median(&compute);
        out.layer("ooc.compute_s", compute_s);
        out.layer("kernels_fast.busy_s", compute_s);
        out.layer("pipeline.exposed_io_s", factor_s - compute_s);
        out.layer("count.flops", flops as f64);
    }
    Ok(out)
}
