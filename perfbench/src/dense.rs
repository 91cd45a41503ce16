//! `dense_incore`: the task-DAG tiled POTRF on explicit worker pools.
//!
//! One job is `par::dag::potrf_dag_with` at n = 1536, b = 128 with the
//! `FastStrict` kernels on a 2-worker pool; the same factorization on a
//! 1-worker pool is the single-thread baseline.  Both are timed
//! alternately, and every factor is checked (probe residual, and one
//! digest shared by every repetition at both pool sizes).

use crate::trace::Trace;
use crate::util::{median, probe_residual, residual_limit, secs, spd_input, timed_setups};
use crate::{Ctx, Outcome};
use cholcomm_core::matrix::{lower_digest, KernelImpl, Matrix};
use cholcomm_core::par::dag::{potrf_dag_with, simulate};
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::time::{Duration, Instant};

/// Matrix order.  At n = 1536 one 2-worker factorization takes about
/// 50 ms, so a 25-second run's median is taken over about 140 jobs; at
/// n = 3072 (0.4 s) it was taken over fifteen, and moved by 10% between
/// runs.
const N: usize = 1536;
pub const B: usize = 128;
pub const KERNEL: KernelImpl = KernelImpl::FastStrict;
const SETUP_REPS: usize = 51;

fn pool(workers: usize) -> Result<ThreadPool, String> {
    ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .map_err(|e| e.to_string())
}

/// Timings and checks of the alternating 2-worker / 1-worker loop.
#[derive(Default)]
struct Loop {
    two: Vec<f64>,
    one: Vec<f64>,
}

impl Loop {
    fn extend(&mut self, other: Loop) {
        self.two.extend(other.two);
        self.one.extend(other.one);
    }
}

/// Factor copies of `a` alternately on `p2` and `p1` until `budget`
/// elapses (at least one of each), checking every factor.
#[allow(clippy::too_many_arguments)]
fn factor_loop(
    a: &Matrix<f64>,
    p2: &ThreadPool,
    p1: &ThreadPool,
    budget: Duration,
    trace: Option<&Trace>,
    seed: u64,
    digest: &mut Option<u64>,
    out: &mut Outcome,
) -> Loop {
    let mut lp = Loop::default();
    let t0 = Instant::now();
    while t0.elapsed() < budget || lp.one.is_empty() {
        for (workers, pool) in [(2usize, p2), (1, p1)] {
            let mut m = a.clone();
            out.attempted += 1;
            let start = Instant::now();
            let res = match trace {
                Some(tr) => tr.span(None, "dag", "potrf_dag_with", |_| {
                    pool.install(|| potrf_dag_with(&mut m, B, KERNEL))
                }),
                None => pool.install(|| potrf_dag_with(&mut m, B, KERNEL)),
            };
            let dt = secs(start);
            if let Err(e) = res {
                out.failed += 1;
                out.errors
                    .push(format!("potrf_dag_with on {workers} worker(s): {e}"));
                continue;
            }
            if workers == 2 {
                &mut lp.two
            } else {
                &mut lp.one
            }
            .push(dt);
            let r = probe_residual(a, &m, seed);
            out.check(r < residual_limit(N), || {
                format!("dense factor residual {r:e} on {workers} worker(s)")
            });
            let d = lower_digest(&m);
            let first = *digest.get_or_insert(d);
            out.check(d == first, || {
                format!("dense factor digest {d:016x} != {first:016x} on {workers} worker(s)")
            });
        }
    }
    lp
}

/// The lower tiles of `a`, tile `(bi, bj)` at `bi*(bi+1)/2 + bj`.
pub fn lower_tiles(a: &Matrix<f64>, b: usize) -> Vec<Matrix<f64>> {
    let nb = a.rows() / b;
    let mut tiles = Vec::with_capacity(nb * (nb + 1) / 2);
    for bi in 0..nb {
        for bj in 0..=bi {
            tiles.push(a.submatrix(bi * b, bj * b, b, b));
        }
    }
    tiles
}

fn idx(bi: usize, bj: usize) -> usize {
    bi * (bi + 1) / 2 + bj
}

/// Replay the tiled right-looking factorization's tile operations
/// serially through `KernelImpl`, on in-RAM tiles: per step `k`, `potf2`
/// of the diagonal tile, `trsm` of the panel, then `gemm_nt` of each
/// trailing tile column by column.  This is the op list of the DAG
/// scheduler and of Algorithm 4's out-of-core schedule alike, so it
/// times the kernels with neither a scheduler nor I/O.  The replay is
/// one span of `layer` with a `kernels_fast` child per call.  Returns the
/// factored tiles.
pub fn serial_replay(
    a: &Matrix<f64>,
    b: usize,
    trace: &Trace,
    layer: &'static str,
) -> Result<Vec<Matrix<f64>>, String> {
    let nb = a.rows() / b;
    let mut tiles = lower_tiles(a, b);
    let parent = trace.id();
    let start = Instant::now();
    let op = |name: &'static str, f: &mut dyn FnMut()| {
        if trace.on() {
            trace.span(Some(parent), "kernels_fast", name, |_| f());
        } else {
            f();
        }
    };
    for k in 0..nb {
        let mut res = Ok(());
        op("potf2", &mut || res = KERNEL.potf2(&mut tiles[idx(k, k)]));
        res.map_err(|e| format!("serial replay potf2({k}): {e}"))?;
        for i in (k + 1)..nb {
            let mut t = std::mem::replace(&mut tiles[idx(i, k)], Matrix::zeros(0, 0));
            op("trsm", &mut || {
                KERNEL.trsm_right_lower_transpose(&mut t, &tiles[idx(k, k)])
            });
            tiles[idx(i, k)] = t;
        }
        for j in (k + 1)..nb {
            for i in j..nb {
                let mut t = std::mem::replace(&mut tiles[idx(i, j)], Matrix::zeros(0, 0));
                op("gemm_nt", &mut || {
                    KERNEL.gemm_nt(&mut t, -1.0, &tiles[idx(i, k)], &tiles[idx(j, k)])
                });
                tiles[idx(i, j)] = t;
            }
        }
    }
    trace.record(parent, None, layer, "serial_replay", start, Instant::now());
    Ok(tiles)
}

/// The full lower factor assembled from [`serial_replay`]'s tiles.
pub fn assemble(tiles: &[Matrix<f64>], n: usize, b: usize) -> Matrix<f64> {
    let mut l = Matrix::zeros(n, n);
    for bi in 0..n / b {
        for bj in 0..=bi {
            l.set_submatrix(bi * b, bj * b, &tiles[idx(bi, bj)]);
        }
    }
    l
}

/// Median GF/s of one tile kernel over `reps` calls on fresh copies.
fn kernel_rate(
    reps: usize,
    flops: f64,
    fresh: impl Fn() -> Matrix<f64>,
    mut call: impl FnMut(&mut Matrix<f64>),
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut t = fresh();
            let start = Instant::now();
            call(std::hint::black_box(&mut t));
            let dt = secs(start);
            std::hint::black_box(&t);
            dt
        })
        .collect();
    flops / median(&times) / 1e9
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    ctx.note("n", N);
    ctx.note("b", B);
    ctx.note("kernel", KERNEL.name());
    ctx.note("pool_workers", "2,1");
    let mut out = Outcome::default();
    let a = spd_input(N, ctx.seed);

    // Set-up: start both pools, several times; keep the last pair.
    let ((p2, p1), setup) = timed_setups(SETUP_REPS, || Ok((pool(2)?, pool(1)?)))?;
    out.e2e("setup_s", median(&setup), setup.len());

    let mut digest = None;
    let trace = &ctx.trace;
    // One untimed warm-up pair (checked like the rest): first-touch page
    // faults and the pools' first tasks are paid once per process.
    factor_loop(
        &a,
        &p2,
        &p1,
        Duration::ZERO,
        None,
        ctx.seed,
        &mut digest,
        &mut out,
    );
    let (mut lp, mut traced, mut busy) = (Loop::default(), Loop::default(), Vec::new());
    if trace.on() {
        // Rounds of an untraced pair, a traced pair and a serial replay of
        // the op list, so that every ratio compares samples taken side by
        // side.  The replay's factor must equal the DAG's bit for bit.
        let t0 = Instant::now();
        while t0.elapsed() < ctx.budget(0.8) || busy.len() < 2 {
            lp.extend(factor_loop(
                &a,
                &p2,
                &p1,
                Duration::ZERO,
                None,
                ctx.seed,
                &mut digest,
                &mut out,
            ));
            traced.extend(factor_loop(
                &a,
                &p2,
                &p1,
                Duration::ZERO,
                Some(trace),
                ctx.seed,
                &mut digest,
                &mut out,
            ));
            let start = Instant::now();
            let tiles = serial_replay(&a, B, trace, "bench")?;
            busy.push(secs(start));
            let d = lower_digest(&assemble(&tiles, N, B));
            out.check(Some(d) == digest, || {
                format!("serial replay digest {d:016x} differs from the DAG factor")
            });
        }
    } else {
        lp = factor_loop(
            &a,
            &p2,
            &p1,
            ctx.budget(1.0),
            None,
            ctx.seed,
            &mut digest,
            &mut out,
        );
    }
    let (f2, f1) = (median(&lp.two), median(&lp.one));
    out.e2e("job_ms", f2 * 1e3, lp.two.len());
    println!("metric factor_s = {f2:.6} s (samples={})", lp.two.len());
    println!("metric factor_1w_s = {f1:.6} s (samples={})", lp.one.len());
    out.layer("dense.factor_s", f2);
    out.layer("dense.factor_1w_s", f1);

    let model = simulate(N, B, 2);
    out.count("dag.tasks", model.tasks as u64);
    out.count("flops", model.serial_flops);
    out.count("factor_digest", digest.unwrap_or(0));

    if trace.on() {
        out.layer("trace.overhead", median(&traced.two) / f2);
        let busy_s = median(&busy);
        out.layer("kernels_fast.busy_s", busy_s);

        // Tile kernel rates on b x b tiles.
        let b3 = (B * B * B) as f64;
        let diag = a.submatrix(0, 0, B, B);
        let mut l = diag.clone();
        KERNEL.potf2(&mut l).map_err(|e| e.to_string())?;
        let off = a.submatrix(B, 0, B, B);
        let other = a.submatrix(2 * B, 0, B, B);
        let reps = 40;
        out.layer(
            "kernels_fast.potf2_gflops",
            kernel_rate(
                reps,
                b3 / 3.0,
                || diag.clone(),
                |t| {
                    let _ = KERNEL.potf2(t);
                },
            ),
        );
        out.layer(
            "kernels_fast.trsm_gflops",
            kernel_rate(
                reps,
                b3,
                || off.clone(),
                |t| KERNEL.trsm_right_lower_transpose(t, &l),
            ),
        );
        out.layer(
            "kernels_fast.gemm_nt_gflops",
            kernel_rate(
                reps,
                2.0 * b3,
                || off.clone(),
                |t| KERNEL.gemm_nt(t, -1.0, &other, &diag),
            ),
        );

        out.layer("dag.overhead_s", f1 - busy_s);
        out.layer("dag.idle_share", 1.0 - busy_s / (2.0 * f2));
        out.layer("dag.wall_speedup", f1 / f2);
        out.layer("dag.model_speedup", model.speedup);
        out.layer("dag.tasks", model.tasks as f64);
        out.layer("count.flops", model.serial_flops as f64);
    }
    Ok(out)
}
