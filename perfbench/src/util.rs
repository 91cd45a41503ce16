//! Benchmark-side helpers: seeded random numbers, order statistics,
//! O(n²) input generation and factor checks, and host facts.

use cholcomm_core::matrix::Matrix;
use std::time::{Duration, Instant};

/// SplitMix64: a small, fast, seedable generator.  The benchmark owns its
/// input generation so that later changes to the library's generators
/// cannot change what is measured.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5045_5246_4245_4e43)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Zipf sampler over ranks `1..=n` by inverse CDF on a table.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        (self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) + 1) as u64
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// NaN for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if v[lo] == v[hi] || !v[hi].is_finite() {
        return if pos > lo as f64 { v[hi] } else { v[lo] };
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Idle time before each timed set-up.
pub const SETUP_IDLE: Duration = Duration::from_millis(20);

/// Time `reps` runs of the set-up `f`; returns the last one's result and
/// every run's seconds.  Each run starts from an idle process: the
/// previous result is dropped and the process sleeps `SETUP_IDLE` first.
/// A dropped pool's workers exit in the background, so back-to-back
/// starts each pay a varying share of the previous teardown; from idle,
/// every start pays the same wake-up of idle CPUs.
pub fn timed_setups<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut last = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        drop(last.take());
        std::thread::sleep(SETUP_IDLE);
        let start = Instant::now();
        last = Some(f()?);
        times.push(secs(start));
    }
    Ok((last.expect("at least one set-up"), times))
}

/// A seeded SPD input in O(n²): a symmetric matrix uniform in `[-1, 1)`
/// plus `n·I` (diagonally dominant, hence SPD).
pub fn spd_input(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = Rng::new(seed);
    let mut a = Matrix::zeros(n, n);
    for j in 0..n {
        for i in j..n {
            let v = rng.uniform(-1.0, 1.0);
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
        a[(j, j)] += n as f64;
    }
    a
}

/// `y = A x` for a full (symmetric) column-major `A`.
fn matvec(a: &Matrix<f64>, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.rows()];
    for (j, &xj) in x.iter().enumerate() {
        for (yi, &aij) in y.iter_mut().zip(a.col(j)) {
            *yi += aij * xj;
        }
    }
    y
}

/// `y = L (Lᵀ x)` reading only the lower triangle of `l`.
fn llt_apply(l: &Matrix<f64>, x: &[f64]) -> Vec<f64> {
    let n = l.rows();
    // z = Lᵀ x: z_j = Σ_{i ≥ j} L_ij x_i.
    let z: Vec<f64> = (0..n)
        .map(|j| l.col(j)[j..].iter().zip(&x[j..]).map(|(a, b)| a * b).sum())
        .collect();
    let mut y = vec![0.0; n];
    for (j, &zj) in z.iter().enumerate() {
        for (yi, &lij) in y[j..].iter_mut().zip(&l.col(j)[j..]) {
            *yi += lij * zj;
        }
    }
    y
}

/// Probe residual `‖Ax − L(Lᵀx)‖ / ‖Ax‖` for a seeded probe vector.
pub fn probe_residual(a: &Matrix<f64>, l: &Matrix<f64>, seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0x7072_6f62);
    let x: Vec<f64> = (0..a.rows()).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let ax = matvec(a, &x);
    let llx = llt_apply(l, &x);
    let num: f64 = ax.iter().zip(&llx).map(|(p, q)| (p - q) * (p - q)).sum();
    let den: f64 = ax.iter().map(|p| p * p).sum();
    (num / den).sqrt()
}

/// Residual limit for an order-`n` factor: generous against rounding,
/// far below anything a wrong factor produces.
pub fn residual_limit(n: usize) -> f64 {
    1e-12 * (n as f64).sqrt().max(1.0) * 10.0
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model string of the host.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(steal, total)` CPU jiffies of the host so far, from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu ")?.to_string();
            let v: Vec<u64> = line
                .split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect();
            Some((v.get(7).copied().unwrap_or(0), v.iter().take(8).sum()))
        })
        .unwrap_or((0, 0))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |v| v.get())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite values with all their digits.  A non-finite
/// value (a latency quantile that falls on failed requests, or a
/// statistic of no samples) is written as the largest finite double, the
/// worst reading of a lower-is-better metric; the run fails for it.
pub fn json_num(v: f64) -> String {
    format!("{:?}", if v.is_finite() { v } else { f64::MAX })
}
