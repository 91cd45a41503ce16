//! Properties of size-bucketed batched execution, end to end through
//! the service and down to the batched kernels:
//!
//! 1. **Degenerate shapes** — a batch of one and order-1 systems both
//!    complete through the batched path, bit-identical to direct runs;
//!    a lone request on an idle shard leaves at once, unflushed.
//! 2. **Bucket boundaries** — 64 and 65 land in different power-of-two
//!    buckets and never share a batch.
//! 3. **Class mixing** — admission classes shape *admission*, not batch
//!    membership: one bucket happily carries all three priorities.
//! 4. **Deadlines** — a member whose budget expires *waiting in a
//!    bucket* is cancelled with a typed error at the batch boundary,
//!    never silently factored late.
//! 5. **Amortized admission** — batchable work is charged its per-lane
//!    share, so a burst the unbatched gauge sheds is absorbed whole.
//! 6. **Bit-identity** — `FastStrict` batched factors match the
//!    sequential engine bitwise at batch sizes 1/2/8/32 and pool sizes
//!    1/4, and a batched service replays byte-identically at every pool
//!    size (its canonical log excludes the machine's thread count).

use cholcomm::matrix::{lower_digest, parallel, KernelImpl, Matrix};
use cholcomm::serve::engine::{factor_resumable, Checkpoint, FactorOutcome, PanelControl};
use cholcomm::serve::{
    batch_cost_us, batched_request_cost_us, bucket_of, build, factor_batch, factor_cost_us, BatchConfig, Event,
    JobKind, Priority, Request, ServeError, Service, ServiceConfig, ServiceReport, ShardConfig,
    Source, Ticket, Watermarks,
};
use cholcomm::faults::FaultPlan;
use rayon::ThreadPoolBuilder;
use std::time::Duration;

const BLOCK: usize = 16;

fn request(kind: JobKind, key: u64, n: usize, class: Priority, vtime_us: u64) -> Request {
    Request {
        kind,
        key,
        n,
        class,
        vtime_us,
        deadline_us: u64::MAX / 2,
    }
}

/// A single-shard service with batching on and the cache off, so every
/// completion exercises the batched kernels.
fn batched_config() -> ServiceConfig {
    let base = ServiceConfig::default();
    ServiceConfig {
        shards: 1,
        shard: ShardConfig {
            cache_capacity: 0,
            ..base.shard
        },
        batch: BatchConfig {
            enabled: true,
            ..BatchConfig::default()
        },
        ..base
    }
}

/// An unbatchable request at virtual time 0.  Submitted first, it gives
/// the shard modelled backlog, so the batchable requests behind it wait
/// in their bucket instead of leaving alone on an idle shard.
fn backlog_head() -> Request {
    request(JobKind::GpPosterior, 0, 16, Priority::Batch, 0)
}

/// `requests` behind a [`backlog_head`]; outcome `i + 1` answers
/// `requests[i]`.
fn behind_head(requests: &[Request]) -> Vec<Request> {
    std::iter::once(backlog_head())
        .chain(requests.iter().copied())
        .collect()
}

/// Reference digest: the sequential resumable engine, no service.
fn direct_digest(kind: JobKind, key: u64, n: usize, kernel: KernelImpl) -> u64 {
    let problem = build(kind, key, n);
    match factor_resumable(Checkpoint::fresh(problem.a), BLOCK, kernel, &mut |_, _| {
        PanelControl::Continue
    })
    .expect("reference factorization")
    {
        FactorOutcome::Done(m) => lower_digest(&m),
        other => panic!("unexpected {other:?}"),
    }
}

/// Per-request outcome: `(source, factor digest)` or the typed refusal.
type Outcomes = Vec<Result<(Source, u64), ServeError>>;

/// Submit everything, flush the part-filled buckets, wait everything.
fn drive(config: ServiceConfig, requests: &[Request]) -> (ServiceReport, Outcomes) {
    let mut service = Service::start(config, &FaultPlan::none());
    let tickets: Vec<Ticket> = requests.iter().map(|r| service.submit(*r)).collect();
    service.flush_batches();
    let outcomes = tickets
        .into_iter()
        .map(|t| t.wait().map(|resp| (resp.source, resp.factor_digest)))
        .collect();
    (service.shutdown(), outcomes)
}

#[test]
fn a_batch_of_one_completes_bit_identically() {
    let (report, outcomes) = drive(
        batched_config(),
        &[request(JobKind::Factor, 7, 24, Priority::Batch, 0)],
    );
    let (source, digest) = outcomes[0].as_ref().expect("completed").to_owned();
    assert_eq!(source, Source::Batched);
    assert_eq!(digest, direct_digest(JobKind::Factor, 7, 24, KernelImpl::default()));
    assert_eq!(report.metrics.counters.batches_dispatched, 1);
    assert_eq!(report.metrics.counters.batched_factorizations, 1);
}

#[test]
fn a_lone_request_on_an_idle_shard_leaves_without_a_flush() {
    let mut service = Service::start(batched_config(), &FaultPlan::none());
    let ticket = service.submit(request(JobKind::Factor, 9, 24, Priority::Batch, 1_000));
    // No flush and no later submission: the request must resolve on
    // its own.  Wait on a helper thread so a regression fails here
    // instead of hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(ticket.wait());
    });
    let resp = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a lone request on an idle shard must not wait for a flush")
        .expect("completed");
    waiter.join().unwrap();
    assert_eq!(resp.source, Source::Batched);
    assert_eq!(
        resp.factor_digest,
        direct_digest(JobKind::Factor, 9, 24, KernelImpl::default())
    );
    // No formation wait: the latency is the batch of one's modelled
    // work, started at the request's own arrival.
    assert_eq!(resp.virt_latency_us, batch_cost_us(bucket_of(24), 1, BLOCK));
    let report = service.shutdown();
    assert!(report.records.iter().any(|r| r.req == 0
        && matches!(r.event, Event::Batched { bucket_n: 32, batch: 1 })));
    assert_eq!(report.metrics.counters.batches_dispatched, 1);
}

#[test]
fn order_one_systems_batch_and_serve() {
    assert_eq!(bucket_of(1), 1);
    let requests: Vec<Request> = (0..5)
        .map(|i| request(JobKind::Factor, 100 + i, 1, Priority::Batch, 0))
        .collect();
    let (report, outcomes) = drive(batched_config(), &behind_head(&requests));
    for (r, outcome) in requests.iter().zip(&outcomes[1..]) {
        let (source, digest) = outcome.as_ref().expect("completed").to_owned();
        assert_eq!(source, Source::Batched);
        assert_eq!(digest, direct_digest(r.kind, r.key, 1, KernelImpl::default()));
    }
    // All five 1x1 systems share the order-1 bucket: one batch.
    assert_eq!(report.metrics.counters.batches_dispatched, 1);
    assert_eq!(report.metrics.counters.batched_factorizations, 5);
}

#[test]
fn sixty_four_and_sixty_five_never_share_a_batch() {
    assert_eq!(bucket_of(64), 64);
    assert_eq!(bucket_of(65), 128);
    let requests = [
        request(JobKind::Factor, 1, 64, Priority::Batch, 0),
        request(JobKind::Factor, 2, 65, Priority::Batch, 0),
    ];
    let (report, outcomes) = drive(batched_config(), &requests);
    for (r, outcome) in requests.iter().zip(&outcomes) {
        let (_, digest) = outcome.as_ref().expect("completed").to_owned();
        assert_eq!(digest, direct_digest(r.kind, r.key, r.n, KernelImpl::default()));
    }
    assert_eq!(report.metrics.counters.batches_dispatched, 2);
    // The event log shows each in its own bucket, alone.
    for (want_bucket, req) in [(64usize, 0u64), (128, 1)] {
        assert!(report.records.iter().any(|rec| rec.req == req
            && matches!(
                rec.event,
                Event::Batched { bucket_n, batch } if bucket_n == want_bucket && batch == 1
            )));
    }
}

#[test]
fn mixed_priority_classes_share_one_bucket() {
    let classes = [Priority::Interactive, Priority::Batch, Priority::Background];
    let requests: Vec<Request> = classes
        .iter()
        .enumerate()
        .map(|(i, &class)| request(JobKind::Factor, 200 + i as u64, 32, class, 0))
        .collect();
    let (report, outcomes) = drive(batched_config(), &behind_head(&requests));
    for (r, outcome) in requests.iter().zip(&outcomes[1..]) {
        let (source, digest) = outcome.as_ref().expect("completed").to_owned();
        assert_eq!(source, Source::Batched);
        assert_eq!(digest, direct_digest(r.kind, r.key, r.n, KernelImpl::default()));
    }
    assert_eq!(report.metrics.counters.batches_dispatched, 1);
    assert_eq!(report.metrics.counters.batched_factorizations, 3);
}

#[test]
fn deadline_expiry_in_a_bucket_is_a_typed_cancellation() {
    let mut service = Service::start(batched_config(), &FaultPlan::none());
    let head = service.submit(backlog_head());
    // Parked behind the head's backlog in the order-16 bucket with a
    // 50us budget...
    let mut doomed = request(JobKind::Factor, 1, 16, Priority::Batch, 0);
    doomed.deadline_us = 50;
    let ticket = service.submit(doomed);
    // ...until an unbatchable submission advances virtual time far past
    // the formation delay, aging the bucket out.
    let bystander = service.submit(request(JobKind::GpPosterior, 2, 16, Priority::Batch, 100_000));

    let err = ticket.wait().expect_err("budget expired while batching");
    let ServeError::DeadlineExceeded { elapsed_us, budget_us, panel } = err else {
        panic!("want DeadlineExceeded, got {err}");
    };
    assert_eq!(budget_us, 50);
    assert_eq!(panel, 0, "cancelled before any panel ran");
    assert!(elapsed_us >= budget_us);
    assert!(bystander.wait().is_ok());
    assert!(head.wait().is_ok());

    let report = service.shutdown();
    assert_eq!(report.metrics.counters.deadline_canceled, 1);
    // The doomed request was batched, cancelled loudly, and never
    // factored: no silent late completion.
    assert!(report.records.iter().any(|r| r.req == 1
        && matches!(r.event, Event::Batched { bucket_n: 16, batch: 1 })));
    assert!(report.records.iter().any(|r| r.req == 1
        && matches!(r.event, Event::DeadlineCanceled { panel: 0, .. })));
    assert_eq!(report.metrics.counters.batched_factorizations, 0);
}

#[test]
fn amortized_admission_absorbs_a_burst_the_unbatched_gauge_sheds() {
    let n = 64;
    let unbatched_cost = factor_cost_us(n, BLOCK);
    let amortized_cost = batched_request_cost_us(bucket_of(n), BLOCK);
    assert!(
        amortized_cost * 3 < unbatched_cost,
        "amortization must be substantial: {amortized_cost} vs {unbatched_cost}"
    );

    // A watermark three unbatched requests fill, but eight amortized
    // ones fit under.
    let watermark = Watermarks::bounded_by(3 * unbatched_cost);
    let requests: Vec<Request> = (0..8)
        .map(|i| request(JobKind::Factor, 300 + i, n, Priority::Interactive, 0))
        .collect();

    let run = |batching: bool| {
        let base = batched_config();
        let config = ServiceConfig {
            watermarks: watermark,
            batch: BatchConfig {
                enabled: batching,
                ..BatchConfig::default()
            },
            ..base
        };
        let (report, outcomes) = drive(config, &requests);
        let shed = outcomes
            .iter()
            .filter(|o| matches!(o, Err(ServeError::ShedOverload { .. })))
            .count();
        assert_eq!(report.metrics.counters.shed_overload, shed as u64);
        // The admission events record exactly the cost model each mode
        // charges.
        let want_cost = if batching { amortized_cost } else { unbatched_cost };
        assert!(report.records.iter().any(|r| matches!(
            r.event,
            Event::Submitted { cost_us, .. } if cost_us == want_cost
        )));
        shed
    };

    assert!(run(false) > 0, "the unbatched gauge must shed this burst");
    assert_eq!(run(true), 0, "the amortized gauge must absorb it whole");
}

/// Run `f` on a fresh pool of `threads` workers.
fn on_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build");
    pool.install(f)
}

#[test]
fn strict_batched_kernels_bit_identical_at_every_batch_and_pool_size() {
    // 32 systems of orders 8/16/24/32, all in the order-32 bucket.
    let problems: Vec<Matrix<f64>> = (0..32)
        .map(|s| build(JobKind::Factor, s as u64, 8 + 8 * (s % 4)).a)
        .collect();
    let reference: Vec<u64> = (0..32)
        .map(|s| direct_digest(JobKind::Factor, s as u64, 8 + 8 * (s % 4), KernelImpl::FastStrict))
        .collect();

    for pool in [1usize, 4] {
        on_pool(pool, || {
            let prev = parallel::set_kernel_parallelism(true);
            for batch in [1usize, 2, 8, 32] {
                for (chunk_at, chunk) in problems.chunks(batch).enumerate() {
                    let results = factor_batch(chunk, 32, BLOCK, KernelImpl::FastStrict);
                    for (lane, result) in results.iter().enumerate() {
                        let s = chunk_at * batch + lane;
                        let factor = result.as_ref().expect("spd");
                        assert_eq!(
                            lower_digest(factor),
                            reference[s],
                            "system {s} at batch {batch}, pool {pool}"
                        );
                    }
                }
            }
            parallel::set_kernel_parallelism(prev);
        });
    }
}

#[test]
fn batched_service_replays_identically_across_pool_sizes() {
    let requests: Vec<Request> = (0..60)
        .map(|i| {
            request(
                if i % 2 == 0 { JobKind::Factor } else { JobKind::Solve },
                i as u64 % 7,
                8 + 8 * (i % 4),
                Priority::Batch,
                (i as u64) * 3,
            )
        })
        .collect();
    let run = || {
        let base = batched_config();
        let config = ServiceConfig {
            shard: ShardConfig {
                kernel: KernelImpl::FastStrict,
                parallel: true,
                ..base.shard
            },
            ..base
        };
        drive(config, &requests).0
    };
    let one_a = on_pool(1, run);
    let one_b = on_pool(1, run);
    let four = on_pool(4, run);
    assert_eq!(one_a.log_digest, one_b.log_digest, "replay at a fixed pool");
    assert_eq!(one_a.metrics.counters, one_b.metrics.counters);
    // The canonical log excludes the pool thread count, and strict
    // batched lanes never interact: the certificate is pool-invariant.
    assert_eq!(one_a.log_digest, four.log_digest, "replay across pools");
    assert_eq!(one_a.metrics.counters, four.metrics.counters);
    assert!(one_a.metrics.counters.batches_dispatched > 0);
}
