//! The transaction service: a pool of TM worker threads over a shared
//! [`Cluster`], fed by the admission queue.

use crate::admission::{AdmissionError, AdmissionQueue};
use crate::report::ServiceStats;
use crate::retry::{classify, Disposition, RetryPolicy};
use crossbeam::channel::{unbounded, Receiver, Sender};
use safetx_core::{AbortReason, TransactionView, TxnOutcome};
use safetx_net::NetCluster;
use safetx_policy::Credential;
use safetx_runtime::{Cluster, Deployment};
use safetx_txn::TransactionSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The execution backend a service drives: the same protocol state
/// machines deployed over in-process channels, over real byte streams, or
/// partitioned. Dereferences to the backend's [`Deployment`] — the one
/// dispatch point; the service layer above is identical for all three.
#[derive(Clone)]
pub enum RuntimeKind {
    /// The threaded runtime: messages move as in-memory objects over
    /// crossbeam channels.
    Threaded(Arc<Cluster>),
    /// The wire-protocol runtime: messages are encoded into
    /// length-prefixed frames and cross `UnixStream`s.
    Net(Arc<NetCluster>),
    /// The threaded runtime partitioned into decision-log groups
    /// (`ClusterConfig::groups`); its route counters split single- from
    /// cross-group transactions. The same type as `Threaded`.
    Sharded(Arc<Cluster>),
}

impl std::ops::Deref for RuntimeKind {
    type Target = dyn Deployment;

    fn deref(&self) -> &Self::Target {
        match self {
            RuntimeKind::Threaded(cluster) | RuntimeKind::Sharded(cluster) => &***cluster,
            RuntimeKind::Net(cluster) => &****cluster,
        }
    }
}

/// Serving-layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// TM worker threads executing transactions concurrently.
    pub workers: usize,
    /// Admission-queue depth; submissions past it are shed.
    pub queue_depth: usize,
    /// Retry behaviour on transient aborts.
    pub retry: RetryPolicy,
    /// Seed for deterministic backoff jitter.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_depth: 64,
            retry: RetryPolicy::default(),
            seed: 0,
        }
    }
}

/// How a served transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceOutcome {
    /// Committed (possibly after retries).
    Committed,
    /// Aborted for a terminal reason (policy denial, integrity violation);
    /// never resubmitted.
    TerminalAbort(AbortReason),
    /// Every retry hit a transient abort and the budget ran out.
    RetriesExhausted(AbortReason),
}

impl ServiceOutcome {
    /// True for commits.
    #[must_use]
    pub fn is_commit(&self) -> bool {
        matches!(self, ServiceOutcome::Committed)
    }
}

/// What a client gets back for one served transaction.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Final disposition.
    pub outcome: ServiceOutcome,
    /// Executions performed (1 = no retries).
    pub attempts: u32,
    /// Time spent in the admission queue before the first attempt.
    pub queue_wait: Duration,
    /// End-to-end latency: admission to final outcome, retries included.
    pub latency: Duration,
    /// The last attempt's recorded proof view, for post-hoc safety audits
    /// (Definition 4 via `safetx_core::trusted::is_trusted`).
    pub view: TransactionView,
}

/// A claim ticket for an in-flight submission.
#[derive(Debug)]
pub struct CompletionHandle {
    rx: Receiver<Completion>,
}

impl CompletionHandle {
    /// Blocks until the transaction completes.
    ///
    /// # Panics
    ///
    /// Panics when the service's workers died without delivering (worker
    /// panic — a bug, not an expected condition: shutdown drains the
    /// queue before workers exit).
    #[must_use]
    pub fn wait(self) -> Completion {
        self.rx.recv().expect("service delivers every admitted job")
    }
}

struct Job {
    seq: u64,
    spec: TransactionSpec,
    credentials: Vec<Credential>,
    accepted_at: Instant,
    done: Sender<Completion>,
}

/// A running transaction service over a shared [`Cluster`].
///
/// Dropping the service closes the queue, drains admitted work and joins
/// every worker ([`TxnService::shutdown`] does the same and returns the
/// final statistics).
pub struct TxnService {
    runtime: RuntimeKind,
    queue: Arc<AdmissionQueue<Job>>,
    stats: Arc<Mutex<ServiceStats>>,
    workers: Vec<JoinHandle<()>>,
    seq: AtomicU64,
}

impl TxnService {
    /// Spawns the worker pool over the threaded runtime (shorthand for
    /// [`TxnService::with_runtime`] with [`RuntimeKind::Threaded`]).
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` is zero.
    #[must_use]
    pub fn new(cluster: Arc<Cluster>, config: ServiceConfig) -> Self {
        Self::with_runtime(RuntimeKind::Threaded(cluster), config)
    }

    /// Spawns the worker pool over an explicit execution backend.
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` is zero.
    #[must_use]
    pub fn with_runtime(runtime: RuntimeKind, config: ServiceConfig) -> Self {
        assert!(config.workers > 0, "at least one worker required");
        let queue = Arc::new(AdmissionQueue::new(config.queue_depth));
        let stats = Arc::new(Mutex::new(ServiceStats::default()));
        let workers = (0..config.workers)
            .map(|_| {
                let runtime = runtime.clone();
                let queue = queue.clone();
                let stats = stats.clone();
                let retry = config.retry;
                let seed = config.seed;
                std::thread::spawn(move || worker_loop(&runtime, &queue, &stats, retry, seed))
            })
            .collect();
        TxnService {
            runtime,
            queue,
            stats,
            workers,
            seq: AtomicU64::new(0),
        }
    }

    /// The execution backend this service drives.
    #[must_use]
    pub fn runtime(&self) -> &RuntimeKind {
        &self.runtime
    }

    /// The threaded cluster this service drives, partitioned or not.
    ///
    /// # Panics
    ///
    /// Panics on a net-backed service — match on [`TxnService::runtime`]
    /// instead when the backend can be either kind.
    #[must_use]
    pub fn cluster(&self) -> &Arc<Cluster> {
        match &self.runtime {
            RuntimeKind::Threaded(cluster) | RuntimeKind::Sharded(cluster) => cluster,
            RuntimeKind::Net(_) => panic!("cluster() is threaded-only; use runtime() for net"),
        }
    }

    /// Items currently waiting in the admission queue.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Non-blocking submission (open-loop admission control): sheds with
    /// [`AdmissionError::Overloaded`] when the queue is at depth.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Overloaded`] on a full queue (counted);
    /// [`AdmissionError::Closed`] after shutdown began (not counted —
    /// the service is no longer offering).
    pub fn try_submit(
        &self,
        spec: TransactionSpec,
        credentials: Vec<Credential>,
    ) -> Result<CompletionHandle, AdmissionError> {
        let (job, handle) = self.make_job(spec, credentials);
        match self.queue.try_push(job) {
            Ok(()) => {
                let mut stats = self.stats.lock().expect("stats lock");
                stats.submissions += 1;
                stats.accepted += 1;
                Ok(handle)
            }
            Err((AdmissionError::Overloaded, _)) => {
                let mut stats = self.stats.lock().expect("stats lock");
                stats.submissions += 1;
                stats.overload_rejections += 1;
                Err(AdmissionError::Overloaded)
            }
            Err((err, _)) => Err(err),
        }
    }

    /// Blocking submission (closed-loop backpressure): waits for queue
    /// space instead of shedding.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Closed`] when the service shuts down first.
    pub fn submit_blocking(
        &self,
        spec: TransactionSpec,
        credentials: Vec<Credential>,
    ) -> Result<CompletionHandle, AdmissionError> {
        let (job, handle) = self.make_job(spec, credentials);
        match self.queue.push_wait(job) {
            Ok(()) => {
                let mut stats = self.stats.lock().expect("stats lock");
                stats.submissions += 1;
                stats.accepted += 1;
                Ok(handle)
            }
            Err((err, _)) => Err(err),
        }
    }

    fn make_job(
        &self,
        spec: TransactionSpec,
        credentials: Vec<Credential>,
    ) -> (Job, CompletionHandle) {
        let (done, rx) = unbounded();
        let job = Job {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            spec,
            credentials,
            accepted_at: Instant::now(),
            done,
        };
        (job, CompletionHandle { rx })
    }

    /// A snapshot of the statistics so far.
    ///
    /// # Panics
    ///
    /// Panics when the stats mutex is poisoned.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.stats.lock().expect("stats lock").clone();
        stats.dropped_replies = self.runtime.dropped_replies();
        stats.faults = self.runtime.fault_counters();
        stats.wal = self.runtime.wal_stats();
        stats.transport = self.runtime.transport_counters();
        stats.route = self.runtime.route_counters();
        stats
    }

    /// Stops admissions, drains already-admitted work, joins the workers
    /// and returns the final statistics.
    #[must_use]
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for TxnService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(
    runtime: &RuntimeKind,
    queue: &AdmissionQueue<Job>,
    stats: &Mutex<ServiceStats>,
    retry: RetryPolicy,
    seed: u64,
) {
    while let Some(job) = queue.pop() {
        let queue_wait = job.accepted_at.elapsed();
        let mut attempts: u32 = 0;
        // Transient aborts draw on two separate budgets: concurrency aborts
        // on the exponential one, unavailability aborts (each of which
        // already cost a full reply deadline) on a tightly capped one.
        let mut transient_retries: u32 = 0;
        let mut unavailable_retries: u32 = 0;
        let (outcome, result) = loop {
            attempts += 1;
            // Each attempt is a fresh transaction at the protocol layer:
            // servers key lock tables and WAL records by TxnId, so a retry
            // must never reuse the id of its aborted predecessor.
            let mut spec = job.spec.clone();
            spec.id = runtime.next_txn_id();
            let result = runtime.execute(&spec, &job.credentials);
            match result.outcome {
                TxnOutcome::Committed { .. } => break (ServiceOutcome::Committed, result),
                TxnOutcome::Aborted { reason, .. } => match classify(reason) {
                    Disposition::Terminal => {
                        break (ServiceOutcome::TerminalAbort(reason), result);
                    }
                    Disposition::Retryable => {
                        if transient_retries >= retry.max_retries {
                            break (ServiceOutcome::RetriesExhausted(reason), result);
                        }
                        transient_retries += 1;
                        {
                            let mut stats = stats.lock().expect("stats lock");
                            stats.retry_attempts += 1;
                            stats.record_retry_reason(reason);
                        }
                        std::thread::sleep(retry.backoff(transient_retries - 1, seed ^ job.seq));
                    }
                    Disposition::Unavailable => {
                        if unavailable_retries >= retry.unavailable_max_retries {
                            break (ServiceOutcome::RetriesExhausted(reason), result);
                        }
                        unavailable_retries += 1;
                        {
                            let mut stats = stats.lock().expect("stats lock");
                            stats.retry_attempts += 1;
                            stats.unavailable_retries += 1;
                        }
                        std::thread::sleep(
                            retry.unavailable_backoff_for(unavailable_retries - 1, seed ^ job.seq),
                        );
                    }
                },
            }
        };
        let latency = job.accepted_at.elapsed();
        {
            let mut stats = stats.lock().expect("stats lock");
            let ms = latency.as_secs_f64() * 1_000.0;
            stats
                .queue_wait_ms
                .record(queue_wait.as_secs_f64() * 1_000.0);
            match outcome {
                ServiceOutcome::Committed => {
                    stats.commits += 1;
                    stats.commit_latency_ms.record(ms);
                }
                ServiceOutcome::TerminalAbort(_) => {
                    stats.terminal_aborts += 1;
                    stats.failure_latency_ms.record(ms);
                }
                ServiceOutcome::RetriesExhausted(_) => {
                    stats.retries_exhausted += 1;
                    stats.failure_latency_ms.record(ms);
                }
            }
        }
        // A dropped handle just means the caller stopped caring.
        let _ = job.done.send(Completion {
            outcome,
            attempts,
            queue_wait,
            latency,
            view: result.view,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{denied_spec, member_credential, seeded_cluster, spread_spec};
    use safetx_core::{ConsistencyLevel, ProofScheme};

    fn service(workers: usize, depth: usize) -> TxnService {
        let cluster = seeded_cluster(3, ProofScheme::Deferred, ConsistencyLevel::View);
        TxnService::new(
            cluster,
            ServiceConfig {
                workers,
                queue_depth: depth,
                retry: RetryPolicy {
                    base_backoff: Duration::from_micros(200),
                    ..Default::default()
                },
                seed: 7,
            },
        )
    }

    #[test]
    fn commits_authorized_transactions_and_conserves() {
        let service = service(2, 16);
        let cred = member_credential(service.cluster());
        let handles: Vec<_> = (0..10)
            .map(|i| {
                service
                    .try_submit(spread_spec(service.cluster(), i), vec![cred.clone()])
                    .expect("queue has room")
            })
            .collect();
        for handle in handles {
            let done = handle.wait();
            assert!(done.outcome.is_commit(), "{:?}", done.outcome);
            assert!(done.attempts >= 1);
        }
        let stats = service.shutdown();
        assert_eq!(stats.commits, 10);
        assert_eq!(stats.accepted, 10);
        assert!(stats.conserves(), "{stats:?}");
        assert_eq!(stats.commit_latency_ms.count(), 10);
    }

    #[test]
    fn policy_denied_is_terminal_and_never_retried() {
        let service = service(2, 16);
        // No credentials: the proof evaluates FALSE — a decision, not a race.
        let done = service
            .try_submit(denied_spec(service.cluster()), vec![])
            .expect("queue has room")
            .wait();
        assert_eq!(
            done.outcome,
            ServiceOutcome::TerminalAbort(AbortReason::ProofFalse)
        );
        assert_eq!(done.attempts, 1, "terminal aborts must not be resubmitted");
        let stats = service.shutdown();
        assert_eq!(stats.terminal_aborts, 1);
        assert_eq!(stats.retry_attempts, 0);
        assert!(stats.conserves());
    }

    #[test]
    fn overload_sheds_deterministically_when_workers_are_stalled() {
        let service = service(1, 2);
        let cred = member_credential(service.cluster());
        // Deterministically stall server 0: a configuration closure holds
        // its host, so this recv blocks every transaction touching it
        // until the gate opens. Nothing is submitted before it holds.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (held, is_held) = std::sync::mpsc::channel();
        let cluster = service.cluster().clone();
        let stall = std::thread::spawn(move || {
            cluster.configure_server(safetx_types::ServerId::new(0), move |_core| {
                held.send(()).expect("the test waits");
                let _ = gate_rx.recv();
            });
        });
        is_held.recv().expect("server 0 is held");

        // The single worker grabs one job and blocks on server 0; two more
        // fill the queue; everything past that is shed.
        let mut handles = Vec::new();
        let mut rejected = 0;
        for i in 0..8 {
            match service.try_submit(spread_spec(service.cluster(), i), vec![cred.clone()]) {
                Ok(h) => handles.push(h),
                Err(AdmissionError::Overloaded) => rejected += 1,
                Err(AdmissionError::Closed) => unreachable!("service is open"),
            }
        }
        assert!(rejected >= 5, "expected ≥5 rejections, got {rejected}");
        gate_tx.send(()).unwrap();
        stall.join().unwrap();
        for handle in handles {
            assert!(handle.wait().outcome.is_commit());
        }
        let stats = service.shutdown();
        assert_eq!(stats.overload_rejections, rejected);
        assert!(stats.conserves(), "{stats:?}");
    }

    #[test]
    fn shutdown_drains_admitted_work() {
        let service = service(1, 16);
        let cred = member_credential(service.cluster());
        let handles: Vec<_> = (0..6)
            .map(|i| {
                service
                    .try_submit(spread_spec(service.cluster(), i), vec![cred.clone()])
                    .expect("queue has room")
            })
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.completions(), 6, "shutdown drained the queue");
        for handle in handles {
            assert!(handle.wait().outcome.is_commit());
        }
    }

    #[test]
    fn zero_retry_budget_surfaces_transient_aborts() {
        let cluster = seeded_cluster(2, ProofScheme::Deferred, ConsistencyLevel::View);
        let service = TxnService::new(
            cluster,
            ServiceConfig {
                workers: 4,
                queue_depth: 64,
                retry: RetryPolicy::never(),
                seed: 0,
            },
        );
        let cred = member_credential(service.cluster());
        // Hammer one hot key so lock conflicts are certain.
        let handles: Vec<_> = (0..12)
            .map(|_| {
                service
                    .try_submit(
                        crate::testutil::hot_key_spec(service.cluster()),
                        vec![cred.clone()],
                    )
                    .expect("queue has room")
            })
            .collect();
        let mut exhausted = 0;
        for handle in handles {
            match handle.wait().outcome {
                ServiceOutcome::Committed => {}
                ServiceOutcome::RetriesExhausted(reason) => {
                    exhausted += 1;
                    assert_eq!(classify(reason), Disposition::Retryable);
                }
                ServiceOutcome::TerminalAbort(r) => panic!("unexpected terminal abort {r:?}"),
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.retry_attempts, 0, "never-retry policy");
        assert_eq!(stats.retries_exhausted, exhausted);
        assert!(stats.conserves());
    }
}
