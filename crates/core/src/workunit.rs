//! Multi-worker (PEM) enumeration: deterministic work-unit sharding, the
//! worker pool, and the merged report.
//!
//! The parallel external-memory (PEM) model runs `P` machines, each with its
//! own internal memory of `M` words and its own block channel; the cost of a
//! computation is the **maximum** per-worker I/O, not the sum. This module
//! refactors the repo's drivers from "one machine, one driver" to "a
//! work-unit queue over `P` workers":
//!
//! * Every driver exposes its independent pieces as **work units** — the
//!   Lemma 1 high-degree vertices and the non-empty pivot colour pairs
//!   `(τ2, τ3)` of the cache-aware step 3, and the top-of-tree subtrees (at
//!   [`DEFAULT_SPAWN_DEPTH`]) plus the top-of-tree leaf/high-degree
//!   emissions of the cache-oblivious refinement. Units are numbered by a
//!   single cursor ticking in the driver's deterministic execution order, so
//!   the numbering is identical on every worker and *independent of `P`*.
//! * A unit belongs to worker `unit_index % workers` — the static assignment
//!   of the timely-dataflow exemplar (`node % peers == index`) — so the unit
//!   partition, and with it every downstream result, is worker-count
//!   invariant by construction.
//! * Each worker thread builds its **own** [`Machine`] from the shared
//!   `Copy` [`EmConfig`] (a [`Machine`] is deliberately `!Send`) and runs
//!   the crate's one run pipeline — load, dispatch, report — with its own
//!   shard cursor, buffering its triangles. Each paper driver has one run
//!   function taking a cursor; the sequential entry points pass a solo
//!   cursor that owns every unit. All randomness is derived from
//!   `(seed, unit id)`-equivalent state — the colouring seed and the
//!   per-level refinement bits — never from the worker id or arrival
//!   order, so all workers expand the *same* recursion tree and skip the
//!   parts they do not own.
//! * Preprocessing that only ever needs *sums* over the input is sharded
//!   by vertex instead of replicated: worker `w` owns the vertices
//!   `v % workers == w`, and the workers meet at an [`ExchangePort`], an
//!   all-gather of one post per worker per round. The derandomized step 0
//!   posts each greedy level's partial statistics there, so every worker
//!   scores only its own share of the incidence list and still takes the
//!   same argmin. The exchange is charged: each worker pays the blocks it
//!   posts and the blocks it reads back.
//! * The per-worker buffers are merged by [`emalgo::kway_merge_tagged`] into
//!   one globally sorted triangle stream, so the delivered multiset (and its
//!   order) is bit-identical regardless of `P` and scheduling.
//!
//! With `P = 1` every unit is owned, the claim calls degenerate to counter
//! increments charged to nothing, no exchange is built, and the worker
//! performs *exactly* the sequential driver's operation sequence — the
//! refactor is zero-cost: the E10 gate pins `sum_io` at `P = 1` to the
//! sequential driver's I/O, and a unit test pins the phases, peaks, work
//! and extra rows as well.

use std::sync::{Arc, Condvar, Mutex, PoisonError};

use emsim::{
    BackendKind, EmConfig, ExtVec, IoStats, Machine, PhaseSnapshot, TransferDir, WorkerReport,
};
use graphgen::{Graph, Triangle, VertexId};

use crate::checkpoint::Recovery;
use crate::sink::{CollectingSink, TriangleSink};
use crate::stats::RunReport;
use crate::{run_pipeline, Algorithm};

/// Spawn depth of the cache-oblivious driver: subtrees rooted at
/// depth 2 of the colour-refinement tree become work units (one per colour
/// multiset of size 3 over 4 colours, `C(6, 3) = 20` of them — more than
/// the worker counts E10 sweeps), while the two levels above are replicated
/// on every worker.
pub const DEFAULT_SPAWN_DEPTH: usize = 2;

/// One schedulable piece of a driver's execution, as logged by the unit
/// cursor (see [`ShardPlan::log_units`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkUnitKind {
    /// Cache-aware step 1: one Lemma 1 pass through a high-degree vertex.
    HighDegreeVertex {
        /// The high-degree vertex (canonical id).
        v: u32,
    },
    /// Cache-aware step 3: all `c` cone colours against the non-empty pivot
    /// class `E_{τ2,τ3}`.
    PivotPair {
        /// Pivot colour `τ2`.
        t2: u64,
        /// Pivot colour `τ3`.
        t3: u64,
    },
    /// Cache-oblivious: a whole subtree of the colour-refinement tree rooted
    /// at the spawn depth.
    RefinementSubtree {
        /// Depth of the subtree root (always the plan's spawn depth).
        depth: usize,
        /// Colour-multiset target of the subtree root.
        target: [u64; 3],
    },
    /// Cache-oblivious: an in-core (or oversized) leaf above the spawn
    /// depth, emitted as its own unit.
    RefinementLeaf {
        /// Depth of the leaf.
        depth: usize,
        /// Colour-multiset target of the leaf.
        target: [u64; 3],
    },
    /// Cache-oblivious: the Lemma 1 high-degree enumeration of a replicated
    /// top-of-tree node, emitted as its own unit.
    RefinementHighDegree {
        /// Depth of the node.
        depth: usize,
        /// Colour-multiset target of the node.
        target: [u64; 3],
    },
}

/// A claimed work unit: its position in the deterministic unit stream plus
/// what it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WorkUnit {
    /// Index in the global unit stream (identical on every worker and for
    /// every worker count).
    pub index: u64,
    /// What the unit was.
    pub kind: WorkUnitKind,
}

/// The deterministic unit→worker assignment: a counter over the driver's
/// unit stream plus this worker's identity. `claim` answers "is the next
/// unit mine?" — `unit_index % workers == worker`, the timely idiom.
///
/// The cursor must tick identically on every worker: drivers call `claim`
/// at points whose reachability depends only on the (seed-deterministic,
/// worker-replicated) computation, never on what a worker skipped.
#[derive(Debug)]
pub(crate) struct ShardCursor {
    worker: u64,
    workers: u64,
    next_unit: u64,
    /// `Some` when unit logging is on: every unit this worker *owns*.
    log: Option<Vec<WorkUnit>>,
    /// This worker's port on the run's level exchange; `None` on a solo
    /// cursor, which exchanges nothing.
    exchange: Option<ExchangePort>,
}

impl ShardCursor {
    /// The sequential cursor: one worker owning every unit. The sequential
    /// drivers run with this — claims always succeed, so the sharded code
    /// path is byte-for-byte the sequential one.
    pub(crate) fn solo() -> ShardCursor {
        ShardCursor::new(0, 1, false)
    }

    pub(crate) fn new(worker: usize, workers: usize, log_units: bool) -> ShardCursor {
        assert!(
            worker < workers,
            "worker {worker} out of range 0..{workers}"
        );
        ShardCursor {
            worker: worker as u64,
            workers: workers as u64,
            log: log_units.then(Vec::new),
            next_unit: 0,
            exchange: None,
        }
    }

    /// Attaches this worker's port on the run's level exchange.
    pub(crate) fn with_exchange(mut self, port: ExchangePort) -> ShardCursor {
        assert_eq!(
            (port.worker as u64, port.exchange.workers as u64),
            (self.worker, self.workers),
            "the port must belong to this cursor's worker"
        );
        self.exchange = Some(port);
        self
    }

    /// This worker's port on the level exchange, if the run has one.
    pub(crate) fn exchange(&self) -> Option<&ExchangePort> {
        self.exchange.as_ref()
    }

    /// Ticks the unit counter and answers whether this worker owns the unit
    /// just passed. Pure in-core bookkeeping: charges no I/O and no work, so
    /// a solo cursor leaves the sequential accounting untouched.
    pub(crate) fn claim(&mut self, kind: WorkUnitKind) -> bool {
        let index = self.next_unit;
        self.next_unit += 1;
        let owned = index % self.workers == self.worker;
        if owned {
            if let Some(log) = &mut self.log {
                log.push(WorkUnit { index, kind });
            }
        }
        owned
    }

    /// The units this worker owned (empty unless logging was requested).
    pub(crate) fn into_log(self) -> Vec<WorkUnit> {
        self.log.unwrap_or_default()
    }
}

/// The payload a worker panics with when the level exchange is aborted: a
/// peer dropped its port (it unwound, or it left early) before posting to
/// the round this worker is in. The pool re-raises the peer's own panic in
/// preference to this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExchangeAborted;

/// The rendezvous the workers of a sharded run share: an all-gather of one
/// post per worker per round. A `Mutex`/`Condvar` pair rather than a bare
/// `Barrier`, so a worker that stops early releases its waiting peers.
#[derive(Debug)]
struct Exchange {
    workers: usize,
    state: Mutex<ExchangeState>,
    turn: Condvar,
}

#[derive(Debug)]
struct ExchangeState {
    /// Rounds completed so far.
    round: u64,
    /// The current round's posts, indexed by worker.
    posted: Vec<Option<Vec<u64>>>,
    arrived: usize,
    /// The posts of the last completed round, indexed by worker.
    delivered: Arc<[Vec<u64>]>,
    /// Set when a port is dropped; no round can complete after that.
    aborted: bool,
}

/// One worker's handle on the exchange. The sharded derandomized step 0
/// posts each level's partial statistics through it (see
/// [`crate::potential::Incidence`]). Dropping a port, whether on an
/// ordinary return or while unwinding, aborts the exchange: a peer waiting
/// for its post gets [`ExchangeAborted`] instead of blocking forever.
#[derive(Debug)]
pub(crate) struct ExchangePort {
    exchange: Arc<Exchange>,
    worker: usize,
}

impl ExchangePort {
    /// The ports of a fresh `workers`-worker exchange, indexed by worker.
    pub(crate) fn ring(workers: usize) -> Vec<ExchangePort> {
        let exchange = Arc::new(Exchange {
            workers,
            state: Mutex::new(ExchangeState {
                round: 0,
                // emlint: allow(unleased, reason = "P post slots of the host-side rendezvous; the posts are charged as shared-area blocks")
                posted: vec![None; workers],
                arrived: 0,
                delivered: Arc::from(Vec::new()),
                aborted: false,
            }),
            turn: Condvar::new(),
        });
        // emlint: allow(unleased, reason = "P port handles of scheduler bookkeeping, not algorithm memory")
        (0..workers)
            .map(|worker| ExchangePort {
                exchange: Arc::clone(&exchange),
                worker,
            })
            .collect()
    }

    /// Whether this worker owns vertex `v`: `v % workers == worker`, the
    /// timely idiom of the unit assignment applied to vertices.
    pub(crate) fn owns_vertex(&self, v: VertexId) -> bool {
        v as usize % self.exchange.workers == self.worker
    }

    /// Posts `words` as this worker's share of the current round, waits
    /// until every worker has posted, and returns all the round's posts
    /// indexed by worker. The shared area's traffic is charged on
    /// `machine`: `⌈|words|/B⌉` block writes for the post, and `⌈|p|/B⌉`
    /// block reads for every post `p` delivered, this worker's own included.
    pub(crate) fn all_gather(
        &self,
        machine: &Machine,
        words: Vec<u64>,
    ) -> Result<Arc<[Vec<u64>]>, ExchangeAborted> {
        let blocks = |words: usize| words.div_ceil(machine.config().block_words) as u64;
        machine.charge_shared(TransferDir::Write, blocks(words.len()));
        let exchange = &*self.exchange;
        let mut state = exchange
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if state.aborted {
            return Err(ExchangeAborted);
        }
        let round = state.round;
        state.posted[self.worker] = Some(words);
        state.arrived += 1;
        if state.arrived == exchange.workers {
            let posted = state.posted.iter_mut();
            // emlint: allow(unleased, reason = "the round's posts, moved into the shared area each reader is charged for")
            state.delivered = posted
                .map(|p| p.take().expect("every worker posted"))
                .collect();
            state.arrived = 0;
            state.round += 1;
            exchange.turn.notify_all();
        } else {
            state = exchange
                .turn
                .wait_while(state, |s| s.round == round && !s.aborted)
                .unwrap_or_else(PoisonError::into_inner);
            // A round that completed before the abort is still delivered.
            if state.round == round {
                return Err(ExchangeAborted);
            }
        }
        let delivered = Arc::clone(&state.delivered);
        drop(state);
        machine.charge_shared(
            TransferDir::Read,
            delivered.iter().map(|p| blocks(p.len())).sum(),
        );
        Ok(delivered)
    }
}

impl Drop for ExchangePort {
    fn drop(&mut self) {
        let mut state = self
            .exchange
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.aborted = true;
        self.exchange.turn.notify_all();
    }
}

/// Configuration of a sharded (multi-worker) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of workers `P` (threads, each with its own [`Machine`]).
    pub workers: usize,
    /// When set, each worker records the units it owned; they come back in
    /// [`ShardedReport::worker_units`]. Off by default (the log is
    /// proportional to the unit count).
    pub log_units: bool,
    /// Data plane of each worker's machine. On [`BackendKind::Disk`] every
    /// worker runs genuinely out-of-core with its own backing file and
    /// buffer pool (temp-dir scoped, unlinked when the worker's machine
    /// drops); the merge epilogue stays in-memory (it is the host-side
    /// sequential pass). In-memory by default.
    pub backend: BackendKind,
}

impl ShardPlan {
    /// An in-memory plan with `workers` workers.
    pub fn new(workers: usize) -> ShardPlan {
        ShardPlan {
            workers,
            log_units: false,
            backend: BackendKind::InMemory,
        }
    }

    /// Turns on per-worker unit logging.
    pub fn with_unit_log(mut self) -> ShardPlan {
        self.log_units = true;
        self
    }

    /// Selects the data plane of every worker machine.
    pub fn with_backend(mut self, backend: BackendKind) -> ShardPlan {
        self.backend = backend;
        self
    }
}

impl Default for ShardPlan {
    fn default() -> ShardPlan {
        ShardPlan::new(1)
    }
}

/// A sharded-run configuration the scheduler refuses to execute. Returned —
/// never silently ignored — so a misconfiguration cannot corrupt results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardConfigError {
    /// `workers == 0`: there is no machine to run on.
    ZeroWorkers,
    /// The algorithm is a baseline without a work-unit decomposition; only
    /// the paper's drivers are sharded.
    UnsupportedAlgorithm {
        /// [`Algorithm::name`] of the rejected algorithm.
        name: &'static str,
    },
}

impl std::fmt::Display for ShardConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardConfigError::ZeroWorkers => write!(f, "a sharded run needs at least one worker"),
            ShardConfigError::UnsupportedAlgorithm { name } => {
                write!(f, "algorithm {name} has no work-unit decomposition; only the paper's drivers run sharded")
            }
        }
    }
}

impl std::error::Error for ShardConfigError {}

/// Everything a sharded run reports: the merged [`RunReport`], the
/// per-worker PEM accounting, and (when requested) the per-worker unit logs.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// The merged run report. `io` / `work_ops` are *sums* over workers
    /// (phase rows likewise, summed by phase name; phase peaks are per-name
    /// maxima; `peak_mem_words` / `peak_disk_words` are maxima — each worker
    /// has its own memory and disk). Extras are worker 0's rows (the
    /// seed-derived ones are identical on every worker) plus the aggregate
    /// `workers` / `max_worker_io` / `sum_worker_io` / `worker_balance` /
    /// `merge_io` rows and one `max_worker_io.<phase>` row per phase: what
    /// the costliest worker paid for that phase, where the summed phase row
    /// cannot tell a replicated phase from a sharded one.
    pub report: RunReport,
    /// Per-worker I/O and the PEM aggregates (`max_io` is the PEM cost).
    /// `per_worker` is indexed by worker id — the pool returns its results
    /// in worker order, so the report is deterministic for any scheduling.
    pub workers: WorkerReport,
    /// Block transfers of the merge pass (sorting and k-way-merging the
    /// per-worker triangle buffers on a separate merge machine). Reported
    /// apart from the workers' I/O: in the PEM model the merge is the
    /// sequential epilogue, and at `P = 1` the gate pins the workers' I/O
    /// alone to the sequential driver's.
    pub merge_io: IoStats,
    /// The work units each worker owned, indexed by worker id; empty unless
    /// [`ShardPlan::log_units`] was set.
    pub worker_units: Vec<Vec<WorkUnit>>,
}

/// What one worker thread brings home: its run report, its buffered
/// triangles and (when logging) the units it owned.
struct WorkerRun {
    report: RunReport,
    triangles: Vec<Triangle>,
    units: Vec<WorkUnit>,
}

/// Enumerates every triangle of `graph` across `plan.workers` worker
/// threads, each with its own simulated machine, merging the per-worker
/// buffers into one deterministic, globally sorted triangle stream delivered
/// to `sink`.
///
/// The unit→worker assignment is `unit_index % workers` over a unit stream
/// numbered in the driver's deterministic execution order, so the triangle
/// multiset (and the delivery order) is bit-identical for every worker
/// count. Triangles reach `sink` in ascending `(a, b, c)` order of the
/// caller's original vertex ids — note this differs from the sequential
/// entry points, which deliver in driver emission order.
///
/// Only the paper's three drivers are supported; baselines return
/// [`ShardConfigError::UnsupportedAlgorithm`]. Sharded runs do not
/// checkpoint (checkpoint frontiers are per-machine); use
/// [`crate::enumerate_triangles_with_recovery`] for crash-safe sequential
/// runs.
pub fn enumerate_triangles_sharded(
    graph: &Graph,
    algorithm: Algorithm,
    cfg: EmConfig,
    plan: ShardPlan,
    sink: &mut dyn TriangleSink,
) -> Result<ShardedReport, ShardConfigError> {
    if plan.workers == 0 {
        return Err(ShardConfigError::ZeroWorkers);
    }
    if !algorithm.is_paper_algorithm() {
        return Err(ShardConfigError::UnsupportedAlgorithm {
            name: algorithm.name(),
        });
    }

    let runs = on_workers(plan, |cursor| {
        run_worker(graph, algorithm, cfg, plan.backend, cursor)
    });
    let (triangles, merge_io) = merge_worker_triangles(cfg, &runs, sink);
    // emlint: allow(unleased, reason = "P per-worker stat rows of scheduler bookkeeping, not algorithm memory")
    let workers = WorkerReport::from_per_worker(runs.iter().map(|r| r.report.io).collect());
    let report = merged_report(&runs, &workers, merge_io, triangles);
    // emlint: allow(unleased, reason = "unit-log handover to the report, scheduler bookkeeping")
    let worker_units = runs.into_iter().map(|r| r.units).collect();
    Ok(ShardedReport {
        report,
        workers,
        merge_io,
        worker_units,
    })
}

/// The hand-rolled worker pool: runs `body` once per worker of `plan`, each
/// under its own shard cursor, and returns the results indexed by worker.
/// With more than one worker, every worker gets a scoped `std::thread` (the
/// shared borrows need no `Arc`) and a port on one level exchange. A worker
/// panic (e.g. a gauge-audit lease leak) is propagated, never swallowed and
/// never a hang: the panicking worker's port drops as it unwinds, which
/// releases its peers from the exchange, and once every thread has stopped
/// the first panic that is not [`ExchangeAborted`] is re-raised.
pub(crate) fn on_workers<T: Send>(
    plan: ShardPlan,
    body: impl Fn(ShardCursor) -> T + Sync,
) -> Vec<T> {
    let cursor = |worker| ShardCursor::new(worker, plan.workers, plan.log_units);
    if plan.workers == 1 {
        // No thread and no exchange for the degenerate case: keeps
        // single-worker runs (and their panics/backtraces) on the caller's
        // stack, with the sequential driver's exact operation sequence.
        // emlint: allow(unleased, reason = "one-element pool result, scheduler bookkeeping")
        return vec![body(cursor(0))];
    }
    let body = &body;
    let joined: Vec<std::thread::Result<T>> = std::thread::scope(|scope| {
        // emlint: allow(unleased, reason = "P thread handles of scheduler bookkeeping, not algorithm memory")
        let handles: Vec<_> = ExchangePort::ring(plan.workers)
            .into_iter()
            .enumerate()
            .map(|(worker, port)| scope.spawn(move || body(cursor(worker).with_exchange(port))))
            .collect();
        // emlint: allow(unleased, reason = "P worker results collected on the host, outside the measured region")
        handles.into_iter().map(|h| h.join()).collect()
    });
    // emlint: allow(unleased, reason = "P worker results collected on the host, outside the measured region")
    let mut results = Vec::with_capacity(joined.len());
    let mut cause: Option<Box<dyn std::any::Any + Send>> = None;
    for result in joined {
        match result {
            Ok(t) => results.push(t),
            // The first panic that is not a peer's abort is the cause.
            Err(payload) if cause.as_ref().is_none_or(|c| c.is::<ExchangeAborted>()) => {
                cause = Some(payload)
            }
            Err(_) => {}
        }
    }
    if let Some(payload) = cause {
        std::panic::resume_unwind(payload);
    }
    results
}

/// One worker: its own machine from the shared `Copy` config and the run
/// pipeline under this worker's shard cursor.
fn run_worker(
    graph: &Graph,
    algorithm: Algorithm,
    cfg: EmConfig,
    backend: BackendKind,
    mut cursor: ShardCursor,
) -> WorkerRun {
    let machine = Machine::with_backend(cfg, backend);
    let mut collected = CollectingSink::new();
    let report = run_pipeline(
        &machine,
        graph,
        algorithm,
        &mut collected,
        &mut cursor,
        Recovery::default(),
    );
    WorkerRun {
        report,
        triangles: collected.into_triangles(),
        units: cursor.into_log(),
    }
}

/// Merges the per-worker triangle buffers into one globally sorted stream
/// delivered to `sink`, on a separate merge machine: each worker's buffer is
/// written to external memory, sorted, and the `P` runs are k-way-merged by
/// [`emalgo::kway_merge_tagged`] keyed on the triangle itself (equal
/// triangles are indistinguishable, so the tag tie-break never shows).
/// Returns the merged count and the merge machine's I/O.
fn merge_worker_triangles(
    cfg: EmConfig,
    runs: &[WorkerRun],
    sink: &mut dyn TriangleSink,
) -> (u64, IoStats) {
    let machine = Machine::new(cfg);
    // emlint: allow(unleased, reason = "P run handles of view metadata, not algorithm memory")
    let mut sorted: Vec<ExtVec<(u32, u32, u32)>> = Vec::with_capacity(runs.len());
    for run in runs {
        let mut buf: ExtVec<(u32, u32, u32)> = ExtVec::new(&machine);
        for t in &run.triangles {
            buf.push((t.a, t.b, t.c));
        }
        sorted.push(emalgo::oblivious_sort_by_key(&buf, |&t| t));
    }
    let mut triangles = 0u64;
    // emlint: allow(unleased, reason = "P reader handles of view metadata, not algorithm memory")
    for (_tag, (a, b, c)) in
        emalgo::kway_merge_tagged(&machine, sorted.iter().map(|v| v.iter()).collect(), |&t| t)
    {
        sink.emit(Triangle::new(a, b, c));
        triangles += 1;
    }
    (triangles, machine.stats().io)
}

/// Builds the merged [`RunReport`]. Sums and maxima are taken over the runs
/// in worker order, and phase rows keep worker 0's phase order, so
/// serialising the report is byte-stable across runs and schedulings.
fn merged_report(
    runs: &[WorkerRun],
    workers: &WorkerReport,
    merge_io: IoStats,
    triangles: u64,
) -> RunReport {
    // emlint: allow(unleased, reason = "run-report bookkeeping outside the measured region, not algorithm memory")
    let mut phases: Vec<(String, IoStats)> = Vec::new();
    // emlint: allow(unleased, reason = "run-report bookkeeping outside the measured region, not algorithm memory")
    let mut phase_peaks: Vec<PhaseSnapshot> = Vec::new();
    for run in runs {
        for (name, io) in &run.report.phases {
            match phases.iter_mut().find(|(n, _)| n == name) {
                Some((_, sum)) => *sum += *io,
                None => phases.push((name.clone(), *io)),
            }
        }
        for snap in &run.report.phase_peaks {
            match phase_peaks.iter_mut().find(|s| s.name == snap.name) {
                Some(max) => {
                    if snap.peak_words > max.peak_words {
                        *max = snap.clone();
                    }
                }
                None => phase_peaks.push(snap.clone()),
            }
        }
    }
    // Worker 0's extras stand for the run (the seed-derived rows — colours,
    // X_ξ, greedy levels — are identical on every worker; the per-worker
    // counters are in `ShardedReport::workers`), followed by the aggregates.
    let mut extra = runs[0].report.extra.clone();
    extra.push(("workers".into(), runs.len() as f64));
    extra.push(("max_worker_io".into(), workers.max_io as f64));
    extra.push(("sum_worker_io".into(), workers.sum_io as f64));
    extra.push(("worker_balance".into(), workers.balance));
    extra.push(("merge_io".into(), merge_io.total() as f64));
    for (name, _) in &phases {
        let worker_io = runs.iter().filter_map(|r| r.report.phase_io(name));
        let max = worker_io.map(|io| io.total()).max().unwrap_or(0);
        extra.push((format!("max_worker_io.{name}"), max as f64));
    }

    RunReport {
        algorithm: runs[0].report.algorithm.clone(),
        config: runs[0].report.config,
        edges: runs[0].report.edges,
        vertices: runs[0].report.vertices,
        triangles,
        io: IoStats::merge(runs.iter().map(|r| r.report.io)),
        phases,
        phase_peaks,
        peak_mem_words: runs
            .iter()
            .map(|r| r.report.peak_mem_words)
            .max()
            .unwrap_or(0),
        peak_disk_words: runs
            .iter()
            .map(|r| r.report.peak_disk_words)
            .max()
            .unwrap_or(0),
        work_ops: runs.iter().map(|r| r.report.work_ops).sum(),
        extra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::{generators, naive};

    fn sorted_sequential(
        g: &Graph,
        algorithm: Algorithm,
        cfg: EmConfig,
    ) -> (Vec<Triangle>, RunReport) {
        let mut sink = CollectingSink::new();
        let report = crate::enumerate_triangles(g, algorithm, cfg, &mut sink);
        let mut ts = sink.into_triangles();
        ts.sort_unstable();
        (ts, report)
    }

    #[test]
    fn sharded_run_matches_sequential_for_every_worker_count() {
        let g = generators::erdos_renyi(300, 2400, 7);
        let cfg = EmConfig::new(256, 32);
        for algorithm in [
            Algorithm::CacheAwareRandomized { seed: 5 },
            Algorithm::CacheObliviousRandomized { seed: 5 },
            Algorithm::DeterministicCacheAware {
                family_seed: 5,
                candidates: Some(12),
            },
        ] {
            let (expected, _) = sorted_sequential(&g, algorithm, cfg);
            assert_eq!(expected.len() as u64, naive::count_triangles(&g));
            for workers in 1..=4 {
                let mut sink = CollectingSink::new();
                let report = enumerate_triangles_sharded(
                    &g,
                    algorithm,
                    cfg,
                    ShardPlan::new(workers),
                    &mut sink,
                )
                .expect("valid plan");
                // The merged stream is delivered already sorted.
                assert_eq!(sink.triangles(), &expected[..], "{algorithm:?} P={workers}");
                assert_eq!(report.report.triangles, expected.len() as u64);
                assert_eq!(report.workers.workers(), workers);
            }
        }
    }

    #[test]
    fn single_worker_io_matches_the_sequential_driver_exactly() {
        // The zero-cost pin: with one worker every claim succeeds, so the
        // sharded path must charge byte-for-byte the sequential I/O.
        let g = generators::chung_lu_power_law(250, 1800, 2.3, 9);
        let cfg = EmConfig::new(256, 32);
        for algorithm in [
            Algorithm::CacheAwareRandomized { seed: 3 },
            Algorithm::CacheObliviousRandomized { seed: 3 },
            Algorithm::DeterministicCacheAware {
                family_seed: 3,
                candidates: Some(12),
            },
        ] {
            let (_, sequential) = sorted_sequential(&g, algorithm, cfg);
            let sequential_io = sequential.io.total();
            let mut sink = CollectingSink::new();
            let report =
                enumerate_triangles_sharded(&g, algorithm, cfg, ShardPlan::new(1), &mut sink)
                    .expect("valid plan");
            assert_eq!(
                report.workers.sum_io, sequential_io,
                "{algorithm:?}: P=1 must be a zero-cost refactor"
            );
            assert_eq!(report.workers.max_io, sequential_io);
            // Both paths run the same pipeline, so the whole report agrees:
            // phases, phase peaks, peaks, work and every sequential extra row.
            let sharded = &report.report;
            assert_eq!(sharded.phases, sequential.phases, "{algorithm:?}");
            let peaks = |r: &RunReport| -> Vec<(String, u64)> {
                r.phase_peaks
                    .iter()
                    .map(|p| (p.name.clone(), p.peak_words))
                    .collect()
            };
            assert_eq!(peaks(sharded), peaks(&sequential), "{algorithm:?}");
            assert_eq!(sharded.peak_mem_words, sequential.peak_mem_words);
            assert_eq!(sharded.work_ops, sequential.work_ops, "{algorithm:?}");
            for (name, value) in &sequential.extra {
                assert_eq!(sharded.extra(name), Some(*value), "{algorithm:?}: {name}");
            }
        }
    }

    #[test]
    fn owned_units_partition_the_unit_stream_and_are_worker_count_invariant() {
        // The union of per-worker owned units at P=4 must be exactly the
        // P=1 unit stream (same indices, same kinds) — i.e. all randomness
        // and numbering derive from the seed and unit order, never from
        // worker identity. Covers all three drivers; the derandomized one
        // reaches its units through the sharded step 0's exchange.
        let g = generators::erdos_renyi(300, 2400, 7);
        let cfg = EmConfig::new(128, 16); // small M: several colours
        for algorithm in [
            Algorithm::CacheAwareRandomized { seed: 5 },
            Algorithm::CacheObliviousRandomized { seed: 5 },
            Algorithm::DeterministicCacheAware {
                family_seed: 5,
                candidates: Some(12),
            },
        ] {
            let units_at = |workers: usize| {
                let mut sink = CollectingSink::new();
                let report = enumerate_triangles_sharded(
                    &g,
                    algorithm,
                    cfg,
                    ShardPlan::new(workers).with_unit_log(),
                    &mut sink,
                )
                .expect("valid plan");
                report.worker_units
            };
            let solo = units_at(1);
            assert!(
                solo[0].len() >= 4,
                "{algorithm:?}: expected a non-trivial unit stream, got {}",
                solo[0].len()
            );
            let sharded = units_at(4);
            // Each worker owns exactly its residue class...
            for (w, units) in sharded.iter().enumerate() {
                for unit in units {
                    assert_eq!(unit.index % 4, w as u64, "{algorithm:?}");
                }
            }
            // ...and together they are exactly the sequential stream.
            let mut union: Vec<WorkUnit> = sharded.into_iter().flatten().collect();
            union.sort_unstable();
            assert_eq!(union, solo[0], "{algorithm:?}");
        }
    }

    #[test]
    fn sharded_step0_costs_each_worker_well_under_the_sequential_step0() {
        // Each worker scans, sorts and splits only its own share of the
        // incidence list; the per-phase maxima show what one worker paid.
        let g = generators::erdos_renyi(1000, 16_000, 2);
        let cfg = EmConfig::new(1024, 32);
        let algorithm = Algorithm::DeterministicCacheAware {
            family_seed: 4,
            candidates: Some(12),
        };
        let (_, sequential) = sorted_sequential(&g, algorithm, cfg);
        let step0 = |r: &RunReport| r.phase_io("step0_greedy_coloring").expect("step 0").total();
        let mut sink = CollectingSink::new();
        let sharded = enumerate_triangles_sharded(&g, algorithm, cfg, ShardPlan::new(2), &mut sink)
            .expect("valid plan")
            .report;
        assert_eq!(sharded.extra("greedy_levels"), Some(2.0));
        let worker_step0 = sharded
            .extra("max_worker_io.step0_greedy_coloring")
            .expect("per-phase maximum");
        assert!(
            worker_step0 <= 0.65 * step0(&sequential) as f64,
            "a worker's step 0 charged {worker_step0} of the sequential {}",
            step0(&sequential)
        );
        // The step-2 partition is replicated: each worker pays the whole of
        // it, half the summed row.
        let step2 = sharded.phase_io("step2_partition").expect("step 2").total();
        assert_eq!(
            sharded.extra("max_worker_io.step2_partition"),
            Some((step2 / 2) as f64)
        );
        assert_eq!(
            sharded.phase_io("step2_partition"),
            sequential.phase_io("step2_partition").map(|io| {
                let mut both = io;
                both += io;
                both
            })
        );
    }

    #[test]
    fn a_port_dropped_without_posting_aborts_its_peers_round() {
        let machine = Machine::new(EmConfig::new(256, 32));
        // The peer is gone before this worker posts...
        let [a, b]: [ExchangePort; 2] = ExchangePort::ring(2).try_into().expect("two ports");
        drop(b);
        assert_eq!(a.all_gather(&machine, vec![1, 2]), Err(ExchangeAborted));
        // ...or leaves, whenever it does, while this worker may be waiting.
        let [a, b]: [ExchangePort; 2] = ExchangePort::ring(2).try_into().expect("two ports");
        let got = std::thread::scope(|scope| {
            let waiter = scope.spawn(move || {
                let machine = Machine::new(EmConfig::new(256, 32));
                a.all_gather(&machine, vec![3]).map(|posts| posts.len())
            });
            drop(b);
            waiter.join().expect("no panic")
        });
        assert_eq!(got, Err(ExchangeAborted));
        // A completed round is delivered to both, charged to each.
        let posts = on_workers(ShardPlan::new(2), |cursor| {
            let machine = Machine::new(EmConfig::new(256, 32));
            let port = cursor.exchange().expect("a port per worker");
            let posts = port.all_gather(&machine, vec![port.worker as u64; 40]);
            (posts.expect("both posted").to_vec(), machine.io())
        });
        for (delivered, io) in posts {
            assert_eq!(delivered, vec![vec![0; 40], vec![1; 40]]);
            assert_eq!((io.writes, io.reads), (2, 4));
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_while_its_peer_waits_in_the_exchange() {
        let outcome = std::panic::catch_unwind(|| {
            on_workers(ShardPlan::new(3), |cursor| {
                let machine = Machine::new(EmConfig::new(256, 32));
                let port = cursor.exchange().expect("a port per worker");
                if port.worker == 1 {
                    panic!("worker 1 failed");
                }
                port.all_gather(&machine, vec![7])
                    .unwrap_or_else(|aborted| std::panic::panic_any(aborted))
                    .len()
            })
        });
        let payload = outcome.expect_err("the panic is propagated");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker 1 failed"));
    }

    #[test]
    fn invalid_plans_are_typed_errors() {
        let g = generators::erdos_renyi(50, 200, 1);
        let cfg = EmConfig::new(256, 32);
        let mut sink = CollectingSink::new();
        assert_eq!(
            enumerate_triangles_sharded(
                &g,
                Algorithm::CacheAwareRandomized { seed: 1 },
                cfg,
                ShardPlan::new(0),
                &mut sink,
            )
            .expect_err("zero workers"),
            ShardConfigError::ZeroWorkers
        );
        assert_eq!(
            enumerate_triangles_sharded(
                &g,
                Algorithm::HuTaoChung,
                cfg,
                ShardPlan::new(2),
                &mut sink
            )
            .expect_err("baselines have no unit decomposition"),
            ShardConfigError::UnsupportedAlgorithm {
                name: "hu-tao-chung"
            }
        );
        assert!(ShardConfigError::ZeroWorkers
            .to_string()
            .contains("at least one worker"));
    }

    #[test]
    fn sharded_reports_are_deterministic_across_repeated_runs() {
        let g = generators::erdos_renyi(200, 1500, 3);
        let cfg = EmConfig::new(256, 32);
        let run = || {
            let mut sink = CollectingSink::new();
            let r = enumerate_triangles_sharded(
                &g,
                Algorithm::CacheObliviousRandomized { seed: 2 },
                cfg,
                ShardPlan::new(3),
                &mut sink,
            )
            .expect("valid plan");
            (
                r.workers.per_worker.clone(),
                r.report.phases.clone(),
                r.report.extra.clone(),
            )
        };
        assert_eq!(run(), run());
    }
}
