//! Minimal data-parallelism helpers on a persistent worker pool.
//!
//! The workspace is offline (no rayon); the hot loops that benefit from
//! threads — pair-hash row computation, the converged overlay rebuild,
//! the batched event-driven maintenance phases, and the AVMON ping/
//! aggregate sweeps — all reduce to "run independent work over
//! contiguous chunks of a slice". [`par_chunks_mut`] provides exactly
//! that; since the maintenance loop dispatches one such section *per
//! timestamp cohort* (thousands per simulated hour), the chunks execute
//! on a lazily started, process-wide [`WorkerPool`] whose threads park
//! between jobs instead of being respawned per section.
//!
//! Work items must be *independent*: results may not depend on how the
//! slice is split, which keeps every caller deterministic regardless of
//! the machine's core count or the pool's size. The `AVMEM_THREADS`
//! environment variable caps the global pool (and the default chunk
//! fan-out) when set.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Number of worker threads worth using on this machine: the
/// `AVMEM_THREADS` environment variable when set to a positive integer,
/// otherwise the available hardware parallelism capped by the cgroup CPU
/// quota (if any).
///
/// Containerized runs routinely see every host core through
/// `available_parallelism` while their cgroup caps them to a fraction of
/// one — an oversubscribed pool then pays context-switch and throttling
/// overhead for parallelism that does not exist. The quota (cgroup v2
/// `cpu.max`, v1 `cpu.cfs_quota_us`/`cpu.cfs_period_us`) is the real
/// ceiling, so it wins when it is lower.
///
/// The variable is read on every call; the machine is probed once per
/// process (callers ask per advance of a simulation, and the probe is
/// half a dozen syscalls).
pub fn default_threads() -> usize {
    resolve_threads(std::env::var("AVMEM_THREADS").ok().as_deref())
}

/// [`default_threads`] given the value of the override variable.
fn resolve_threads(override_var: Option<&str>) -> usize {
    match override_var.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => machine_threads(),
    }
}

/// Hardware parallelism capped by the cgroup quota, probed on first use.
fn machine_threads() -> usize {
    static PROBE: OnceLock<usize> = OnceLock::new();
    *PROBE.get_or_init(|| {
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        match cgroup_quota_threads() {
            Some(quota) => hardware.min(quota),
            None => hardware,
        }
    })
}

/// The effective CPU count allowed by the process's cgroup quota, or
/// `None` when unlimited/unreadable. Reads cgroup v2 first (`cpu.max`),
/// then falls back to v1 (`cpu.cfs_quota_us` + `cpu.cfs_period_us`).
fn cgroup_quota_threads() -> Option<usize> {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    if let Some(text) = read("/sys/fs/cgroup/cpu.max") {
        return parse_cpu_max(&text);
    }
    let quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")?;
    let period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")?;
    quota_to_threads(quota.trim().parse().ok()?, period.trim().parse().ok()?)
}

/// Parses cgroup v2 `cpu.max` ("`max 100000`" = unlimited, or
/// "`<quota> <period>`" in microseconds) into an effective CPU count.
fn parse_cpu_max(text: &str) -> Option<usize> {
    let mut fields = text.split_whitespace();
    let quota = fields.next()?;
    if quota == "max" {
        return None;
    }
    quota_to_threads(quota.parse().ok()?, fields.next()?.parse().ok()?)
}

/// `ceil(quota / period)` CPUs: a 150 ms-per-100 ms quota is "2 cores
/// worth of headroom" for sizing purposes. Non-positive quotas mean
/// unlimited (cgroup v1 uses `-1`).
fn quota_to_threads(quota: i64, period: i64) -> Option<usize> {
    if quota <= 0 || period <= 0 {
        return None;
    }
    Some((quota as usize).div_ceil(period as usize).max(1))
}

/// A job as the pool stores it: lifetime-erased (see
/// [`WorkerPool::run_boxed`] for why that is sound).
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Shared state between the submitting threads and the pool workers.
struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here while the queue is empty.
    work: Condvar,
}

struct PoolState {
    /// Pending jobs, each tagged with its batch — concurrent batches
    /// interleave in the queue but complete independently.
    queue: Vec<(Task, Arc<BatchCtl>)>,
    shutdown: bool,
}

/// Per-batch completion accounting: each [`WorkerPool::run_boxed`] call
/// owns one, so concurrent batches on the shared pool cannot observe
/// each other's completion or steal each other's panics.
struct BatchCtl {
    progress: Mutex<BatchProgress>,
    /// The batch's submitter parks here until `pending` reaches zero.
    done: Condvar,
}

struct BatchProgress {
    /// Jobs of this batch not yet finished (queued or running).
    pending: usize,
    /// First panic payload observed in a job of this batch.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

thread_local! {
    /// Whether the current thread is executing a pool job. Nested
    /// [`WorkerPool::run_boxed`] calls from inside a job run inline —
    /// a worker blocking on its own batch would deadlock the pool.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// A persistent pool of parked worker threads for scoped, blocking
/// data-parallel sections.
///
/// Unlike `std::thread::scope`, which spawns and joins OS threads per
/// section, the pool's workers are spawned once and park on a condvar
/// between jobs — per-section overhead is one lock round-trip and an
/// unpark, which is what makes per-cohort parallelism in the maintenance
/// loop affordable. A section ([`WorkerPool::run_boxed`]) blocks the
/// submitting thread until every job of the batch has finished, so jobs
/// may borrow from the submitting stack frame.
///
/// The process-wide pool used by [`par_chunks_mut`] is [`global_pool`];
/// explicitly sized pools are mainly for tests.
///
/// # Examples
///
/// ```
/// use avmem_util::parallel::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let mut halves = vec![0u64; 2];
/// let (lo, hi) = halves.split_at_mut(1);
/// pool.run_boxed(vec![
///     Box::new(|| lo[0] = 1),
///     Box::new(|| hi[0] = 2),
/// ]);
/// assert_eq!(halves, vec![1, 2]);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Cumulative submission counters, for observability surfaces (see
    /// [`WorkerPool::pool_stats`]).
    batches: AtomicU64,
    jobs: AtomicU64,
    inline_batches: AtomicU64,
}

/// A point-in-time view of a [`WorkerPool`]'s cumulative submission
/// counters; see [`WorkerPool::pool_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Sections submitted via [`WorkerPool::run_boxed`].
    pub batches: u64,
    /// Individual jobs across all submitted batches.
    pub jobs: u64,
    /// Batches that degraded to inline execution (single job, no
    /// background workers, or nested submission from inside a job).
    pub inline_batches: u64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` total parallelism: `threads - 1`
    /// parked worker threads plus the submitting thread, which always
    /// participates in its own batches.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("avmem-pool-{k}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker failed")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            threads,
            batches: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            inline_batches: AtomicU64::new(0),
        }
    }

    /// Total parallelism of the pool (background workers + the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cumulative submission counters since construction. Observation
    /// only; the counters are updated with relaxed atomics at batch
    /// granularity, so reading them costs nothing on the job hot path.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            batches: self.batches.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
            inline_batches: self.inline_batches.load(Ordering::Relaxed),
        }
    }

    /// Runs a batch of independent jobs to completion, in parallel when
    /// the pool has background workers, and returns once every job has
    /// finished. Jobs may borrow data from the caller's stack frame: the
    /// blocking-until-done contract is exactly what makes the internal
    /// lifetime erasure sound (no job can outlive this call).
    ///
    /// Jobs must be independent — execution order and thread placement
    /// are unspecified. Single-job batches, pools without background
    /// workers, and nested calls from inside a pool job all degrade to
    /// running inline on the caller's thread.
    ///
    /// # Panics
    ///
    /// If a job panics, the batch still runs to completion and the first
    /// panic payload of *this batch* is resumed on the caller (matching
    /// `std::thread::scope`). Batches are accounted independently, so
    /// concurrent submitters on the shared pool neither wait on each
    /// other's jobs nor observe each other's panics — though a submitter
    /// may execute another batch's queued jobs while its own are in
    /// flight.
    pub fn run_boxed<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.jobs.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        if jobs.len() <= 1 || self.workers.is_empty() || IN_POOL_JOB.with(Cell::get) {
            self.inline_batches.fetch_add(1, Ordering::Relaxed);
            for job in jobs {
                job();
            }
            return;
        }
        // SAFETY: only the lifetime bound is erased; the layout of
        // `Vec<Box<dyn FnOnce() + Send>>` does not depend on it. Every
        // erased job is executed (or dropped) before this function
        // returns — the wait loop below blocks until the batch's
        // `pending` count reaches zero — so no job or its borrows
        // outlive `'scope`.
        let erased: Vec<Task> = unsafe {
            std::mem::transmute::<
                Vec<Box<dyn FnOnce() + Send + 'scope>>,
                Vec<Box<dyn FnOnce() + Send + 'static>>,
            >(jobs)
        };
        let ctl = Arc::new(BatchCtl {
            progress: Mutex::new(BatchProgress {
                pending: erased.len(),
                panic: None,
            }),
            done: Condvar::new(),
        });
        {
            let mut state = self.shared.state.lock().expect("pool lock poisoned");
            state
                .queue
                .extend(erased.into_iter().map(|task| (task, Arc::clone(&ctl))));
        }
        self.shared.work.notify_all();
        // The submitter works through the queue alongside the workers
        // (possibly including other batches' jobs — helping global
        // progress is never wrong, and its own jobs may be behind them).
        loop {
            let popped = {
                let mut state = self.shared.state.lock().expect("pool lock poisoned");
                state.queue.pop()
            };
            match popped {
                Some((task, batch)) => run_task(task, &batch),
                None => break,
            }
        }
        let mut progress = ctl.progress.lock().expect("batch lock poisoned");
        while progress.pending > 0 {
            progress = ctl.done.wait(progress).expect("batch lock poisoned");
        }
        // The lifetime erasure's condition: every job of the batch has
        // run (each is consumed before it counts itself done).
        debug_assert_eq!(progress.pending, 0, "a job could outlive 'scope");
        if let Some(payload) = progress.panic.take() {
            drop(progress);
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock poisoned");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs one popped task, recording a panic into its batch and
/// signalling the batch's submitter when the batch completes.
fn run_task(task: Task, batch: &BatchCtl) {
    let result = IN_POOL_JOB.with(|flag| {
        let prev = flag.replace(true);
        let result = catch_unwind(AssertUnwindSafe(task));
        flag.set(prev);
        result
    });
    let mut progress = batch.progress.lock().expect("batch lock poisoned");
    if let Err(payload) = result {
        progress.panic.get_or_insert(payload);
    }
    progress.pending -= 1;
    if progress.pending == 0 {
        batch.done.notify_all();
    }
}

/// The body of one background worker: park on the condvar until a job
/// (or shutdown) arrives, run it, repeat.
fn worker_loop(shared: &Shared) {
    loop {
        let (task, batch) = {
            let mut state = shared.state.lock().expect("pool lock poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(popped) = state.queue.pop() {
                    break popped;
                }
                state = shared.work.wait(state).expect("pool lock poisoned");
            }
        };
        run_task(task, &batch);
    }
}

/// The process-wide pool every [`par_chunks_mut`] section runs on,
/// started on first use and sized by [`default_threads`] (so
/// `AVMEM_THREADS` caps it). Its workers live for the rest of the
/// process, parked whenever no section is in flight.
pub fn global_pool() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| WorkerPool::new(default_threads()))
}

/// Splits `items` into up to `threads` contiguous chunks (each a multiple
/// of `align` items, except possibly the last) and runs `f(offset, chunk)`
/// on each, in parallel on the global [`WorkerPool`].
///
/// `offset` is the index of the chunk's first element in `items`, so
/// workers can recover global positions. With `threads <= 1`, or when the
/// slice holds at most one `align`-unit, `f` runs inline on the caller's
/// thread with no dispatch. `threads` controls only the chunk fan-out —
/// execution parallelism is capped by the pool — and since work items
/// must be independent, results never depend on either.
///
/// # Examples
///
/// ```
/// use avmem_util::parallel::par_chunks_mut;
///
/// let mut squares = vec![0u64; 1000];
/// par_chunks_mut(&mut squares, 1, 4, |offset, chunk| {
///     for (k, slot) in chunk.iter_mut().enumerate() {
///         let i = (offset + k) as u64;
///         *slot = i * i;
///     }
/// });
/// assert_eq!(squares[31], 961);
/// ```
///
/// # Panics
///
/// Panics if `align == 0`.
pub fn par_chunks_mut<T, F>(items: &mut [T], align: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(align > 0, "chunk alignment must be positive");
    if items.is_empty() {
        return;
    }
    let units = items.len().div_ceil(align);
    let threads = threads.clamp(1, units);
    if threads == 1 {
        f(0, items);
        return;
    }
    let chunk_len = units.div_ceil(threads) * align;
    let f = &f;
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(threads);
    let mut rest = items;
    let mut offset = 0;
    while !rest.is_empty() {
        let take = chunk_len.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        jobs.push(Box::new(move || f(offset, head)));
        offset += take;
        rest = tail;
    }
    global_pool().run_boxed(jobs);
}

/// Runs `f(index, &mut items[index])` for every element of `items`, one
/// pool job per element — the shard executor of the sharded maintenance
/// harness, where each element is a whole shard's worth of state and
/// per-element work is coarse enough to be its own job.
///
/// Contrast with [`par_chunks_mut`], which carves a long slice of small
/// items into `threads` chunks: here every element *is* the unit of
/// work, so the fan-out equals `items.len()` and `threads` only gates
/// whether dispatch happens at all (`threads <= 1` runs inline, in
/// index order). Work items must be independent — results never depend
/// on `threads` or on which worker runs which element.
///
/// # Examples
///
/// ```
/// use avmem_util::parallel::par_each_mut;
///
/// let mut shards = vec![vec![0u32; 4], vec![0u32; 3]];
/// par_each_mut(&mut shards, 4, |s, shard| {
///     for slot in shard.iter_mut() {
///         *slot = s as u32 + 1;
///     }
/// });
/// assert_eq!(shards[1], vec![2, 2, 2]);
/// ```
pub fn par_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let f = &f;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = items
        .iter_mut()
        .enumerate()
        .map(|(i, item)| Box::new(move || f(i, item)) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    global_pool().run_boxed(jobs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_element_exactly_once() {
        for threads in [1, 2, 3, 7, 64] {
            let mut hits = vec![0u32; 103];
            par_chunks_mut(&mut hits, 1, threads, |_, chunk| {
                for h in chunk {
                    *h += 1;
                }
            });
            assert!(hits.iter().all(|&h| h == 1), "threads={threads}");
        }
    }

    #[test]
    fn offsets_recover_global_indices() {
        let mut v = vec![0usize; 50];
        par_chunks_mut(&mut v, 1, 4, |offset, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = offset + k;
            }
        });
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn respects_alignment() {
        // align 10 → chunk boundaries only at multiples of 10.
        let mut v = vec![0u8; 95];
        par_chunks_mut(&mut v, 10, 4, |offset, chunk| {
            assert_eq!(offset % 10, 0);
            assert!(chunk.len() % 10 == 0 || offset + chunk.len() == 95);
            for b in chunk {
                *b = 1;
            }
        });
        assert!(v.iter().all(|&b| b == 1));
    }

    #[test]
    fn result_is_independent_of_thread_count() {
        let run = |threads: usize| {
            let mut v = vec![0u64; 64];
            par_chunks_mut(&mut v, 1, threads, |offset, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = ((offset + k) as u64).wrapping_mul(0x9e37_79b9);
                }
            });
            v
        };
        let base = run(1);
        for threads in [2, 5, 16] {
            assert_eq!(run(threads), base);
        }
    }

    #[test]
    fn empty_slice_is_a_no_op() {
        let mut v: Vec<u8> = Vec::new();
        par_chunks_mut(&mut v, 4, 8, |_, _| panic!("must not be called"));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn the_override_wins_before_and_after_the_probe_is_cached() {
        // Through `resolve_threads`, not the process environment: other
        // tests of this binary size pools from it concurrently.
        assert_eq!(resolve_threads(Some("3")), 3);
        let machine = resolve_threads(None);
        assert!(machine >= 1);
        assert_eq!(resolve_threads(Some(" 5\n")), 5);
        // Not a positive integer: the (cached) machine answer.
        for unset in ["0", "", "banana", "-2"] {
            assert_eq!(resolve_threads(Some(unset)), machine);
        }
        assert_eq!(resolve_threads(None), machine);
    }

    #[test]
    fn cpu_max_parsing_handles_the_cgroup_formats() {
        // v2 unlimited.
        assert_eq!(parse_cpu_max("max 100000\n"), None);
        // v2 limited: 150% of a core rounds up to 2 effective CPUs.
        assert_eq!(parse_cpu_max("150000 100000\n"), Some(2));
        assert_eq!(parse_cpu_max("100000 100000"), Some(1));
        assert_eq!(parse_cpu_max("50000 100000"), Some(1));
        assert_eq!(parse_cpu_max("800000 100000"), Some(8));
        // Garbage must never produce a cap.
        assert_eq!(parse_cpu_max(""), None);
        assert_eq!(parse_cpu_max("banana"), None);
        assert_eq!(parse_cpu_max("100000"), None);
        // v1 semantics: -1 quota means unlimited.
        assert_eq!(quota_to_threads(-1, 100_000), None);
        assert_eq!(quota_to_threads(250_000, 100_000), Some(3));
        assert_eq!(quota_to_threads(100_000, 0), None);
    }

    #[test]
    fn par_each_mut_visits_every_element_once_for_any_fanout() {
        for threads in [1usize, 2, 4, 16] {
            let mut items: Vec<u64> = vec![0; 9];
            par_each_mut(&mut items, threads, |i, item| {
                *item += i as u64 * 10 + 1;
            });
            let expected: Vec<u64> = (0..9).map(|i| i * 10 + 1).collect();
            assert_eq!(items, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_each_mut_handles_empty_and_single() {
        let mut empty: Vec<u8> = Vec::new();
        par_each_mut(&mut empty, 4, |_, _| panic!("must not run"));
        let mut one = vec![5u8];
        par_each_mut(&mut one, 4, |_, x| *x = 7);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn pool_runs_every_job_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let pool = WorkerPool::new(4);
        for batch in [0usize, 1, 2, 7, 33] {
            let counters: Vec<AtomicU32> = (0..batch).map(|_| AtomicU32::new(0)).collect();
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = counters
                .iter()
                .map(|c| {
                    Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_boxed(jobs);
            assert!(
                counters.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                "batch={batch}"
            );
        }
    }

    #[test]
    fn pool_spreads_jobs_across_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;
        // Many slow-ish jobs on a wide pool: with workers parked and
        // ready, at least one job should land off the submitting thread.
        // (On a 1-core machine the workers still exist — parallelism is
        // about threads, not cores.)
        let pool = WorkerPool::new(4);
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|_| {
                Box::new(|| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    std::thread::yield_now();
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_boxed(jobs);
        assert!(!seen.lock().unwrap().is_empty());
    }

    #[test]
    fn pool_blocks_until_borrowed_jobs_finish() {
        // The scoped contract: jobs borrow the caller's stack data and
        // every write is visible after run_boxed returns.
        let pool = WorkerPool::new(3);
        for _ in 0..50 {
            let mut data = [0u64; 24];
            let chunks: Vec<Box<dyn FnOnce() + Send + '_>> = data
                .chunks_mut(3)
                .enumerate()
                .map(|(i, chunk)| {
                    Box::new(move || {
                        for slot in chunk {
                            *slot = i as u64 + 1;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_boxed(chunks);
            assert!(data.iter().all(|&x| x != 0));
        }
    }

    #[test]
    fn pool_propagates_job_panics() {
        let pool = WorkerPool::new(3);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                .map(|i| {
                    Box::new(move || {
                        if i == 5 {
                            panic!("job 5 exploded");
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run_boxed(jobs);
        }));
        let payload = result.expect_err("panic must propagate to the submitter");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("(non-str payload)");
        assert!(msg.contains("exploded"), "unexpected payload {msg}");
        // The pool must stay usable after a panicked batch.
        let mut v = [0u8; 4];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = v
            .chunks_mut(1)
            .map(|c| {
                Box::new(move || c[0] = 1) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_boxed(jobs);
        assert_eq!(v, [1, 1, 1, 1]);
    }

    #[test]
    fn concurrent_batches_are_accounted_independently() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // Two submitters share one pool; one batch panics. The panic
        // must surface on its own submitter only, and the clean batch
        // must run every job and return normally.
        let pool = WorkerPool::new(4);
        for _ in 0..20 {
            let clean_runs = AtomicU32::new(0);
            std::thread::scope(|scope| {
                let pool = &pool;
                let clean_runs = &clean_runs;
                let panicky = scope.spawn(move || {
                    std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                            .map(|i| {
                                Box::new(move || {
                                    if i % 2 == 0 {
                                        panic!("poison batch");
                                    }
                                }) as Box<dyn FnOnce() + Send>
                            })
                            .collect();
                        pool.run_boxed(jobs);
                    }))
                });
                let clean = scope.spawn(move || {
                    std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
                            .map(|_| {
                                Box::new(|| {
                                    clean_runs.fetch_add(1, Ordering::SeqCst);
                                }) as Box<dyn FnOnce() + Send + '_>
                            })
                            .collect();
                        pool.run_boxed(jobs);
                    }))
                });
                assert!(
                    panicky.join().expect("thread itself must not die").is_err(),
                    "the poisoned batch must panic on its own submitter"
                );
                assert!(
                    clean.join().expect("thread itself must not die").is_ok(),
                    "the clean batch must not inherit a foreign panic"
                );
            });
            assert_eq!(clean_runs.load(Ordering::SeqCst), 8);
        }
    }

    #[test]
    fn nested_sections_run_inline_without_deadlock() {
        // par_chunks_mut from inside a pool job must not block on the
        // pool it is running on.
        let mut outer = vec![0u64; 8];
        par_chunks_mut(&mut outer, 1, 4, |offset, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                let mut inner = vec![0u64; 16];
                par_chunks_mut(&mut inner, 1, 4, |o, c| {
                    for (j, s) in c.iter_mut().enumerate() {
                        *s = (o + j) as u64;
                    }
                });
                *slot = inner.iter().sum::<u64>() + (offset + k) as u64;
            }
        });
        for (i, &x) in outer.iter().enumerate() {
            assert_eq!(x, 120 + i as u64);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut hit = false;
        pool.run_boxed(vec![Box::new(|| hit = true)]);
        assert!(hit);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = global_pool() as *const WorkerPool;
        let b = global_pool() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(global_pool().threads() >= 1);
    }
}
