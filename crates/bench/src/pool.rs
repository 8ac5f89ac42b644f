//! A small work-stealing-free job pool on [`std::thread::scope`].
//!
//! The reproduction harness runs many fully independent deterministic
//! simulations (every experiment, and every sweep point within an
//! experiment, builds its own [`tc_putget::Cluster`] and executor). The
//! pool exploits that independence: a fixed set of worker threads pulls
//! jobs from one shared FIFO queue until it drains. There are no
//! per-worker deques and no stealing — contention on the queue head is
//! negligible because each job is a whole simulation (milliseconds to
//! seconds), and a single queue keeps completion order irrelevant to the
//! results: every job writes into its own pre-assigned slot, so output
//! assembly is always in input-index order regardless of scheduling.
//!
//! The workspace is intentionally zero-external-crate, so this is built on
//! `std` only (`thread::scope` + `Mutex`/`AtomicU64`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tc_desim::Work;

/// A boxed unit of schedulable work.
pub type Task = Box<dyn FnOnce() + Send>;

/// Runner self-profile of one [`Pool::run_tasks`] call (host wall-clock,
/// **not** simulated time — simulation results never depend on these).
///
/// Queue wait is measured from the moment the batch is submitted to the
/// moment a worker claims the task, so with a saturated pool it reflects
/// how long work sat behind other tasks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Worker threads the batch ran on.
    pub jobs: usize,
    /// Tasks executed.
    pub tasks: usize,
    /// Wall-clock of the whole batch, nanoseconds.
    pub wall_ns: u64,
    /// Sum of per-task execution times, nanoseconds.
    pub busy_ns: u64,
    /// Sum of per-task queue waits, nanoseconds.
    pub queue_wait_ns: u64,
    /// Longest single task, nanoseconds.
    pub max_task_ns: u64,
    /// Per-worker breakdown of the batch, indexed by worker. Feeds the
    /// `--verbose` summary only; the metrics JSON schema stays untouched.
    pub per_worker: Vec<WorkerStats>,
    /// Execution time of each task, nanoseconds, in submission order.
    pub task_ns: Vec<u64>,
    /// What each task ran, in submission order (`id[point]`), when the
    /// caller labelled them; the `--verbose` ledger names the slowest.
    pub task_labels: Vec<String>,
    /// Executor work of each task, in submission order: its simulations'
    /// process polls, fast-forwarded steps and timer pops, shard threads
    /// included.
    pub task_work: Vec<Work>,
}

/// One worker's slice of a batch: how many tasks it claimed off the
/// shared queue and how long it spent executing them. A lopsided claim
/// count is normal (the queue is FIFO, not balanced); lopsided busy time
/// with idle peers means one giant task serialized the batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker claimed.
    pub tasks: usize,
    /// Time this worker spent executing tasks, nanoseconds.
    pub busy_ns: u64,
}

impl PoolStats {
    /// Fraction of worker capacity (`jobs * wall`) spent executing tasks.
    pub fn utilization(&self) -> f64 {
        let capacity = (self.jobs as u64).saturating_mul(self.wall_ns);
        if capacity == 0 {
            0.0
        } else {
            self.busy_ns as f64 / capacity as f64
        }
    }

    /// Whether task `i` is one of experiment `id`'s own (label `id[i]`).
    fn is_of(&self, i: usize, id: &str) -> bool {
        let label = self.task_labels.get(i).and_then(|l| l.strip_prefix(id));
        label.is_some_and(|r| r.starts_with('['))
    }

    /// The executor work of experiment `id`'s own tasks (labels `id[i]`).
    pub fn work_of(&self, id: &str) -> Work {
        let mut sum = Work::default();
        for (i, w) in self.task_work.iter().enumerate() {
            if self.is_of(i, id) {
                sum.polls += w.polls;
                sum.skipped += w.skipped;
                sum.timers += w.timers;
            }
        }
        sum
    }

    /// The summed execution time of experiment `id`'s own tasks (labels
    /// `id[i]`), nanoseconds.
    pub fn time_of(&self, id: &str) -> u64 {
        let mine = self.task_ns.iter().enumerate();
        mine.filter(|&(i, _)| self.is_of(i, id))
            .map(|(_, ns)| ns)
            .sum()
    }

    /// The `n` slowest labelled tasks, slowest first: `(label, ns, work)`.
    pub fn slowest(&self, n: usize) -> Vec<(&str, u64, Work)> {
        let mut v: Vec<(&str, u64, Work)> = self
            .task_labels
            .iter()
            .zip(&self.task_ns)
            .enumerate()
            .map(|(i, (l, &ns))| {
                let work = self.task_work.get(i).copied().unwrap_or_default();
                (l.as_str(), ns, work)
            })
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v.truncate(n);
        v
    }

    /// The `--verbose` end-of-run summary block.
    pub fn summary(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = format!(
            "# runner: {} task(s) on {} job(s)\n\
             #   wall       {:>10.1} ms\n\
             #   busy       {:>10.1} ms (pool utilization {:.0}%)\n\
             #   queue wait {:>10.1} ms total\n\
             #   max task   {:>10.1} ms",
            self.tasks,
            self.jobs,
            ms(self.wall_ns),
            ms(self.busy_ns),
            self.utilization() * 100.0,
            ms(self.queue_wait_ns),
            ms(self.max_task_ns),
        );
        if self.per_worker.len() > 1 {
            for (w, ws) in self.per_worker.iter().enumerate() {
                out.push_str(&format!(
                    "\n#   worker {w:<2} {:>4} task(s) claimed, {:>10.1} ms busy",
                    ws.tasks,
                    ms(ws.busy_ns),
                ));
            }
        }
        for (label, ns, w) in self.slowest(5) {
            out.push_str(&format!(
                "\n#   slowest    {:>10.1} ms  {label:<14} {:>10} polls {:>11} ffwd steps",
                ms(ns),
                w.polls,
                w.skipped,
            ));
        }
        out
    }
}

/// A fixed-width job pool. `jobs == 1` degenerates to exact serial
/// execution in input order (no threads are spawned at all), which is the
/// baseline the byte-identical golden test compares against.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool with `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Pool { jobs: jobs.max(1) }
    }

    /// The serial pool: runs everything in order on the calling thread.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// A pool sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Pool::new(available_parallelism())
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run every task to completion and return the batch's self-profile.
    /// Tasks are claimed in FIFO order; with more than one worker the
    /// *completion* order is unspecified, which is why tasks communicate
    /// results through their own slots rather than through a shared
    /// accumulator.
    ///
    /// A panicking task panics the calling thread once the scope closes
    /// (`std::thread::scope` re-raises worker panics).
    pub fn run_tasks(&self, tasks: Vec<Task>) -> PoolStats {
        let n = tasks.len();
        let t0 = Instant::now();
        let busy = AtomicU64::new(0);
        let wait = AtomicU64::new(0);
        let max_task = AtomicU64::new(0);
        let task_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let task_work: Vec<Mutex<Work>> = (0..n).map(|_| Mutex::new(Work::default())).collect();
        let run_one = |(i, t): (usize, Task)| -> u64 {
            let claimed = t0.elapsed().as_nanos() as u64;
            let started = Instant::now();
            let work = Work::on_thread();
            t();
            let took = started.elapsed().as_nanos() as u64;
            *task_work[i].lock().unwrap() = Work::on_thread().since(work);
            busy.fetch_add(took, Ordering::Relaxed);
            wait.fetch_add(claimed, Ordering::Relaxed);
            max_task.fetch_max(took, Ordering::Relaxed);
            task_ns[i].store(took, Ordering::Relaxed);
            took
        };
        let per_worker: Vec<WorkerStats>;
        if self.jobs == 1 || n <= 1 {
            let mut me = WorkerStats::default();
            for t in tasks.into_iter().enumerate() {
                me.busy_ns = me.busy_ns.saturating_add(run_one(t));
                me.tasks += 1;
            }
            per_worker = if n == 0 { Vec::new() } else { vec![me] };
        } else {
            let workers = self.jobs.min(n);
            let queue = Mutex::new(tasks.into_iter().enumerate());
            let slots: Vec<Mutex<WorkerStats>> = (0..workers)
                .map(|_| Mutex::new(WorkerStats::default()))
                .collect();
            let (queue_ref, run_ref) = (&queue, &run_one);
            std::thread::scope(|s| {
                for slot in &slots {
                    s.spawn(move || {
                        let mut me = WorkerStats::default();
                        loop {
                            // Hold the lock only while claiming, never while
                            // running.
                            let task = queue_ref.lock().unwrap().next();
                            match task {
                                Some(t) => {
                                    me.busy_ns = me.busy_ns.saturating_add(run_ref(t));
                                    me.tasks += 1;
                                }
                                None => break,
                            }
                        }
                        *slot.lock().unwrap() = me;
                    });
                }
            });
            per_worker = slots.into_iter().map(|m| m.into_inner().unwrap()).collect();
        }
        PoolStats {
            jobs: self.jobs.min(n.max(1)),
            tasks: n,
            wall_ns: t0.elapsed().as_nanos() as u64,
            busy_ns: busy.into_inner(),
            queue_wait_ns: wait.into_inner(),
            max_task_ns: max_task.into_inner(),
            per_worker,
            task_ns: task_ns.into_iter().map(AtomicU64::into_inner).collect(),
            task_labels: Vec::new(),
            task_work: task_work
                .into_iter()
                .map(|m| m.into_inner().unwrap())
                .collect(),
        }
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_tasks_executes_every_task_exactly_once() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        for jobs in [1, 3, 8] {
            let hits: Arc<Vec<AtomicU64>> = Arc::new((0..20).map(|_| AtomicU64::new(0)).collect());
            let tasks: Vec<Task> = (0..20)
                .map(|i| {
                    let hits = hits.clone();
                    Box::new(move || {
                        hits[i].fetch_add(1, Ordering::SeqCst);
                    }) as Task
                })
                .collect();
            Pool::new(jobs).run_tasks(tasks);
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "task {i} with jobs={jobs}");
            }
        }
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
        assert!(Pool::auto().jobs() >= 1);
    }

    #[test]
    fn run_tasks_profiles_the_batch() {
        for jobs in [1, 4] {
            let tasks: Vec<Task> = (0..6)
                .map(|_| {
                    Box::new(|| std::thread::sleep(std::time::Duration::from_millis(2))) as Task
                })
                .collect();
            let stats = Pool::new(jobs).run_tasks(tasks);
            assert_eq!(stats.tasks, 6);
            assert_eq!(stats.jobs, jobs);
            assert!(stats.wall_ns > 0);
            // Six 2 ms sleeps: at least ~12 ms of busy time in any schedule.
            assert!(stats.busy_ns >= 6 * 1_500_000, "busy {}", stats.busy_ns);
            assert!(stats.max_task_ns >= 1_500_000);
            assert!(stats.utilization() > 0.0 && stats.utilization() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn task_work_counts_each_tasks_own_polls() {
        for jobs in [1, 3] {
            let tasks: Vec<Task> = (0..6u64)
                .map(|i| {
                    Box::new(move || {
                        let sim = tc_desim::Sim::new();
                        let h = sim.clone();
                        sim.spawn("p", async move {
                            for _ in 0..i {
                                h.delay(1).await;
                            }
                        });
                        sim.run();
                    }) as Task
                })
                .collect();
            let stats = Pool::new(jobs).run_tasks(tasks);
            let polls: Vec<u64> = stats.task_work.iter().map(|w| w.polls).collect();
            assert_eq!(polls, [1, 2, 3, 4, 5, 6], "jobs={jobs}");
        }
    }

    #[test]
    fn ledger_names_the_slowest_tasks_and_sums_per_experiment() {
        let w = |polls, skipped, timers| Work {
            polls,
            skipped,
            timers,
        };
        let stats = PoolStats {
            jobs: 2,
            tasks: 4,
            wall_ns: 150,
            busy_ns: 190,
            queue_wait_ns: 15,
            max_task_ns: 80,
            per_worker: vec![
                WorkerStats {
                    tasks: 4,
                    busy_ns: 190,
                },
                WorkerStats {
                    tasks: 0,
                    busy_ns: 0,
                },
            ],
            task_ns: vec![80, 50, 20, 60],
            task_labels: ["fig1a[0]", "fig1a[1]", "fig1a[2]", "fig3[0]"]
                .map(String::from)
                .to_vec(),
            task_work: vec![w(7, 3, 5), w(7, 3, 5), w(7, 3, 5), w(1234, 56, 789)],
        };
        let s = stats.summary();
        assert!(s.contains("4 task(s)") && s.contains("utilization"), "{s}");
        assert!(s.contains("worker 0") && s.contains("worker 1"), "{s}");
        // The ledger names the slowest tasks, slowest first, with their
        // executor work.
        assert_eq!(
            stats.slowest(2),
            vec![
                ("fig1a[0]", 80, w(7, 3, 5)),
                ("fig3[0]", 60, w(1234, 56, 789))
            ],
            "{s}"
        );
        assert!(
            s.contains("fig3[0]              1234 polls          56 ffwd steps"),
            "{s}"
        );
        assert!(
            s.contains("fig1a[0]") && !s.contains("max task        fig"),
            "{s}"
        );
        // Per experiment: the sum over its own tasks only.
        assert_eq!(stats.work_of("fig1a"), w(21, 9, 15));
        assert_eq!(stats.time_of("fig1a"), 150);
        assert_eq!(stats.work_of("fig3"), w(1234, 56, 789));
        assert_eq!(stats.work_of("fig1"), w(0, 0, 0));
    }

    #[test]
    fn per_worker_breakdown_accounts_for_every_task() {
        for jobs in [1, 4] {
            let tasks: Vec<Task> = (0..10)
                .map(|_| {
                    Box::new(|| std::thread::sleep(std::time::Duration::from_micros(200))) as Task
                })
                .collect();
            let stats = Pool::new(jobs).run_tasks(tasks);
            let workers = stats.per_worker.len();
            assert!(
                workers >= 1 && workers <= jobs,
                "{workers} with jobs={jobs}"
            );
            let claimed: usize = stats.per_worker.iter().map(|w| w.tasks).sum();
            let busy: u64 = stats.per_worker.iter().map(|w| w.busy_ns).sum();
            assert_eq!(claimed, 10, "jobs={jobs}");
            assert_eq!(busy, stats.busy_ns, "jobs={jobs}");
        }
        // A single-worker batch keeps the summary free of worker lines.
        let one = Pool::serial().run_tasks(vec![Box::new(|| {}) as Task]);
        assert!(!one.summary().contains("worker 0"), "{}", one.summary());
    }

    #[test]
    fn empty_batch_has_zero_utilization() {
        let stats = Pool::new(4).run_tasks(Vec::new());
        assert_eq!(stats.tasks, 0);
        assert_eq!(stats.utilization(), 0.0);
    }
}
