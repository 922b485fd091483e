//! Tracing from outside the program: spans around the benchmark's own
//! calls into each layer's public functions, and a timing wrapper around
//! the engine's task executor.
//!
//! Spans are flat: each times one call (or one stretch of replayed glue)
//! and never nests inside another, so a layer's total is its self time and
//! the sum over layers can be compared with the wall time of the replay
//! that recorded them (`trace.coverage`).

use crate::stats::percentile;
use crate::{note, Report};
use sd_core::{TaskExecutor, ThreadPoolExecutor};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Per-layer busy time and work counters of one serial replay.
#[derive(Debug, Default)]
pub struct Spans {
    seconds: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Runs `f` inside a span charged to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_seconds(layer, start.elapsed().as_secs_f64());
        out
    }

    /// Charges `seconds` of busy time to `layer`.
    pub fn add_seconds(&mut self, layer: &'static str, seconds: f64) {
        *self.seconds.entry(layer).or_default() += seconds;
    }

    /// Adds `n` to the work counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Busy seconds charged to `layer` (0 when it never ran).
    pub fn seconds(&self, layer: &str) -> f64 {
        self.seconds.get(layer).copied().unwrap_or(0.0)
    }

    /// The counter `name` (0 when it never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Copies every layer's busy seconds and every counter into `metrics`,
    /// under their own names.
    pub fn export(&self, metrics: &mut BTreeMap<&'static str, f64>) {
        for (&name, &seconds) in &self.seconds {
            metrics.insert(name, seconds);
        }
        for (&name, &count) in &self.counts {
            metrics.insert(name, count as f64);
        }
    }

    /// Busy seconds summed over every layer.
    pub fn total_seconds(&self) -> f64 {
        self.seconds.values().sum()
    }
}

/// The engine's default executor with every task timed: the per-task
/// durations give the engine's unit-time distribution, and the process CPU
/// time across each `execute` call gives the pool's busy share.
pub struct TimingExecutor {
    inner: ThreadPoolExecutor,
    threads: usize,
    task_seconds: Mutex<Vec<f64>>,
    /// `(wall, process CPU)` seconds summed over `execute` calls.
    totals: Mutex<(f64, f64)>,
}

impl TimingExecutor {
    /// Wraps `ThreadPoolExecutor::new(threads)`.
    pub fn new(threads: usize) -> Self {
        TimingExecutor {
            inner: ThreadPoolExecutor::new(threads),
            threads,
            task_seconds: Mutex::new(Vec::new()),
            totals: Mutex::new((0.0, 0.0)),
        }
    }

    /// Reports the engine metrics of everything run so far: the busy
    /// share (CPU time over wall time times workers) and the median and
    /// largest task time (waits for shared state included).
    pub fn report(&self, report: &mut Report) {
        let tasks = std::mem::take(&mut *self.task_seconds.lock().expect(POISON));
        let (wall, cpu) = *self.totals.lock().expect(POISON);
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool = if self.threads == 0 {
            nproc
        } else {
            self.threads
        };
        let workers = pool.min(tasks.len()).max(1);
        report
            .metrics
            .insert("core.engine.busy_share", cpu / (wall * workers as f64));
        if let Some(p50) = percentile(&tasks, 50.0) {
            note(format!("engine unit time (s) {p50}"));
            report
                .metrics
                .insert("core.engine.unit_p50_ms", p50.value * 1e3);
        }
        let max = tasks.iter().copied().fold(0.0, f64::max);
        report.metrics.insert("core.engine.unit_max_ms", max * 1e3);
    }
}

const POISON: &str = "no task panics while holding the lock";

impl TaskExecutor for TimingExecutor {
    fn execute<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let cpu = process_cpu_seconds();
        let start = Instant::now();
        let out = self.inner.execute(count, |i| {
            let start = Instant::now();
            let out = f(i);
            let seconds = start.elapsed().as_secs_f64();
            self.task_seconds.lock().expect(POISON).push(seconds);
            out
        });
        let wall = start.elapsed().as_secs_f64();
        let cpu = process_cpu_seconds() - cpu;
        let mut totals = self.totals.lock().expect(POISON);
        totals.0 += wall;
        totals.1 += cpu;
        out
    }
}

/// User plus system CPU time of the whole process, in seconds (from
/// `/proc/self/stat`, in 1/100 s ticks; 0 where that file is missing).
fn process_cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}
