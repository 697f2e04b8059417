//! A minimal, dependency-free benchmark harness with a criterion-shaped
//! API.
//!
//! The dependency policy excludes criterion, so this module provides the
//! subset the workspace benches use — [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`BenchmarkId::from_parameter`],
//! [`black_box`], and the [`criterion_group!`](crate::criterion_group)/
//! [`criterion_main!`](crate::criterion_main) macros — backed by a
//! simple warmup + fixed-budget timing loop.
//! Results print as `name … time/iter (iters)` lines.
//!
//! Budgets are intentionally small (50 ms per benchmark by default) so
//! `cargo bench` stays fast in CI.
//!
//! # Environment
//!
//! `NOVA_BENCH_MEASURE_MS` sets the per-benchmark measurement budget in
//! milliseconds (warmup gets one fifth of it). Raise it for real
//! measurements; CI sets it to 1 for smoke runs. Values are clamped to
//! ≥ 1 ms — a zero budget would skip warmup and degenerate every
//! benchmark to a single-iteration noise reading. Unparsable values
//! fall back to the 50 ms default.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Opaque value barrier: prevents the optimizer from deleting the
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

fn measure_budget() -> Duration {
    budget_from_ms(
        std::env::var("NOVA_BENCH_MEASURE_MS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok()),
    )
}

/// Clamps the measurement budget to at least 1 ms: `NOVA_BENCH_MEASURE_MS=0`
/// would otherwise zero the warmup and measure a single unwarmed iteration.
fn budget_from_ms(ms: Option<u64>) -> Duration {
    Duration::from_millis(ms.unwrap_or(50).max(1))
}

/// The timing loop handed to benchmark closures.
pub struct Bencher {
    /// Nanoseconds per iteration measured by the last `iter` call.
    ns_per_iter: f64,
    /// Iterations executed in the measured window.
    iters: u64,
}

impl Bencher {
    /// Times `routine`, first warming up briefly, then running as many
    /// iterations as fit the measurement budget.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warmup: run for ~1/5 of the budget to stabilize caches/branch
        // predictors and estimate per-iteration cost.
        let warmup = measure_budget() / 5;
        let start = Instant::now();
        let mut warm_iters = 0u64;
        while start.elapsed() < warmup || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
        }
        let est_per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;

        // Measurement: a fixed iteration count sized to the budget.
        let budget = measure_budget().as_secs_f64();
        let iters = ((budget / est_per_iter).ceil() as u64).clamp(1, 10_000_000);
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let elapsed = start.elapsed().as_secs_f64();
        self.ns_per_iter = elapsed * 1e9 / iters as f64;
        self.iters = iters;
    }
}

fn human_time(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn run_one(name: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        ns_per_iter: f64::NAN,
        iters: 0,
    };
    f(&mut b);
    if b.iters == 0 {
        println!("{name:<48} (no measurement: closure never called iter)");
    } else {
        println!(
            "{name:<48} {:>12}/iter  ({} iters)",
            human_time(b.ns_per_iter),
            b.iters
        );
    }
}

/// Names a parameterized benchmark within a group.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds an id from the parameter's display form.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

/// The top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, &mut f);
        self
    }

    /// Opens a named group; member benchmarks print as `group/name`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(&format!("{}/{}", self.name, name), &mut f);
        self
    }

    /// Runs one parameterized benchmark inside the group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&format!("{}/{}", self.name, id.id), &mut |b| f(b, input));
        self
    }

    /// Ends the group (printing is immediate, so this is a no-op kept for
    /// criterion compatibility).
    pub fn finish(self) {}
}

/// Bundles benchmark functions into one runner, like criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($bench:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $($bench(&mut c);)+
        }
    };
}

/// Emits `main` for a bench binary, like criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher {
            ns_per_iter: f64::NAN,
            iters: 0,
        };
        b.iter(|| black_box(41u64) + 1);
        assert!(b.iters > 0);
        assert!(b.ns_per_iter.is_finite() && b.ns_per_iter > 0.0);
    }

    #[test]
    fn zero_budget_clamped_to_one_ms() {
        assert_eq!(budget_from_ms(Some(0)), Duration::from_millis(1));
        assert_eq!(budget_from_ms(Some(1)), Duration::from_millis(1));
        assert_eq!(budget_from_ms(Some(250)), Duration::from_millis(250));
        assert_eq!(budget_from_ms(None), Duration::from_millis(50));
    }

    #[test]
    fn id_from_parameter_displays() {
        assert_eq!(BenchmarkId::from_parameter("BERT-tiny").id, "BERT-tiny");
        assert_eq!(BenchmarkId::from_parameter(128).id, "128");
    }
}
