//! Minimal in-tree stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no access to a crate registry, so this crate
//! implements the subset of the criterion API the workspace's benches
//! (`rule_overhead` and `spectral_methods` in `eproc-bench`) use:
//! [`Criterion::benchmark_group`] with `throughput` / `sample_size` /
//! `bench_function` / `finish`, [`Throughput::Elements`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Timing is a simple median-of-samples measurement printed to stdout —
//! good enough for relative comparisons, with none of criterion's
//! statistics, plotting or history.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// Runs one benchmark's timing loop.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    last_ns_per_iter: f64,
}

impl Bencher {
    /// Times `f`, recording nanoseconds per call (median over samples).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm up and estimate the per-call cost.
        let warmup_start = Instant::now();
        black_box(f());
        let estimate = warmup_start.elapsed().max(Duration::from_nanos(1));
        // Aim each sample at ~20ms, capped to keep total time bounded.
        let per_sample = ((Duration::from_millis(20).as_nanos() / estimate.as_nanos()).max(1)
            as u64)
            .min(10_000);
        let mut times: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..per_sample {
                black_box(f());
            }
            times.push(start.elapsed().as_nanos() as f64 / per_sample as f64);
        }
        times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        self.last_ns_per_iter = times[times.len() / 2];
    }
}

/// The benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            throughput: None,
            sample_size: 10,
        }
    }
}

/// A group of benchmarks sharing throughput/sample settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput used for rate reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl fmt::Display,
        f: F,
    ) -> &mut Self {
        run_one(
            &format!("{}/{}", self.name, id),
            self.sample_size,
            self.throughput,
            f,
        );
        self
    }

    /// Finishes the group (reporting is per-benchmark; this is a no-op).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    label: &str,
    samples: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let mut b = Bencher {
        samples,
        last_ns_per_iter: f64::NAN,
    };
    f(&mut b);
    let ns = b.last_ns_per_iter;
    let rate = match throughput {
        Some(Throughput::Elements(k)) => {
            format!("  {:.1} Melem/s", k as f64 / ns * 1e3)
        }
        None => String::new(),
    };
    if ns.is_nan() {
        println!("{label}: no measurement (Bencher::iter never called)");
    } else {
        println!("{label}: {ns:.0} ns/iter{rate}");
    }
}

/// Bundles benchmark functions into one group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_settings_chain() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(10)).sample_size(3);
        g.bench_function("f/42", |b| b.iter(|| black_box((0..100u64).sum::<u64>())));
        g.finish();
    }
}
