//! The repository's benchmark: particles → certified mesh, and mesh
//! queries, on three workloads. See README.md beside this crate.
//!
//! ```text
//! perfbench --workload <uniform_serial|hacc_insitu|service_mixed> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that reports the per-layer metrics. Both check the program's output
//! and exit non-zero when a check fails. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod batch;
mod corpus;
mod latency;
mod mesh_check;
mod report;
mod service;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{json_str, result_line, Host, Metrics};

/// End-to-end metrics: every workload reports every one (README.md says
/// what each means on each workload), and `BENCHMARK.json` bounds each.
const END_TO_END: &[(&str, &str)] = &[
    ("cells_per_s", "cells/s"),
    ("peak_heap_mb", "MB"),
    ("bytes_per_particle", "B"),
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("sustained_rps", "1/s"),
    ("update_s", "s"),
];

/// End-to-end values printed beside the metrics but kept out of the result
/// line: too unsteady from run to run on a small shared host to bound (see
/// README.md).
const UNBOUNDED: &[(&str, &str)] = &[("query_p99_ms", "ms")];

/// Per-layer metrics, named by module. A layer a workload does not
/// exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("block.s", "s"),
    ("block.us_per_cell", "us"),
    ("block.candidates_per_cell", "count"),
    ("block.prefilter_skip_frac", "fraction"),
    ("block.reuse_frac", "fraction"),
    ("block.verts_per_cell", "count"),
    ("block.faces_per_cell", "count"),
    ("ghost.s", "s"),
    ("ghost.bytes_per_particle", "B"),
    ("ghost.per_site", "count"),
    ("ghost.rounds", "count"),
    ("diy.rank_imbalance", "ratio"),
    ("diy.wait_s", "s"),
    ("diy.parallel_eff", "fraction"),
    ("io.s", "s"),
    ("io.mb_per_s", "MB/s"),
    ("io.payload_bytes", "B"),
    ("service.answer_us.point", "us"),
    ("service.answer_us.box", "us"),
    ("service.answer_us.region", "us"),
    ("service.internal_p99_ms", "ms"),
    ("service.gen_lateness_ms", "ms"),
    ("service.batch_mean", "count"),
    ("service.coalesce_frac", "fraction"),
    ("service.queue_depth_p50", "count"),
    ("service.update_tess_s", "s"),
    ("service.snapshot_build_s", "s"),
    ("hacc.step_s", "s"),
    ("trace.tiling_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Workload names, in the order BENCHMARK.json lists them.
const WORKLOADS: &[&str] = &["uniform_serial", "hacc_insitu", "service_mixed"];

/// One invocation's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory for mesh files, removed when the run ends.
    pub tmp: PathBuf,
}

/// Work attempted, work failed, and the messages of failed checks.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn error(&mut self, e: String) {
        self.errors.push(e);
    }
}

/// Measured values by metric name, plus run facts printed for
/// information.
#[derive(Default)]
pub struct Values {
    map: BTreeMap<&'static str, f64>,
    facts: Vec<(&'static str, f64)>,
    /// Mesh fingerprint, printed for information only: a kernel change may
    /// legitimately change mesh bits.
    pub fingerprint: u64,
}

impl Values {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.map.insert(name, v);
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.map.get(name).copied().unwrap_or(0.0)
    }

    pub fn info(&mut self, name: &'static str, v: f64) {
        self.facts.push((name, v));
    }

    /// Set every value the samples carry to its median over them.
    pub fn merge_median(&mut self, samples: &[Values]) {
        let names: std::collections::BTreeSet<&'static str> =
            samples.iter().flat_map(|s| s.map.keys().copied()).collect();
        for name in names {
            let xs: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.map.get(name).copied())
                .collect();
            self.set(name, latency::median(&xs));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds > 0 is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The default code path is what gets measured: any `TESS_*` variable
/// (kernel, decomposition, threads, tracing, telemetry, log format) would
/// select another one.
fn hermetic_check() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TESS_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unset {set:?}: the benchmark measures the default path"
        ))
    }
}

/// Threads of a workload: CPU-bound ones must fit in `nproc`.
struct Threads {
    ranks: usize,
    pool_width: usize,
    service_workers: usize,
    /// Load threads: the fixed-rate phase's submitter and collector, which
    /// sleep or block between requests; the capacity phase's one client
    /// runs alone, while the resident rank is idle.
    load_threads: usize,
}

impl Threads {
    fn of(workload: &str) -> Threads {
        match workload {
            "uniform_serial" => Threads {
                ranks: batch::UNIFORM_SERIAL.nranks,
                pool_width: 1,
                service_workers: 0,
                load_threads: 0,
            },
            "hacc_insitu" => Threads {
                ranks: batch::HACC_INSITU.nranks,
                pool_width: 1,
                service_workers: 0,
                load_threads: 0,
            },
            _ => Threads {
                ranks: service::NRANKS,
                pool_width: 1,
                service_workers: service::WORKERS,
                load_threads: 2,
            },
        }
    }

    /// Threads that can be busy at the same time: rank threads with their
    /// pool helpers, plus the query workers. The load threads are not
    /// counted: the fixed-rate ones wait on the clock or on replies, and
    /// the capacity client takes the core of the rank, which has no update
    /// to run then.
    fn busy(&self) -> usize {
        self.ranks * self.pool_width + self.service_workers
    }
}

/// Removes the scratch directory however the run ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if no other run uses it
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| hermetic_check().map(|_| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let threads = Threads::of(&args.workload);
    if threads.busy() > host.nproc {
        eprintln!(
            "perfbench: {} needs {} busy threads but nproc is {}",
            args.workload,
            threads.busy(),
            host.nproc
        );
        return ExitCode::from(2);
    }
    rayon::set_max_parallelism(threads.pool_width);

    let tmp = TmpDir(PathBuf::from(".perfbench_tmp").join(std::process::id().to_string()));
    if let Err(e) = std::fs::create_dir_all(&tmp.0) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.0.display());
        return ExitCode::from(2);
    }
    let run = Run {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        tmp: tmp.0.clone(),
    };
    let (values, outcome) = match args.workload.as_str() {
        "uniform_serial" => batch::run(&batch::UNIFORM_SERIAL, &run),
        "hacc_insitu" => batch::run(&batch::HACC_INSITU, &run),
        _ => service::run(&run),
    };
    drop(tmp);

    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Metrics::default();
    for &(name, unit) in list {
        metrics.put(name, values.get(name), unit);
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let unbounded = if args.trace { &[][..] } else { UNBOUNDED };
    for m in &metrics.0 {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for &(name, unit) in unbounded {
        println!(
            "{:<28} {:>16.6} {unit} (not bounded)",
            name,
            values.get(name)
        );
    }
    println!("{:<28} {:>16.6} fraction", "failed_frac", failed_frac);
    let facts: Vec<String> = values
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"ranks\": {}, \"pool_width\": {}, \"service_workers\": {}, \"load_threads\": {}, \
         \"cpu\": {}, \"llc\": {}, \"git_sha\": {}, \"mesh_fingerprint\": \"{:016x}\", {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        host.nproc,
        threads.ranks,
        threads.pool_width,
        threads.service_workers,
        threads.load_threads,
        json_str(&host.cpu_model),
        json_str(&host.llc),
        json_str(&host.git_sha),
        values.fingerprint,
        facts.join(", ")
    );
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
