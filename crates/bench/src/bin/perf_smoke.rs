//! CI perf smoke: the small Table II workload in two configurations —
//!
//!   A. sequential, full per-round recompute (seed-equivalent baseline)
//!   B. threaded + incremental (the default production path)
//!
//! Gates, any failure exits non-zero:
//!
//! 1. **Correctness** — both configurations produce a bit-identical
//!    merged mesh and the transport conservation invariant holds.
//! 2. **Kernel work** — B's candidates clipped per computed cell must not
//!    exceed the `candidates_per_cell` committed in
//!    `crates/bench/perf_baseline.json`, and the prefilter must actually
//!    fire. Candidate counts are deterministic, so this gate is exact.
//! 3. **Relative throughput** — B must clear 2× the sequential baseline's
//!    cells/sec.
//! 4. **Absolute regression** — B's cells/sec must stay within 30% of the
//!    committed baseline. Regenerate that file with `PERF_BASELINE_WRITE=1`
//!    after an intentional perf change; the kernel-work gate still runs
//!    against the old file first, so a rewrite can only tighten it.
//!
//! Both measurements land in `BENCH_TESS.json` under the bench output
//! dir and the repo root.

use std::collections::BTreeMap;
use std::time::Instant;

use bench_harness::{
    corpus::ClusterSpec, evolved_particles_cached, partition_particles, print_report_hists,
    run_decomp_ab, write_bench_tess_json, DecompAbArm, TessBenchEntry,
};
use diy::comm::Runtime;
use diy::decomposition::{Assignment, BalanceStats, DecompScheme};
use diy::metrics::collect_report;
use geometry::Aabb;
use rayon::set_max_parallelism;
use tess::ghost::is_ghost_tag;
use tess::{tessellate, GhostSpec, TessParams};

const NP: usize = 16;
const NSTEPS: usize = 100;
const NBLOCKS: usize = 8;
const NRANKS: usize = 4;
/// Small initial radius so the adaptive loop needs several growth rounds —
/// the regime the incremental path optimizes.
const GHOST: GhostSpec = GhostSpec::Adaptive {
    initial_factor: 0.5,
    max_rounds: 8,
};
/// Best-of-N wall-clock to damp scheduler noise on a busy CI box.
const REPS: usize = 3;

/// Cell fingerprint: (volume bits, area bits, face neighbors).
type CellBits = (u64, u64, Vec<u64>);

struct ModeRun {
    mesh: BTreeMap<u64, CellBits>,
    stats: tess::TessStats,
    ghost_bytes: u64,
    wall_s: f64,
    report: diy::metrics::RunReport,
}

fn run_mode(particles: &[(u64, geometry::Vec3)], dec: &Decomp, incremental: bool) -> ModeRun {
    let mut best: Option<ModeRun> = None;
    for _ in 0..REPS {
        let rows = Runtime::run(NRANKS, move |world| {
            let asn = diy::decomposition::Assignment::new(NBLOCKS, world.nranks());
            let local = partition_particles(particles, dec, &asn, world.rank());
            let params = TessParams {
                ghost: GHOST,
                incremental_retess: incremental,
                ..TessParams::default()
            };
            let t0 = Instant::now();
            let r = tessellate(world, dec, &asn, &local, &params);
            let wall = world.all_reduce(t0.elapsed().as_secs_f64(), f64::max);
            // Exercise the output phase (outside the timed window) so the
            // per-phase breakdown in BENCH_TESS.json has a real output_s.
            let out_path = bench_harness::output_dir().join("perf_smoke_mesh.bin");
            tess::io::write_tessellation(world, &out_path, &r.blocks).expect("write mesh");
            let stats = tess::driver::global_stats(world, r.stats);
            let report = collect_report(world);
            assert!(report.is_conserved(), "transport conservation violated");
            let (_, ghost_bytes) = report.tag_traffic_where(is_ghost_tag);
            let mesh: Vec<(u64, CellBits)> = r
                .blocks
                .values()
                .flat_map(|b| {
                    b.cells
                        .iter()
                        .map(|c| {
                            (
                                b.site_id_of(c),
                                (
                                    c.volume.to_bits(),
                                    c.area.to_bits(),
                                    c.faces.iter().map(|f| f.neighbor).collect(),
                                ),
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            (mesh, stats, ghost_bytes, wall, report)
        });
        let mut mesh = BTreeMap::new();
        for (id, bits) in rows.iter().flat_map(|(m, ..)| m.iter().cloned()) {
            assert!(mesh.insert(id, bits).is_none(), "cell {id} duplicated");
        }
        let (_, stats, ghost_bytes, wall, report) = rows.into_iter().next().unwrap();
        if best.as_ref().is_none_or(|b| wall < b.wall_s) {
            best = Some(ModeRun {
                mesh,
                stats,
                ghost_bytes,
                wall_s: wall,
                report,
            });
        }
    }
    best.unwrap()
}

type Decomp = diy::decomposition::Decomposition;

const AB_RANKS: usize = 8;

/// Extract `"key": <number>` from a flat JSON document (the baseline file
/// is written by this binary, so the shape is known).
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat)? + pat.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn cand_per_cell(r: &ModeRun) -> f64 {
    r.stats.candidates_tested as f64 / r.stats.cells_computed.max(1) as f64
}

fn main() {
    let particles = evolved_particles_cached(NP, NSTEPS);
    let dec = Decomp::regular(Aabb::cube(NP as f64), NBLOCKS, [true; 3]);
    let main_imb = {
        let positions: Vec<geometry::Vec3> = particles.iter().map(|&(_, p)| p).collect();
        BalanceStats::measure(&dec, &Assignment::new(NBLOCKS, NRANKS), &positions).rank_imbalance()
    };

    // The committed baseline gates both the exact kernel work and the
    // wall-clock regression below.
    let baseline_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("perf_baseline.json");
    let committed_doc = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", baseline_path.display()));
    let committed =
        |key: &str| json_number(&committed_doc, key).unwrap_or_else(|| panic!("{key} in baseline"));

    // A: seed-equivalent baseline — 1-wide pool, full recompute.
    let prev = set_max_parallelism(1);
    let baseline = run_mode(&particles, &dec, false);
    // B: the production path at the CI thread count (TESS_THREADS,
    // default 4) on the identical workload.
    let threads = std::env::var("TESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4usize);
    set_max_parallelism(threads.max(2));
    let fast = run_mode(&particles, &dec, true);
    set_max_parallelism(prev);

    // Gate 1: bit-identical meshes across pool width and incremental reuse.
    assert_eq!(
        fast.mesh, baseline.mesh,
        "threaded incremental mesh differs from the sequential full-recompute baseline"
    );
    assert_eq!(fast.stats.cells, baseline.stats.cells);
    assert!(
        fast.stats.cells_reused > 0,
        "incremental mode reused nothing — not exercising the resume path"
    );

    // Gate 2: kernel work. Deterministic counters, no timing noise.
    let cand = cand_per_cell(&fast);
    let committed_cand = committed("candidates_per_cell");
    assert!(
        cand <= committed_cand,
        "kernel clipped {cand:.1} candidates/cell vs {committed_cand:.1} committed"
    );
    assert!(fast.stats.prefilter_skipped > 0, "prefilter never fired");

    let cps = |r: &ModeRun| r.stats.cells as f64 / r.wall_s;
    let (base_cps, fast_cps) = (cps(&baseline), cps(&fast));
    let speedup = fast_cps / base_cps;
    println!(
        "perf_smoke: baseline {base_cps:.0} cells/s ({} computed), threaded incremental {fast_cps:.0} cells/s ({} computed, {} reused), speedup {speedup:.2}x over {} rounds",
        baseline.stats.cells_computed,
        fast.stats.cells_computed,
        fast.stats.cells_reused,
        fast.stats.ghost_rounds,
    );
    println!(
        "perf_smoke: candidates/cell {cand:.1} (committed {committed_cand:.1}), {} prefilter-skipped, {} region fallbacks",
        fast.stats.prefilter_skipped, fast.stats.region_fallbacks,
    );

    // Per-phase thread-CPU seconds (max across ranks) from the RunReport
    // spans; the gate below keeps them from silently regressing to 0.0.
    let entry = |label: &str, r: &ModeRun| {
        let e = TessBenchEntry {
            label: label.into(),
            stats: r.stats,
            wall_s: r.wall_s,
            ghost_bytes: r.ghost_bytes,
            exchange_s: r.report.cpu_max(tess::driver::PHASE_GHOST_EXCHANGE),
            voronoi_s: r.report.cpu_max(tess::driver::PHASE_VORONOI),
            output_s: r.report.cpu_max(tess::driver::PHASE_OUTPUT),
            decomp: "regular".into(),
            imbalance: main_imb,
        };
        assert!(
            e.exchange_s > 0.0 && e.voronoi_s > 0.0 && e.output_s > 0.0,
            "{label}: per-phase seconds must be non-zero (exchange {:.6}, voronoi {:.6}, output {:.6})",
            e.exchange_s,
            e.voronoi_s,
            e.output_s
        );
        e
    };
    let mut entries = vec![
        entry("perf_smoke_baseline_seq_full", &baseline),
        entry(&format!("perf_smoke_threads{threads}_incremental"), &fast),
    ];

    // ---- Clustered-corpus decomposition A/B: the headline k-d gate ----
    // A corner-heavy halo corpus makes the regular grid pathological (one
    // octant owns most of the mass, so the slowest rank sets the wall
    // clock) while the particle-balanced k-d scheme spreads the same work
    // evenly. Ranks are threads sharing cores here, so the A/B gates on
    // the modeled parallel wall clock (see AbRun::modeled_s) with the
    // cell-kernel pool pinned to one thread so per-rank thread-CPU
    // attribution is exact. Both schemes must publish the bit-identical
    // merged mesh — decomposition is a perf axis AND a correctness oracle.
    let spec = ClusterSpec::corner_heavy(16.0, 24, 40, 42);
    let corpus = spec.generate();
    let prev = set_max_parallelism(1);
    let reg = run_decomp_ab(&corpus, spec.side, AB_RANKS, DecompScheme::Regular, REPS);
    let kd = run_decomp_ab(
        &corpus,
        spec.side,
        AB_RANKS,
        DecompScheme::Kd {
            sample: DecompScheme::DEFAULT_KD_SAMPLE,
        },
        REPS,
    );
    set_max_parallelism(prev);
    println!(
        "perf_smoke: clustered A/B cells regular {} (incomplete {}, rounds {}, imbalance {:.2}), kd {} (incomplete {}, rounds {}, imbalance {:.2})",
        reg.stats.cells,
        reg.stats.incomplete,
        reg.stats.ghost_rounds,
        reg.imbalance,
        kd.stats.cells,
        kd.stats.incomplete,
        kd.stats.ghost_rounds,
        kd.imbalance,
    );
    assert_eq!(reg.stats.incomplete, 0, "regular arm dropped cells");
    assert_eq!(kd.stats.incomplete, 0, "kd arm dropped cells");
    assert_eq!(
        kd.mesh, reg.mesh,
        "clustered mesh differs between decomposition schemes"
    );
    let (reg_cps, kd_cps) = (reg.cells_per_sec(), kd.cells_per_sec());
    let kd_speedup = kd_cps / reg_cps;
    println!(
        "perf_smoke: clustered A/B at {AB_RANKS} ranks ({} particles): regular {:.0} cells/s (imbalance {:.2}), kd {:.0} cells/s (imbalance {:.2}), kd speedup {kd_speedup:.2}x (modeled parallel wall)",
        corpus.len(),
        reg_cps,
        reg.imbalance,
        kd_cps,
        kd.imbalance,
    );
    assert!(
        reg.imbalance >= 3.0,
        "clustered corpus is not adversarial enough: regular imbalance {:.2} (need >=3x)",
        reg.imbalance
    );
    assert!(
        kd.imbalance <= 1.25,
        "kd decomposition left imbalance {:.2} (need <=1.25x)",
        kd.imbalance
    );
    assert!(
        kd_speedup >= 1.4,
        "kd is only {kd_speedup:.2}x regular on the clustered corpus (need 1.4x)"
    );
    let ab_entry = |label: &str, r: &DecompAbArm, decomp: &str| TessBenchEntry {
        label: label.into(),
        stats: r.stats,
        wall_s: r.modeled_s,
        ghost_bytes: r.ghost_bytes,
        exchange_s: r.exchange_s,
        voronoi_s: r.voronoi_s,
        output_s: 0.0,
        decomp: decomp.into(),
        imbalance: r.imbalance,
    };
    entries.push(ab_entry(
        &format!("perf_smoke_clustered_r{AB_RANKS}_regular"),
        &reg,
        "regular",
    ));
    entries.push(ab_entry(
        &format!("perf_smoke_clustered_r{AB_RANKS}_kd"),
        &kd,
        "kd",
    ));

    for path in write_bench_tess_json(&entries) {
        println!("perf_smoke: wrote {}", path.display());
    }

    // Distribution sparklines from the production run's merged report.
    println!("perf_smoke: distributions (threaded incremental run):");
    print_report_hists(&fast.report);

    // Gate 3: relative throughput.
    assert!(
        speedup >= 2.0,
        "threaded incremental path is only {speedup:.2}x the sequential full-recompute baseline (need 2x)"
    );

    // Gate 4: absolute regression against the committed baseline.
    if std::env::var("PERF_BASELINE_WRITE").is_ok() {
        // Round candidates/cell up so the exact gate holds on the rewrite.
        let cand_ceil = (cand * 10.0).ceil() / 10.0;
        let doc = format!(
            "{{\n  \"config\": \"np{NP} steps{NSTEPS} blocks{NBLOCKS} ranks{NRANKS} adaptive0.5\",\n  \"cells_per_sec\": {fast_cps:.1},\n  \"candidates_per_cell\": {cand_ceil:.1},\n  \"speedup_vs_seq_full\": {speedup:.2}\n}}\n"
        );
        std::fs::write(&baseline_path, doc).expect("write perf_baseline.json");
        println!(
            "perf_smoke: baseline rewritten at {}",
            baseline_path.display()
        );
        return;
    }
    let committed_cps = committed("cells_per_sec");
    assert!(
        fast_cps >= 0.7 * committed_cps,
        "cells/sec regressed >30%: {fast_cps:.0} now vs {committed_cps:.0} committed \
         (rerun with PERF_BASELINE_WRITE=1 if intentional)"
    );
    println!("perf_smoke: {fast_cps:.0} cells/s vs committed {committed_cps:.0} — OK");

    // Ledger row for bench_trend's cross-run regression gate (label and
    // metric names kept from the two-kernel era so the trajectory stays
    // one series).
    let row = bench_harness::history::HistoryRow::now(
        "perf_smoke",
        &format!("np{NP}_steps{NSTEPS}_r{NRANKS}_stream"),
        vec![
            ("stream_cells_per_sec".into(), fast_cps),
            ("candidates_per_cell".into(), cand),
            ("speedup_vs_seq_full".into(), speedup),
        ],
    );
    let ledger = bench_harness::history::history_path();
    bench_harness::history::append_history_row(&ledger, &row)
        .unwrap_or_else(|e| panic!("perf_smoke: {e}"));
    println!("perf_smoke: history row appended to {}", ledger.display());
}
