//! The batch workloads: particles in, certified mesh out.
//!
//! The timed run calls one public entry point (`tessellate_serial` or
//! `tessellate_streaming`) and nothing else. The traced run replays the
//! default single-round path of `tess::driver` from here — `resolve_ghost`,
//! `exchange_ghosts`, then per wave `tessellate_block_session` and
//! `TessStreamWriter::write_wave` — with a span around every call, and
//! proves that the replay did the same work by comparing its output with
//! the timed run's byte for byte.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use diy::codec::Encode;
use diy::comm::Runtime;
use diy::decomposition::{Assignment, Decomposition};
use diy::timing::thread_cpu_time;
use geometry::{Aabb, Vec3};
use tess::block::tessellate_block_session;
use tess::driver::resolve_ghost;
use tess::ghost::exchange_ghosts;
use tess::io::read_tessellation;
use tess::{
    tessellate_serial, tessellate_streaming, MeshBlock, TessParams, TessStats, TessStreamWriter,
};

use crate::corpus::{hacc_corpus, uniform_points};
use crate::latency::{median, summarize};
use crate::mesh_check::{check_mesh, fnv1a, FNV_OFFSET};
use crate::{Outcome, Run, Values};

/// Bytes of one shipped ghost particle: a `u64` id and three `f64`
/// coordinates (computed from the record layout, not measured).
const GHOST_RECORD_BYTES: f64 = 32.0;
/// Replay tiling below this share of the replay's wall time fails the
/// run: the layer numbers would not explain the end-to-end time.
const MIN_TILING: f64 = 0.95;

/// One batch workload.
pub struct BatchSpec {
    pub nranks: usize,
    pub nblocks: usize,
    /// `false`: uniform random points, kept in memory by
    /// `tessellate_serial`. `true`: the evolved HACC corpus, streamed to a
    /// file by `tessellate_streaming`.
    pub insitu: bool,
    /// Set-up spans timed per run; `setup_s` is their median.
    pub setup_spans: usize,
    /// Corpus generations in one span; a span's time is divided by it, so
    /// a generation of a few milliseconds is timed over a longer span.
    pub setup_per_span: usize,
}

pub const UNIFORM_SERIAL: BatchSpec = BatchSpec {
    nranks: 1,
    nblocks: 1,
    insitu: false,
    setup_spans: 21,
    setup_per_span: 40,
};

pub const HACC_INSITU: BatchSpec = BatchSpec {
    nranks: 2,
    nblocks: 8,
    insitu: true,
    setup_spans: 3,
    setup_per_span: 1,
};

/// Uniform workload: 32^3 points at unit density.
const UNIFORM_SIDE: usize = 32;
/// HACC workload: 32^3 particles evolved the paper's 100 PM steps.
const HACC_NP: usize = 32;
const HACC_STEPS: usize = 100;

/// Generated particles plus everything the program is handed with them.
struct Input {
    particles: Vec<(u64, Vec3)>,
    domain: Aabb,
    dec: Decomposition,
    asn: Assignment,
    /// Particles of each rank's blocks, indexed by rank.
    locals: Vec<BTreeMap<u64, Vec<(u64, Vec3)>>>,
    step_s: f64,
}

fn generate(spec: &BatchSpec, seed: u64) -> Input {
    let (particles, side, step_s) = if spec.insitu {
        let c = hacc_corpus(HACC_NP, HACC_STEPS, seed);
        (c.particles, c.box_size, c.step_s)
    } else {
        let side = UNIFORM_SIDE as f64;
        (uniform_points(UNIFORM_SIDE.pow(3), side, seed), side, 0.0)
    };
    let domain = Aabb::cube(side);
    // `tessellate_serial` builds exactly this one-block decomposition.
    let dec = if spec.nblocks == 1 {
        Decomposition::with_dims(domain, [1, 1, 1], [true; 3])
    } else {
        Decomposition::regular(domain, spec.nblocks, [true; 3])
    };
    let asn = Assignment::new(spec.nblocks, spec.nranks);
    let locals = (0..spec.nranks)
        .map(|rank| {
            let per_block = particles.len() / spec.nblocks;
            let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
                .blocks_of_rank(rank)
                .map(|g| (g, Vec::with_capacity(per_block)))
                .collect();
            for &(id, p) in &particles {
                if let Some(v) = local.get_mut(&dec.block_of_point(p)) {
                    v.push((id, p));
                }
            }
            local
        })
        .collect();
    Input {
        particles,
        domain,
        dec,
        asn,
        locals,
        step_s,
    }
}

/// Generate the input `setup_per_span` times in each of `setup_spans`
/// spans; `setup_s` is the median span time per generation.
fn setup(spec: &BatchSpec, seed: u64) -> (Input, f64) {
    let mut times = Vec::new();
    let mut input = None;
    for _ in 0..spec.setup_spans {
        let t = Instant::now();
        for _ in 0..spec.setup_per_span {
            // free the previous input first, so every generation starts
            // from the same heap state
            drop(input.take());
            input = Some(std::hint::black_box(generate(spec, seed)));
        }
        times.push(t.elapsed().as_secs_f64() / spec.setup_per_span as f64);
    }
    (input.expect("at least one set-up"), median(&times))
}

/// What one untraced particles → mesh call produced.
struct Call {
    wall_s: f64,
    peak_bytes: u64,
    stats: TessStats,
    /// Mesh bytes: the file for the in-situ workload, the encoded block
    /// for the in-memory one.
    mesh_bytes: Vec<u8>,
    /// The mesh read back (from the file, or the kept block).
    blocks: Vec<MeshBlock>,
}

fn timed_call(spec: &BatchSpec, input: &Input, params: &TessParams, mesh_path: &Path) -> Call {
    diy::mem::reset_peak();
    let t = Instant::now();
    if !spec.insitu {
        let (block, stats) = tessellate_serial(&input.particles, input.domain, [true; 3], params);
        let wall_s = t.elapsed().as_secs_f64();
        let peak_bytes = diy::mem::stats().peak_live_bytes;
        return Call {
            wall_s,
            peak_bytes,
            stats,
            mesh_bytes: block.to_bytes(),
            blocks: vec![block],
        };
    }
    let summaries = Runtime::run(spec.nranks, |world| {
        let local = &input.locals[world.rank()];
        tessellate_streaming(world, &input.dec, &input.asn, local, params, mesh_path)
    });
    let wall_s = t.elapsed().as_secs_f64();
    let peak_bytes = diy::mem::stats().peak_live_bytes;
    let stats = summaries
        .into_iter()
        .map(|s| s.expect("streaming write").stats)
        .fold(TessStats::default(), TessStats::merge);
    let mesh_bytes = std::fs::read(mesh_path).expect("read the mesh file back");
    let blocks = read_tessellation(mesh_path).expect("decode the mesh file");
    Call {
        wall_s,
        peak_bytes,
        stats,
        mesh_bytes,
        blocks,
    }
}

/// Check one call's output; failures become messages in `outcome`.
fn check_call(call: &Call, input: &Input, outcome: &mut Outcome) {
    let n = input.particles.len();
    for e in check_mesh(&call.blocks, n, input.domain.volume()) {
        outcome.error(e);
    }
    outcome.attempted += n as u64;
    outcome.failed += n.saturating_sub(call.stats.cells as usize) as u64;
    if call.stats.sites != n as u64 {
        outcome.error(format!("{} sites for {n} particles", call.stats.sites));
    }
}

pub fn run(spec: &BatchSpec, run: &Run) -> (Values, Outcome) {
    let (input, setup_s) = setup(spec, run.seed);
    let params = TessParams::default();
    let mesh_path = run.tmp.join("mesh.bin");
    let mut outcome = Outcome::default();
    let mut values = Values::default();
    values.info("particles", input.particles.len() as f64);
    values.info("blocks", spec.nblocks as f64);
    values.set("setup_s", setup_s);
    values.set("hacc.step_s", input.step_s);

    let mut first: Option<Call> = None;
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let mut layers: Vec<Values> = Vec::new();
    let mut replay_walls = Vec::new();
    // Calls repeat while the next one still fits in the measured seconds.
    let start = Instant::now();
    let mut last_s = 0.0;
    while first.is_none() || start.elapsed().as_secs_f64() + last_s <= run.seconds.as_secs_f64() {
        let t = Instant::now();
        let call = timed_call(spec, &input, &params, &mesh_path);
        check_call(&call, &input, &mut outcome);
        walls.push(call.wall_s);
        peaks.push(call.peak_bytes as f64);
        if run.trace {
            let replay_path = run.tmp.join("replay.bin");
            let replay = replay(spec, &input, &params, &replay_path);
            if replay.mesh_bytes != call.mesh_bytes {
                outcome.error("the traced replay's mesh differs from the timed run's".into());
            }
            replay_walls.push(replay.wall_s);
            let v = replay.layer_values(&input, &call);
            if v.get("trace.tiling_frac") < MIN_TILING {
                outcome.error(format!(
                    "layer spans tile {:.3} of the replay, below {MIN_TILING}",
                    v.get("trace.tiling_frac")
                ));
            }
            layers.push(v);
        }
        match &first {
            Some(f) if f.mesh_bytes != call.mesh_bytes => {
                outcome.error("two calls on the same input gave different meshes".into())
            }
            Some(_) => {}
            None => first = Some(call),
        }
        last_s = t.elapsed().as_secs_f64();
    }

    let first = first.expect("at least one call");
    let n = input.particles.len() as f64;
    let lat = summarize(&walls, 0.99).expect("at least one call");
    values.info("calls", walls.len() as f64);
    values.info("call_tail_q", lat.tail_q);
    values.fingerprint = fnv1a(&first.mesh_bytes, FNV_OFFSET);
    values.set("cells_per_s", first.stats.cells as f64 / lat.p50);
    values.set("peak_heap_mb", median(&peaks) / 1e6);
    values.set("bytes_per_particle", first.mesh_bytes.len() as f64 / n);
    // One request of a batch user is one whole particles → mesh call.
    values.set("query_p50_ms", lat.p50 * 1e3);
    values.set("query_p99_ms", lat.tail * 1e3);
    values.set("sustained_rps", 1.0 / lat.p50);
    values.set("update_s", lat.p50);
    values.merge_median(&layers);
    if run.trace {
        values.set("trace.overhead_frac", median(&replay_walls) / lat.p50 - 1.0);
    }
    (values, outcome)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Layer {
    Ghost,
    Block,
    Io,
    /// Collectives the replay issues itself: the wave count agreement, and
    /// a barrier before each collective write that holds the time a rank
    /// waits for slower ranks.
    Diy,
}

/// Spans of one rank, in nanoseconds from a shared origin.
struct RankTrace {
    spans: Vec<(Layer, u64, u64)>,
    start_ns: u64,
    end_ns: u64,
    cpu_s: f64,
    blocks: Vec<MeshBlock>,
    payload_bytes: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<(Layer, u64, u64)>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let t0 = self.now();
        let r = f();
        let t1 = self.now();
        self.spans.push((layer, t0, t1));
        r
    }
}

struct Replay {
    ranks: Vec<RankTrace>,
    wall_s: f64,
    mesh_bytes: Vec<u8>,
}

/// Replay the default single-round path of `tess::driver` with a span around each
/// layer call. Mirrors `tessellate` / `tessellate_streaming`: the
/// canonical re-clip extent comes from the domain, and each wave carries
/// at most one block per rank.
fn replay(spec: &BatchSpec, input: &Input, params: &TessParams, path: &Path) -> Replay {
    let e = input.dec.domain.extent();
    let params = TessParams {
        canon_extent: Some(params.canon_extent.unwrap_or(e.x.min(e.y).min(e.z))),
        ..*params
    };
    let (dec, asn) = (&input.dec, &input.asn);
    let origin = Instant::now();
    let ranks = Runtime::run(spec.nranks, |world| {
        let local = &input.locals[world.rank()];
        world.barrier();
        let mut tr = Tracer {
            origin,
            spans: Vec::new(),
        };
        let cpu0 = thread_cpu_time();
        let start_ns = tr.now();
        let (ghost, ghosts) = tr.span(Layer::Ghost, || {
            let ghost = resolve_ghost(world, dec, local, params.ghost);
            (ghost, exchange_ghosts(world, dec, asn, local, ghost))
        });
        let mut writer = spec.insitu.then(|| {
            tr.span(Layer::Io, || TessStreamWriter::create(world, path))
                .expect("create the replay file")
        });
        let gids: Vec<u64> = local.keys().copied().collect();
        let nwaves = if spec.insitu {
            tr.span(Layer::Diy, || {
                world.all_reduce(local.len() as u64, u64::max) as usize
            })
        } else {
            gids.len()
        };
        let mut blocks = Vec::new();
        for wave in 0..nwaves {
            let block = gids.get(wave).map(|&gid| {
                let g = ghosts.get(&gid).map_or(&[][..], Vec::as_slice);
                // the session is dropped inside the span, as `tessellate` drops it
                let block = tr.span(Layer::Block, || {
                    let bounds = dec.block_bounds(gid);
                    tessellate_block_session(gid, bounds, &local[&gid], g, ghost, &params).0
                });
                (gid, block)
            });
            match writer.as_mut() {
                Some(w) => {
                    let wave_blocks: Vec<(u64, &MeshBlock)> =
                        block.iter().map(|(gid, b)| (*gid, b)).collect();
                    // The write is collective: wait for the slowest rank's
                    // block here, so the io span holds only io.
                    tr.span(Layer::Diy, || world.barrier());
                    tr.span(Layer::Io, || w.write_wave(world, &wave_blocks))
                        .expect("write a replay wave");
                }
                None => blocks.extend(block.map(|(_, b)| b)),
            }
        }
        let payload_bytes = match writer {
            Some(w) => {
                tr.span(Layer::Io, || w.finish(world))
                    .expect("finish the replay file")
                    .payload_bytes
            }
            None => 0,
        };
        RankTrace {
            end_ns: tr.now(),
            cpu_s: thread_cpu_time() - cpu0,
            spans: tr.spans,
            start_ns,
            blocks,
            payload_bytes,
        }
    });
    let wall_s = origin.elapsed().as_secs_f64();
    let mesh_bytes = if spec.insitu {
        std::fs::read(path).expect("read the replay file")
    } else {
        ranks[0].blocks[0].to_bytes()
    };
    Replay {
        ranks,
        wall_s,
        mesh_bytes,
    }
}

/// The block- and ghost-layer counters of a tessellation's statistics,
/// for `particles` sites.
pub fn counter_values(s: &TessStats, particles: f64) -> Values {
    let frac = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let mut v = Values::default();
    v.set(
        "block.candidates_per_cell",
        frac(s.candidates_tested, s.cells_computed),
    );
    v.set(
        "block.prefilter_skip_frac",
        frac(
            s.prefilter_skipped,
            s.prefilter_skipped + s.candidates_tested,
        ),
    );
    v.set(
        "block.reuse_frac",
        frac(s.cells_reused, s.cells_reused + s.cells_computed),
    );
    v.set("block.verts_per_cell", frac(s.verts, s.cells));
    v.set("block.faces_per_cell", frac(s.faces, s.cells));
    v.set(
        "ghost.bytes_per_particle",
        s.ghosts_received as f64 * GHOST_RECORD_BYTES / particles,
    );
    v.set("ghost.per_site", s.ghosts_received as f64 / particles);
    v.set("ghost.rounds", s.ghost_rounds as f64);
    v
}

/// Seconds `rank` spent in `layer`.
fn layer_s(rank: &RankTrace, layer: Layer) -> f64 {
    rank.spans
        .iter()
        .filter(|s| s.0 == layer)
        .fold(0.0, |acc, s| acc + (s.2 - s.1) as f64 * 1e-9)
}

impl Replay {
    /// Per-layer values of this replay of `call`. Counters come from the
    /// statistics `tess::driver` returned for the call, times from the replay's spans.
    fn layer_values(&self, input: &Input, call: &Call) -> Values {
        let nranks = self.ranks.len() as f64;
        let n = input.particles.len() as f64;
        let sum = |layer| self.ranks.iter().map(|r| layer_s(r, layer)).sum::<f64>();
        let (block_s, ghost_s, io_s) = (sum(Layer::Block), sum(Layer::Ghost), sum(Layer::Io));
        let wait_s = sum(Layer::Diy) / nranks;
        let max_block = self
            .ranks
            .iter()
            .map(|r| layer_s(r, Layer::Block))
            .fold(0.0, f64::max);
        let first = self.ranks.iter().map(|r| r.start_ns).min().unwrap_or(0);
        let last = self.ranks.iter().map(|r| r.end_ns).max().unwrap_or(0);
        let inner_wall = (last - first) as f64 * 1e-9;
        let covered: f64 = self
            .ranks
            .iter()
            .flat_map(|r| r.spans.iter().map(|s| (s.2 - s.1) as f64 * 1e-9))
            .sum();
        let cpu: f64 = self.ranks.iter().map(|r| r.cpu_s).sum();
        let payload: u64 = self
            .ranks
            .iter()
            .map(|r| r.payload_bytes)
            .max()
            .unwrap_or(0);

        let mut v = counter_values(&call.stats, n);
        v.set("block.s", block_s);
        v.set(
            "block.us_per_cell",
            block_s * 1e6 / call.stats.cells_computed.max(1) as f64,
        );
        v.set("ghost.s", ghost_s);
        v.set(
            "diy.rank_imbalance",
            max_block / (block_s / nranks).max(f64::MIN_POSITIVE),
        );
        v.set("diy.wait_s", wait_s);
        v.set("diy.parallel_eff", cpu / (nranks * inner_wall));
        if payload > 0 {
            v.set("io.s", io_s);
            v.set(
                "io.mb_per_s",
                self.mesh_bytes.len() as f64 / 1e6 / (io_s / nranks),
            );
            v.set("io.payload_bytes", payload as f64);
        }
        v.set("trace.tiling_frac", covered / (nranks * inner_wall));
        v
    }
}
