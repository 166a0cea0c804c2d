//! Differential suite for the one-pass canonical cell kernel.
//!
//! Every cell is clipped once, from a start box that depends on the site
//! and the domain alone, by candidates in canonical order (distance, then
//! global id, then position). Its bits are therefore a function of the
//! particle set: the merged mesh must be **bit-identical** across rank
//! counts, ghost protocols, pool widths, incremental-vs-full
//! re-tessellation, and kept-incomplete configurations. The unit suite in
//! `tess::cell` pins the kernel itself against the two-pass reference it
//! replaced (discovery, then a canonical re-clip); these tests pin the
//! axes above it. Any divergence is a kernel bug by definition.
//!
//! Pool width is process-global state, so tests that reconfigure it
//! serialize through one mutex and restore the previous width on exit.

use std::collections::BTreeMap;
use std::sync::Mutex;

use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, DecompScheme, Decomposition};
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::rayon::set_max_parallelism;
use meshing_universe::tess::{self, GhostSpec, TessParams};

/// Serializes tests that reconfigure the global pool width.
static POOL_WIDTH: Mutex<()> = Mutex::new(());

/// Run `f` with the pool capped at `width`, restoring the previous cap.
fn with_pool_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let _guard = POOL_WIDTH.lock().unwrap();
    let prev = set_max_parallelism(width);
    let out = f();
    set_max_parallelism(prev);
    out
}

fn jittered(n: usize, seed: u64, amp: f64) -> Vec<(u64, Vec3)> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n * n * n)
        .map(|idx| {
            let (i, j, k) = (idx % n, (idx / n) % n, idx / (n * n));
            let p = Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5)
                + Vec3::new(
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                );
            let ng = n as f64;
            (
                idx as u64,
                Vec3::new(p.x.rem_euclid(ng), p.y.rem_euclid(ng), p.z.rem_euclid(ng)),
            )
        })
        .collect()
}

/// Build the decomposition under the `TESS_DECOMP` scheme (regular unless
/// the CI kd pass overrides it): the bit-identity suite must hold on both
/// block geometries.
fn decomp(side: f64, periodic: bool, particles: &[(u64, Vec3)]) -> Decomposition {
    let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
    DecompScheme::from_env().build(Aabb::cube(side), 8, [periodic; 3], &positions)
}

fn partition(
    particles: &[(u64, Vec3)],
    dec: &Decomposition,
    asn: &Assignment,
    rank: usize,
) -> BTreeMap<u64, Vec<(u64, Vec3)>> {
    let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> =
        asn.blocks_of_rank(rank).map(|g| (g, Vec::new())).collect();
    for &(id, p) in particles {
        let gid = dec.block_of_point(p);
        if let Some(v) = local.get_mut(&gid) {
            v.push((id, p));
        }
    }
    local
}

/// Bit-level fingerprint of one cell: volume and area as raw f64 bits plus
/// the face-neighbor ids in face order.
type CellBits = (u64, u64, Vec<u64>);

/// Tessellate on `nranks` ranks; merge every cell keyed by site id and
/// return the globally reduced stats alongside.
fn mesh_and_stats(
    particles: &[(u64, Vec3)],
    dec: &Decomposition,
    nranks: usize,
    params: &TessParams,
) -> (BTreeMap<u64, CellBits>, tess::TessStats) {
    let collected = Runtime::run(nranks, move |world| {
        let asn = Assignment::new(dec.nblocks(), world.nranks());
        let local = partition(particles, dec, &asn, world.rank());
        let r = tess::tessellate(world, dec, &asn, &local, params);
        let stats = tess::driver::global_stats(world, r.stats);
        let cells = r
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
                                c.faces.iter().map(|f| f.neighbor).collect::<Vec<u64>>(),
                            ),
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>();
        (cells, stats)
    });
    let stats = collected[0].1;
    let mut merged = BTreeMap::new();
    for (id, bits) in collected.into_iter().flat_map(|(cells, _)| cells) {
        let prev = merged.insert(id, bits);
        assert!(prev.is_none(), "cell {id} produced by two blocks");
    }
    (merged, stats)
}

fn mesh_bits(
    particles: &[(u64, Vec3)],
    dec: &Decomposition,
    nranks: usize,
    params: &TessParams,
) -> BTreeMap<u64, CellBits> {
    mesh_and_stats(particles, dec, nranks, params).0
}

fn ghost_modes() -> [(&'static str, GhostSpec); 2] {
    [
        ("explicit", GhostSpec::Explicit(2.5)),
        ("adaptive", GhostSpec::adaptive()),
    ]
}

#[test]
fn kernels_agree_bit_for_bit_at_every_rank_count_and_ghost_mode() {
    // Certified cells are canonical, so neither the rank count nor the
    // ghost protocol that certified them can show in their bits.
    let n = 6;
    let particles = jittered(n, 41, 0.45);
    let dec = decomp(n as f64, true, &particles);
    with_pool_width(2, || {
        let mut reference = None;
        for (label, ghost) in ghost_modes() {
            let params = TessParams {
                ghost,
                ..TessParams::default()
            };
            let reference =
                reference.get_or_insert_with(|| mesh_bits(&particles, &dec, 1, &params));
            assert_eq!(reference.len(), n * n * n, "{label}: all cells certified");
            for nranks in [1usize, 2, 4, 8] {
                let m = mesh_bits(&particles, &dec, nranks, &params);
                assert_eq!(
                    &m, reference,
                    "{label}: mesh at {nranks} ranks differs from the 1-rank explicit reference"
                );
            }
        }
    });
}

#[test]
fn kernels_agree_across_pool_widths() {
    let n = 6;
    let particles = jittered(n, 43, 0.48);
    let dec = decomp(n as f64, true, &particles);
    let params = TessParams {
        ghost: GhostSpec::adaptive(),
        ..TessParams::default()
    };
    let reference = with_pool_width(1, || mesh_bits(&particles, &dec, 2, &params));
    for width in [2usize, 8] {
        let m = with_pool_width(width, || mesh_bits(&particles, &dec, 2, &params));
        assert_eq!(
            m, reference,
            "mesh at pool width {width} differs from the width-1 reference"
        );
    }
}

#[test]
fn kernels_agree_for_incremental_and_full_retessellation() {
    let n = 6;
    let particles = jittered(n, 47, 0.48);
    let dec = decomp(n as f64, true, &particles);
    // a small initial radius forces several adaptive growth rounds — the
    // regime where incremental reuse and the kernel interact
    let ghost = GhostSpec::Adaptive {
        initial_factor: 0.75,
        max_rounds: 8,
    };
    with_pool_width(2, || {
        let mut reference = None;
        for incremental in [false, true] {
            let params = TessParams {
                ghost,
                incremental_retess: incremental,
                ..TessParams::default()
            };
            let (mesh, stats) = mesh_and_stats(&particles, &dec, 4, &params);
            assert!(stats.ghost_rounds >= 2, "need a multi-round run");
            let reference = reference.get_or_insert(mesh.clone());
            assert_eq!(&mesh, reference, "incremental={incremental} diverged");
        }
    });
}

#[test]
fn kernels_agree_when_incomplete_cells_are_kept() {
    // keep_incomplete publishes cells that never certified; their bits
    // come from the kernel's region fallback, which is canonical too, so
    // rank count and pool width must not show. A non-periodic domain plus
    // a too-small explicit ghost makes boundary cells genuinely incomplete.
    let n = 5;
    let particles = jittered(n, 53, 0.4);
    let dec = decomp(n as f64, false, &particles);
    let params = TessParams {
        ghost: GhostSpec::Explicit(1.0),
        keep_incomplete: true,
        ..TessParams::default()
    };
    let (reference, stats) = with_pool_width(1, || mesh_and_stats(&particles, &dec, 1, &params));
    assert_eq!(
        reference.len(),
        n * n * n,
        "kept-incomplete publishes all cells"
    );
    assert!(stats.incomplete_kept > 0, "need kept-incomplete cells");
    assert!(
        stats.region_fallbacks >= stats.incomplete_kept,
        "kept-incomplete cells come from the region fallback"
    );
    for (width, nranks) in [(2usize, 2usize), (8, 4)] {
        let m = with_pool_width(width, || mesh_bits(&particles, &dec, nranks, &params));
        assert_eq!(
            m, reference,
            "kept-incomplete mesh diverged at {nranks} ranks, pool width {width}"
        );
    }
}

/// Halo-like clustered set: dense Gaussian clumps plus a sparse uniform
/// background inside `[0, side)^3`, drawn from the shared seeded generator
/// in `bench_harness::corpus` (same corpora as the benches).
use bench_harness::corpus::clustered;

/// Candidates the two-pass kernel (streamed discovery, then a canonical
/// re-clip of the whole security ball) clipped on the workload of
/// [`stream_kernel_does_less_work_for_the_same_mesh`], recorded from that
/// kernel on the regular decomposition.
const TWO_PASS_CANDIDATES: u64 = 309_267;

#[test]
fn stream_kernel_does_less_work_for_the_same_mesh() {
    // Clustered multi-round adaptive run: rounds after the first recompute
    // mostly boundary and void cells, where the two-pass kernel paid for
    // discovery and re-clip alike. The one-pass kernel clips each cell
    // once, so its deterministic candidate count must come in below the
    // two-pass count for the identical mesh. The decomposition is pinned
    // to the regular scheme the constant was recorded on.
    let side = 12.0;
    let particles = clustered(side, 30, 30, 60, 59);
    let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
    let dec = DecompScheme::Regular.build(Aabb::cube(side), 8, [true; 3], &positions);
    let params = TessParams {
        ghost: GhostSpec::Adaptive {
            initial_factor: 0.5,
            max_rounds: 8,
        },
        ..TessParams::default()
    };
    with_pool_width(2, || {
        let (mesh, stats) = mesh_and_stats(&particles, &dec, 4, &params);
        let full = TessParams {
            incremental_retess: false,
            ..params
        };
        assert_eq!(mesh, mesh_bits(&particles, &dec, 1, &full));
        assert_eq!(stats.cells, 960);
        assert_eq!(stats.cells_computed, 2673, "adaptive schedule moved");
        assert_eq!(stats.ghosts_received, 16808, "adaptive schedule moved");
        assert!(
            stats.candidates_tested < TWO_PASS_CANDIDATES,
            "one-pass kernel clipped {} candidates vs {TWO_PASS_CANDIDATES} for two passes",
            stats.candidates_tested,
        );
        assert!(stats.prefilter_skipped > 0, "prefilter never fired");
    });
}
