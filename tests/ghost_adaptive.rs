//! Cross-rank invariants of the ghost exchange, fixed and adaptive.
//!
//! The merged tessellation must not depend on how blocks are spread over
//! ranks: ghosts arrive in canonical order (`tess::ghost::sort_ghosts`)
//! and the adaptive round loop takes every decision from collective data,
//! so cells, volumes, areas, and face neighbors are *bit-identical* at 1,
//! 2, 4, and 8 ranks. The adaptive mode must also certify every cell
//! starting from half the auto-heuristic radius while shipping fewer
//! ghost bytes than the one-shot heuristic.

use std::collections::BTreeMap;

use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, DecompScheme, Decomposition};
use meshing_universe::diy::metrics::collect_report;
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::tess::ghost::is_ghost_tag;
use meshing_universe::tess::{self, GhostSpec, TessParams};

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
/// the CI kd pass overrides it) so every invariant here is exercised on
/// both block geometries.
fn decomp(domain: Aabb, particles: &[(u64, Vec3)]) -> Decomposition {
    let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
    DecompScheme::from_env().build(domain, 8, [true; 3], &positions)
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

/// Tessellate on `nranks` ranks and merge every cell keyed by site id.
fn mesh_bits(
    particles: &[(u64, Vec3)],
    dec: &Decomposition,
    nranks: usize,
    params: &TessParams,
) -> BTreeMap<u64, CellBits> {
    let collected = Runtime::run(nranks, move |world| {
        let asn = Assignment::new(dec.nblocks(), world.nranks());
        let local = partition(particles, dec, &asn, world.rank());
        let r = tess::tessellate(world, dec, &asn, &local, params);
        r.blocks
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
            .collect::<Vec<_>>()
    });
    let mut merged = BTreeMap::new();
    for (id, bits) in collected.into_iter().flatten() {
        let prev = merged.insert(id, bits);
        assert!(prev.is_none(), "cell {id} produced by two blocks");
    }
    merged
}

#[test]
fn merged_mesh_is_bit_identical_across_rank_counts() {
    let n = 6;
    let particles = jittered(n, 11, 0.45);
    let domain = Aabb::cube(n as f64);
    let dec = decomp(domain, &particles);
    let modes: [(&str, GhostSpec); 2] = [
        ("explicit", GhostSpec::Explicit(2.5)),
        ("adaptive", GhostSpec::adaptive()),
    ];
    for (label, ghost) in modes {
        let params = TessParams {
            ghost,
            ..TessParams::default()
        };
        let reference = mesh_bits(&particles, &dec, 1, &params);
        assert_eq!(
            reference.len(),
            n * n * n,
            "{label}: every cell certified at 1 rank"
        );
        for nranks in [2usize, 4, 8] {
            let mesh = mesh_bits(&particles, &dec, nranks, &params);
            assert_eq!(
                mesh, reference,
                "{label}: mesh at {nranks} ranks differs from 1 rank"
            );
        }
    }
}

#[test]
fn adaptive_certifies_all_cells_from_half_auto_radius() {
    let n = 6;
    let particles = jittered(n, 29, 0.49);
    let domain = Aabb::cube(n as f64);
    let dec = decomp(domain, &particles);

    let run = |ghost: GhostSpec| {
        let particles = &particles;
        let dec = &dec;
        Runtime::run(4, move |world| {
            let asn = Assignment::new(8, world.nranks());
            let local = partition(particles, dec, &asn, world.rank());
            let params = TessParams {
                ghost,
                ..TessParams::default()
            };
            let r = tess::tessellate(world, dec, &asn, &local, &params);
            let volume: f64 = r
                .blocks
                .values()
                .flat_map(|b| b.cells.iter().map(|c| c.volume))
                .sum();
            let total_volume = world.all_reduce(volume, |a, b| a + b);
            let report = collect_report(world);
            let (_, ghost_bytes) = report.tag_traffic_where(is_ghost_tag);
            (r.stats, total_volume, ghost_bytes)
        })
    };

    // GhostSpec::adaptive() starts at half the auto-heuristic radius.
    let adaptive = run(GhostSpec::adaptive());
    for (rank, (stats, _, _)) in adaptive.iter().enumerate() {
        assert_eq!(stats.incomplete, 0, "rank {rank} left cells uncertified");
    }
    let auto = run(GhostSpec::default());

    let cells = |rows: &[(tess::TessStats, f64, u64)]| -> u64 {
        rows.iter().map(|(s, _, _)| s.cells).sum()
    };
    assert_eq!(cells(&adaptive), cells(&auto), "same mesh size");
    assert_eq!(cells(&adaptive), (n * n * n) as u64);
    let (vol_ad, vol_auto) = (adaptive[0].1, auto[0].1);
    assert!(
        (vol_ad - vol_auto).abs() < 1e-9 * vol_auto,
        "volumes {vol_ad} vs {vol_auto}"
    );
    // the whole point: fewer ghost bytes than the one-shot heuristic
    let (bytes_ad, bytes_auto) = (adaptive[0].2, auto[0].2);
    assert!(
        bytes_ad < bytes_auto,
        "adaptive {bytes_ad} bytes vs auto {bytes_auto}"
    );
    assert!(adaptive[0].0.ghost_rounds >= 1);
}

/// A fixed or auto halo wider than the neighbour reach would certify cells
/// against a region the exchange never filled. Here the auto radius
/// resolves to 6.9–10 on blocks of extent 2, so it must be capped at the
/// block extent; every cell certified under the cap must then equal the
/// single-block reference, and the certified volume cannot exceed the box.
#[test]
fn auto_ghost_is_capped_at_the_neighbour_reach() {
    use rand::{Rng, SeedableRng};
    let side = 8.0;
    let domain = Aabb::cube(side);
    let dec = Decomposition::regular(domain, 64, [true; 3]);
    for seed in 0..4u64 {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let particles: Vec<(u64, Vec3)> = (0..400u64)
            .map(|id| {
                let p = Vec3::new(
                    rng.gen_range(0.0..side),
                    rng.gen_range(0.0..side),
                    rng.gen_range(0.0..side),
                );
                (id, p)
            })
            .collect();
        let reference_params = TessParams::default().with_ghost(5.0);
        let (reference, _) =
            tess::tessellate_serial(&particles, domain, [true; 3], &reference_params);
        let reference: BTreeMap<u64, f64> = reference
            .cells
            .iter()
            .map(|c| (reference.site_id_of(c), c.volume))
            .collect();

        let mesh = mesh_bits(&particles, &dec, 2, &TessParams::default());
        assert!(!mesh.is_empty(), "seed {seed}: nothing certified");
        let mut total = 0.0;
        for (id, (volume, _, _)) in &mesh {
            let volume = f64::from_bits(*volume);
            let expect = reference[id];
            assert!(
                (volume - expect).abs() <= 1e-9 * expect,
                "seed {seed}: cell {id} volume {volume} vs reference {expect}"
            );
            total += volume;
        }
        assert!(
            total <= domain.volume() * (1.0 + 1e-9),
            "seed {seed}: certified volume {total} exceeds the box"
        );
    }
}
