//! Golden pin: FNV-1a fingerprints of `tessellate_serial` output on three
//! seeded corpora — uniform random, jittered lattice, and clustered
//! (`bench_harness::corpus`) — plus a kept-incomplete variant whose
//! boundary cells take the region fallback of the cell kernel.
//!
//! The constants were recorded from the two-pass kernel (discovery, then a
//! canonical re-clip) that the one-pass canonical kernel replaced. Every
//! kernel change must keep them: the hash covers every vertex coordinate,
//! every cell volume and area as raw `f64` bits, and every face's
//! neighbour id and vertex loop.

use bench_harness::corpus::clustered;
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::tess::{self, MeshBlock, TessParams};
use rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, v: u64) -> u64 {
    v.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

fn mesh_hash(block: &MeshBlock) -> u64 {
    let mut h = FNV_OFFSET;
    for v in &block.verts {
        for c in [v.x, v.y, v.z] {
            h = fnv(h, c.to_bits());
        }
    }
    for cell in &block.cells {
        h = fnv(h, block.site_id_of(cell));
        h = fnv(h, cell.volume.to_bits());
        h = fnv(h, cell.area.to_bits());
        h = fnv(h, cell.complete as u64);
        for f in &cell.faces {
            h = fnv(h, f.neighbor);
            for &v in &f.verts {
                h = fnv(h, v as u64);
            }
        }
    }
    h
}

fn uniform(n: usize, side: f64, seed: u64) -> Vec<(u64, Vec3)> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| {
            let mut c = || rng.gen_range(0.0..side);
            (id, Vec3::new(c(), c(), c()))
        })
        .collect()
}

fn jittered_lattice(n: usize, amp: f64, seed: u64) -> Vec<(u64, Vec3)> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let ng = n as f64;
    (0..n * n * n)
        .map(|idx| {
            let (i, j, k) = (idx % n, (idx / n) % n, idx / (n * n));
            let mut c = |k: usize| {
                let jitter = if amp > 0.0 {
                    rng.gen_range(-amp..amp)
                } else {
                    0.0
                };
                (k as f64 + 0.5 + jitter).rem_euclid(ng)
            };
            (idx as u64, Vec3::new(c(i), c(j), c(k)))
        })
        .collect()
}

fn pinned(particles: &[(u64, Vec3)], side: f64, periodic: bool, params: &TessParams) -> u64 {
    let (block, stats) =
        tess::tessellate_serial(particles, Aabb::cube(side), [periodic; 3], params);
    if !params.keep_incomplete {
        assert_eq!(
            stats.cells as usize,
            particles.len(),
            "every cell certified"
        );
    }
    mesh_hash(&block)
}

#[test]
fn uniform_corpus_mesh_is_pinned() {
    let h = pinned(&uniform(3000, 10.0, 7), 10.0, true, &TessParams::default());
    assert_eq!(h, 0x009af92aeac6010e, "uniform mesh hash {h:#018x}");
}

#[test]
fn jittered_lattice_mesh_is_pinned() {
    let h = pinned(
        &jittered_lattice(12, 0.3, 11),
        12.0,
        true,
        &TessParams::default(),
    );
    assert_eq!(
        h, 0x49f27f30ebb005ad,
        "jittered-lattice mesh hash {h:#018x}"
    );
}

#[test]
fn exact_lattice_mesh_is_pinned() {
    // Unjittered: every cell is a unit cube and candidate distances tie
    // exactly, so the canonical (distance, id, position) order decides.
    let h = pinned(
        &jittered_lattice(7, 0.0, 0),
        7.0,
        true,
        &TessParams::default(),
    );
    assert_eq!(h, 0xe4ca1eb294eb1462, "exact-lattice mesh hash {h:#018x}");
}

#[test]
fn clustered_corpus_mesh_is_pinned() {
    let h = pinned(
        &clustered(12.0, 20, 40, 400, 13),
        12.0,
        true,
        &TessParams::default(),
    );
    assert_eq!(h, 0x07567ce582fc3f3d, "clustered mesh hash {h:#018x}");
}

#[test]
fn kept_incomplete_mesh_is_pinned() {
    // Non-periodic, one block: boundary cells never certify and are
    // published anyway, so their bits come from the region fallback.
    let params = TessParams {
        keep_incomplete: true,
        ..TessParams::default()
    };
    let h = pinned(&jittered_lattice(8, 0.3, 17), 8.0, false, &params);
    assert_eq!(h, 0x704b89d2564881b2, "kept-incomplete mesh hash {h:#018x}");
}
