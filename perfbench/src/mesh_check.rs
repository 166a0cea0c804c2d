//! Correctness checks on a finished mesh. They hold for any correct
//! Voronoi tessellation of a periodic box, so they do not pin mesh bits:
//! a kernel change that moves the last bits of a volume still passes.

use std::collections::HashSet;

use diy::codec::Encode;
use tess::{MeshBlock, NO_NEIGHBOR};

/// Relative tolerance on the summed cell volume.
const VOLUME_RTOL: f64 = 1e-9;

/// Check that `blocks` tessellate the periodic box of volume `box_volume`
/// with one certified cell per particle. Returns one message per failed
/// check; empty means the mesh passed.
pub fn check_mesh<'a>(
    blocks: impl IntoIterator<Item = &'a MeshBlock>,
    particles: usize,
    box_volume: f64,
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut sites = HashSet::new();
    let mut faces: HashSet<(u64, u64)> = HashSet::new();
    let mut volume = 0.0;
    let mut cells = 0usize;
    for b in blocks {
        for c in &b.cells {
            cells += 1;
            volume += c.volume;
            let site = b.site_id_of(c);
            if !sites.insert(site) {
                errors.push(format!("site {site} has more than one cell"));
            }
            if !c.complete {
                errors.push(format!("cell of site {site} is not certified"));
            }
            for f in &c.faces {
                if f.neighbor == NO_NEIGHBOR {
                    errors.push(format!("cell of site {site} has a boundary face"));
                }
                faces.insert((site, f.neighbor));
            }
        }
    }
    if cells != particles {
        errors.push(format!("{cells} cells for {particles} particles"));
    }
    let rel = (volume - box_volume).abs() / box_volume;
    if rel > VOLUME_RTOL {
        errors.push(format!(
            "cell volumes sum to {volume}, box volume {box_volume} (relative error {rel:e})"
        ));
    }
    let asymmetric = faces
        .iter()
        .filter(|&&(a, b)| !faces.contains(&(b, a)))
        .count();
    if asymmetric > 0 {
        errors.push(format!("{asymmetric} face neighbours are not symmetric"));
    }
    errors.truncate(8);
    errors
}

/// FNV-1a over bytes: a mesh fingerprint printed for information only.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fingerprint of blocks in the order given, over their encoded bytes.
pub fn fingerprint<'a>(blocks: impl IntoIterator<Item = &'a MeshBlock>) -> u64 {
    blocks
        .into_iter()
        .fold(FNV_OFFSET, |h, b| fnv1a(&b.to_bytes(), h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::{Aabb, Vec3};
    use tess::{tessellate_serial, TessParams};

    fn lattice() -> Vec<(u64, Vec3)> {
        (0..27u64)
            .map(|i| {
                let c = |k: u64| k as f64 + 0.5;
                (i, Vec3::new(c(i % 3), c(i / 3 % 3), c(i / 9)))
            })
            .collect()
    }

    #[test]
    fn a_periodic_lattice_passes_every_check() {
        let (block, _) = tessellate_serial(
            &lattice(),
            Aabb::cube(3.0),
            [true; 3],
            &TessParams::default(),
        );
        assert_eq!(check_mesh([&block], 27, 27.0), Vec::<String>::new());
    }

    #[test]
    fn broken_meshes_are_reported() {
        let (mut block, _) = tessellate_serial(
            &lattice(),
            Aabb::cube(3.0),
            [true; 3],
            &TessParams::default(),
        );
        assert!(!check_mesh([&block], 28, 27.0).is_empty());
        assert!(!check_mesh([&block], 27, 27.5).is_empty());
        block.cells[0].faces[0].neighbor = 1000;
        assert!(check_mesh([&block], 27, 27.0)
            .iter()
            .any(|e| e.contains("symmetric")));
    }
}
