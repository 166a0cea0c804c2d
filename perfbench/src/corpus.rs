//! Seeded inputs. The seed on the command line is the only source of
//! randomness; the program under test receives only the particles.

use std::time::Instant;

use bench_harness::evolved_particles;
use geometry::Vec3;
use hacc::SimParams;

/// splitmix64: a small, well-mixed generator so the inputs do not depend
/// on any crate's RNG stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `n` uniform random points in the periodic box `[0, side)^3`.
pub fn uniform_points(n: usize, side: f64, seed: u64) -> Vec<(u64, Vec3)> {
    let mut rng = Rng::new(seed);
    (0..n as u64)
        .map(|id| {
            let p = Vec3::new(rng.unit(), rng.unit(), rng.unit()) * side;
            (id, p)
        })
        .collect()
}

/// A HACC-style corpus: Zel'dovich initial conditions evolved by the PM
/// solver, as the paper's in-situ runs see their particles.
pub struct HaccCorpus {
    pub particles: Vec<(u64, Vec3)>,
    pub box_size: f64,
    /// Wall seconds of the evolution over its step count (the initial
    /// conditions included): the mean time of one PM step.
    pub step_s: f64,
}

/// `np^3` particles at unit spacing evolved `nsteps` PM steps by
/// `bench_harness::evolved_particles` (the paper-like realization the
/// repository's other benches use), then relabelled and reordered by
/// `seed`. Different realizations differ in cost by up to a third at this
/// size, which would swamp any bound; a relabelling changes the input the
/// program sees but not the work. Generated fresh on every call: no cache,
/// so the set-up time does not depend on what an earlier run left behind.
pub fn hacc_corpus(np: usize, nsteps: usize, seed: u64) -> HaccCorpus {
    let t = Instant::now();
    let evolved = evolved_particles(np, nsteps);
    let step_s = t.elapsed().as_secs_f64() / nsteps.max(1) as f64;
    HaccCorpus {
        particles: relabel(evolved.into_iter().map(|(_, p)| p).collect(), seed),
        box_size: SimParams::paper_like(np).box_size,
        step_s,
    }
}

/// Give the particles a random permutation of the ids `0..n`, in a random
/// order, both drawn from `seed`.
fn relabel(positions: Vec<Vec3>, seed: u64) -> Vec<(u64, Vec3)> {
    let mut rng = Rng::new(seed);
    let mut shuffle = |v: &mut Vec<u64>| {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i as u64 + 1) as usize);
        }
    };
    let n = positions.len() as u64;
    let (mut ids, mut order): (Vec<u64>, Vec<u64>) = ((0..n).collect(), (0..n).collect());
    shuffle(&mut ids);
    shuffle(&mut order);
    order
        .into_iter()
        .map(|i| (ids[i as usize], positions[i as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_points_other_seed_other_points() {
        let a = uniform_points(64, 4.0, 7);
        assert_eq!(a, uniform_points(64, 4.0, 7));
        assert_ne!(a, uniform_points(64, 4.0, 8));
        assert!(a
            .iter()
            .all(|&(_, p)| [p.x, p.y, p.z].iter().all(|&c| (0.0..4.0).contains(&c))));
    }

    #[test]
    fn relabelling_permutes_ids_and_order_but_keeps_positions() {
        let pos: Vec<Vec3> = (0..50).map(|i| Vec3::splat(i as f64)).collect();
        let a = relabel(pos.clone(), 3);
        assert_eq!(a, relabel(pos.clone(), 3));
        assert_ne!(a, relabel(pos.clone(), 4));
        let mut ids: Vec<u64> = a.iter().map(|p| p.0).collect();
        ids.sort();
        assert_eq!(ids, (0..50).collect::<Vec<u64>>());
        let mut xs: Vec<f64> = a.iter().map(|p| p.1.x).collect();
        xs.sort_by(f64::total_cmp);
        assert_eq!(xs, pos.iter().map(|p| p.x).collect::<Vec<f64>>());
    }
}
