//! Local Voronoi cell computation with the security-radius criterion.
//!
//! One canonical clip per cell. The pass starts from a box that depends on
//! the site and the global domain alone — a site-centred cube of
//! half-extent `canon_extent` (or the block-derived `clip_box`) — and
//! clips it by candidates streamed in the canonical order (exact distance,
//! then global id, then position) until the next candidate lies beyond
//! the slightly inflated security ball `sec2·(1+1e-9)`. The emitted set is
//! exactly the canonical prefix of that ball, so the cell's floating-point
//! bits are a function of the particle set alone: the ghost round, the
//! block decomposition, the rank count and the pool width cannot show in
//! them. That is what incremental re-tessellation and every bit-identity
//! suite rest on.
//!
//! A cell whose security ball leaves the known region is *incomplete*.
//! Once every candidate within the region's reach has been clipped and the
//! ball still pokes out, no farther particle can bring it back (any plane
//! that cuts adds vertices beyond that reach), so the cube pass stops
//! there instead of sweeping the whole region with the unbounded outward
//! side of a block-face cell. Incomplete cells, and cells too large for
//! the canonical box, rerun the same pass from the region itself: the
//! region walls are legitimately part of an incomplete cell.
//!
//! All buffers live in a caller-owned [`CellScratch`] so computing millions
//! of cells allocates nothing in steady state.

use geometry::polyhedron::{ClipResult, ClipScratch};
use geometry::{Aabb, ConvexPolyhedron, Plane, Vec3};

use crate::grid::{CandidateGrid, StreamScratch};

/// Outcome of computing one cell.
pub struct ComputedCell {
    pub poly: ConvexPolyhedron,
    /// `true` when the security ball fit inside the known (ghosted) region,
    /// so the cell is provably identical to the global Voronoi cell.
    pub complete: bool,
    /// Squared security diameter of `poly`: `4 ×` the largest squared
    /// site-to-vertex distance. No particle farther than this can cut it.
    pub sec2: f64,
    /// Number of bisector planes clipped against the polyhedron
    /// (performance diagnostic).
    pub candidates_tested: usize,
    /// Candidates dropped before a clip: by the `f32` distance prefilter
    /// or by the support-function reject.
    pub prefilter_skipped: u64,
    /// The canonical box could not certify or contain the cell, so it was
    /// recomputed from the region.
    pub region_fallback: bool,
}

/// Shared, immutable inputs for every cell of one block pass.
pub struct CellContext<'a> {
    /// Own + ghost particle positions (ghosts may be periodic images).
    pub points: &'a [Vec3],
    /// Global particle id per entry of `points`.
    pub ids: &'a [u64],
    pub grid: &'a CandidateGrid,
    /// The ghosted block box the points cover; decides completeness and
    /// is the start box of the fallback pass.
    pub region: &'a Aabb,
    /// Canonical start box when `canon_extent` is `None`: must depend only
    /// on the block, never on the ghost radius, so a cell's bits are
    /// reproducible across ghost rounds.
    pub clip_box: &'a Aabb,
    /// Preferred canonical start box: a cube of this half-extent centered
    /// on the site. The driver derives it from the global domain, making
    /// it independent of the block *decomposition* as well as of the
    /// ghost round — the invariant behind cross-scheme bit-identical
    /// meshes. `None` uses the block-derived `clip_box`.
    pub canon_extent: Option<f64>,
    /// Clipping tolerance.
    pub eps: f64,
}

/// Reusable per-thread buffers for [`compute_cell`].
#[derive(Default)]
pub struct CellScratch {
    clip: ClipScratch,
    stream: StreamScratch,
}

/// Compute the Voronoi cell of `site` (`self_idx` in `ctx.points`, skipped).
pub fn compute_cell(
    ctx: &CellContext,
    site: Vec3,
    self_idx: u32,
    scratch: &mut CellScratch,
) -> ComputedCell {
    // Complete iff the security ball fits inside the region all particles
    // are known for.
    let reach = ctx.region.interior_distance(site) + ctx.eps;
    let cube;
    let (start, fit) = match ctx.canon_extent {
        // Site-centered canonical cube: its corner coordinates are a
        // function of (site, domain) alone.
        Some(h) => {
            cube = Aabb::new(site - Vec3::splat(h), site + Vec3::splat(h));
            (&cube, h)
        }
        None => (ctx.clip_box, ctx.clip_box.interior_distance(site)),
    };
    let canonical = clip_pass(ctx, site, self_idx, start, reach, true, scratch);
    // A complete cell that fits the start box is strictly inside it, so
    // the box walls cannot have cut it.
    if canonical.complete && canonical.sec2.sqrt() * 0.5 <= fit {
        return canonical;
    }
    let mut cell = clip_pass(ctx, site, self_idx, ctx.region, reach, false, scratch);
    cell.candidates_tested += canonical.candidates_tested;
    cell.prefilter_skipped += canonical.prefilter_skipped;
    cell.region_fallback = true;
    cell
}

/// Clip `start` by the candidates of `site` in canonical order until the
/// next one lies beyond the inflated security ball. With `exit_early`, stop
/// as soon as the cell is provably incomplete: every candidate within
/// `reach` is clipped and the security ball still leaves it.
fn clip_pass(
    ctx: &CellContext,
    site: Vec3,
    self_idx: u32,
    start: &Aabb,
    reach: f64,
    exit_early: bool,
    scratch: &mut CellScratch,
) -> ComputedCell {
    let CellScratch { stream, clip } = scratch;
    let mut poly = ConvexPolyhedron::from_aabb(start);
    let (mut bb, maxd2) = poly.vertex_aabb_and_max_dist2(site);
    let mut sec2 = 4.0 * maxd2;
    let reach2 = reach * reach;
    let mut tested = 0usize;
    let mut rejects = 0u64;
    let mut candidates = ctx
        .grid
        .stream(ctx.points, Some(ctx.ids), site, self_idx, stream);
    // Inflate the ball so a particle at exactly the security distance (a
    // common exact tie on lattices) is clipped whatever ulps `sec2`
    // carries. Particles beyond the final sphere only add planes that miss
    // every vertex, which cannot cut.
    while let Some((d2, i)) = candidates.next(sec2 * (1.0 + 1e-9)) {
        if exit_early && d2 > reach2 && sec2.sqrt() > reach {
            break;
        }
        if d2 < 1e-24 {
            continue; // coincident particle: no bisector exists
        }
        let plane = Plane::bisector(site, ctx.points[i as usize]).expect("distinct points");
        // Support-function reject: if the bisector cannot reach the cell's
        // vertex bounding box, the clip is a provable no-op — skip the
        // O(verts) classification entirely. Elongated boundary cells have
        // security balls far larger than their box, so most ball
        // candidates die here.
        if bb.support(plane.n) - plane.d <= ctx.eps {
            rejects += 1;
            continue;
        }
        tested += 1;
        match poly.clip_with(&plane, Some(i as u64), ctx.eps, clip) {
            ClipResult::Clipped => {
                let (nbb, maxd2) = poly.vertex_aabb_and_max_dist2(site);
                bb = nbb;
                sec2 = 4.0 * maxd2;
            }
            ClipResult::Unchanged => {}
            // Numerically impossible for a true Voronoi cell; guarded for
            // degenerate input.
            ClipResult::Empty => {
                sec2 = 0.0;
                break;
            }
        }
    }
    ComputedCell {
        complete: !poly.is_empty() && sec2.sqrt() <= reach,
        sec2,
        candidates_tested: tested,
        prefilter_skipped: candidates.prefilter_skipped() + rejects,
        region_fallback: false,
        poly,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(n: usize, jitter: f64) -> Vec<Vec3> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        (0..n)
            .flat_map(|k| {
                (0..n)
                    .flat_map(move |j| {
                        (0..n)
                            .map(move |i| Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5))
                    })
                    .collect::<Vec<_>>()
            })
            .map(move |p| {
                p + Vec3::new(
                    rng.gen_range(-jitter..=jitter.max(1e-300)),
                    rng.gen_range(-jitter..=jitter.max(1e-300)),
                    rng.gen_range(-jitter..=jitter.max(1e-300)),
                )
            })
            .collect()
    }

    /// One block's kernel inputs: points, ids and the grid over `region`.
    struct Block {
        pts: Vec<Vec3>,
        ids: Vec<u64>,
        region: Aabb,
        clip_box: Aabb,
        canon_extent: Option<f64>,
        grid: CandidateGrid,
    }

    impl Block {
        fn new(pts: Vec<Vec3>, ids: Vec<u64>, region: Aabb, canon_extent: Option<f64>) -> Self {
            let grid = CandidateGrid::build(region, &pts, 2.0);
            Block {
                pts,
                ids,
                region,
                clip_box: region,
                canon_extent,
                grid,
            }
        }

        fn plain(pts: Vec<Vec3>, region: Aabb) -> Self {
            let ids = (0..pts.len() as u64).collect();
            Block::new(pts, ids, region, None)
        }

        fn ctx(&self) -> CellContext<'_> {
            CellContext {
                points: &self.pts,
                ids: &self.ids,
                grid: &self.grid,
                region: &self.region,
                clip_box: &self.clip_box,
                canon_extent: self.canon_extent,
                eps: 1e-9,
            }
        }

        fn cell(&self, idx: usize) -> ComputedCell {
            compute_cell(
                &self.ctx(),
                self.pts[idx],
                idx as u32,
                &mut CellScratch::default(),
            )
        }
    }

    fn cell_of(pts: &[Vec3], region: &Aabb, idx: usize) -> ComputedCell {
        Block::plain(pts.to_vec(), *region).cell(idx)
    }

    /// The two-pass kernel the one-pass kernel replaced, kept as the test
    /// oracle: a discovery clip of the region up to the running security
    /// radius, then a re-clip of the whole inflated security ball from the
    /// canonical start box in canonical order. Both passes gather their
    /// candidates by brute force, independent of the grid and the stream.
    mod reference {
        use super::*;

        pub struct Cell {
            pub poly: ConvexPolyhedron,
            pub complete: bool,
            /// Discovery plus re-clip clips.
            pub tested: usize,
        }

        /// Clip `start` by the candidates of `site` in canonical order
        /// (distance, then global id, then position), with the production
        /// support-function reject. `Some(bound2)` clips the whole ball of
        /// that squared radius; `None` stops at the running security
        /// radius. `None` when the clip empties the polyhedron.
        fn canonical_reclip(
            ctx: &CellContext,
            site: Vec3,
            self_idx: u32,
            ball: Option<f64>,
            start: &Aabb,
        ) -> Option<(ConvexPolyhedron, usize)> {
            let (points, ids) = (ctx.points, ctx.ids);
            let mut order: Vec<(f64, u32)> = (0..points.len() as u32)
                .filter(|&i| i != self_idx)
                .map(|i| (points[i as usize].dist2(site), i))
                .filter(|&(d2, _)| d2 >= 1e-24 && ball.is_none_or(|b| d2 <= b))
                .collect();
            order.sort_by(|&(d2a, ia), &(d2b, ib)| {
                let (pa, pb) = (points[ia as usize], points[ib as usize]);
                d2a.total_cmp(&d2b)
                    .then_with(|| ids[ia as usize].cmp(&ids[ib as usize]))
                    .then_with(|| pa.x.total_cmp(&pb.x))
                    .then_with(|| pa.y.total_cmp(&pb.y))
                    .then_with(|| pa.z.total_cmp(&pb.z))
            });
            let mut poly = ConvexPolyhedron::from_aabb(start);
            let mut bb = *start;
            let mut sec2 = 4.0 * poly.max_vertex_dist2(site);
            let mut clip = ClipScratch::default();
            let mut tested = 0usize;
            for &(d2, i) in &order {
                if ball.is_none() && d2 > sec2 {
                    break;
                }
                let plane = Plane::bisector(site, points[i as usize]).unwrap();
                if bb.support(plane.n) - plane.d <= ctx.eps {
                    continue;
                }
                tested += 1;
                match poly.clip_with(&plane, Some(i as u64), ctx.eps, &mut clip) {
                    ClipResult::Clipped => {
                        let maxd2;
                        (bb, maxd2) = poly.vertex_aabb_and_max_dist2(site);
                        sec2 = 4.0 * maxd2;
                    }
                    ClipResult::Unchanged => {}
                    ClipResult::Empty => return None,
                }
            }
            Some((poly, tested))
        }

        pub fn cell(ctx: &CellContext, site: Vec3, self_idx: u32) -> Cell {
            let (disc, disc_tested) =
                canonical_reclip(ctx, site, self_idx, None, ctx.region).expect("degenerate");
            let sec2 = 4.0 * disc.max_vertex_dist2(site);
            let maxvert = sec2.sqrt() * 0.5;
            let complete = 2.0 * maxvert <= ctx.region.interior_distance(site) + ctx.eps;
            let fits = match ctx.canon_extent {
                Some(h) => maxvert <= h,
                None => maxvert <= ctx.clip_box.interior_distance(site),
            };
            let start = match ctx.canon_extent {
                Some(h) if complete && fits => {
                    Aabb::new(site - Vec3::splat(h), site + Vec3::splat(h))
                }
                None if complete && fits => *ctx.clip_box,
                _ => *ctx.region,
            };
            let (poly, tested) =
                canonical_reclip(ctx, site, self_idx, Some(sec2 * (1.0 + 1e-9)), &start)
                    .expect("degenerate");
            Cell {
                poly,
                complete,
                tested: disc_tested + tested,
            }
        }
    }

    /// Check the one-pass kernel against the two-pass reference bit for
    /// bit (vertex bits, volume bits, neighbour ids) on the cells of the
    /// first `own` points of `block`; returns the fused and reference clip
    /// totals and the number of region fallbacks.
    fn assert_fused_matches_reference(
        block: &Block,
        own: usize,
        label: &str,
    ) -> (usize, usize, usize) {
        let ctx = block.ctx();
        let mut scratch = CellScratch::default();
        let bits = |p: &ConvexPolyhedron| -> Vec<u64> {
            p.verts
                .iter()
                .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
                .collect()
        };
        let (mut fused_work, mut ref_work, mut fallbacks) = (0, 0, 0);
        for (idx, &site) in block.pts[..own].iter().enumerate() {
            let a = compute_cell(&ctx, site, idx as u32, &mut scratch);
            let b = reference::cell(&ctx, site, idx as u32);
            assert_eq!(a.complete, b.complete, "{label}: site {idx} verdict");
            assert_eq!(bits(&a.poly), bits(&b.poly), "{label}: site {idx} vertices");
            assert_eq!(
                a.poly.volume().to_bits(),
                b.poly.volume().to_bits(),
                "{label}: site {idx} volume"
            );
            let na: Vec<u64> = a.poly.neighbor_ids().collect();
            let nb: Vec<u64> = b.poly.neighbor_ids().collect();
            assert_eq!(na, nb, "{label}: site {idx} neighbours");
            assert_eq!(a.sec2, 4.0 * a.poly.max_vertex_dist2(site), "{label}: sec2");
            fused_work += a.candidates_tested;
            ref_work += b.tested;
            fallbacks += a.region_fallback as usize;
        }
        (fused_work, ref_work, fallbacks)
    }

    /// A periodic lattice seen by one block holding every particle plus
    /// its periodic images within `ghost` of the box — what one rank with
    /// an explicit ghost radius computes. Own particles come first; images
    /// share the id of their particle.
    fn periodic_block(n: usize, jitter: f64, ghost: f64) -> Block {
        let ng = n as f64;
        let base = lattice(n, jitter);
        let region = Aabb::cube(ng).grown(ghost);
        let mut pts = base.clone();
        let mut ids: Vec<u64> = (0..base.len() as u64).collect();
        for (k, &p) in base.iter().enumerate() {
            for s in 0..27 {
                let shift = Vec3::new(
                    (s % 3) as f64 - 1.0,
                    (s / 3 % 3) as f64 - 1.0,
                    (s / 9) as f64 - 1.0,
                );
                let img = p + shift * ng;
                if s != 13 && region.contains_closed(img) {
                    pts.push(img);
                    ids.push(k as u64);
                }
            }
        }
        Block::new(pts, ids, region, Some(ng))
    }

    #[test]
    fn fused_matches_reference_on_an_unjittered_lattice() {
        // Exact distance ties everywhere, including lattice points sitting
        // on bin walls where ties land on ring lower bounds. Both start
        // boxes: the site cube and the block-derived clip box.
        let n = 7;
        let region = Aabb::cube(n as f64);
        for canon in [Some(n as f64), None] {
            let ids = (0..(n * n * n) as u64).collect();
            let block = Block::new(lattice(n, 0.0), ids, region, canon);
            let label = format!("lattice, canon {canon:?}");
            let (fused, reference, _) = assert_fused_matches_reference(&block, n * n * n, &label);
            assert!(
                fused < reference,
                "{label}: fused {fused} vs reference {reference} clips"
            );
        }
    }

    #[test]
    fn fused_matches_reference_with_explicit_ghosts_on_one_rank() {
        // Jittered lattice plus periodic-image ghosts: the case the
        // two-pass kernel's stream and re-clip orders disagreed on.
        let n = 6;
        let block = periodic_block(n, 0.3, 2.5);
        let (fused, reference, _) = assert_fused_matches_reference(&block, n * n * n, "ghosted");
        assert!(
            fused < reference,
            "fused {fused} vs reference {reference} clips"
        );
    }

    #[test]
    fn fused_matches_reference_when_periodic_images_tie_in_distance_and_id() {
        // Unjittered even lattice with a ghost radius of half the box:
        // two images of one particle sit at exactly the same distance from
        // a site with the same id, so only the position breaks the tie.
        let n = 4;
        let block = periodic_block(n, 0.0, n as f64 / 2.0);
        let own = n * n * n;
        let site = block.pts[0];
        let ties = (own..block.pts.len())
            .flat_map(|a| (a + 1..block.pts.len()).map(move |b| (a, b)))
            .filter(|&(a, b)| {
                block.ids[a] == block.ids[b] && block.pts[a].dist2(site) == block.pts[b].dist2(site)
            })
            .count();
        assert!(ties > 0, "corpus has no distance-and-id ties");
        assert_fused_matches_reference(&block, own, "image ties");
    }

    #[test]
    fn fused_matches_reference_on_kept_incomplete_cells() {
        // Non-periodic: boundary cells are clipped by the region walls and
        // never certify; they take the region fallback and must still come
        // out with the reference's canonical region bits.
        let n = 6;
        let region = Aabb::cube(n as f64);
        let ids = (0..(n * n * n) as u64).collect();
        let block = Block::new(lattice(n, 0.25), ids, region, Some(n as f64));
        let (_, _, fallbacks) = assert_fused_matches_reference(&block, n * n * n, "incomplete");
        let incomplete = (0..n * n * n).filter(|&i| !block.cell(i).complete).count();
        assert!(incomplete > 0, "need incomplete cells");
        assert_eq!(
            fallbacks, incomplete,
            "only incomplete cells fall back here"
        );
    }

    #[test]
    fn fused_matches_reference_when_a_cell_outgrows_the_canonical_cube() {
        // A canonical half-extent below the cells' site-to-vertex reach
        // (√3/2 on a unit lattice): complete cells no longer fit the cube
        // and fall back to the region.
        let n = 6;
        let block = periodic_block(n, 0.2, 2.5);
        let tight = Block::new(
            block.pts.clone(),
            block.ids.clone(),
            block.region,
            Some(0.6),
        );
        let (_, _, fallbacks) = assert_fused_matches_reference(&tight, n * n * n, "outgrown");
        assert_eq!(fallbacks, n * n * n, "every cell outgrows a 0.6 cube");
        assert!((0..n * n * n).all(|i| tight.cell(i).complete));
    }

    #[test]
    fn fused_matches_reference_with_exact_duplicates() {
        let n = 5;
        let mut pts = lattice(n, 0.2);
        for k in [0usize, 31, 62, 93] {
            pts.push(pts[k]);
        }
        let ids = (0..pts.len() as u64).collect();
        let block = Block::new(pts, ids, Aabb::cube(n as f64), Some(n as f64));
        assert_fused_matches_reference(&block, block.pts.len(), "duplicates");
    }

    #[test]
    fn incomplete_cells_exit_the_cube_pass_early() {
        // The cube around a face site reaches far past the region, so
        // without the early exit its security ball would sweep every
        // particle. The fused pass stops at the region's reach instead.
        let n = 9;
        let pts = lattice(n, 0.2);
        let ids = (0..pts.len() as u64).collect();
        let block = Block::new(pts, ids, Aabb::cube(n as f64), Some(4.0 * n as f64));
        let face = (n / 2) + n * (n / 2); // z-face site at (4.5, 4.5, ~0.5)
        let cell = block.cell(face);
        assert!(!cell.complete && cell.region_fallback);
        // candidates looked at in both passes: clipped or rejected
        let seen = cell.candidates_tested as u64 + cell.prefilter_skipped;
        assert!(seen * 4 < block.pts.len() as u64, "{seen} candidates seen");
    }

    #[test]
    fn lattice_center_cell_is_unit_cube() {
        let n = 7;
        let pts = lattice(n, 0.0);
        let region = Aabb::cube(n as f64);
        let center_idx = (n / 2) + n * ((n / 2) + n * (n / 2));
        let cell = cell_of(&pts, &region, center_idx);
        assert!(cell.complete && !cell.region_fallback);
        assert!(
            (cell.poly.volume() - 1.0).abs() < 1e-9,
            "vol {}",
            cell.poly.volume()
        );
        assert!((cell.poly.surface_area() - 6.0).abs() < 1e-9);
        assert!(cell.poly.check_closed());
        // only the 6 face neighbors touch the cell
        assert_eq!(cell.poly.neighbor_ids().count(), 6);
        // far fewer candidates than the full point set were tested
        assert!(
            cell.candidates_tested < pts.len() / 2,
            "{}",
            cell.candidates_tested
        );
    }

    #[test]
    fn security_radius_terminates_early_on_jittered_lattice() {
        // Interior cells stop at the security radius and test only a small
        // neighborhood of the full point set.
        let n = 9;
        let pts = lattice(n, 0.2);
        let region = Aabb::cube(n as f64);
        let idx = (n / 2) + n * ((n / 2) + n * (n / 2));
        let cell = cell_of(&pts, &region, idx);
        assert!(cell.complete);
        assert!(cell.poly.check_closed());
        assert!(cell.candidates_tested < 60, "{}", cell.candidates_tested);
    }

    #[test]
    fn support_reject_prunes_elongated_boundary_cells() {
        // A region that extends past the particle slab: cells of face sites
        // stretch into the empty margin and their security balls blow up.
        // The support-function reject proves most of the lateral clips are
        // no-ops and skips them without touching the poly.
        let n = 9;
        let pts = lattice(n, 0.2);
        let region = Aabb::cube(n as f64).grown(2.0);
        let idx = (n / 2) + n * (n / 2); // z-face site at (4.5, 4.5, ~0.5)
        let cell = cell_of(&pts, &region, idx);
        assert!(cell.prefilter_skipped > cell.candidates_tested as u64);
    }

    #[test]
    fn boundary_cell_is_incomplete() {
        let n = 5;
        let pts = lattice(n, 0.0);
        let region = Aabb::cube(n as f64);
        // corner particle: its cell is clipped by the region walls
        let cell = cell_of(&pts, &region, 0);
        assert!(!cell.complete);
    }

    #[test]
    fn cell_contains_its_site_and_membership_is_correct() {
        // Brute-force verification of Eq. (1): every point of the cell is
        // nearer to the site than to any other particle.
        let n = 5;
        let pts = lattice(n, 0.3);
        let region = Aabb::cube(n as f64);
        let idx = 2 + n * (2 + n * 2);
        let site = pts[idx];
        let cell = cell_of(&pts, &region, idx);
        assert!(cell.poly.contains(site, 1e-9));
        // sample points inside the cell: centroid and face centroids
        let mut samples = vec![cell.poly.centroid()];
        for f in &cell.poly.faces {
            samples.push(cell.poly.face_centroid(f).lerp(site, 0.01));
        }
        for s in samples {
            let ds = s.dist2(site);
            for (qi, &q) in pts.iter().enumerate() {
                if qi != idx {
                    assert!(
                        ds <= q.dist2(s) + 1e-7,
                        "cell point {s} closer to particle {qi}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_points_split_the_region() {
        let pts = vec![Vec3::new(1.0, 2.0, 2.0), Vec3::new(3.0, 2.0, 2.0)];
        let region = Aabb::cube(4.0);
        let cell = cell_of(&pts, &region, 0);
        // half the box
        assert!((cell.poly.volume() - 32.0).abs() < 1e-9);
        // bounded by walls → incomplete
        assert!(!cell.complete);
        assert_eq!(cell.poly.neighbor_ids().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn coincident_particles_do_not_crash() {
        let pts = vec![
            Vec3::splat(2.0),
            Vec3::splat(2.0), // exact duplicate
            Vec3::new(1.0, 2.0, 2.0),
        ];
        let region = Aabb::cube(4.0);
        let cell = cell_of(&pts, &region, 0);
        assert!(!cell.poly.is_empty());
        assert!(cell.poly.volume() > 0.0);
    }

    #[test]
    fn complete_cell_bits_do_not_depend_on_the_region() {
        // The canonical-start contract: compute an interior cell once with
        // a tight region and once with a grown region (more known space,
        // different grid geometry) while keeping the same clip_box.
        // Complete cells must agree bit for bit.
        let n = 7;
        let pts = lattice(n, 0.25);
        let tight = Aabb::cube(n as f64);
        let grown = tight.grown(1.5);
        let idx = (n / 2) + n * ((n / 2) + n * (n / 2));
        let run = |region: &Aabb| {
            let mut block = Block::plain(pts.clone(), *region);
            block.clip_box = grown; // same canonical box for both runs
            block.cell(idx)
        };
        let (a, b) = (run(&tight), run(&grown));
        assert!(a.complete && b.complete);
        assert_eq!(a.poly.verts.len(), b.poly.verts.len());
        for (va, vb) in a.poly.verts.iter().zip(&b.poly.verts) {
            assert_eq!(va.x.to_bits(), vb.x.to_bits());
            assert_eq!(va.y.to_bits(), vb.y.to_bits());
            assert_eq!(va.z.to_bits(), vb.z.to_bits());
        }
        assert_eq!(a.poly.volume().to_bits(), b.poly.volume().to_bits());
        let na: Vec<u64> = a.poly.neighbor_ids().collect();
        let nb: Vec<u64> = b.poly.neighbor_ids().collect();
        assert_eq!(na, nb);
    }
}
