//! Uniform acceleration grid for distance-ordered candidate iteration.
//!
//! The local cell computation needs candidate neighbors in order of
//! distance from a site so the security-radius test terminates early. A
//! uniform grid over the ghosted block region gives candidates in
//! Chebyshev "rings" of bins; the minimum possible distance to the next
//! ring provides the lower bound used by the termination test.
//!
//! The **candidate stream** ([`CandidateGrid::stream`]) sits on top of the
//! binning: a lazy min-heap merge of the rings that emits candidates one
//! at a time in the canonical order — exact `f64` distance, then global
//! id, then position — prefiltered by an SoA `f32` distance test with a
//! provably conservative slack before the exact distance is computed.
//! Its termination bound is the *center-aware*
//! [`CandidateGrid::ring_min_distance_from`]: an axis side counts only
//! while a ring-`r` bin still exists on it, and the gap is measured from
//! the center itself, not from the worst case in its bin.

use std::cmp::Ordering;

use geometry::{Aabb, Vec3};

/// Uniform binning of points over a region.
pub struct CandidateGrid {
    bounds: Aabb,
    dims: [usize; 3],
    inv_h: Vec3,
    /// Per-axis bin edges — used for ring distance lower bounds.
    h: [f64; 3],
    bins: Vec<Vec<u32>>,
    /// SoA coordinates relative to `bounds.min`, in `f32`, for the
    /// prefilter (structure-of-arrays so the per-ring scan stays linear).
    sx: Vec<f32>,
    sy: Vec<f32>,
    sz: Vec<f32>,
    /// Conservative absolute slack of the `f32` distance computation:
    /// a true distance `d` always measures at least `d - slack` in `f32`,
    /// so `d2f > (sqrt(bound2)+slack)^2 (1+1e-6)` proves `d2 > bound2`.
    prefilter_slack: f64,
    /// The same bound for the exact `f64` arithmetic: a point binned into
    /// ring `r` measures at least `ring_lb(r) - lb_slack` from the center
    /// (bin assignment and the ring wall both round), which keeps the
    /// stream's sorted emission exact down to the last bit.
    lb_slack: f64,
}

impl CandidateGrid {
    /// Build a grid over `bounds` holding `points`, aiming at about
    /// `per_bin` points per bin.
    pub fn build(bounds: Aabb, points: &[Vec3], per_bin: f64) -> Self {
        let n = points.len().max(1);
        let target_bins = (n as f64 / per_bin).max(1.0);
        let e = bounds.extent();
        let vol = (e.x * e.y * e.z).max(1e-300);
        let h = (vol / target_bins).powf(1.0 / 3.0);
        let dims = [
            ((e.x / h).ceil() as usize).clamp(1, 256),
            ((e.y / h).ceil() as usize).clamp(1, 256),
            ((e.z / h).ceil() as usize).clamp(1, 256),
        ];
        let hx = e.x / dims[0] as f64;
        let hy = e.y / dims[1] as f64;
        let hz = e.z / dims[2] as f64;
        let mut grid = CandidateGrid {
            bounds,
            dims,
            inv_h: Vec3::new(1.0 / hx, 1.0 / hy, 1.0 / hz),
            h: [hx, hy, hz],
            bins: vec![Vec::new(); dims[0] * dims[1] * dims[2]],
            sx: Vec::with_capacity(points.len()),
            sy: Vec::with_capacity(points.len()),
            sz: Vec::with_capacity(points.len()),
            prefilter_slack: 0.0,
            lb_slack: 0.0,
        };
        // Slack scale: the largest |coordinate| that enters an f32
        // subtraction, covering both stored points and any query center
        // inside the bounds.
        let mut scale = e.x.max(e.y).max(e.z);
        for (i, &p) in points.iter().enumerate() {
            let b = grid.bin_of(p);
            grid.bins[b].push(i as u32);
            let rel = p - bounds.min;
            grid.sx.push(rel.x as f32);
            grid.sy.push(rel.y as f32);
            grid.sz.push(rel.z as f32);
            scale = scale.max(rel.x.abs()).max(rel.y.abs()).max(rel.z.abs());
        }
        // Each f32 component difference errs by at most ~3 eps32·scale
        // (two conversions + one subtraction), the 3-axis norm by √3 of
        // that; 8 eps32·scale bounds it with margin to spare. The squaring
        // and summation rounding is relative and absorbed by the 1e-6
        // factor in `prefilter_bound`.
        grid.prefilter_slack = 8.0 * (f32::EPSILON as f64) * scale.max(1e-300);
        grid.lb_slack = 8.0 * f64::EPSILON * scale.max(1e-300);
        grid
    }

    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Center-aware lower bound on the distance from `center` to any point
    /// in a bin at Chebyshev ring `r` around `center`'s bin.
    ///
    /// Per axis, the plus side is attainable only while `c+r` is still a
    /// valid bin index (and symmetrically for the minus side); an
    /// attainable side's gap is the exact distance from `center` to the
    /// near wall of the ring-`r` bin slab, not the worst-case `(r-1)·h`.
    /// `+∞` when no side of any axis is attainable — the ring (and, since
    /// attainability only shrinks with `r`, every later ring) is empty.
    /// Non-decreasing in `r`, which is what makes the candidate stream's
    /// sorted emission proof go through.
    pub fn ring_min_distance_from(&self, center: Vec3, r: usize) -> f64 {
        let rel = center - self.bounds.min;
        self.ring_lb([rel.x, rel.y, rel.z], self.coords_of(center), r)
    }

    fn ring_lb(&self, rel: [f64; 3], c: [isize; 3], r: usize) -> f64 {
        if r == 0 {
            return 0.0;
        }
        let ri = r as isize;
        let mut bound = f64::INFINITY;
        for a in 0..3 {
            let h = self.h[a];
            if c[a] + ri < self.dims[a] as isize {
                // near wall of the +side ring slab is at (c+r)·h
                bound = bound.min(((c[a] + ri) as f64 * h - rel[a]).max(0.0));
            }
            if c[a] - ri >= 0 {
                // near wall of the -side ring slab is at (c-r+1)·h
                bound = bound.min((rel[a] - (c[a] - ri + 1) as f64 * h).max(0.0));
            }
        }
        bound
    }

    /// Largest ring index that can contain any bin, from any center.
    pub fn max_ring(&self) -> usize {
        self.dims.iter().max().copied().unwrap_or(1)
    }

    fn coords_of(&self, p: Vec3) -> [isize; 3] {
        let rel = p - self.bounds.min;
        [
            ((rel.x * self.inv_h.x) as isize).clamp(0, self.dims[0] as isize - 1),
            ((rel.y * self.inv_h.y) as isize).clamp(0, self.dims[1] as isize - 1),
            ((rel.z * self.inv_h.z) as isize).clamp(0, self.dims[2] as isize - 1),
        ]
    }

    fn bin_of(&self, p: Vec3) -> usize {
        let c = self.coords_of(p);
        c[0] as usize + self.dims[0] * (c[1] as usize + self.dims[1] * c[2] as usize)
    }

    /// Point indices in the Chebyshev ring `r` of bins around `center`
    /// (`r = 0` is the center bin itself).
    pub fn ring_candidates(&self, center: Vec3, r: usize, out: &mut Vec<u32>) {
        self.ring_candidates_at(self.coords_of(center), r, out);
    }

    fn ring_candidates_at(&self, c: [isize; 3], r: usize, out: &mut Vec<u32>) {
        out.clear();
        let ri = r as isize;
        let (dx0, dx1) = (c[0] - ri, c[0] + ri);
        for z in (c[2] - ri)..=(c[2] + ri) {
            if z < 0 || z >= self.dims[2] as isize {
                continue;
            }
            for y in (c[1] - ri)..=(c[1] + ri) {
                if y < 0 || y >= self.dims[1] as isize {
                    continue;
                }
                let on_shell_yz = (z - c[2]).abs() == ri || (y - c[1]).abs() == ri;
                if on_shell_yz {
                    for x in dx0..=dx1 {
                        if x < 0 || x >= self.dims[0] as isize {
                            continue;
                        }
                        out.extend_from_slice(&self.bins[self.index(x, y, z)]);
                    }
                } else {
                    // only the two extreme x planes are on the shell
                    for x in [dx0, dx1] {
                        if x < 0 || x >= self.dims[0] as isize {
                            continue;
                        }
                        if r == 0 && x == dx1 && dx0 == dx1 {
                            continue; // avoid double-visiting the center bin
                        }
                        out.extend_from_slice(&self.bins[self.index(x, y, z)]);
                        if dx0 == dx1 {
                            break;
                        }
                    }
                }
            }
        }
    }

    fn index(&self, x: isize, y: isize, z: isize) -> usize {
        x as usize + self.dims[0] * (y as usize + self.dims[1] * z as usize)
    }

    /// `f32` threshold such that `d2f > threshold` proves the exact
    /// squared distance exceeds `bound2` (conservative: no true candidate
    /// is ever rejected).
    #[inline]
    fn prefilter_bound(&self, bound2: f64) -> f32 {
        if !bound2.is_finite() {
            return f32::INFINITY;
        }
        ((bound2.sqrt() + self.prefilter_slack).powi(2) * (1.0 + 1e-6)) as f32
    }

    /// Squared distance in `f32` between stored point `i` and a center
    /// given relative to `bounds.min`.
    #[inline]
    fn rel_dist2_f32(&self, i: u32, c: [f32; 3]) -> f32 {
        let i = i as usize;
        let dx = self.sx[i] - c[0];
        let dy = self.sy[i] - c[1];
        let dz = self.sz[i] - c[2];
        dx * dx + dy * dy + dz * dz
    }

    /// Open a candidate stream around `center` in canonical order. `points`
    /// must be the slice the grid was built from; `ids` holds the global id
    /// of each point, the first tie-break on an exact distance tie (then
    /// position). `None` breaks ties by index instead, for callers whose
    /// points are already stored in canonical order. `skip` is an index to
    /// omit (the site itself; pass `u32::MAX` to keep everything).
    pub fn stream<'a>(
        &'a self,
        points: &'a [Vec3],
        ids: Option<&'a [u64]>,
        center: Vec3,
        skip: u32,
        scratch: &'a mut StreamScratch,
    ) -> NeighborStream<'a> {
        scratch.heap.clear();
        scratch.ring.clear();
        let rel = center - self.bounds.min;
        NeighborStream {
            grid: self,
            order: TieOrder { points, ids },
            center,
            center_rel32: [rel.x as f32, rel.y as f32, rel.z as f32],
            center_rel: [rel.x, rel.y, rel.z],
            coords: self.coords_of(center),
            skip,
            next_ring: 0,
            cur_lb2: 0.0,
            prefilter_skipped: 0,
            scratch,
        }
    }
}

/// Reusable buffers for [`NeighborStream`] (heap + ring scratch), owned by
/// the caller so streaming millions of cells allocates nothing in steady
/// state.
#[derive(Default)]
pub struct StreamScratch {
    heap: Vec<(f64, u32)>,
    ring: Vec<u32>,
}

/// Lazy merge of the grid rings around one center, in canonical order.
///
/// [`NeighborStream::next`] takes the caller's current squared search
/// bound, which must be **non-increasing** across calls (the security
/// radius only shrinks as the cell is clipped). Candidates are emitted in
/// non-decreasing exact distance, exact ties broken by global id, then
/// position (by index when the stream has no ids); `None` means no
/// remaining candidate lies within the bound — and since the bound never
/// grows, none ever will.
///
/// Internally: rings are fetched one at a time into a binary min-heap
/// keyed on the canonical order. The heap top is emitted only once its
/// distance lies *strictly* below the lower bound of every unfetched
/// candidate: a candidate of the next ring can tie the bound exactly, and
/// if it carries a smaller id it must come out first. Candidates are
/// prefiltered with the `f32` SoA distance before the exact `f64` distance
/// is computed.
pub struct NeighborStream<'a> {
    grid: &'a CandidateGrid,
    order: TieOrder<'a>,
    center: Vec3,
    center_rel32: [f32; 3],
    center_rel: [f64; 3],
    coords: [isize; 3],
    skip: u32,
    /// Next ring index to fetch.
    next_ring: usize,
    /// Squared lower bound on every not-yet-fetched candidate (the ring
    /// lower bound of `next_ring`, less the rounding slack, squared).
    cur_lb2: f64,
    prefilter_skipped: u64,
    scratch: &'a mut StreamScratch,
}

impl NeighborStream<'_> {
    /// Next candidate within `bound2` in canonical order, or `None` when
    /// every remaining candidate provably lies beyond it.
    pub fn next(&mut self, bound2: f64) -> Option<(f64, u32)> {
        loop {
            if let Some(&(d2, i)) = self.scratch.heap.first() {
                // safe to emit once nothing unfetched can be as close
                if d2 < self.cur_lb2 {
                    if d2 > bound2 {
                        return None;
                    }
                    let order = self.order;
                    heap_pop(&mut self.scratch.heap, |a, b| order.less(a, b));
                    return Some((d2, i));
                }
            }
            if self.cur_lb2 > bound2 {
                return None;
            }
            if self.next_ring > self.grid.max_ring() {
                // rings exhausted with an infinite bound: heap is empty
                // (any head would have been emitted against cur_lb2 = +∞)
                return None;
            }
            self.fetch_next_ring(bound2);
        }
    }

    /// Candidates rejected by the `f32` prefilter so far.
    pub fn prefilter_skipped(&self) -> u64 {
        self.prefilter_skipped
    }

    fn fetch_next_ring(&mut self, bound2: f64) {
        let r = self.next_ring;
        self.next_ring = r + 1;
        self.grid
            .ring_candidates_at(self.coords, r, &mut self.scratch.ring);
        let pf = self.grid.prefilter_bound(bound2);
        let order = self.order;
        for &i in self.scratch.ring.iter() {
            if i == self.skip {
                continue;
            }
            if self.grid.rel_dist2_f32(i, self.center_rel32) > pf {
                self.prefilter_skipped += 1;
                continue;
            }
            let d2 = order.points[i as usize].dist2(self.center);
            if d2 <= bound2 {
                heap_push(&mut self.scratch.heap, (d2, i), |a, b| order.less(a, b));
            }
        }
        let lb = self
            .grid
            .ring_lb(self.center_rel, self.coords, self.next_ring);
        // Conservative in both roundings: the wall position (`lb_slack`)
        // and the squared distances the heap compares against it.
        let lb = (lb - self.grid.lb_slack).max(0.0);
        self.cur_lb2 = lb * lb * (1.0 - 4.0 * f64::EPSILON);
    }
}

/// Canonical candidate order: exact squared distance, then global id, then
/// position — distinct periodic images of one particle can tie in both
/// distance and id. The id and position are read only on an exact distance
/// tie, which keeps the common comparison a single `f64` compare.
#[derive(Clone, Copy)]
struct TieOrder<'a> {
    points: &'a [Vec3],
    /// `None`: index order is already canonical.
    ids: Option<&'a [u64]>,
}

impl TieOrder<'_> {
    #[inline]
    fn less(&self, a: (f64, u32), b: (f64, u32)) -> bool {
        match a.0.total_cmp(&b.0) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => self.tie(a.1, b.1) == Ordering::Less,
        }
    }

    #[cold]
    fn tie(&self, i: u32, j: u32) -> Ordering {
        let Some(ids) = self.ids else {
            return i.cmp(&j);
        };
        let (pi, pj) = (self.points[i as usize], self.points[j as usize]);
        ids[i as usize]
            .cmp(&ids[j as usize])
            .then_with(|| pi.x.total_cmp(&pj.x))
            .then_with(|| pi.y.total_cmp(&pj.y))
            .then_with(|| pi.z.total_cmp(&pj.z))
            .then_with(|| i.cmp(&j))
    }
}

fn heap_push(
    h: &mut Vec<(f64, u32)>,
    item: (f64, u32),
    less: impl Fn((f64, u32), (f64, u32)) -> bool,
) {
    h.push(item);
    let mut i = h.len() - 1;
    while i > 0 {
        let p = (i - 1) / 2;
        if less(h[i], h[p]) {
            h.swap(i, p);
            i = p;
        } else {
            break;
        }
    }
}

fn heap_pop(h: &mut Vec<(f64, u32)>, less: impl Fn((f64, u32), (f64, u32)) -> bool) {
    h.swap_remove(0);
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut m = i;
        if l < h.len() && less(h[l], h[m]) {
            m = l;
        }
        if r < h.len() && less(h[r], h[m]) {
            m = r;
        }
        if m == i {
            break;
        }
        h.swap(i, m);
        i = m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(n: usize) -> Vec<Vec3> {
        (0..n)
            .flat_map(|k| {
                (0..n).flat_map(move |j| {
                    (0..n).map(move |i| Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5))
                })
            })
            .collect()
    }

    fn jittered(n: usize, seed: u64, amp: f64) -> Vec<Vec3> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        lattice(n)
            .into_iter()
            .map(|p| {
                p + Vec3::new(
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                )
            })
            .collect()
    }

    #[test]
    fn rings_partition_all_points() {
        let pts = lattice(6);
        let grid = CandidateGrid::build(Aabb::cube(6.0), &pts, 2.0);
        let center = Vec3::splat(3.0);
        let mut seen = vec![false; pts.len()];
        let mut buf = Vec::new();
        for r in 0..=grid.max_ring() {
            grid.ring_candidates(center, r, &mut buf);
            for &i in &buf {
                assert!(!seen[i as usize], "point {i} appeared in two rings");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all points visited exactly once");
    }

    #[test]
    fn ring_zero_is_center_bin_only() {
        let pts = lattice(4);
        let grid = CandidateGrid::build(Aabb::cube(4.0), &pts, 1.0);
        let mut buf = Vec::new();
        grid.ring_candidates(Vec3::splat(0.5), 0, &mut buf);
        // no duplicates
        let mut sorted = buf.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), buf.len());
    }

    #[test]
    fn ring_lower_bound_is_valid_and_monotone() {
        let pts = lattice(8);
        let grid = CandidateGrid::build(Aabb::cube(8.0), &pts, 2.0);
        let mut buf = Vec::new();
        for center in [Vec3::new(4.1, 3.9, 4.0), Vec3::new(0.2, 7.7, 3.5)] {
            let mut prev = 0.0;
            for r in 0..=grid.max_ring() + 1 {
                let lb = grid.ring_min_distance_from(center, r);
                assert!(lb >= prev, "ring bound decreased at r={r}");
                prev = lb;
                grid.ring_candidates(center, r, &mut buf);
                for &i in &buf {
                    let d = pts[i as usize].dist(center);
                    assert!(
                        d >= lb - 1e-12,
                        "ring {r}: point at distance {d} < bound {lb}"
                    );
                }
            }
            assert!(prev.is_infinite(), "past every axis the rings are empty");
        }
    }

    #[test]
    fn ring_lower_bound_holds_on_anisotropic_grids() {
        // Flat slab: bins are much shorter in z than in x/y.
        let mut pts = Vec::new();
        for k in 0..4 {
            for j in 0..16 {
                for i in 0..16 {
                    pts.push(Vec3::new(
                        i as f64 + 0.5,
                        j as f64 + 0.5,
                        (k as f64 + 0.5) * 0.25,
                    ));
                }
            }
        }
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(16.0, 16.0, 1.0));
        let grid = CandidateGrid::build(bounds, &pts, 2.0);
        let [dx, dy, dz] = grid.dims();
        assert!(
            dz < dx && dz < dy,
            "slab should bin anisotropically: {:?}",
            grid.dims()
        );
        let center = Vec3::new(8.2, 7.8, 0.5);
        let mut buf = Vec::new();
        for r in 1..=grid.max_ring() {
            let lb = grid.ring_min_distance_from(center, r);
            if r >= dz {
                // z is exhausted on both sides, so the bound must come
                // from the (larger) x/y edges.
                assert!(
                    lb >= (r - 1) as f64 * (16.0 / dx.max(dy) as f64) - 1e-12,
                    "ring {r}: bound {lb} not tightened past the z edge"
                );
            }
            grid.ring_candidates(center, r, &mut buf);
            for &i in &buf {
                let d = pts[i as usize].dist(center);
                assert!(
                    d >= lb - 1e-12,
                    "ring {r}: point at distance {d} < bound {lb}"
                );
            }
        }
    }

    #[test]
    fn face_cell_bound_skips_exhausted_axis_sides() {
        // On a strongly anisotropic grid (short z axis, h[z] < h[x]) a
        // center whose z bin is within one bin of *both* z block faces has
        // no ring-`r` bin on either z side for `r >= 2`, so the bound is set
        // by the (much larger) x/y gaps rather than the sub-bin z gap.
        //
        // Slab sized so the builder picks dims [16, 16, 3]: h[x] = 1 but
        // h[z] = 2.05/3 ≈ 0.683 — genuinely anisotropic bin edges.
        let mut pts = Vec::new();
        for k in 0..4 {
            for j in 0..16 {
                for i in 0..16 {
                    pts.push(Vec3::new(
                        i as f64 + 0.5,
                        j as f64 + 0.5,
                        (k as f64 + 0.5) * 2.05 / 4.0,
                    ));
                }
            }
        }
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(16.0, 16.0, 2.05));
        let grid = CandidateGrid::build(bounds, &pts, 2.0);
        assert_eq!(grid.dims(), [16, 16, 3], "test geometry drifted");
        let [dx, _dy, dz] = grid.dims();
        let (hx, hz) = (16.0 / dx as f64, 2.05 / dz as f64);
        assert!(hz < hx * 0.75, "need anisotropic edges: hx {hx} hz {hz}");
        // center mid-bin in x/y, in the middle z bin — one bin from both
        // z faces of the block
        let center = Vec3::new(8.5, 7.5, 1.025);
        let mut buf = Vec::new();
        for r in 1..grid.max_ring() {
            let aware = grid.ring_min_distance_from(center, r);
            grid.ring_candidates(center, r, &mut buf);
            for &i in &buf {
                let d = pts[i as usize].dist(center);
                assert!(
                    d >= aware - 1e-12,
                    "ring {r}: point at distance {d} < center-aware bound {aware}"
                );
            }
            if r == 2 {
                // both z sides are exhausted at r = 2 (middle bin of 3), so
                // the bound is the mid-bin x/y gap of 1.5·h[x] — more than
                // a whole z bin edge past the `(r-1)·h[z]` worst case
                assert!(
                    (aware - 1.5 * hx).abs() < 1e-9,
                    "ring {r}: aware {aware} expected {}",
                    1.5 * hx
                );
                assert!(aware > (r - 1) as f64 * hz + hz);
            }
        }
    }

    #[test]
    fn stream_emits_every_candidate_in_nondecreasing_distance() {
        let pts = jittered(6, 11, 0.4);
        let grid = CandidateGrid::build(Aabb::cube(6.0), &pts, 2.0);
        for (skip, center) in [(17u32, pts[17]), (u32::MAX, Vec3::new(0.1, 5.7, 2.3))] {
            let mut scratch = StreamScratch::default();
            let mut stream = grid.stream(&pts, None, center, skip, &mut scratch);
            let mut got = Vec::new();
            let mut last = 0.0f64;
            while let Some((d2, i)) = stream.next(f64::MAX) {
                assert!(d2 >= last, "distance decreased: {d2} after {last}");
                assert!((pts[i as usize].dist2(center) - d2).abs() == 0.0);
                last = d2;
                got.push(i);
            }
            let mut expect: Vec<u32> = (0..pts.len() as u32).filter(|&i| i != skip).collect();
            expect.sort_unstable();
            let mut got_sorted = got.clone();
            got_sorted.sort_unstable();
            assert_eq!(got_sorted, expect, "stream must visit every candidate");
        }
    }

    #[test]
    fn stream_respects_a_shrinking_bound_and_never_stops_early() {
        // With a bound that shrinks between calls, the stream must still
        // deliver every candidate inside the *final* bound before
        // returning None (the security-radius contract).
        let pts = jittered(5, 3, 0.45);
        let grid = CandidateGrid::build(Aabb::cube(5.0), &pts, 2.0);
        let center = pts[31];
        let bounds_seq = [9.0f64, 4.0, 2.5, 2.5, 1.4];
        let mut scratch = StreamScratch::default();
        let mut stream = grid.stream(&pts, None, center, 31, &mut scratch);
        let mut emitted = Vec::new();
        let mut k = 0usize;
        loop {
            let bound2 = bounds_seq[k.min(bounds_seq.len() - 1)];
            match stream.next(bound2) {
                Some((d2, i)) => {
                    assert!(d2 <= bound2);
                    emitted.push(i);
                    k += 1;
                }
                None => break,
            }
        }
        let final_bound = *bounds_seq.last().unwrap();
        for (i, &p) in pts.iter().enumerate() {
            if i == 31 {
                continue;
            }
            if p.dist2(center) <= final_bound {
                assert!(
                    emitted.contains(&(i as u32)),
                    "candidate {i} inside the final bound was never emitted"
                );
            }
        }
    }

    #[test]
    fn prefilter_skips_far_candidates_but_never_true_ones() {
        let pts = jittered(7, 5, 0.3);
        let grid = CandidateGrid::build(Aabb::cube(7.0), &pts, 2.0);
        let center = pts[100];
        let bound2 = 2.25f64; // radius 1.5 in a box of extent 7
        let mut scratch = StreamScratch::default();
        let mut stream = grid.stream(&pts, None, center, 100, &mut scratch);
        let mut got = Vec::new();
        while let Some((_, i)) = stream.next(bound2) {
            got.push(i);
        }
        let skipped = stream.prefilter_skipped();
        // exact oracle: every point within the bound must be emitted
        let expect: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|&(i, p)| i != 100 && p.dist2(center) <= bound2)
            .map(|(i, _)| i as u32)
            .collect();
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        let mut expect_sorted = expect.clone();
        expect_sorted.sort_unstable();
        assert_eq!(got_sorted, expect_sorted);
        assert!(skipped > 0, "prefilter never fired on a far-candidate scan");
    }

    /// Every point of the periodic `n`-lattice (`n` even) whose image lies
    /// in `bounds`, with ids counting *down* (so index order is not id
    /// order) and exact duplicates of a few sites under fresh ids.
    fn tied_corpus(n: usize, bounds: &Aabb) -> (Vec<Vec3>, Vec<u64>) {
        let (mut pts, mut ids) = (Vec::new(), Vec::new());
        let ng = n as f64;
        let base = lattice(n);
        for (k, &p) in base.iter().enumerate() {
            for sx in -1..=1 {
                for sy in -1..=1 {
                    for sz in -1..=1 {
                        let img = p + Vec3::new(sx as f64, sy as f64, sz as f64) * ng;
                        if bounds.contains_closed(img) {
                            pts.push(img);
                            ids.push((base.len() - 1 - k) as u64);
                        }
                    }
                }
            }
        }
        for k in [0usize, 7, 40] {
            pts.push(base[k]);
            ids.push(10_000 + k as u64);
        }
        (pts, ids)
    }

    /// Drain a stream around `center` and check it against the
    /// brute-force canonical sort of every candidate.
    fn assert_canonical_emission(
        grid: &CandidateGrid,
        pts: &[Vec3],
        ids: Option<&[u64]>,
        center: Vec3,
        skip: u32,
    ) {
        let mut scratch = StreamScratch::default();
        let mut stream = grid.stream(pts, ids, center, skip, &mut scratch);
        let mut got = Vec::new();
        while let Some((_, i)) = stream.next(f64::INFINITY) {
            got.push(i);
        }
        let order = TieOrder { points: pts, ids };
        let mut expect: Vec<u32> = (0..pts.len() as u32).filter(|&i| i != skip).collect();
        expect.sort_by(|&a, &b| {
            let (da, db) = (pts[a as usize].dist2(center), pts[b as usize].dist2(center));
            if order.less((da, a), (db, b)) {
                Ordering::Less
            } else if order.less((db, b), (da, a)) {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        });
        assert_eq!(got, expect, "center {center}, ids {}", ids.is_some());
    }

    #[test]
    fn stream_breaks_exact_ties_in_canonical_order() {
        // Unjittered lattice, periodic images of one particle sharing its
        // id, and exact duplicates: distances tie exactly, so the emission
        // order is decided by id, then position (or by index without ids).
        let n = 6;
        let bounds = Aabb::cube(n as f64).grown(3.0);
        let (pts, ids) = tied_corpus(n, &bounds);
        let grid = CandidateGrid::build(bounds, &pts, 2.0);
        for skip in [0u32, 5, 77, 130] {
            let center = pts[skip as usize];
            assert_canonical_emission(&grid, &pts, Some(&ids), center, skip);
            assert_canonical_emission(&grid, &pts, None, center, skip);
        }
        // the corpus really ties in distance and id (periodic images)
        let c = pts[0];
        let ties = (0..pts.len())
            .flat_map(|a| (a + 1..pts.len()).map(move |b| (a, b)))
            .filter(|&(a, b)| ids[a] == ids[b] && pts[a].dist2(c) == pts[b].dist2(c))
            .count();
        assert!(ties > 0, "corpus has no distance-and-id ties");
    }

    #[test]
    fn stream_holds_ties_at_a_ring_lower_bound_for_the_next_ring() {
        // Unit bins over [0, 8]³, points at (i, j+½, k+½) with ids counting
        // down, a center at (2.5, 2.5, 2.5). The ring-2 lower bound is 1.5,
        // and two points sit at exactly that distance: (1, 2.5, 2.5) in
        // ring 1 and (4, 2.5, 2.5) in ring 2 — the latter with the smaller
        // id. Emitting the ring-1 point as soon as its distance *reaches*
        // the bound would put it first; it must wait for ring 2.
        let side = 8usize;
        let pts: Vec<Vec3> = (0..side * side * side)
            .map(|idx| {
                let (i, j, k) = (idx % side, (idx / side) % side, idx / (side * side));
                Vec3::new(i as f64, j as f64 + 0.5, k as f64 + 0.5)
            })
            .collect();
        let ids: Vec<u64> = (0..pts.len() as u64).rev().collect();
        let bounds = Aabb::cube(side as f64);
        let grid = CandidateGrid::build(bounds, &pts, 1.0);
        assert_eq!(grid.dims(), [side; 3], "test geometry drifted");
        for center in [Vec3::splat(2.5), Vec3::new(5.5, 2.5, 3.5)] {
            assert!((grid.ring_min_distance_from(center, 2) - 1.5).abs() < 1e-15);
            assert_canonical_emission(&grid, &pts, Some(&ids), center, u32::MAX);
            assert_canonical_emission(&grid, &pts, None, center, u32::MAX);
        }
    }

    #[test]
    fn stream_order_survives_rounding_at_a_bin_wall() {
        // Bins of width 0.1 over [0, 1]³. The point at x = 0.3 lands in bin
        // 3, yet fl(0.3) lies just below the bin wall fl(3 · 0.1), so its
        // distance from the center is *below* the ring-3 bound as computed
        // (0.0576 vs 0.05760000000000002). A ring-2 point at squared
        // distance 0.05760000000000001 sits in between: trusting the raw
        // bound would emit it before the closer ring-3 point.
        let center = Vec3::new(0.06, 0.55, 0.55);
        let pts = vec![
            Vec3::new(0.3, 0.55, 0.55),
            Vec3::new(0.2039999999999921, 0.742000000000006, 0.55),
        ];
        let grid = CandidateGrid::build(Aabb::cube(1.0), &pts, 0.002);
        assert_eq!(grid.dims(), [10; 3], "test geometry drifted");
        let (near, far) = (pts[0].dist2(center), pts[1].dist2(center));
        let lb = grid.ring_min_distance_from(center, 3);
        assert!(near < far && far < lb * lb, "rounding case drifted");
        assert_canonical_emission(&grid, &pts, None, center, u32::MAX);
    }

    #[test]
    fn handles_empty_and_single_point() {
        let grid = CandidateGrid::build(Aabb::cube(1.0), &[], 2.0);
        let mut buf = Vec::new();
        grid.ring_candidates(Vec3::splat(0.5), 0, &mut buf);
        assert!(buf.is_empty());
        let mut scratch = StreamScratch::default();
        let mut stream = grid.stream(&[], None, Vec3::splat(0.5), u32::MAX, &mut scratch);
        assert!(stream.next(f64::MAX).is_none());

        let pts = [Vec3::splat(0.2)];
        let grid = CandidateGrid::build(Aabb::cube(1.0), &pts, 2.0);
        grid.ring_candidates(Vec3::splat(0.9), 0, &mut buf);
        assert_eq!(buf, vec![0]);
        let mut stream = grid.stream(&pts, None, Vec3::splat(0.9), u32::MAX, &mut scratch);
        assert_eq!(stream.next(f64::MAX).map(|(_, i)| i), Some(0));
        assert!(stream.next(f64::MAX).is_none());
    }

    #[test]
    fn out_of_bounds_queries_clamp() {
        let pts = lattice(4);
        let grid = CandidateGrid::build(Aabb::cube(4.0), &pts, 2.0);
        let mut buf = Vec::new();
        // center outside the grid clamps to the nearest bin
        grid.ring_candidates(Vec3::splat(-5.0), 0, &mut buf);
        // should not panic; candidates come from the corner bin
        for &i in &buf {
            let p = pts[i as usize];
            assert!(p.x < 4.0 && p.y < 4.0 && p.z < 4.0);
        }
    }
}
