//! Tessellation drivers: distributed (in-situ) and standalone (serial).
//!
//! Every distributed pass runs one ghost-round loop: exchange ghosts with
//! the neighbours, compute and certify each block's cells, and hand every
//! finished block to a sink — the in-memory merge of [`tessellate`] or the
//! collective file waves of [`tessellate_streaming`]. A fixed or auto
//! ghost radius is the one-round schedule; the adaptive schedule grows
//! each block's halo round by round.

use std::collections::BTreeMap;
use std::io;

use diy::comm::{Runtime, World};
use diy::decomposition::{Assignment, Decomposition};
use diy::metrics::MetricsHandle;
use diy::trace::{trace_mode, TraceMode};
use geometry::{Aabb, Vec3};

use crate::block::{tessellate_block_session, BlockSession, CellObs};
use crate::ghost::{exchange_ghosts, sort_ghosts, AdaptiveGhostExchange, GhostParticle};
use crate::io::TessStreamWriter;
use crate::model::MeshBlock;
use crate::params::{GhostSpec, TessParams, AUTO_GHOST_FACTOR};
use crate::stats::TessStats;

/// Phase span covering ghost resolution + particle exchange (see
/// [`diy::metrics`]).
pub const PHASE_GHOST_EXCHANGE: &str = "ghost_exchange";
/// Phase span covering the local Voronoi computation.
pub const PHASE_VORONOI: &str = "voronoi";
/// Phase span covering the collective tessellation write
/// ([`crate::io::write_tessellation`]).
pub const PHASE_OUTPUT: &str = "output";

/// Histogram: candidate tests per computed cell (always recorded).
pub const HIST_CANDIDATES: &str = "tess.candidates_per_cell";
/// Histogram: wall nanoseconds per computed cell (tracing only).
pub const HIST_CELL_COMPUTE_NS: &str = "tess.cell_compute_ns";
/// Histogram: ghost radius requested per owned block per ghost round.
pub const HIST_GHOST_REQUEST_RADIUS: &str = "tess.ghost_request_radius";
/// Histogram: input particles per owned block (one sample per block, so
/// the merged histogram's max/mean is the block-level load imbalance).
pub const HIST_BLOCK_PARTICLES: &str = "tess.block_particles";
/// Histogram: input particles per rank (one sample per rank; max/mean
/// across the merged report is the rank-level particle imbalance).
pub const HIST_RANK_PARTICLES: &str = "tess.rank_particles";
/// Histogram: cells produced per rank (max/mean = cell imbalance).
pub const HIST_RANK_CELLS: &str = "tess.rank_cells";

/// Record the decomposition balance counters for this rank's share of the
/// input: one `tess.block_particles` sample per owned block and one
/// `tess.rank_particles` sample for the rank total.
fn record_balance(metrics: &MetricsHandle, local: &BTreeMap<u64, Vec<(u64, Vec3)>>) {
    let mut total = 0usize;
    for own in local.values() {
        metrics.observe(HIST_BLOCK_PARTICLES, own.len() as f64);
        total += own.len();
    }
    metrics.observe(HIST_RANK_PARTICLES, total as f64);
}

/// Fold one block's per-cell observability into the rank metrics.
fn record_block_obs(metrics: &MetricsHandle, gid: u64, obs: CellObs) {
    metrics.merge_hist(HIST_CANDIDATES, &obs.candidates);
    if obs.compute_ns.n() > 0 {
        metrics.merge_hist(HIST_CELL_COMPUTE_NS, &obs.compute_ns);
    }
    metrics.note_slow_cells(gid, &obs.slow);
}

/// Hand pool CPU and (when tracing) pool task events back to the rank
/// span that submitted the work.
fn drain_pool(metrics: &MetricsHandle) {
    metrics.add_external_cpu(rayon::take_pool_cpu_seconds());
    if trace_mode() == TraceMode::Full {
        metrics.add_pool_tasks(
            rayon::take_pool_tasks()
                .into_iter()
                .map(|t| (t.worker, t.start_ns, t.end_ns, t.chunk)),
        );
    }
}

/// Result of one tessellation pass on one rank. Timing lives in the
/// world's metrics under the [`PHASE_GHOST_EXCHANGE`] / [`PHASE_VORONOI`]
/// spans; collect it with [`diy::metrics::collect_report`].
pub struct TessResult {
    /// Tessellated blocks owned by this rank.
    pub blocks: BTreeMap<u64, MeshBlock>,
    /// This rank's counters (merge across ranks for global stats).
    pub stats: TessStats,
    /// The largest ghost radius any block used.
    pub ghost_used: f64,
}

/// Estimated particle spacing: `max over blocks of (block volume / own
/// particles)^{1/3}` (a collective operation — every rank gets the global
/// maximum).
pub fn estimated_spacing(
    world: &mut World,
    dec: &Decomposition,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
) -> f64 {
    let local_max = local
        .iter()
        .map(|(&gid, particles)| {
            let vol = dec.block_bounds(gid).volume();
            let n = particles.len().max(1) as f64;
            (vol / n).powf(1.0 / 3.0)
        })
        .fold(0.0f64, f64::max);
    world.all_reduce(local_max, f64::max)
}

/// The initial radius of `spec` and the auto-heuristic fallback radius of
/// the adaptive schedule, both capped at the neighbour reach (collective
/// unless `spec` is explicit).
fn ghost_radii(
    world: &mut World,
    dec: &Decomposition,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
    spec: GhostSpec,
) -> (f64, f64) {
    // The exchange only reaches adjacent blocks, so a wider halo would
    // certify cells against a region it never filled.
    let reach = dec.min_block_extent();
    assert!(
        reach.is_finite() && reach > 0.0,
        "degenerate decomposition: min block extent {reach}"
    );
    let factor = match spec {
        GhostSpec::Explicit(g) => return (g.min(reach), g.min(reach)),
        GhostSpec::Auto { factor } => factor,
        GhostSpec::Adaptive { initial_factor, .. } => initial_factor,
    };
    let spacing = estimated_spacing(world, dec, local);
    (
        (factor * spacing).min(reach),
        (AUTO_GHOST_FACTOR * spacing).min(reach),
    )
}

/// Resolve the ghost size: explicit passthrough or a spacing multiple (a
/// collective operation), capped at the smallest block extent — the
/// farthest the neighbour exchange reaches. For `Adaptive` this is the
/// *initial* radius; [`tessellate`] then grows it per block as needed.
pub fn resolve_ghost(
    world: &mut World,
    dec: &Decomposition,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
    spec: GhostSpec,
) -> f64 {
    ghost_radii(world, dec, local, spec).0
}

/// Where the round loop hands finished blocks, one wave at a time.
trait BlockSink {
    /// Waves the one-round schedule runs for `owned` local blocks.
    fn waves(&mut self, world: &mut World, owned: usize) -> usize;
    /// Take one wave of final blocks (possibly empty).
    fn wave(&mut self, world: &mut World, blocks: Vec<(u64, MeshBlock)>) -> io::Result<()>;
}

/// The in-memory merge: waves are local, so nothing is padded.
impl BlockSink for BTreeMap<u64, MeshBlock> {
    fn waves(&mut self, _world: &mut World, owned: usize) -> usize {
        owned
    }

    fn wave(&mut self, _world: &mut World, blocks: Vec<(u64, MeshBlock)>) -> io::Result<()> {
        self.extend(blocks);
        Ok(())
    }
}

/// The streamed file: every wave is a collective write, so every rank
/// runs as many waves as the rank with the most blocks.
impl BlockSink for TessStreamWriter {
    fn waves(&mut self, world: &mut World, owned: usize) -> usize {
        world.all_reduce(owned as u64, u64::max) as usize
    }

    fn wave(&mut self, world: &mut World, blocks: Vec<(u64, MeshBlock)>) -> io::Result<()> {
        let refs: Vec<(u64, &MeshBlock)> = blocks.iter().map(|(gid, b)| (*gid, b)).collect();
        self.write_wave(world, &refs)?;
        world.metrics().sample_mem_counters();
        Ok(())
    }
}

/// The ghost-round loop behind [`tessellate`] and [`tessellate_streaming`]
/// (collective). Returns this rank's counters and the largest radius used.
///
/// Each round exchanges ghosts for the blocks in the collective request
/// map and re-tessellates exactly those blocks. A fixed or auto radius is
/// one round: one [`exchange_ghosts`], then each block goes to the sink
/// as soon as it is computed, one block per wave. Adaptive rounds ship
/// only the delta shell, gather every uncertified cell's radius need on
/// all ranks, and send the blocks no longer re-requested to the sink in
/// one wave. After `max_rounds` growth rounds one fallback round at the
/// auto-heuristic radius runs; cells still uncertified are dropped.
fn tessellate_rounds(
    world: &mut World,
    dec: &Decomposition,
    asn: &Assignment,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
    params: &TessParams,
    sink: &mut impl BlockSink,
) -> io::Result<(TessStats, f64)> {
    // Pool task events are only worth their mutex traffic under full
    // tracing; flip the pool's recording flag to match before any work.
    rayon::set_task_trace(trace_mode() == TraceMode::Full);
    let metrics = world.metrics();
    record_balance(&metrics, local);
    // Canonical start cube half-extent: a function of the *domain*, so
    // certified cell bits cannot depend on which decomposition scheme cut
    // the domain into blocks (see `cell::CellContext::canon_extent`).
    let e = dec.domain.extent();
    let params = &TessParams {
        canon_extent: Some(params.canon_extent.unwrap_or(e.x.min(e.y).min(e.z))),
        ..*params
    };
    let (r0, auto_r) = {
        let _span = metrics.phase(PHASE_GHOST_EXCHANGE);
        ghost_radii(world, dec, local, params.ghost)
    };
    let cap = dec.min_block_extent();
    // `None`: the one-round schedule, whose blocks are final once computed.
    let max_rounds = match params.ghost {
        GhostSpec::Adaptive { max_rounds, .. } => Some(max_rounds),
        _ => None,
    };
    let mut exchanger = max_rounds.map(|_| AdaptiveGhostExchange::new(dec, asn));
    let mut ghosts: BTreeMap<u64, Vec<GhostParticle>> = BTreeMap::new();
    // Blocks a later round may re-request, with their resumable sessions:
    // round `k+1` recomputes only the cells round `k` could not certify.
    let mut held: BTreeMap<u64, (MeshBlock, TessStats, BlockSession)> = BTreeMap::new();
    // Current halo radius per block — global state, identical on all ranks.
    let mut radius: BTreeMap<u64, f64> = BTreeMap::new();
    // Round 0: every block wants the initial radius.
    let mut request: BTreeMap<u64, f64> = (0..dec.nblocks() as u64).map(|g| (g, r0)).collect();
    let mut stats = TessStats::default();
    let mut round = 0usize;

    let rounds = loop {
        // Ghosts that arrived this round, kept aside so incremental
        // resumes can verify/recompute against exactly the delta shell.
        let fresh = {
            let _span = metrics.phase(PHASE_GHOST_EXCHANGE);
            let _round_span = metrics.phase(format!("ghost_round:{round}"));
            metrics.mark("ghost_round", round as u64);
            let fresh = match exchanger.as_mut() {
                Some(x) => x.round(world, local, &request, round),
                None => {
                    ghosts = exchange_ghosts(world, dec, asn, local, r0);
                    BTreeMap::new()
                }
            };
            for (&gid, items) in &fresh {
                let v = ghosts.entry(gid).or_default();
                v.extend_from_slice(items);
                sort_ghosts(v);
            }
            for (&g, &r) in &request {
                // Owned blocks only: each block is then counted exactly
                // once globally, at any rank count.
                if local.contains_key(&g) {
                    metrics.observe(HIST_GHOST_REQUEST_RADIUS, r);
                }
                radius.insert(g, r);
            }
            fresh
        };

        // Re-tessellate the blocks whose halo changed; collect what the
        // still-uncertified cells need.
        let todo: Vec<u64> = local
            .keys()
            .copied()
            .filter(|g| request.contains_key(g))
            .collect();
        let waves = match max_rounds {
            None => sink.waves(world, todo.len()),
            Some(_) => 0,
        };
        let mut needed: Vec<(u64, f64)> = Vec::new();
        for &gid in &todo {
            let (own, r) = (&local[&gid], radius[&gid]);
            let g = ghosts.get(&gid).map_or(&[][..], Vec::as_slice);
            let span = metrics.phase(PHASE_VORONOI);
            let (block, s, cert, mut session) = match held.remove(&gid) {
                Some((_, _, mut session)) if params.incremental_retess => {
                    let delta = fresh.get(&gid).map_or(&[][..], Vec::as_slice);
                    let (block, s, cert) = session.retessellate(own, g, delta, r, params);
                    (block, s, cert, session)
                }
                prev => {
                    let (block, mut s, cert, session) =
                        tessellate_block_session(gid, dec.block_bounds(gid), own, g, r, params);
                    // keep the work counters cumulative across rounds in
                    // full (non-incremental) mode too, so the two modes'
                    // counters measure the same thing
                    if let Some((_, prev, _)) = prev {
                        s.candidates_tested =
                            s.candidates_tested.saturating_add(prev.candidates_tested);
                        s.cells_computed = s.cells_computed.saturating_add(prev.cells_computed);
                        s.cells_reused = s.cells_reused.saturating_add(prev.cells_reused);
                    }
                    (block, s, cert, session)
                }
            };
            record_block_obs(&metrics, gid, session.take_obs());
            drain_pool(&metrics); // pool CPU belongs to this voronoi span
            drop(span);
            if max_rounds.is_some() {
                if cert.uncertified > 0 && cert.needed_ghost > 0.0 {
                    needed.push((gid, cert.needed_ghost));
                }
                held.insert(gid, (block, s, session));
            } else {
                // final now: release its working set before the write
                drop(session);
                ghosts.remove(&gid);
                stats = stats.merge(s);
                sink.wave(world, vec![(gid, block)])?;
            }
        }
        let Some(max_rounds) = max_rounds else {
            // ranks past their block count still join every collective wave
            for _ in todo.len()..waves {
                sink.wave(world, Vec::new())?;
            }
            break 1;
        };

        // Build next round's request map from every rank's needs
        // (collective, so all ranks agree on who grows and by how much).
        request = {
            let _span = metrics.phase(PHASE_GHOST_EXCHANGE);
            let mine: Vec<(u64, f64)> = needed
                .into_iter()
                .filter_map(|(gid, need)| {
                    let cur = radius[&gid];
                    if cur >= cap - 1e-12 {
                        return None; // saturated: the neighborhood has no more
                    }
                    let next = if round < max_rounds {
                        // Grow toward the certification bound, at least
                        // 1.25x so near-converged cells cannot stall the
                        // loop and at most 2x because `need` overestimates:
                        // an under-clipped cell's security radius shrinks as
                        // candidates arrive. Doubling converges in O(log)
                        // rounds; incremental re-tessellation keeps them cheap.
                        need.max(cur * 1.25).min(cur * 2.0).min(cap)
                    } else if round == max_rounds {
                        auto_r.max(need).min(cap) // fallback: the auto radius
                    } else {
                        return None; // fallback spent: leave incomplete
                    };
                    (next > cur + 1e-12).then_some((gid, next))
                })
                .collect();
            world.all_gather(&mine).into_iter().flatten().collect()
        };

        // Held blocks the next round does not re-request are final. The
        // wave runs even when the loop is about to break, so every rank
        // makes the same collective calls.
        let finished: Vec<u64> = held
            .keys()
            .copied()
            .filter(|g| !request.contains_key(g))
            .collect();
        let mut wave = Vec::with_capacity(finished.len());
        for gid in finished {
            let (block, s, _) = held.remove(&gid).expect("held block");
            stats = stats.merge(s);
            ghosts.remove(&gid);
            wave.push((gid, block));
        }
        sink.wave(world, wave)?;
        round += 1;
        if request.is_empty() {
            break round as u64;
        }
    };

    stats.ghost_rounds = rounds;
    metrics.observe(HIST_RANK_CELLS, stats.cells as f64);
    Ok((stats, radius.values().fold(0.0f64, |a, &b| a.max(b))))
}

/// Distributed (in-situ) tessellation: collective over all ranks of
/// `world`. `local` maps each owned block gid to its original particles
/// `(global id, position)`.
pub fn tessellate(
    world: &mut World,
    dec: &Decomposition,
    asn: &Assignment,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
    params: &TessParams,
) -> TessResult {
    let mut blocks = BTreeMap::new();
    let (stats, ghost_used) = tessellate_rounds(world, dec, asn, local, params, &mut blocks)
        .expect("the in-memory merge cannot fail");
    TessResult {
        blocks,
        stats,
        ghost_used,
    }
}

/// Result of one bounded-memory streaming pass on one rank: the mesh went
/// to disk wave by wave, so only counters come back. Global totals are
/// identical on every rank.
pub struct StreamSummary {
    /// This rank's counters (merge across ranks for global stats).
    pub stats: TessStats,
    /// The largest ghost radius any block used.
    pub ghost_used: f64,
    /// Blocks written to the file (global).
    pub blocks_written: u64,
    /// Mesh payload bytes in the file, excluding framing (global).
    pub payload_bytes: u64,
    /// Total file bytes (global).
    pub file_bytes: u64,
}

/// Bounded-memory variant of [`tessellate`]: the same round loop, but
/// finished blocks are written and *dropped* in collective
/// [`TessStreamWriter`] waves instead of accumulating the merged mesh. The
/// file read back with [`crate::io::read_tessellation`] is bit-identical
/// to the accumulated merge — only the residency changes.
pub fn tessellate_streaming(
    world: &mut World,
    dec: &Decomposition,
    asn: &Assignment,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
    params: &TessParams,
    path: &std::path::Path,
) -> io::Result<StreamSummary> {
    let mut writer = TessStreamWriter::create(world, path)?;
    let (stats, ghost_used) = tessellate_rounds(world, dec, asn, local, params, &mut writer)?;
    let summary = writer.finish(world)?;
    Ok(StreamSummary {
        stats,
        ghost_used,
        blocks_written: summary.blocks,
        payload_bytes: summary.payload_bytes,
        file_bytes: summary.file_bytes,
    })
}

/// Standalone (serial) mode: one block covering the whole `domain`.
/// Periodic dimensions receive mirrored ghost copies of the block's own
/// particles, exactly as the distributed path would.
///
/// ```
/// use geometry::{Aabb, Vec3};
/// use tess::{tessellate_serial, TessParams};
///
/// // a 3×3×3 periodic lattice: every Voronoi cell is a unit cube
/// let particles: Vec<(u64, Vec3)> = (0..27)
///     .map(|i| {
///         let (x, y, z) = (i % 3, (i / 3) % 3, i / 9);
///         (i as u64, Vec3::new(x as f64 + 0.5, y as f64 + 0.5, z as f64 + 0.5))
///     })
///     .collect();
/// let (block, stats) = tessellate_serial(
///     &particles,
///     Aabb::cube(3.0),
///     [true; 3],
///     &TessParams::default().with_ghost(1.5),
/// );
/// assert_eq!(stats.cells, 27);
/// assert!((block.cells[0].volume - 1.0).abs() < 1e-9);
/// ```
pub fn tessellate_serial(
    particles: &[(u64, Vec3)],
    domain: Aabb,
    periodic: [bool; 3],
    params: &TessParams,
) -> (MeshBlock, TessStats) {
    let dec = Decomposition::with_dims(domain, [1, 1, 1], periodic);
    let particles = particles.to_vec();
    let params = *params;
    let mut results = Runtime::run(1, move |world| {
        let asn = Assignment::new(1, 1);
        let local: BTreeMap<u64, Vec<(u64, Vec3)>> =
            [(0u64, particles.clone())].into_iter().collect();
        let r = tessellate(world, &dec, &asn, &local, &params);
        let block = r.blocks.into_values().next().expect("one block");
        (block, r.stats)
    });
    results.remove(0)
}

/// Merge per-rank stats into global stats (collective).
pub fn global_stats(world: &mut World, stats: TessStats) -> TessStats {
    diy::reduce::all_reduce_merge(world, stats, TessStats::merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(n: usize) -> Vec<(u64, Vec3)> {
        (0..n * n * n)
            .map(|idx| {
                let i = idx % n;
                let j = (idx / n) % n;
                let k = idx / (n * n);
                (
                    idx as u64,
                    Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5),
                )
            })
            .collect()
    }

    fn jittered(n: usize, seed: u64, amp: f64) -> Vec<(u64, Vec3)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        lattice(n)
            .into_iter()
            .map(|(id, p)| {
                let q = p + Vec3::new(
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                );
                let ng = n as f64;
                (
                    id,
                    Vec3::new(q.x.rem_euclid(ng), q.y.rem_euclid(ng), q.z.rem_euclid(ng)),
                )
            })
            .collect()
    }

    #[test]
    fn serial_periodic_lattice_gives_all_unit_cells() {
        let n = 6;
        let particles = lattice(n);
        let params = TessParams::default().with_ghost(2.0);
        let (block, stats) =
            tessellate_serial(&particles, Aabb::cube(n as f64), [true; 3], &params);
        // periodic mirroring completes *every* cell
        assert_eq!(stats.cells, (n * n * n) as u64);
        assert_eq!(stats.incomplete, 0);
        let total: f64 = block.cells.iter().map(|c| c.volume).sum();
        assert!((total - (n * n * n) as f64).abs() < 1e-6, "total {total}");
        for c in &block.cells {
            assert!((c.volume - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cell_volumes_partition_the_periodic_box() {
        // For any particle set, complete periodic Voronoi cells must tile
        // the box: total volume == box volume.
        let n = 5;
        let particles = jittered(n, 3, 0.45);
        let params = TessParams::default().with_ghost(2.5);
        let (block, stats) =
            tessellate_serial(&particles, Aabb::cube(n as f64), [true; 3], &params);
        assert_eq!(stats.cells, (n * n * n) as u64, "all complete");
        let total: f64 = block.cells.iter().map(|c| c.volume).sum();
        let expect = (n * n * n) as f64;
        assert!(
            (total - expect).abs() < 1e-6 * expect,
            "total {total} vs {expect}"
        );
    }

    #[test]
    fn parallel_matches_serial_with_sufficient_ghost() {
        let n = 6;
        let particles = jittered(n, 9, 0.4);
        let domain = Aabb::cube(n as f64);
        let params = TessParams::default().with_ghost(2.5);

        let (serial_block, _) = tessellate_serial(&particles, domain, [true; 3], &params);
        let mut serial_vols: BTreeMap<u64, f64> = BTreeMap::new();
        for c in &serial_block.cells {
            serial_vols.insert(serial_block.site_id_of(c), c.volume);
        }

        let dec = Decomposition::regular(domain, 8, [true; 3]);
        let particles2 = particles.clone();
        let collected = Runtime::run(4, move |world| {
            let asn = Assignment::new(8, world.nranks());
            let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
                .blocks_of_rank(world.rank())
                .map(|g| (g, Vec::new()))
                .collect();
            for &(id, p) in &particles2 {
                let gid = dec.block_of_point(p);
                if let Some(v) = local.get_mut(&gid) {
                    v.push((id, p));
                }
            }
            let r = tessellate(world, &dec, &asn, &local, &params);
            r.blocks
                .values()
                .flat_map(|b| {
                    b.cells
                        .iter()
                        .map(|c| (b.site_id_of(c), c.volume))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });
        let parallel: BTreeMap<u64, f64> = collected.into_iter().flatten().collect();
        assert_eq!(parallel.len(), serial_vols.len(), "same cell count");
        for (id, v) in &parallel {
            let sv = serial_vols[id];
            assert!((v - sv).abs() < 1e-9, "cell {id}: {v} vs {sv}");
        }
    }

    #[test]
    fn insufficient_ghost_drops_boundary_cells() {
        let n = 6;
        let particles = lattice(n);
        let domain = Aabb::cube(n as f64);
        let dec = Decomposition::regular(domain, 8, [true; 3]);
        let particles2 = particles.clone();
        let kept = Runtime::run(2, move |world| {
            let asn = Assignment::new(8, world.nranks());
            let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
                .blocks_of_rank(world.rank())
                .map(|g| (g, Vec::new()))
                .collect();
            for &(id, p) in &particles2 {
                let gid = dec.block_of_point(p);
                if let Some(v) = local.get_mut(&gid) {
                    v.push((id, p));
                }
            }
            let params = TessParams::default().with_ghost(0.0);
            let r = tessellate(world, &dec, &asn, &local, &params);
            let s = global_stats(world, r.stats);
            (s.cells, s.incomplete)
        });
        let (cells, incomplete) = kept[0];
        assert_eq!(cells + incomplete, (n * n * n) as u64);
        assert!(incomplete > 0, "ghost 0 must lose boundary cells");
    }

    #[test]
    fn auto_ghost_resolves_to_spacing_multiple() {
        let n = 6;
        let particles = lattice(n);
        let domain = Aabb::cube(n as f64);
        let dec = Decomposition::regular(domain, 8, [true; 3]);
        let particles2 = particles.clone();
        let ghosts = Runtime::run(2, move |world| {
            let asn = Assignment::new(8, world.nranks());
            let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
                .blocks_of_rank(world.rank())
                .map(|g| (g, Vec::new()))
                .collect();
            for &(id, p) in &particles2 {
                let gid = dec.block_of_point(p);
                if let Some(v) = local.get_mut(&gid) {
                    v.push((id, p));
                }
            }
            [2.5, 4.0].map(|factor| resolve_ghost(world, &dec, &local, GhostSpec::Auto { factor }))
        });
        // mean spacing is 1.0: factor 2.5 resolves to 2.5, and factor 4
        // is capped at the 3-wide blocks' extent (the neighbour reach)
        for [inside, capped] in ghosts {
            assert!((inside - 2.5).abs() < 1e-9, "ghost {inside}");
            assert!((capped - 3.0).abs() < 1e-9, "ghost {capped}");
        }
    }

    #[test]
    fn adaptive_certifies_everything_and_matches_fixed_output() {
        let n = 6;
        let particles = jittered(n, 9, 0.4);
        let domain = Aabb::cube(n as f64);
        let fixed = TessParams::default().with_ghost(2.5);
        let adaptive = TessParams {
            ghost: GhostSpec::Adaptive {
                initial_factor: 0.75,
                max_rounds: 8,
            },
            ..TessParams::default()
        };
        let (fixed_block, fixed_stats) = tessellate_serial(&particles, domain, [true; 3], &fixed);
        let (ad_block, ad_stats) = tessellate_serial(&particles, domain, [true; 3], &adaptive);
        assert_eq!(ad_stats.incomplete, 0);
        assert_eq!(ad_stats.cells, fixed_stats.cells);
        assert!(
            ad_stats.ghost_rounds >= 1,
            "rounds {}",
            ad_stats.ghost_rounds
        );
        let vols = |b: &MeshBlock| -> BTreeMap<u64, f64> {
            b.cells
                .iter()
                .map(|c| (b.site_id_of(c), c.volume))
                .collect()
        };
        let (fv, av) = (vols(&fixed_block), vols(&ad_block));
        for (id, v) in &av {
            assert!((v - fv[id]).abs() < 1e-9, "cell {id}: {v} vs {}", fv[id]);
        }
    }

    #[test]
    fn adaptive_fallback_rescues_a_tiny_initial_radius() {
        // max_rounds 0: the first adaptive request already falls back to
        // the auto radius, which certifies the whole evolved-like box.
        let n = 6;
        let particles = jittered(n, 21, 0.49);
        let params = TessParams {
            ghost: GhostSpec::Adaptive {
                initial_factor: 0.2,
                max_rounds: 0,
            },
            ..TessParams::default()
        };
        let (_, stats) = tessellate_serial(&particles, Aabb::cube(n as f64), [true; 3], &params);
        assert_eq!(stats.incomplete, 0);
        assert_eq!(stats.cells, (n * n * n) as u64);
        assert!(stats.ghost_rounds <= 2, "rounds {}", stats.ghost_rounds);
    }

    #[test]
    fn adaptive_requests_are_capped_at_the_block_extent() {
        // 2 particles in a 4³ box split into 8 blocks of extent 2: the
        // spacing estimate far exceeds a block, so every radius must clamp
        // to the cap and the loop must still terminate.
        let domain = Aabb::cube(4.0);
        let dec = Decomposition::regular(domain, 8, [true; 3]);
        let particles = vec![
            (0u64, Vec3::new(0.7, 0.7, 0.7)),
            (1u64, Vec3::new(3.1, 3.1, 3.1)),
        ];
        let params = TessParams {
            ghost: GhostSpec::Adaptive {
                initial_factor: 2.5,
                max_rounds: 4,
            },
            keep_incomplete: true,
            ..TessParams::default()
        };
        let out = Runtime::run(2, move |world| {
            let asn = Assignment::new(8, world.nranks());
            let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
                .blocks_of_rank(world.rank())
                .map(|g| (g, Vec::new()))
                .collect();
            for &(id, p) in &particles {
                let gid = dec.block_of_point(p);
                if let Some(v) = local.get_mut(&gid) {
                    v.push((id, p));
                }
            }
            let r = tessellate(world, &dec, &asn, &local, &params);
            (r.ghost_used, global_stats(world, r.stats))
        });
        for (ghost_used, stats) in out {
            assert!(ghost_used <= 2.0 + 1e-12, "ghost {ghost_used}");
            // keep_incomplete retains both cells even though a 2-particle
            // Voronoi diagram cannot certify inside one block
            assert_eq!(stats.cells, 2);
        }
    }

    #[test]
    fn auto_ghost_certifies_everything_on_evolved_like_data() {
        let n = 6;
        let particles = jittered(n, 21, 0.49);
        let params = TessParams::default(); // Auto { factor: 5 }
        let (_, stats) = tessellate_serial(&particles, Aabb::cube(n as f64), [true; 3], &params);
        assert_eq!(stats.incomplete, 0);
        assert_eq!(stats.cells, (n * n * n) as u64);
    }
}
