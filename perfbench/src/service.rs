//! The `service_mixed` workload: a resident `MeshService` answering an
//! open loop of point, box and region queries while particle updates land
//! on a fixed schedule.
//!
//! Requests are sent on a clock, whether or not earlier ones were
//! answered (independent users), and each is timed from when it was due,
//! so a stall also charges the requests queued behind it. A submitter
//! thread sends, a collector thread receives, and the main thread applies
//! the updates.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use diy::codec::Encode;
use diy::comm::Runtime;
use diy::decomposition::Assignment;
use geometry::{Aabb, Vec3};
use tess::grid::StreamScratch;
use tess::{
    tessellate, Answer, MeshService, MeshSnapshot, Pending, Query, Response, ServiceConfig,
    TessParams, Update, UpdateReport,
};

use crate::batch::counter_values;
use crate::corpus::{hacc_corpus, Rng};
use crate::latency::{count_over, median, summarize};
use crate::{Outcome, Run, Values};

/// HACC corpus of 16^3 particles, the size `bench_service` runs, so an
/// update re-tessellates in well under the update period.
const NP: usize = 16;
const NSTEPS: usize = 100;
/// One block. With 8 blocks of this 16-unit box, eight void cells of the
/// corpus need a ghost radius beyond one block extent (the adaptive loop's
/// cap) and are dropped; one block lets the radius grow to the box.
const NBLOCKS: usize = 1;
/// One resident rank and one query worker: the write path and the read
/// path each get one core of a 2-core budget.
pub const NRANKS: usize = 1;
pub const WORKERS: usize = 1;
/// Service spawns timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Offered rate of the fixed-rate phase: about a fifth of the service's
/// capacity on the reference host, so the queue stays short and the
/// latency is the request path's, not a backlog's. At half this rate the
/// threads idle between requests, and the median latency was set by how
/// fast the host wakes an idle core: it spread 0.3–0.7 of its median
/// from run to run, against about 0.1 at this rate.
const OFFERED_RPS: f64 = 16000.0;
/// A request answered later than this after its due time has failed. Well
/// above the service's own tail: on the reference host, stalls of tens of
/// milliseconds come from the host, not from the program.
const LATENCY_LIMIT_MS: f64 = 200.0;
/// Updates land every this many seconds of the fixed-rate phase: an update
/// takes about 1.1 s on the reference host, so the write path is busy most
/// of the phase and a run holds about a dozen updates.
const UPDATE_PERIOD_S: f64 = 1.5;
/// Share of the measured seconds given to the fixed-rate phase; the
/// capacity phase gets the rest.
const FIXED_SHARE: f64 = 0.6;
/// Requests outstanding at once in the capacity phase: enough to keep the
/// worker's queue from running dry, few enough that the backlog (and so
/// the latency) stays bounded.
const WINDOW: usize = 64;
/// The capacity phase is cut into this many slices; `sustained_rps` is the
/// median slice's rate, so one host stall does not set it.
const CAPACITY_SLICES: usize = 6;
/// One request in this many, picked by a hash of its index, is compared
/// with a direct `MeshSnapshot::answer` on the epoch its response reports.
const CHECK_ONE_IN: u64 = 16;

/// The request mix of `bench_service` (crates/bench/src/bin/bench_service.rs),
/// unchanged: of every 16 requests, the last 4 are a burst of bit-identical
/// point lookups drawn from a pool of [`DUP_POOL`] points (so coalescing
/// has something to do), and of the other 12, one in ten is a box
/// extraction (corner in the lower 3/4 of the box, extent 1–4), one in ten
/// a region summary (half the box side), and the rest point lookups.
const BURST_AT: u64 = 12;
const DUP_POOL: u64 = 8;

/// splitmix64 of `x`: the first output of a generator seeded with `x`, as
/// `bench_service` draws its query shapes.
fn mix(x: u64) -> u64 {
    Rng::new(x).next_u64()
}

fn unit(x: u64) -> f64 {
    Rng::new(x).unit()
}

/// The `i`-th query of the stream of run seed `seed` (see [`BURST_AT`]).
fn query(seed: u64, i: u64, side: f64) -> Query {
    let stream = mix(seed);
    let point = |s: u64| {
        Query::Point(Vec3::new(
            unit(s ^ 8) * side,
            unit(s ^ 9) * side,
            unit(s ^ 10) * side,
        ))
    };
    if i % 16 >= BURST_AT {
        return point(stream ^ (0xD00D_0000 + (i / 16) % DUP_POOL));
    }
    let s = stream ^ i;
    match mix(s) % 10 {
        0 => {
            let lo = Vec3::new(unit(s ^ 1), unit(s ^ 2), unit(s ^ 3)) * (side * 0.75);
            let ext = 1.0 + unit(s ^ 4) * 3.0;
            Query::BoxCells(Aabb::new(lo, lo + Vec3::splat(ext)))
        }
        1 => {
            let lo = Vec3::new(unit(s ^ 5), unit(s ^ 6), unit(s ^ 7)) * (side * 0.5);
            Query::Region(Aabb::new(lo, lo + Vec3::splat(side * 0.5)))
        }
        _ => point(s),
    }
}

/// Slot on the clock of the `i`-th request: a burst is sent at once, at
/// the slot of its first request, as `bench_service` submits it together.
fn slot(i: u64) -> u64 {
    i - (i % 16).saturating_sub(BURST_AT)
}

/// Whether the `i`-th request's answer is checked: a hash of the index, so
/// the sample is spread over every query kind and over bursts.
fn checked(i: u64) -> bool {
    mix(i ^ 0xc4ec_4ed0).is_multiple_of(CHECK_ONE_IN)
}

fn kind_of(q: &Query) -> usize {
    match q {
        Query::Point(_) => 0,
        Query::BoxCells(_) => 1,
        Query::Region(_) => 2,
    }
}

/// Moves particles per update and keeps the current positions, so the
/// final particle set is known. Each update moves a twentieth of the
/// particles by up to 0.05 mean spacings per axis, as `bench_service`'s
/// mid-run delta does; which twentieth turns with the update count.
struct Mover {
    particles: Vec<(u64, Vec3)>,
    side: f64,
    seed: u64,
    updates: u64,
}

/// A particle moves in one update of this many.
const MOVE_EVERY: u64 = 20;

impl Mover {
    fn next_update(&mut self) -> Update {
        let turn = (self.seed.wrapping_add(self.updates)) % MOVE_EVERY;
        let salt = mix(self.seed ^ (self.updates << 32));
        self.updates += 1;
        let mut upserts = Vec::new();
        for (id, p) in self.particles.iter_mut() {
            if *id % MOVE_EVERY != turn {
                continue;
            }
            let j = |axis: u64| (unit(salt ^ (*id * 3 + axis)) - 0.5) * 0.1;
            let wrap = |x: f64| {
                let w = x.rem_euclid(self.side);
                if w >= self.side {
                    0.0
                } else {
                    w
                }
            };
            *p = Vec3::new(wrap(p.x + j(0)), wrap(p.y + j(1)), wrap(p.z + j(2)));
            upserts.push((*id, *p));
        }
        Update::Delta {
            upserts,
            removes: Vec::new(),
        }
    }
}

/// One request as the submitter hands it to the collector.
struct Sent {
    index: u64,
    due: Instant,
    sent: Instant,
    /// Newest epoch known published before the request was sent.
    floor: u64,
    pending: Pending,
}

/// What the collector saw of one answered request.
struct Seen {
    index: u64,
    latency_ms: f64,
    lateness_ms: f64,
    rtt_ms: f64,
    response: Response,
}

/// Everything one phase measured.
#[derive(Default)]
struct Phase {
    sent: u64,
    refused: u64,
    epoch_errors: u64,
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    /// Requests kept for the answer check (and, when tracing, all of them).
    kept: Vec<Seen>,
    updates: Vec<(f64, UpdateReport)>,
}

/// State shared across the phases of one run.
struct Live<'a> {
    svc: &'a MeshService,
    seed: u64,
    side: f64,
    mover: Mover,
    /// Every published snapshot, by epoch, for the answer check.
    snaps: BTreeMap<u64, Arc<MeshSnapshot>>,
    /// Query-stream offset, so no two phases send the same requests; a
    /// multiple of 16, so every phase starts a fresh group of the mix.
    next_index: u64,
}

/// Let this thread's sleeps end on time. Linux may end a sleep late by
/// the thread's timer slack, 50 µs by default: that would be most of a
/// request's latency from its due time.
fn tight_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
        }
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // changes the calling thread's timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
    }
}

impl Live<'_> {
    /// Send [`OFFERED_RPS`] requests per second for `secs` seconds while
    /// an update lands mid-way through every [`UPDATE_PERIOD_S`].
    /// `keep_all` keeps every request's record (the traced half);
    /// otherwise only the [`checked`] ones are kept.
    fn open_loop(&mut self, secs: f64, keep_all: bool) -> Phase {
        let rate = OFFERED_RPS;
        let count = ((rate * secs).round() as u64).max(1).next_multiple_of(16);
        let base = self.next_index;
        self.next_index += count;
        let n_updates = (secs / UPDATE_PERIOD_S).floor() as u64;
        let published = AtomicU64::new(self.svc.epoch());
        let (svc, seed, side) = (self.svc, self.seed, self.side);
        let (tx, rx) = mpsc::channel::<Sent>();
        let start = Instant::now() + Duration::from_millis(5);
        let mut phase = Phase::default();
        let mut update_log = Vec::new();
        std::thread::scope(|scope| {
            let published = &published;
            let submitter = scope.spawn(move || {
                tight_timer_slack();
                let (mut sent_count, mut refused) = (0u64, 0u64);
                for k in 0..count {
                    let index = base + k;
                    let due = start + Duration::from_secs_f64((slot(index) - base) as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let floor = published.load(Ordering::SeqCst);
                    let sent = Instant::now();
                    sent_count += 1;
                    match svc.submit(query(seed, index, side)) {
                        Ok(pending) => tx
                            .send(Sent {
                                index,
                                due,
                                sent,
                                floor,
                                pending,
                            })
                            .expect("collector alive"),
                        Err(_) => refused += 1,
                    }
                }
                (sent_count, refused)
            });
            let collector = scope.spawn(move || {
                let mut c = Phase::default();
                for s in rx {
                    let response = s.pending.wait();
                    let done = Instant::now();
                    let ms = |d: Duration| d.as_secs_f64() * 1e3;
                    let seen = Seen {
                        index: s.index,
                        latency_ms: ms(done - s.due),
                        lateness_ms: ms(s.sent.saturating_duration_since(s.due)),
                        rtt_ms: ms(done - s.sent),
                        response,
                    };
                    if seen.response.epoch < s.floor || seen.response.epoch > svc.epoch() {
                        c.epoch_errors += 1;
                    }
                    c.latency_ms.push(seen.latency_ms);
                    c.lateness_ms.push(seen.lateness_ms);
                    if keep_all || checked(s.index) {
                        c.kept.push(seen);
                    }
                }
                c
            });
            for k in 0..n_updates {
                let at = start + Duration::from_secs_f64((k as f64 + 0.5) * UPDATE_PERIOD_S);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let u = self.mover.next_update();
                let t = Instant::now();
                let report = svc.update(u);
                let wall = t.elapsed().as_secs_f64();
                published.store(report.epoch, Ordering::SeqCst);
                self.snaps.insert(report.epoch, svc.snapshot());
                update_log.push((wall, report));
            }
            let (sent, refused) = submitter.join().expect("submitter thread");
            phase = collector.join().expect("collector thread");
            phase.sent = sent;
            phase.refused = refused;
        });
        phase.updates = update_log;
        phase
    }

    /// The service's capacity: one client keeps [`WINDOW`] requests
    /// outstanding for `secs` seconds, with no updates, and the achieved
    /// rate — answers per second — is the highest rate the service
    /// sustains with a bounded backlog. Returns the median of
    /// [`CAPACITY_SLICES`] slices' rates, and the phase's records (latency
    /// timed from when each request was sent).
    fn capacity(&mut self, secs: f64) -> (f64, Phase) {
        let (svc, seed, side) = (self.svc, self.seed, self.side);
        let epoch = svc.epoch();
        let mut phase = Phase::default();
        let mut inflight: VecDeque<(u64, Instant, Pending)> = VecDeque::with_capacity(WINDOW);
        let mut index = self.next_index;
        let receive = |phase: &mut Phase, (i, sent, pending): (u64, Instant, Pending)| {
            let response = pending.wait();
            let rtt_ms = sent.elapsed().as_secs_f64() * 1e3;
            if response.epoch != epoch {
                phase.epoch_errors += 1;
            }
            phase.latency_ms.push(rtt_ms);
            if checked(i) {
                phase.kept.push(Seen {
                    index: i,
                    latency_ms: rtt_ms,
                    lateness_ms: 0.0,
                    rtt_ms,
                    response,
                });
            }
        };
        let slice = Duration::from_secs_f64(secs / CAPACITY_SLICES as f64);
        let mut rates = Vec::with_capacity(CAPACITY_SLICES);
        for _ in 0..CAPACITY_SLICES {
            let t = Instant::now();
            let mut answered = 0u64;
            while t.elapsed() < slice {
                while inflight.len() < WINDOW {
                    phase.sent += 1;
                    match svc.submit(query(seed, index, side)) {
                        Ok(pending) => inflight.push_back((index, Instant::now(), pending)),
                        Err(_) => phase.refused += 1,
                    }
                    index += 1;
                }
                if let Some(oldest) = inflight.pop_front() {
                    receive(&mut phase, oldest);
                    answered += 1;
                }
            }
            rates.push(answered as f64 / t.elapsed().as_secs_f64());
        }
        for rest in inflight.drain(..) {
            receive(&mut phase, rest);
        }
        self.next_index = index.next_multiple_of(16);
        (median(&rates), phase)
    }

    /// Compare kept responses with a direct answer on the epoch they
    /// report; returns the mismatch count and, per query kind, the direct
    /// answer times in microseconds.
    fn check_answers(&self, kept: &[Seen]) -> (u64, [Vec<f64>; 3]) {
        let mut scratch = StreamScratch::default();
        let mut times: [Vec<f64>; 3] = Default::default();
        let mut wrong = 0;
        for s in kept {
            let q = query(self.seed, s.index, self.side);
            let Some(snap) = self.snaps.get(&s.response.epoch) else {
                wrong += 1;
                continue;
            };
            let t = Instant::now();
            let direct: Answer = snap.answer(&q, &mut scratch);
            times[kind_of(&q)].push(t.elapsed().as_secs_f64() * 1e6);
            if direct != s.response.answer {
                wrong += 1;
            }
        }
        (wrong, times)
    }
}

fn config() -> ServiceConfig {
    ServiceConfig::new(NRANKS, NBLOCKS)
        .with_workers(WORKERS)
        .with_params(TessParams::default().with_adaptive_ghost())
}

pub fn run(run: &Run) -> (Values, Outcome) {
    let mut outcome = Outcome::default();
    let mut values = Values::default();

    // Set-up: corpus generation plus spawn up to the first published
    // epoch, timed several times; the last service is the one measured.
    let mut setup_s = Vec::new();
    let mut spawned = None;
    for _ in 0..SETUP_REPEATS {
        drop(spawned.take());
        let t = Instant::now();
        let corpus = hacc_corpus(NP, NSTEPS, run.seed);
        let domain = Aabb::cube(corpus.box_size);
        let svc = MeshService::spawn(domain, [true; 3], &corpus.particles, config());
        setup_s.push(t.elapsed().as_secs_f64());
        spawned = Some((svc, corpus));
    }
    let (svc, corpus) = spawned.expect("at least one set-up");
    values.set("setup_s", median(&setup_s));
    values.set("hacc.step_s", corpus.step_s);
    let n = corpus.particles.len() as f64;
    values.info("particles", n);
    values.info("blocks", NBLOCKS as f64);
    values.info("offered_rps", OFFERED_RPS);
    values.info("latency_limit_ms", LATENCY_LIMIT_MS);

    let mut live = Live {
        svc: &svc,
        seed: run.seed,
        side: corpus.box_size,
        mover: Mover {
            particles: corpus.particles.clone(),
            side: corpus.box_size,
            seed: run.seed,
            updates: 0,
        },
        snaps: BTreeMap::from([(svc.epoch(), svc.snapshot())]),
        next_index: 0,
    };
    let total = run.seconds.as_secs_f64();

    // The fixed-rate phase, then the capacity phase. A traced run instead
    // splits the fixed-rate phase: an untraced half as the reference, then
    // a half that keeps every request's record.
    let mut phases = Vec::new();
    if run.trace {
        phases.push(live.open_loop(total / 2.0, false));
        phases.push(live.open_loop(total / 2.0, true));
    } else {
        diy::mem::reset_peak();
        phases.push(live.open_loop(total * FIXED_SHARE, false));
        values.set(
            "peak_heap_mb",
            diy::mem::stats().peak_live_bytes as f64 / 1e6,
        );
        let (rps, capacity) = live.capacity(total * (1.0 - FIXED_SHARE));
        values.set("sustained_rps", rps);
        values.info("capacity_samples", capacity.latency_ms.len() as f64);
        phases.push(capacity);
    }
    let updates: Vec<&(f64, UpdateReport)> = phases.iter().flat_map(|p| &p.updates).collect();
    if updates.is_empty() {
        outcome.error("no update landed during the fixed-rate phase".into());
    }

    // direct answer times of the last phase: the traced half, when tracing
    let mut answer_us: [Vec<f64>; 3] = Default::default();
    for p in &phases {
        let over = count_over(&p.latency_ms, LATENCY_LIMIT_MS) as u64;
        let wrong;
        (wrong, answer_us) = live.check_answers(&p.kept);
        if wrong > 0 {
            outcome.error(format!(
                "{wrong} sampled answers differ from a direct answer"
            ));
        }
        let unanswered = p.sent - p.refused - p.latency_ms.len() as u64;
        outcome.attempted += p.sent;
        outcome.failed += p.refused + unanswered + p.epoch_errors + wrong + over;
        if p.epoch_errors > 0 {
            outcome.error(format!(
                "{} answers from an unexpected epoch",
                p.epoch_errors
            ));
        }
    }

    let fixed = &phases[0];
    let lat = summarize(&fixed.latency_ms, 0.99).expect("answered requests");
    let lateness = summarize(&fixed.lateness_ms, 0.99).expect("answered requests");
    values.info("query_samples", lat.n as f64);
    values.info("query_tail_q", lat.tail_q);
    values.info("gen_lateness_p50_ms", lateness.p50);
    values.info("updates", updates.len() as f64);
    values.set("query_p50_ms", lat.p50);
    values.set("query_p99_ms", lat.tail);
    let update_s = median(&updates.iter().map(|u| u.0).collect::<Vec<_>>());
    let cells = updates.last().map_or(0, |u| u.1.cells);
    values.set("update_s", update_s);
    values.set("cells_per_s", cells as f64 / update_s);

    // Per-layer values, from the updates and the traced half.
    let tess_s: Vec<f64> = updates.iter().map(|u| u.1.tess_wall_s).collect();
    let build_s: Vec<f64> = updates.iter().map(|u| u.0 - u.1.tess_wall_s).collect();
    values.set("service.update_tess_s", median(&tess_s));
    values.set("service.snapshot_build_s", median(&build_s));
    let counters: Vec<Values> = updates
        .iter()
        .map(|u| counter_values(&u.1.stats, n))
        .collect();
    values.merge_median(&counters);
    let stats = svc.stats();
    let hists = svc.hists();
    values.set("service.batch_mean", hists.batch_size.mean());
    values.set(
        "service.coalesce_frac",
        stats.coalesced as f64 / stats.answered.max(1) as f64,
    );
    values.set("service.queue_depth_p50", hists.queue_depth.quantile(0.5));
    if let Some(t) = phases.get(1).filter(|_| run.trace) {
        for (name, xs) in [
            "service.answer_us.point",
            "service.answer_us.box",
            "service.answer_us.region",
        ]
        .into_iter()
        .zip(&answer_us)
        {
            values.set(name, median(xs));
        }
        let internal: Vec<f64> = t
            .kept
            .iter()
            .map(|s| s.response.latency_ns as f64 * 1e-6)
            .collect();
        let rtt: f64 = t.kept.iter().map(|s| s.rtt_ms).sum();
        let lateness = summarize(&t.lateness_ms, 0.99).expect("answered requests");
        values.set(
            "service.internal_p99_ms",
            summarize(&internal, 0.99).expect("answered requests").tail,
        );
        values.set("service.gen_lateness_ms", lateness.tail);
        values.set("trace.tiling_frac", internal.iter().sum::<f64>() / rtt);
        values.set("trace.overhead_frac", median(&t.latency_ms) / lat.p50 - 1.0);
    }

    // The last epoch must equal a from-scratch tessellation of the final
    // particles.
    let last = svc.snapshot();
    values.set(
        "bytes_per_particle",
        last.blocks
            .values()
            .map(|b| b.to_bytes().len())
            .sum::<usize>() as f64
            / n,
    );
    values.fingerprint = crate::mesh_check::fingerprint(last.blocks.values());
    for e in
        crate::mesh_check::check_mesh(last.blocks.values(), n as usize, last.dec.domain.volume())
    {
        outcome.error(format!("epoch {}: {e}", last.epoch));
    }
    let scratch = from_scratch(&last, &live.mover.particles);
    if scratch.len() != last.blocks.len()
        || scratch
            .iter()
            .zip(&last.blocks)
            .any(|((ga, a), (gb, b))| ga != gb || a.to_bytes() != b.to_bytes())
    {
        outcome.error(format!(
            "epoch {} differs from a from-scratch tessellation of its particles",
            last.epoch
        ));
    }
    drop(live);
    svc.shutdown();
    (values, outcome)
}

/// Tessellate `particles` from scratch on the snapshot's decomposition.
fn from_scratch(snap: &MeshSnapshot, particles: &[(u64, Vec3)]) -> BTreeMap<u64, tess::MeshBlock> {
    let dec = &snap.dec;
    let params = config().params;
    let blocks = Runtime::run(1, |world| {
        let asn = Assignment::new(dec.nblocks(), 1);
        let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> =
            (0..dec.nblocks() as u64).map(|g| (g, Vec::new())).collect();
        for &(id, p) in particles {
            local
                .get_mut(&dec.block_of_point(p))
                .expect("owned")
                .push((id, p));
        }
        // the service partitions its store the same way: by id within a block
        for v in local.values_mut() {
            v.sort_by_key(|&(id, _)| id);
        }
        tessellate(world, dec, &asn, &local, &params).blocks
    });
    blocks.into_iter().next().expect("one rank")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_requests_cover_every_kind_and_both_halves_of_the_mix() {
        let side = 16.0;
        let mut kinds = [0usize; 3];
        let (mut in_burst, mut outside) = (0, 0);
        let sample: Vec<u64> = (0..16_000).filter(|&i| checked(i)).collect();
        for &i in &sample {
            kinds[kind_of(&query(1, i, side))] += 1;
            if i % 16 >= BURST_AT {
                in_burst += 1;
            } else {
                outside += 1;
            }
        }
        // about one in CHECK_ONE_IN, spread over the mix
        assert!((800..1200).contains(&sample.len()), "{}", sample.len());
        assert!(kinds.iter().all(|&k| k > 20), "{kinds:?}");
        assert!(in_burst > 100 && outside > 400, "{in_burst} {outside}");
    }

    #[test]
    fn the_mix_is_bench_service_s() {
        let side = 16.0;
        let n = 16_000u64;
        let mut kinds = [0usize; 3];
        for i in 0..n {
            kinds[kind_of(&query(5, i, side))] += 1;
        }
        // 12 of 16 mixed (1/10 box, 1/10 region), 4 of 16 burst points
        let mixed = (n * 12 / 16) as f64;
        assert!((kinds[1] as f64 / mixed - 0.1).abs() < 0.02, "{kinds:?}");
        assert!((kinds[2] as f64 / mixed - 0.1).abs() < 0.02, "{kinds:?}");
        // a burst repeats one point four times, from a pool of DUP_POOL
        let burst: Vec<Query> = (12..16).map(|i| query(5, i, side)).collect();
        assert!(burst.iter().all(|q| *q == burst[0]));
        assert_eq!(query(5, 12, side), query(5, 12 + 16 * DUP_POOL, side));
        assert_ne!(query(5, 0, side), query(6, 0, side));
    }

    #[test]
    fn a_burst_shares_one_slot_and_the_rate_is_kept() {
        let slots: Vec<u64> = (0..32).map(slot).collect();
        assert_eq!(&slots[10..17], &[10, 11, 12, 12, 12, 12, 16]);
        assert_eq!(slots[31], 28);
    }
}
