//! Incrementally maintained pairwise interference for large fleets.
//!
//! The fleet engine plans against the worst-case foreign-carrier power at
//! every victim receiver. Computed naively that is O(pairs²) transcendental
//! work per planning wave — the recompute that capped `experiments fleet`
//! at 8 pairs. This module keeps one *sum* per victim (flat arrays indexed
//! by pair id, structure-of-arrays style) and exploits two facts:
//!
//! 1. **Per-edge contributions are pure geometry.** The power pair `q`
//!    lands at victim `p`'s detector depends only on `q`'s endpoint
//!    positions, `p`'s receiver position and the (static) channel relation
//!    — so recomputing an edge always reproduces the same bits, and no
//!    per-edge state needs to be stored. (An earlier revision cached an
//!    O(pairs²) contribution matrix; at 10⁴ pairs that is ~800 MB of NaN
//!    bookkeeping whose page-fault traffic dwarfed the transcendental work
//!    it saved. The matrix-free layout is bit-identical because replaying
//!    a cached pure value and recomputing it are the same bits.)
//! 2. **Sums change rarely.** A victim's total only moves on a liveness
//!    flip (admission, cooldown, death), an arbitration relation change, or
//!    a mobile pair's position refresh. Between those events the cached sum
//!    is returned untouched.
//!
//! **Bitwise contract.** A dirty sum is *recomputed over live sources in
//! pair-index order* — never maintained by running add/subtract — so it is
//! bit-identical to the brute-force rescan it replaces (floating-point
//! addition is neither associative nor reversible, but performing the same
//! adds in the same order is exact). The engine shadow-checks this in
//! debug builds.
//!
//! **Two ways to rebuild, one loop.** A dirty sum is rebuilt either on
//! demand, by [`PairGainCache::interference`] for the one victim that asks,
//! or in bulk, by [`PairGainCache::rebuild_all_tiled`] for every dirty
//! victim a filter selects. The fleet engine runs the bulk pass once,
//! before its first event, over the static pairs the cache holds live:
//! every sum is cold then and every pair is about to plan. After that an
//! invalidated sum is read only by the next plan of its own pair, so it is
//! rebuilt lazily (DESIGN.md §12). The bulk pass fans the selected
//! victims out over the `braidio-pool` workers (each sum is an independent
//! pure function of the frozen geometry, merged back in victim index
//! order), so bring-up scales across cores without changing a bit.
//!
//! **Tiled sweep.** Both paths funnel into one accumulation loop (the
//! private `rebuild_one_tiled`) that gathers a victim's accepted sources
//! into [`EDGE_TILE`]-wide index tiles and hands each tile to the caller's
//! tile kernel in one call (the engine passes its batched
//! `EdgeKernel::carrier_tile` to both). Tiling changes *batching only*:
//! edges are still evaluated and accumulated serially in pair-index order,
//! so the sums are bit-identical to the scalar walk — what it buys is one
//! FSPL-memo lock acquisition per tile instead of per edge, and flat arrays
//! the kernel's distance pass can vectorize over.
//!
//! **Far-field cull.** Optionally, a spatial grid drops sources whose
//! contribution is provably below [`CULL_EPS_REL`] of the smallest detector
//! noise floor ([`cull_epsilon`]): free-space decay gives a closed-form
//! conservative cutoff distance ([`far_field_cutoff`]). The epsilon is
//! chosen so a *full fleet* of culled sources stays ~1e-9 of the noise
//! floor — far below every decision threshold in the model. Honest physics
//! note: with Braidio's link budget the conservative cutoff is on the order
//! of hundreds of kilometres (free-space d² decay versus nanowatt detector
//! noise floors), so in-room scenarios cull nothing and culled-vs-not runs
//! are byte-identical; the machinery matters for geographically dispersed
//! scenarios and is validated against brute force at any cutoff.

use crate::interference::EDGE_TILE;
use braidio_mac::coexistence::ChannelRelation;
use braidio_radio::characterization::{Characterization, Rate};
use braidio_radio::Mode;
use braidio_rfsim::geometry::Point;
use braidio_rfsim::pathloss::free_space_gain;
use braidio_telemetry as telemetry;
use braidio_units::{Meters, Watts};
use std::collections::HashMap;

/// Relative cull epsilon: a source may be dropped only when its worst-case
/// contribution is below this fraction of the smallest detector noise
/// floor. Conservative by construction — even `pairs` simultaneous culled
/// sources perturb the noise floor by less than `pairs × CULL_EPS_REL`.
pub const CULL_EPS_REL: f64 = 1e-9;

/// The absolute power floor of the cull: [`CULL_EPS_REL`] times the
/// smallest detector noise floor across all detector modes and rates.
pub fn cull_epsilon(ch: &Characterization) -> Watts {
    let mut noise_min = f64::INFINITY;
    for mode in [Mode::Passive, Mode::Backscatter] {
        for rate in Rate::ALL {
            if let Some(n) = ch.detector_noise(mode, rate) {
                noise_min = noise_min.min(n.watts());
            }
        }
    }
    Watts::new(CULL_EPS_REL * noise_min)
}

/// The conservative far-field cutoff: the distance beyond which a foreign
/// carrier's contribution is provably below [`cull_epsilon`] under the
/// worst case of every model knob (full carrier power, the strongest
/// channel-relation coupling, free-space-only decay). Sources farther than
/// this can never matter to any victim decision.
pub fn far_field_cutoff(ch: &Characterization) -> Meters {
    let eps = cull_epsilon(ch).watts();
    // Worst-case received fraction at distance d:
    //   carrier_rf · (λ/4πd)² · rx_antenna · frontend · max coupling.
    // `free_space_gain(1 m)` is (λ/4π)² in linear terms, so the cutoff is
    // the d where the product crosses eps.
    let coupling = ChannelRelation::CoChannel
        .noise_coupling()
        .linear()
        .max(ChannelRelation::AdjacentChannel.noise_coupling().linear());
    let fixed = ch.carrier_rf.watts()
        * ch.budget.rx_antenna_gain.linear()
        * (-ch.budget.detector_frontend_loss).linear()
        * coupling
        * free_space_gain(Meters::new(1.0), ch.budget.frequency).linear();
    Meters::new((fixed / eps).sqrt())
}

/// Far-field cull state: a cutoff plus per-victim candidate lists built
/// from a uniform spatial grid over pair endpoints. Lists are rebuilt
/// lazily after any position invalidation and always kept sorted, so the
/// culled sum still runs in pair-index order.
#[derive(Debug)]
struct Cull {
    cutoff: f64,
    near: Vec<Vec<u32>>,
    /// Degenerate common case: the bounding box of every endpoint fits
    /// inside one cutoff, so every source is a candidate for every victim.
    /// The lists are not materialized (at 10⁴ pairs they would be ~400 MB
    /// of `0..n` enumerations) and the sum walks `0..n` directly — the
    /// identical pair-index order a full sorted list would produce.
    all: bool,
    stale: bool,
}

/// The cached per-victim interference sums of one fleet.
///
/// Flat arrays indexed by pair id: `sum[victim]` holds the victim's total
/// worst-case foreign-carrier power, with a dirty flag per victim and a
/// fleet-wide dirty count ([`ndirty`](Self::ndirty)). Callers supply the
/// edge physics as a closure — the cache is pure bookkeeping and owns no
/// positions, which keeps invalidation rules explicit:
///
/// * [`set_live`](Self::set_live) — a pair joins or leaves every victim's
///   sum: an open-system session is admitted, or quiesces into Cooldown,
///   or any session dies (a dead pair is simply never made live again).
///   Any flip dirties every sum; a matching call is a no-op.
/// * [`invalidate_pair`](Self::invalidate_pair) — a pair's geometry or
///   channel relation changed: every sum that might include it is dirty.
///
/// The cull's candidate lists are pure geometry — liveness is filtered at
/// sum time — so neither death nor a liveness flip stales them.
#[derive(Debug)]
pub struct PairGainCache {
    n: usize,
    sum: Vec<f64>,
    sum_dirty: Vec<bool>,
    live: Vec<bool>,
    /// How many entries of `sum_dirty` are set.
    ndirty: usize,
    cull: Option<Cull>,
}

impl PairGainCache {
    /// A cache for `n` pairs, everything stale, everyone live, no cull.
    pub fn new(n: usize) -> Self {
        PairGainCache {
            n,
            sum: vec![0.0; n],
            sum_dirty: vec![true; n],
            live: vec![true; n],
            ndirty: n,
            cull: None,
        }
    }

    /// A cache with the far-field cull enabled at the given cutoff.
    pub fn with_cull(n: usize, cutoff: Meters) -> Self {
        let mut c = Self::new(n);
        c.cull = Some(Cull {
            cutoff: cutoff.meters(),
            near: vec![Vec::new(); n],
            all: false,
            stale: true,
        });
        c
    }

    /// Is pair `q` still contributing to sums?
    pub fn is_live(&self, q: usize) -> bool {
        self.live[q]
    }

    /// How many victims' sums currently need a rebuild. A fleet-wide gauge
    /// for the time-series sampler: high `ndirty` means mobility or churn
    /// has been invalidating faster than plans read the sums back.
    pub fn ndirty(&self) -> usize {
        self.ndirty
    }

    /// Make pair `q` contribute to (or leave) every victim's sum: an
    /// admission, a cooldown, or a death. A no-op when the liveness bit
    /// already matches — so a closed scenario pays only for its deaths.
    pub fn set_live(&mut self, q: usize, live: bool) {
        if self.live[q] == live {
            return;
        }
        self.live[q] = live;
        for d in self.sum_dirty.iter_mut() {
            *d = true;
        }
        self.ndirty = self.n;
    }

    /// Pair `p` moved (or its channel relation changed): every sum that
    /// might include it is dirty, and the cull candidate lists are stale.
    pub fn invalidate_pair(&mut self, _p: usize) {
        for d in self.sum_dirty.iter_mut() {
            *d = true;
        }
        self.ndirty = self.n;
        if let Some(cull) = &mut self.cull {
            cull.stale = true;
        }
    }

    /// The victim's sum, only if it is clean, without touching the dirty
    /// flags (for benchmarks and tests reading back a bulk pass); a `None`
    /// (victim skipped or re-dirtied) means the value must come from the
    /// lazy [`interference`](Self::interference) path.
    pub fn cached_sum(&self, victim: usize) -> Option<Watts> {
        (!self.sum_dirty[victim]).then(|| Watts::new(self.sum[victim]))
    }

    /// The victim's current candidate source list under the cull, if one is
    /// active, built, and actually filtering (for tests and diagnostics).
    /// `None` also covers the degenerate everyone-in-range case, where no
    /// lists are materialized and the sum walks `0..n` directly.
    pub fn cull_candidates(&self, victim: usize) -> Option<&[u32]> {
        self.cull
            .as_ref()
            .filter(|c| !c.stale && !c.all)
            .map(|c| c.near[victim].as_slice())
    }

    /// The worst-case foreign-carrier power at `victim`'s receiver.
    ///
    /// `endpoints(q)` returns pair `q`'s current `(tx, rx)` positions (used
    /// only to rebuild cull candidate lists); `edge_tile(qs, out)` fills
    /// `out[i]` with source `qs[i]`'s contribution at this victim (at most
    /// [`EDGE_TILE`] lanes per call, `qs` ascending). On a clean sum
    /// neither closure is called. A dirty sum recomputes the live sources'
    /// contributions in pair-index order — bit-identical to the
    /// brute-force rescan, and to what
    /// [`rebuild_all_tiled`](Self::rebuild_all_tiled) stores for the same
    /// kernel.
    pub fn interference<P, E>(&mut self, victim: usize, endpoints: P, mut edge_tile: E) -> Watts
    where
        P: Fn(usize) -> (Point, Point),
        E: FnMut(&[u32], &mut [Watts]),
    {
        if let Some(cull) = self.cull.as_mut() {
            if cull.stale {
                rebuild_candidates(cull, self.n, &endpoints);
            }
        }
        if !self.sum_dirty[victim] {
            telemetry::count("net.interference.sum_reuse");
            return Watts::new(self.sum[victim]);
        }
        telemetry::count("net.interference.sum_rebuild");
        let acc = Self::rebuild_one_tiled(victim, self.n, &self.live, &self.cull, &mut edge_tile);
        self.sum[victim] = acc.watts();
        self.sum_dirty[victim] = false;
        self.ndirty -= 1;
        acc
    }

    /// Refresh every dirty sum the filter selects, in pair-index order, in
    /// one pass over the flat arrays. `keep(v)` gates which victims are
    /// worth rebuilding (the engine skips off-air and mobile pairs —
    /// mobility refreshes positions lazily at event time, so those sums
    /// fall back to the per-victim lazy path); the tile kernel
    /// `edge_tile(v, qs, out)` fills `out[i]` with source `qs[i]`'s
    /// contribution at victim `v` (at most [`EDGE_TILE`] lanes per call,
    /// `qs` ascending in pair-index order). Each victim's sum is produced
    /// by the same per-victim loop the lazy
    /// [`interference`](Self::interference) path runs, accumulating the
    /// returned contributions serially in lane order — so the bulk path is
    /// bit-identical to demand-driven rebuilds, whatever the kernel
    /// vectorizes internally.
    ///
    /// The victim fan-out runs on the work pool: each selected victim's sum
    /// is an independent pure function of the (frozen-for-the-pass)
    /// geometry, computed by the shared per-victim loop and written back in
    /// victim index order — so the result is identical at any thread count,
    /// and `edge_tile` must be `Fn + Sync` (pure geometry, which every
    /// caller passes anyway). Edges evaluated here are also counted under
    /// `net.interference.wave_edge_recompute`, so reports can tell bulk
    /// work from lazy work.
    pub fn rebuild_all_tiled<K, P, E>(&mut self, keep: K, endpoints: P, edge_tile: E)
    where
        K: Fn(usize) -> bool,
        P: Fn(usize) -> (Point, Point),
        E: Fn(usize, &[u32], &mut [Watts]) + Sync,
    {
        if self.ndirty == 0 {
            return;
        }
        if let Some(cull) = self.cull.as_mut() {
            if cull.stale {
                rebuild_candidates(cull, self.n, &endpoints);
            }
        }
        // Victim selection stays serial and in pair-index order; only the
        // per-victim sums fan out.
        let victims: Vec<usize> = (0..self.n)
            .filter(|&v| self.sum_dirty[v] && keep(v))
            .collect();
        let (n, live, cull) = (self.n, &self.live, &self.cull);
        let sums = braidio_pool::par_map_indexed_with_chunk(
            victims.len(),
            braidio_pool::default_chunk(victims.len()),
            |i| {
                let v = victims[i];
                telemetry::count("net.interference.sum_rebuild");
                Self::rebuild_one_tiled(v, n, live, cull, &mut |qs, out| {
                    telemetry::count_by("net.interference.wave_edge_recompute", qs.len() as u64);
                    edge_tile(v, qs, out)
                })
                .watts()
            },
        );
        for (&v, s) in victims.iter().zip(sums) {
            self.sum[v] = s;
            self.sum_dirty[v] = false;
            self.ndirty -= 1;
        }
    }

    /// One victim's sum: live sources in pair-index order (the cull's
    /// candidate lists are sorted, so the culled walk keeps that order),
    /// gathered into [`EDGE_TILE`]-wide index tiles for the edge kernel and
    /// accumulated serially in lane order. This is the single accumulation
    /// loop the lazy and bulk paths share — the bitwise contract lives
    /// here.
    fn rebuild_one_tiled(
        victim: usize,
        n: usize,
        live: &[bool],
        cull: &Option<Cull>,
        edge_tile: &mut impl FnMut(&[u32], &mut [Watts]),
    ) -> Watts {
        fn flush<F: FnMut(&[u32], &mut [Watts])>(
            qs: &[u32],
            ws: &mut [Watts],
            edge_tile: &mut F,
            acc: &mut Watts,
        ) {
            telemetry::count_by("net.interference.edge_recompute", qs.len() as u64);
            edge_tile(qs, ws);
            // The noncoherent sum stays serial, in pair-index order.
            for w in ws.iter() {
                *acc += *w;
            }
        }
        fn sweep<I, F>(candidates: I, victim: usize, live: &[bool], edge_tile: &mut F) -> Watts
        where
            I: Iterator<Item = u32>,
            F: FnMut(&[u32], &mut [Watts]),
        {
            let mut acc = Watts::new(0.0);
            let mut qs = [0u32; EDGE_TILE];
            let mut ws = [Watts::ZERO; EDGE_TILE];
            let mut fill = 0usize;
            for q in candidates {
                if q as usize == victim || !live[q as usize] {
                    continue;
                }
                qs[fill] = q;
                fill += 1;
                if fill == EDGE_TILE {
                    flush(&qs, &mut ws, edge_tile, &mut acc);
                    fill = 0;
                }
            }
            if fill > 0 {
                flush(&qs[..fill], &mut ws[..fill], edge_tile, &mut acc);
            }
            acc
        }
        match cull {
            Some(c) if !c.all => sweep(c.near[victim].iter().copied(), victim, live, edge_tile),
            // No cull, or a cull whose cutoff covers the whole scene: the
            // full pair-index walk (identical order either way).
            _ => sweep(0..n as u32, victim, live, edge_tile),
        }
    }
}

/// Rebuild every victim's sorted candidate list: bucket both endpoints of
/// each pair into cutoff-sized grid cells, then for each victim collect the
/// pairs in the 3×3 neighbourhood of its receiver cell and keep those whose
/// *nearest* endpoint is within the cutoff (exactly the endpoint the engine
/// radiates the worst-case carrier from).
fn rebuild_candidates<P>(cull: &mut Cull, n: usize, endpoints: &P)
where
    P: Fn(usize) -> (Point, Point),
{
    let c = cull.cutoff;
    // Degenerate case first: if the whole scene's bounding-box diagonal is
    // within the cutoff, no source can ever be culled for any victim. Every
    // in-room and street-scale scenario lands here (the conservative cutoff
    // is on the order of hundreds of kilometres), so don't materialize 10⁴
    // copies of `0..n` — mark the cull transparent and let the sum walk the
    // flat arrays directly.
    let (mut lo_x, mut lo_y) = (f64::INFINITY, f64::INFINITY);
    let (mut hi_x, mut hi_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for q in 0..n {
        let (a, b) = endpoints(q);
        for p in [a, b] {
            lo_x = lo_x.min(p.x);
            lo_y = lo_y.min(p.y);
            hi_x = hi_x.max(p.x);
            hi_y = hi_y.max(p.y);
        }
    }
    let diag2 = (hi_x - lo_x).powi(2) + (hi_y - lo_y).powi(2);
    if n > 0 && diag2 <= c * c {
        cull.all = true;
        for near in &mut cull.near {
            near.clear();
        }
        cull.stale = false;
        return;
    }
    cull.all = false;
    let cell = |p: Point| ((p.x / c).floor() as i64, (p.y / c).floor() as i64);
    let mut grid: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
    for q in 0..n {
        let (a, b) = endpoints(q);
        grid.entry(cell(a)).or_default().push(q as u32);
        let cb = cell(b);
        if cb != cell(a) {
            grid.entry(cb).or_default().push(q as u32);
        }
    }
    for v in 0..n {
        let victim = endpoints(v).1;
        let (cx, cy) = cell(victim);
        let near = &mut cull.near[v];
        near.clear();
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(bucket) = grid.get(&(cx + dx, cy + dy)) {
                    near.extend_from_slice(bucket);
                }
            }
        }
        near.sort_unstable();
        near.dedup();
        near.retain(|&q| {
            if q as usize == v {
                return false;
            }
            let (a, b) = endpoints(q as usize);
            let keep = a.distance(victim).min(b.distance(victim)) <= Meters::new(c);
            if !keep {
                telemetry::count("net.interference.cull_drop");
            }
            keep
        });
    }
    cull.stale = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> Characterization {
        Characterization::braidio()
    }

    /// A line of pair midpoints with the given spacing; pair endpoints sit
    /// 0.5 m apart across the line.
    fn layout(n: usize, spacing: f64) -> Vec<(Point, Point)> {
        (0..n)
            .map(|i| {
                let x = i as f64 * spacing;
                (Point::new(x, 0.0), Point::new(x, 0.5))
            })
            .collect()
    }

    fn edge_fn(eps: &[(Point, Point)], victim: usize) -> impl Fn(usize) -> Watts + '_ {
        // A distinctive, distance-decaying fake physics: enough to detect
        // any ordering or caching slip bit-for-bit.
        let vp = eps[victim].1;
        move |q: usize| {
            let (a, b) = eps[q];
            let d = a.distance(vp).min(b.distance(vp)).meters();
            Watts::new(1e-9 / (1.0 + d * d))
        }
    }

    /// A per-edge closure as a tile kernel: lanes filled in order.
    fn lanes(edge: impl Fn(usize) -> Watts) -> impl FnMut(&[u32], &mut [Watts]) {
        move |qs, out| {
            assert!(qs.len() <= EDGE_TILE && qs.len() == out.len());
            for (o, &q) in out.iter_mut().zip(qs) {
                *o = edge(q as usize);
            }
        }
    }

    /// [`edge_fn`] as the bulk pass's victim-indexed tile kernel.
    fn bulk_tile(eps: &[(Point, Point)]) -> impl Fn(usize, &[u32], &mut [Watts]) + Sync + '_ {
        move |v, qs, out| lanes(edge_fn(eps, v))(qs, out)
    }

    fn brute(eps: &[(Point, Point)], live: &[bool], victim: usize) -> Watts {
        let edge = edge_fn(eps, victim);
        let mut acc = Watts::new(0.0);
        for (q, &alive) in live.iter().enumerate() {
            if q == victim || !alive {
                continue;
            }
            acc += edge(q);
        }
        acc
    }

    #[test]
    fn cached_sum_matches_brute_force_bitwise() {
        let eps = layout(7, 3.0);
        let mut cache = PairGainCache::new(7);
        let live = vec![true; 7];
        for v in 0..7 {
            let got = cache.interference(v, |q| eps[q], lanes(edge_fn(&eps, v)));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
            // Second call reuses the clean sum.
            let again = cache.interference(v, |q| eps[q], |_, _| panic!("sum was clean"));
            assert_eq!(again.watts().to_bits(), got.watts().to_bits());
        }
    }

    #[test]
    fn death_and_invalidation_track_brute_force() {
        let mut eps = layout(6, 2.0);
        let mut live = vec![true; 6];
        let mut cache = PairGainCache::new(6);
        // Warm.
        for v in 0..6 {
            cache.interference(v, |q| eps[q], lanes(edge_fn(&eps, v)));
        }
        assert_eq!(cache.ndirty(), 0, "warm cache should be clean");
        // Kill pair 2.
        live[2] = false;
        cache.set_live(2, false);
        assert!(cache.ndirty() > 0);
        for v in 0..6 {
            let got = cache.interference(v, |q| eps[q], lanes(edge_fn(&eps, v)));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
        }
        // Move pair 4.
        eps[4] = (Point::new(1.7, 0.3), Point::new(1.7, 0.9));
        cache.invalidate_pair(4);
        for v in 0..6 {
            let got = cache.interference(v, |q| eps[q], lanes(edge_fn(&eps, v)));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
        }
    }

    #[test]
    fn set_live_flips_track_brute_force_both_ways() {
        let eps = layout(5, 2.0);
        let mut live = vec![true; 5];
        let mut cache = PairGainCache::new(5);
        // Rows 1 and 3 start retired (open-system pairs before admission).
        for q in [1, 3] {
            live[q] = false;
            cache.set_live(q, false);
        }
        for v in 0..5 {
            let got = cache.interference(v, |q| eps[q], lanes(edge_fn(&eps, v)));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
        }
        // Admission re-activates row 3; sums must match brute force again.
        live[3] = true;
        cache.set_live(3, true);
        assert!(cache.ndirty() > 0);
        for v in 0..5 {
            let got = cache.interference(v, |q| eps[q], lanes(edge_fn(&eps, v)));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
        }
        // Matching flip is a no-op: nothing re-dirtied.
        cache.set_live(3, true);
        assert_eq!(cache.ndirty(), 0);
    }

    #[test]
    fn bulk_rebuild_matches_lazy_path_bitwise() {
        // Two identical caches; one warmed by the bulk wave sweep, one by
        // per-victim lazy calls. Every sum must agree bit-for-bit, and the
        // bulk-warmed cache must serve clean O(1) hits afterwards.
        let eps = layout(11, 2.5);
        let mut bulk = PairGainCache::new(11);
        let mut lazy = PairGainCache::new(11);
        bulk.rebuild_all_tiled(|_| true, |q| eps[q], bulk_tile(&eps));
        assert_eq!(bulk.ndirty(), 0);
        for v in 0..11 {
            let a = bulk.interference(v, |q| eps[q], |_, _| panic!("bulk sum was clean"));
            let b = lazy.interference(v, |q| eps[q], lanes(edge_fn(&eps, v)));
            assert_eq!(a.watts().to_bits(), b.watts().to_bits(), "victim {v}");
        }
        // A filtered bulk pass leaves the skipped victim dirty (and says so).
        bulk.set_live(3, false);
        lazy.set_live(3, false);
        bulk.rebuild_all_tiled(|v| v != 7, |q| eps[q], bulk_tile(&eps));
        assert_eq!(bulk.ndirty(), 1, "skipped victim must stay dirty");
        let a = bulk.interference(7, |q| eps[q], lanes(edge_fn(&eps, 7)));
        let b = lazy.interference(7, |q| eps[q], lanes(edge_fn(&eps, 7)));
        assert_eq!(a.watts().to_bits(), b.watts().to_bits());
    }

    #[test]
    fn tiled_rebuild_matches_scalar_bitwise() {
        // The tiled loop must land on exactly the scalar per-edge walk,
        // across tile-boundary sizes (n-1 sources: one short tile, exactly
        // EDGE_TILE, full + remainder), in bulk and lazily.
        for n in [5, EDGE_TILE + 1, 2 * EDGE_TILE + 7] {
            let eps = layout(n, 1.5);
            let live = vec![true; n];
            let mut bulk = PairGainCache::new(n);
            let mut lazy = PairGainCache::new(n);
            bulk.rebuild_all_tiled(|_| true, |q| eps[q], bulk_tile(&eps));
            for v in 0..n {
                let want = brute(&eps, &live, v).watts().to_bits();
                let a = bulk.cached_sum(v).expect("bulk sweep cleaned all");
                let b = lazy.interference(v, |q| eps[q], lanes(edge_fn(&eps, v)));
                assert_eq!(a.watts().to_bits(), want, "bulk victim {v}/{n}");
                assert_eq!(b.watts().to_bits(), want, "lazy victim {v}/{n}");
            }
        }
    }

    #[test]
    fn cull_matches_filtered_brute_force_bitwise() {
        // A synthetic cutoff small enough to actually drop sources: the
        // culled sum must equal the brute sum over the kept set, bitwise.
        let eps = layout(9, 4.0);
        let cutoff = Meters::new(9.0); // keeps ±2 neighbours on the line
        let mut cache = PairGainCache::with_cull(9, cutoff);
        for v in 0..9 {
            let got = cache.interference(v, |q| eps[q], lanes(edge_fn(&eps, v)));
            let edge = edge_fn(&eps, v);
            let vp = eps[v].1;
            let mut expect = Watts::new(0.0);
            for (q, &(a, b)) in eps.iter().enumerate() {
                if q == v || a.distance(vp).min(b.distance(vp)) > cutoff {
                    continue;
                }
                expect += edge(q);
            }
            assert_eq!(got.watts().to_bits(), expect.watts().to_bits());
            let kept = cache.cull_candidates(v).expect("cull built").len();
            assert!(kept < 8, "victim {v} kept {kept}, cull was vacuous");
        }
    }

    #[test]
    fn conservative_cutoff_is_far_field_only() {
        // The honest-physics check: with Braidio's link budget the
        // conservative cutoff is way beyond any room (d² decay versus a
        // nanowatt-scale detector noise floor), so in-room scenarios must
        // not cull anything.
        let cutoff = far_field_cutoff(&ch());
        assert!(
            cutoff.meters() > 1_000.0,
            "cutoff {cutoff} culls in plausible deployments — revisit CULL_EPS_REL"
        );
        // And it is finite and usable as a grid cell size.
        assert!(cutoff.meters().is_finite());
    }

    #[test]
    fn cutoff_contribution_is_below_epsilon() {
        // A worst-case source exactly at the cutoff contributes ≤ epsilon.
        let ch = ch();
        let d = far_field_cutoff(&ch);
        let w = ch
            .carrier_rf
            .gained(free_space_gain(d, ch.budget.frequency))
            .gained(ch.budget.rx_antenna_gain)
            .gained(-ch.budget.detector_frontend_loss)
            .gained(ChannelRelation::AdjacentChannel.noise_coupling());
        assert!(w.watts() <= cull_epsilon(&ch).watts() * (1.0 + 1e-9));
    }
}
