//! Replays of three hot public functions on a workload's own geometry,
//! each checked bit for bit against the direct path before it is timed:
//!
//! * `PairGainCache::rebuild_all_tiled` driven by `EdgeKernel::carrier_tile`
//!   against `carrier_contribution` summed in pair order;
//! * `options_under_batch` against `options_under`;
//! * `mac::offload::solve` on the batch's option sets against `solve` on
//!   the direct path's.

use braidio_mac::coexistence::ChannelRelation;
use braidio_mac::offload::{solve, LinkOption, OffloadPlan};
use braidio_net::cache::{far_field_cutoff, PairGainCache};
use braidio_net::interference::{
    carrier_contribution, options_under, options_under_batch, CarrierSource, EdgeKernel, EDGE_TILE,
};
use braidio_net::FleetScenario;
use braidio_rfsim::geometry::Point;
use braidio_units::{Joules, Meters, Watts};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Victims replayed per workload, spread evenly over the pair index range.
const VICTIMS: usize = 256;
/// Wall time spent timing each replay, after one untimed warm-up pass.
const BUDGET: Duration = Duration::from_millis(300);
const MIN_REPS: usize = 5;

pub struct Replay {
    /// Edges one gain rebuild evaluates.
    pub edges: usize,
    pub kernel_ns_per_edge: f64,
    pub options_us_per_item: f64,
    pub us_per_solve: f64,
    /// Replays (of the three) whose results differed from the direct path.
    pub failed: usize,
    /// One line per differing result.
    pub problems: Vec<String>,
}

/// Median seconds of `f` over repeated calls filling [`BUDGET`].
fn time_median(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS || start.elapsed() < BUDGET {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    crate::median(&mut samples)
}

fn option_bits(o: &LinkOption) -> [u64; 4] {
    [
        o.mode as u64,
        o.rate as u64,
        o.tx_cost.joules_per_bit().to_bits(),
        o.rx_cost.joules_per_bit().to_bits(),
    ]
}

fn plan_bits(plan: &Option<OffloadPlan>) -> Vec<u64> {
    let Some(p) = plan else {
        return Vec::new();
    };
    let mut bits = vec![
        p.tx_cost.joules_per_bit().to_bits(),
        p.rx_cost.joules_per_bit().to_bits(),
        u64::from(p.exact),
    ];
    for a in p.allocations.iter() {
        bits.extend(option_bits(&a.option));
        bits.push(a.fraction.to_bits());
    }
    bits
}

/// Replay the three functions on `sc`, whose carriers must overlap (an
/// uncoordinated scenario), on the current pool thread count.
pub fn replay(sc: &FleetScenario) -> Replay {
    let ch = &sc.ch;
    let n = sc.pairs.len();
    let a: Vec<Point> = sc.pairs.iter().map(|p| sc.devices[p.tx].pos).collect();
    let b: Vec<Point> = sc.pairs.iter().map(|p| sc.devices[p.rx].pos).collect();
    let nv = VICTIMS.min(n);
    let victims: Vec<usize> = (0..nv).map(|i| i * n / nv).collect();
    let mut keep = vec![false; n];
    for &v in &victims {
        keep[v] = true;
    }
    let mut problems = Vec::new();

    // Gain rebuild, tiled exactly as the engine's wave sweep drives it.
    let kernel = EdgeKernel::new(ch);
    let tile = |v: usize, qs: &[u32], out: &mut [Watts]| {
        let mut ta = [Point::ORIGIN; EDGE_TILE];
        let mut tb = [Point::ORIGIN; EDGE_TILE];
        let mut rel = [ChannelRelation::CoChannel; EDGE_TILE];
        for (i, &q) in qs.iter().enumerate() {
            ta[i] = a[q as usize];
            tb[i] = b[q as usize];
            rel[i] = sc.arbitration.relation(v, q as usize);
        }
        let k = qs.len();
        kernel.carrier_tile(b[v], &ta[..k], &tb[..k], &rel[..k], out);
    };
    let mut cache = if sc.far_field_cull {
        PairGainCache::with_cull(n, far_field_cutoff(ch))
    } else {
        PairGainCache::new(n)
    };
    // The first pass also builds the cull's candidate lists.
    cache.rebuild_all_tiled(|v| keep[v], |q| (a[q], b[q]), tile);
    let mut edges = 0usize;
    let mut sums = Vec::with_capacity(nv);
    for &v in &victims {
        let sources: Vec<usize> = match cache.cull_candidates(v) {
            Some(c) => c.iter().map(|&q| q as usize).collect(),
            None => (0..n).collect(),
        };
        let mut direct = Watts::new(0.0);
        for q in sources.into_iter().filter(|&q| q != v) {
            let pos = if a[q].distance(b[v]) <= b[q].distance(b[v]) {
                a[q]
            } else {
                b[q]
            };
            let source = CarrierSource {
                pos,
                rf: ch.carrier_rf,
                relation: sc.arbitration.relation(v, q),
            };
            direct += carrier_contribution(ch, b[v], &source);
            edges += 1;
        }
        let cached = cache
            .cached_sum(v)
            .expect("the rebuild cleaned every kept victim");
        if cached.watts().to_bits() != direct.watts().to_bits() {
            problems.push(format!(
                "gain replay: victim {v} sums {} W tiled, {} W direct",
                cached.watts(),
                direct.watts()
            ));
        }
        sums.push(cached);
    }
    let mut failed = usize::from(!problems.is_empty());
    let rebuild_s = time_median(|| {
        // Flipping a pair's liveness off and on dirties every sum but
        // keeps the candidate lists, so each pass times the edge sweep.
        cache.set_live(0, false);
        cache.set_live(0, true);
        cache.rebuild_all_tiled(|v| keep[v], |q| (a[q], b[q]), tile);
    });

    // Option sets under each victim's interference. Fleet workload pairs
    // are braided, never pinned, so the direct path is `options_under`.
    let items: Vec<(Meters, Watts, Option<braidio_radio::Mode>)> = victims
        .iter()
        .zip(&sums)
        .map(|(&v, &i)| (a[v].distance(b[v]), i, None))
        .collect();
    let sets = options_under_batch(ch, &items);
    let so_far = problems.len();
    let mut direct_sets = Vec::with_capacity(items.len());
    for (&(d, i, _), set) in items.iter().zip(&sets) {
        let direct = options_under(ch, d, i);
        let same = direct.len() == set.len()
            && direct
                .iter()
                .zip(set.iter())
                .all(|(x, y)| option_bits(x) == option_bits(y));
        if !same {
            problems.push(format!(
                "options replay: d {} m, I {} W gives {:?} batched, {:?} direct",
                d.meters(),
                i.watts(),
                &set[..],
                direct
            ));
        }
        direct_sets.push(direct);
    }
    failed += usize::from(problems.len() > so_far);
    let options_s = time_median(|| {
        black_box(options_under_batch(ch, black_box(&items)));
    });

    // Offload solves over the batch's option sets at full batteries.
    let so_far = problems.len();
    let solves: Vec<(usize, Joules, Joules)> = victims
        .iter()
        .enumerate()
        .filter(|&(k, _)| !sets[k].is_empty())
        .map(|(k, &v)| {
            let p = &sc.pairs[v];
            (k, sc.devices[p.tx].battery, sc.devices[p.rx].battery)
        })
        .collect();
    for &(k, e1, e2) in &solves {
        let plan = solve(&sets[k], e1, e2);
        let direct = solve(&direct_sets[k], e1, e2);
        if plan.is_none() || plan_bits(&plan) != plan_bits(&direct) {
            problems.push(format!("solve replay: victim {} plans differ", victims[k]));
        }
    }
    failed += usize::from(problems.len() > so_far);
    let solve_s = time_median(|| {
        for &(k, e1, e2) in &solves {
            black_box(solve(black_box(&sets[k]), e1, e2));
        }
    });

    Replay {
        edges,
        kernel_ns_per_edge: rebuild_s / edges.max(1) as f64 * 1e9,
        options_us_per_item: options_s / items.len() as f64 * 1e6,
        us_per_solve: solve_s / solves.len().max(1) as f64 * 1e6,
        failed,
        problems,
    }
}
