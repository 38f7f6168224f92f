//! Closed-form bit-error-rate models.
//!
//! The passive-receiver and backscatter links use *noncoherent* envelope
//! detection of OOK. With unit noise variance per envelope dimension and a
//! "1"-symbol envelope amplitude `A`, the detector statistics are:
//!
//! * symbol `0`: Rayleigh envelope, `P(r > b) = exp(-b²/2)`;
//! * symbol `1`: Rician envelope, `P(r < b) = 1 − Q₁(A, b)`;
//!
//! so for threshold `b` the error probability is the average of the two
//! tails, and the receiver picks the `b` that minimizes it. We define the
//! SNR as `γ = A²/2` (average signal power over noise power during a `1`).
//!
//! The active radio and the commercial-reader baseline use coherent
//! detection, giving the usual Q-function expressions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use braidio_units::math::{marcum_q1, q_function};
use braidio_units::Decibels;

/// BER of noncoherent OOK envelope detection at linear SNR `gamma`
/// (optimal threshold, equiprobable symbols).
pub fn ber_ook_noncoherent(gamma: f64) -> f64 {
    assert!(gamma >= 0.0, "SNR must be non-negative");
    if gamma == 0.0 {
        return 0.5;
    }
    let a = (2.0 * gamma).sqrt();
    // Golden-section search for the optimal threshold in [0, A + 6].
    let pe = |b: f64| 0.5 * ((-0.5 * b * b).exp() + 1.0 - marcum_q1(a, b));
    let (mut lo, mut hi) = (0.0f64, a + 6.0);
    let phi = 0.618_033_988_749_894_9f64;
    let mut x1 = hi - phi * (hi - lo);
    let mut x2 = lo + phi * (hi - lo);
    let (mut f1, mut f2) = (pe(x1), pe(x2));
    for _ in 0..48 {
        if f1 < f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - phi * (hi - lo);
            f1 = pe(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + phi * (hi - lo);
            f2 = pe(x2);
        }
    }
    pe(0.5 * (lo + hi)).clamp(0.0, 0.5)
}

/// BER of noncoherent OOK at an SNR given in dB.
pub fn ber_ook_noncoherent_db(snr: Decibels) -> f64 {
    ber_ook_noncoherent(snr.linear())
}

/// Knot count of the [`ber_ook_noncoherent_fast`] table.
pub const OOK_KNOTS: usize = 1024;
/// Lowest linear SNR the table covers; below it the BER is 0.5.
const OOK_LO: f64 = 1e-3;
/// Highest linear SNR the table covers; at and above it the BER is 0.
const OOK_HI: f64 = 1e5;

/// `ln(BER)` at knot `i` of the log-spaced grid over `OOK_LO..=OOK_HI`:
/// one exact [`ber_ook_noncoherent`] evaluation. BER is strictly positive
/// on the grid; the floor only keeps the log finite.
fn ook_knot_value(i: usize) -> f64 {
    let g = OOK_LO * (OOK_HI / OOK_LO).powf(i as f64 / (OOK_KNOTS - 1) as f64);
    ber_ook_noncoherent(g).max(1e-300).ln()
}

/// The log-log interpolation table behind [`ber_ook_noncoherent_fast`],
/// filled one knot at a time on first use.
///
/// Each knot is a pure function of its index, so a lookup returns the
/// same bits whichever knots were filled before it, in whatever order and
/// on whatever thread. A per-knot `OnceLock` (rather than an atomic with a
/// sentinel) makes two threads that miss the same knot wait for one fill
/// instead of computing it twice.
struct OokKnots {
    knots: [OnceLock<f64>; OOK_KNOTS],
    filled: AtomicUsize,
}

impl OokKnots {
    const fn new() -> Self {
        Self {
            knots: [const { OnceLock::new() }; OOK_KNOTS],
            filled: AtomicUsize::new(0),
        }
    }

    /// Knot `i`, computed the first time any caller asks for it. Fills,
    /// never lookups, are counted (`phy.ook.knot_fill`).
    #[inline]
    fn knot(&self, i: usize) -> f64 {
        *self.knots[i].get_or_init(|| {
            self.filled.fetch_add(1, Ordering::Relaxed);
            braidio_telemetry::count("phy.ook.knot_fill");
            ook_knot_value(i)
        })
    }

    fn ber(&self, gamma: f64) -> f64 {
        if gamma <= OOK_LO {
            return 0.5;
        }
        if gamma >= OOK_HI {
            return 0.0;
        }
        let pos = (gamma / OOK_LO).ln() / (OOK_HI / OOK_LO).ln() * (OOK_KNOTS - 1) as f64;
        let i = pos as usize;
        let frac = pos - i as f64;
        let (lo, hi) = (self.knot(i), self.knot(i + 1));
        let ln_ber = lo + frac * (hi - lo);
        ln_ber.exp().min(0.5)
    }
}

static OOK_TABLE: OokKnots = OokKnots::new();

/// Fast evaluation of [`ber_ook_noncoherent`] through a log-log
/// interpolation table (1024 knots over 10⁻³…10⁵ linear SNR, relative
/// error < 10⁻³ — far below any physical uncertainty here).
///
/// The exact Marcum-Q evaluation costs ~10⁵ floating-point operations per
/// call, so a knot is computed only when a query first lands next to it
/// and is then cached for the process. Real runs touch a minority of the
/// knots (the characterization about 100, a city-block fleet about 190),
/// so nobody pays for the whole table up front. The answer for a given
/// `gamma` is the same bits whichever knots other queries filled first.
pub fn ber_ook_noncoherent_fast(gamma: f64) -> f64 {
    OOK_TABLE.ber(gamma)
}

/// How many knots of the [`ber_ook_noncoherent_fast`] table this process
/// has computed so far (at most [`OOK_KNOTS`]).
pub fn ook_knots_filled() -> usize {
    OOK_TABLE.filled.load(Ordering::Relaxed)
}

/// The classic high-SNR approximation `½·exp(−γ/4)` for noncoherent OOK,
/// kept for cross-checks and fast sweeps.
pub fn ber_ook_noncoherent_approx(gamma: f64) -> f64 {
    (0.5 * (-gamma / 4.0).exp()).min(0.5)
}

/// BER of coherent OOK detection: `Q(√(γ/2))` with `γ` defined as above.
pub fn ber_coherent(gamma: f64) -> f64 {
    assert!(gamma >= 0.0, "SNR must be non-negative");
    q_function((gamma / 2.0).sqrt())
}

/// BER of coherent detection at an SNR given in dB.
pub fn ber_coherent_db(snr: Decibels) -> f64 {
    ber_coherent(snr.linear())
}

/// BER of noncoherent binary FSK, `½·exp(−γ/2)` — the active radio's
/// envelope when modelled pessimistically (real BLE chips do a bit better;
/// the active link is never the bottleneck in any experiment).
pub fn ber_fsk_noncoherent(gamma: f64) -> f64 {
    (0.5 * (-gamma / 2.0).exp()).min(0.5)
}

/// Packet error rate for `bits` independent bit decisions at error rate
/// `ber`.
pub fn packet_error_rate(ber: f64, bits: usize) -> f64 {
    assert!((0.0..=1.0).contains(&ber), "ber must be a probability");
    1.0 - (1.0 - ber).powi(bits as i32)
}

/// The linear SNR at which a BER model crosses `target`, found by bisection
/// over `[γ_lo, γ_hi]` (model must be monotone decreasing in SNR).
pub fn snr_for_ber(model: impl Fn(f64) -> f64, target: f64, lo: f64, hi: f64) -> f64 {
    assert!(target > 0.0 && target < 0.5);
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if model(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_snr_is_coin_flip() {
        assert!((ber_ook_noncoherent(0.0) - 0.5).abs() < 1e-12);
        assert!((ber_coherent(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn monotone_decreasing_in_snr() {
        let mut prev = 1.0;
        for snr_db in [-5.0, 0.0, 3.0, 6.0, 9.0, 12.0, 15.0] {
            let b = ber_ook_noncoherent_db(Decibels::new(snr_db));
            assert!(b < prev, "BER should fall with SNR (snr {snr_db} dB)");
            prev = b;
        }
    }

    #[test]
    fn tracks_high_snr_approximation() {
        // The exact optimal-threshold BER and ½·exp(−γ/4) agree within a
        // small factor at high SNR.
        for snr_db in [12.0, 14.0, 16.0] {
            let gamma = Decibels::new(snr_db).linear();
            let exact = ber_ook_noncoherent(gamma);
            let approx = ber_ook_noncoherent_approx(gamma);
            let ratio = exact / approx;
            assert!(
                (0.2..=2.0).contains(&ratio),
                "snr {snr_db} dB: exact {exact:.3e} vs approx {approx:.3e}"
            );
        }
    }

    #[test]
    fn coherent_beats_noncoherent() {
        for snr_db in [6.0, 9.0, 12.0] {
            let gamma = Decibels::new(snr_db).linear();
            assert!(
                ber_coherent(gamma) < ber_ook_noncoherent(gamma),
                "coherent must win at {snr_db} dB"
            );
        }
    }

    #[test]
    fn one_percent_ber_near_9db() {
        // The calibration anchor used across the workspace: noncoherent OOK
        // crosses BER = 1e-2 in the 8–11 dB SNR window.
        let gamma = snr_for_ber(ber_ook_noncoherent, 1e-2, 0.1, 1000.0);
        let snr_db = 10.0 * gamma.log10();
        assert!((8.0..=11.5).contains(&snr_db), "1% BER at {snr_db:.2} dB");
    }

    #[test]
    fn per_formula() {
        assert!((packet_error_rate(0.0, 1000) - 0.0).abs() < 1e-12);
        assert!((packet_error_rate(1.0, 8) - 1.0).abs() < 1e-12);
        // Small-ber limit: PER ≈ bits · ber.
        let per = packet_error_rate(1e-6, 1000);
        assert!((per - 1e-3).abs() < 1e-5);
    }

    #[test]
    fn fast_table_tracks_exact_model() {
        for snr_db in [-10.0f64, -3.0, 0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0] {
            let gamma = 10f64.powf(snr_db / 10.0);
            let exact = ber_ook_noncoherent(gamma);
            let fast = ber_ook_noncoherent_fast(gamma);
            let rel = (fast - exact).abs() / exact.max(1e-12);
            assert!(
                rel < 5e-3,
                "snr {snr_db} dB: exact {exact:.6e} fast {fast:.6e}"
            );
        }
        // Out-of-range behaviour.
        assert_eq!(ber_ook_noncoherent_fast(1e-6), 0.5);
        assert_eq!(ber_ook_noncoherent_fast(1e9), 0.0);
    }

    /// The eager builder the lazy table replaced, kept verbatim as the
    /// bitwise oracle: every knot in one pass, in index order.
    fn eager_ook_table() -> &'static [f64] {
        static ORACLE: OnceLock<Vec<f64>> = OnceLock::new();
        ORACLE.get_or_init(|| {
            const N: usize = 1024;
            const LO: f64 = 1e-3;
            const HI: f64 = 1e5;
            (0..N)
                .map(|i| {
                    let g = LO * (HI / LO).powf(i as f64 / (N - 1) as f64);
                    ber_ook_noncoherent(g).max(1e-300).ln()
                })
                .collect()
        })
    }

    /// The interpolation the eager table fed, verbatim.
    fn eager_ook_fast(table: &[f64], gamma: f64) -> f64 {
        const N: usize = 1024;
        const LO: f64 = 1e-3;
        const HI: f64 = 1e5;
        if gamma <= LO {
            return 0.5;
        }
        if gamma >= HI {
            return 0.0;
        }
        let pos = (gamma / LO).ln() / (HI / LO).ln() * (N - 1) as f64;
        let i = pos as usize;
        let frac = pos - i as f64;
        let ln_ber = table[i] + frac * (table[i + 1] - table[i]);
        ln_ber.exp().min(0.5)
    }

    fn knot_gamma(i: usize) -> f64 {
        OOK_LO * (OOK_HI / OOK_LO).powf(i as f64 / (OOK_KNOTS - 1) as f64)
    }

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn next_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn every_lazy_knot_matches_the_eager_oracle_bitwise() {
        let oracle = eager_ook_table();
        assert_eq!(oracle.len(), OOK_KNOTS);
        for (i, &want) in oracle.iter().enumerate() {
            let got = OOK_TABLE.knot(i);
            assert_eq!(got.to_bits(), want.to_bits(), "knot {i}: {got} vs {want}");
        }
        assert_eq!(ook_knots_filled(), OOK_KNOTS);
    }

    #[test]
    fn fast_matches_the_eager_table_bitwise_on_a_gamma_sweep() {
        let oracle = eager_ook_table();
        let mut gammas = vec![
            0.0,
            1e-6,
            next_down(OOK_LO),
            OOK_LO,
            next_up(OOK_LO),
            next_down(OOK_HI),
            OOK_HI,
            next_up(OOK_HI),
            1e9,
        ];
        for i in 0..OOK_KNOTS {
            let g = knot_gamma(i);
            gammas.extend([g, next_down(g), next_up(g)]);
            if i + 1 < OOK_KNOTS {
                gammas.push((g * knot_gamma(i + 1)).sqrt());
            }
        }
        for g in gammas {
            let want = eager_ook_fast(oracle, g);
            let got = ber_ook_noncoherent_fast(g);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "gamma {g:e}: {got:e} vs {want:e}"
            );
        }
    }

    #[test]
    fn racing_threads_fill_each_knot_once_with_the_same_bits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        use std::sync::Barrier;

        // A private table, so the count is this test's alone. Four
        // overlapping windows of knots around the 1 % BER region, each
        // thread walking its window's cells in its own shuffled order.
        let table = OokKnots::new();
        const THREADS: usize = 4;
        let window = |t: usize| (400 + 8 * t)..(440 + 8 * t);
        let barrier = Barrier::new(THREADS);
        let answers: Vec<Vec<(usize, u64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (table, barrier) = (&table, &barrier);
                    s.spawn(move || {
                        let mut cells: Vec<usize> = window(t).collect();
                        let mut rng = StdRng::seed_from_u64(t as u64);
                        for k in (1..cells.len()).rev() {
                            cells.swap(k, rng.random_range(0..=k));
                        }
                        barrier.wait();
                        cells
                            .into_iter()
                            .map(|c| {
                                let g = (knot_gamma(c) * knot_gamma(c + 1)).sqrt();
                                (c, table.ber(g).to_bits())
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let oracle = eager_ook_table();
        let mut touched = BTreeSet::new();
        for (c, bits) in answers.into_iter().flatten() {
            let want = eager_ook_fast(oracle, (knot_gamma(c) * knot_gamma(c + 1)).sqrt());
            assert_eq!(bits, want.to_bits(), "cell {c}");
            touched.extend([c, c + 1]);
        }
        assert_eq!(table.filled.load(Ordering::Relaxed), touched.len());
        for i in 0..OOK_KNOTS {
            assert_eq!(
                table.knots[i].get().is_some(),
                touched.contains(&i),
                "knot {i}"
            );
        }
    }

    #[test]
    fn snr_for_ber_inverts_model() {
        let target = 1e-3;
        let gamma = snr_for_ber(ber_ook_noncoherent, target, 0.1, 1000.0);
        let back = ber_ook_noncoherent(gamma);
        assert!((back - target).abs() / target < 0.05, "got {back:.3e}");
    }

    #[test]
    fn fsk_between_ook_and_coherent() {
        let gamma = Decibels::new(10.0).linear();
        let fsk = ber_fsk_noncoherent(gamma);
        assert!(fsk < ber_ook_noncoherent_approx(gamma));
        assert!(fsk > ber_coherent(2.0 * gamma) * 0.1);
    }
}
