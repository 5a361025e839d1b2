//! Power delay profiles.
//!
//! The *power delay profile* (PDP, the delay-domain power distribution of a
//! radio channel — not to be confused with the paper's "power of direct
//! path", which is a scalar extracted *from* the profile) describes how the
//! received energy spreads across propagation delays. NomLoc obtains it by
//! an IFFT of the frequency-domain CSI and summarizes each link by its
//! maximum tap power (§IV-A).
//!
//! A [`DelayProfile`] materializes every tap; it is the reference. The
//! serving path needs only each packet's peak, which
//! [`DelayProfile::peak_powers_from_seeds`] computes for up to 16 packets
//! at once: the zero-pruned batched inverse of [`crate::batch`] folds its
//! last butterfly pass straight into per-lane peak powers, bit-identical
//! to `from_csi(..).peak().power` for every input, non-finite CSI
//! included.

use crate::batch::{BatchFftPlan, RowSink, MAX_LANES};
use crate::soa::SoaComplex;
use crate::{fft, Complex};

/// The last-pass sink of [`DelayProfile::peak_powers_from_seeds`]: per
/// tap, `1/N` normalization, then gain, then power, folded into a
/// branch-free per-lane maximum. `probe` sums each lane's powers, which
/// are never negative, so it turns NaN exactly when some power was NaN.
struct PeakFold {
    scale: f64,
    gain: f64,
    best: [f64; MAX_LANES],
    probe: [f64; MAX_LANES],
}

impl RowSink for PeakFold {
    #[inline(always)]
    fn put<const L: usize>(
        &mut self,
        _dst_re: &mut [f64; L],
        _dst_im: &mut [f64; L],
        re: &[f64; L],
        im: &[f64; L],
    ) {
        let best = self.best.first_chunk_mut::<L>().expect("L <= MAX_LANES");
        let probe = self.probe.first_chunk_mut::<L>().expect("L <= MAX_LANES");
        for l in 0..L {
            // The scalar path's order: `h · (1/N)`, then `· gain`, then
            // the norm.
            let sr = re[l] * self.scale * self.gain;
            let si = im[l] * self.scale * self.gain;
            let power = sr * sr + si * si;
            best[l] = if power > best[l] { power } else { best[l] };
            probe[l] += power;
        }
    }
}

/// The delay-domain power profile of one radio link.
///
/// # Example
///
/// ```
/// use nomloc_dsp::pdp::DelayProfile;
/// use nomloc_dsp::Complex;
///
/// // A flat spectrum concentrates all energy at delay zero.
/// let csi = vec![Complex::ONE; 32];
/// let profile = DelayProfile::from_csi(&csi, 20e6, 64);
/// assert_eq!(profile.peak().index, 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DelayProfile {
    /// Power of each delay tap (linear, |h|²).
    powers: Vec<f64>,
    /// Delay spacing between consecutive taps, in seconds.
    tap_spacing: f64,
}

/// One tap of a [`DelayProfile`], as returned by its queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tap {
    /// Index of the tap within the profile.
    pub index: usize,
    /// Delay of the tap in seconds.
    pub delay: f64,
    /// Linear power of the tap.
    pub power: f64,
}

impl DelayProfile {
    /// Builds a profile from time-domain CIR taps sampled every
    /// `tap_spacing` seconds.
    ///
    /// # Panics
    ///
    /// Panics when `cir` is empty or `tap_spacing` is not positive.
    pub fn from_cir(cir: &[Complex], tap_spacing: f64) -> Self {
        assert!(!cir.is_empty(), "CIR must not be empty");
        assert!(tap_spacing > 0.0, "tap spacing must be positive");
        DelayProfile {
            powers: cir.iter().map(|h| h.norm_sq()).collect(),
            tap_spacing,
        }
    }

    /// Builds a profile from frequency-domain CSI spanning `bandwidth` Hz.
    ///
    /// The CSI is zero-padded to at least `min_taps` (rounded up to a power
    /// of two) before the IFFT, interpolating the delay axis; the effective
    /// tap spacing is `len(csi) / (bandwidth · n_taps)` so that the total
    /// unambiguous delay window remains `len(csi)/bandwidth`.
    ///
    /// # Panics
    ///
    /// Panics when `csi` is empty or `bandwidth` is not positive.
    pub fn from_csi(csi: &[Complex], bandwidth: f64, min_taps: usize) -> Self {
        Self::from_csi_with(csi, bandwidth, min_taps, &mut Vec::new())
    }

    /// [`DelayProfile::from_csi`] with a caller-provided IFFT scratch
    /// buffer. `scratch` is overwritten and keeps its capacity, so a loop
    /// over a burst of same-sized snapshots performs the delay-domain
    /// transform without per-packet allocation. Bit-identical to
    /// `from_csi`.
    ///
    /// # Panics
    ///
    /// Panics when `csi` is empty or `bandwidth` is not positive.
    pub fn from_csi_with(
        csi: &[Complex],
        bandwidth: f64,
        min_taps: usize,
        scratch: &mut Vec<Complex>,
    ) -> Self {
        assert!(!csi.is_empty(), "CSI must not be empty");
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        fft::ifft_padded_into(csi, min_taps, scratch);
        // The n-point unpadded IFFT has tap spacing 1/bandwidth and window
        // n/bandwidth; padding to m taps subdivides the same window.
        let window = csi.len() as f64 / bandwidth;
        let spacing = window / scratch.len() as f64;
        // Undo the extra 1/pad scaling relative to the unpadded IFFT so
        // that tap powers are comparable across pad sizes.
        let gain = scratch.len() as f64 / csi.len() as f64;
        DelayProfile {
            powers: scratch.iter().map(|h| (*h * gain).norm_sq()).collect(),
            tap_spacing: spacing,
        }
    }

    /// Per-lane peak tap powers — `from_csi(..).peak().power` of each
    /// lane's CSI row — from the zero-pruned batched inverse.
    ///
    /// The caller writes `lanes` CSI rows of original length `csi_len` into
    /// `seeds` with [`BatchFftPlan::scatter_seeds`], with
    /// `plan.len() == fft::padded_len(csi_len, min_taps)`. The zero-pruned
    /// inverse (see [`crate::batch`]) folds its last pass straight into the
    /// peaks: `1/N` normalization, the same `(h · gain)` norm as
    /// [`DelayProfile::from_csi`], and a running numeric maximum per lane.
    /// `work` is scratch, grown to `plan.len() * lanes` and reused.
    ///
    /// Bit-identical per lane to `from_csi(..).peak().power`, non-finite
    /// CSI included. Every tap power is a sum of squares, so never `-0.0`:
    /// without NaN, the numeric maximum is the `total_cmp` maximum
    /// [`DelayProfile::peak`] takes (equal powers are equal bits, so which
    /// tap wins a tie does not matter). A lane in which any power is NaN —
    /// which `total_cmp` ranks by sign and payload — is read back from the
    /// seeds and takes the peak of its materialized profile instead.
    ///
    /// # Panics
    ///
    /// Panics when `csi_len` is zero, `plan.len() < csi_len`, `lanes` is
    /// not a power of two up to [`MAX_LANES`], or
    /// `seeds.len() != csi_len.next_power_of_two() * lanes`.
    pub fn peak_powers_from_seeds(
        plan: &BatchFftPlan,
        seeds: &SoaComplex,
        work: &mut SoaComplex,
        lanes: usize,
        csi_len: usize,
        out: &mut Vec<f64>,
    ) {
        assert!(csi_len > 0, "CSI must not be empty");
        assert!(
            plan.len() >= csi_len,
            "padded plan must cover the CSI length"
        );
        assert_eq!(
            seeds.len(),
            csi_len.next_power_of_two() * lanes,
            "seed buffer length must be seed rows × lanes"
        );
        let mut fold = PeakFold {
            scale: 1.0 / plan.len() as f64,
            gain: plan.len() as f64 / csi_len as f64,
            best: [f64::NEG_INFINITY; MAX_LANES],
            probe: [0.0; MAX_LANES],
        };
        plan.run_pruned(seeds, work, lanes, &mut fold);
        out.clear();
        out.extend_from_slice(&fold.best[..lanes]);
        for lane in (0..lanes).filter(|&l| fold.probe[l].is_nan()) {
            // `total_cmp` ranks NaN by sign and payload, which a numeric
            // maximum cannot see: this lane takes the peak of its
            // materialized profile (the bandwidth only sets tap spacing).
            let mut row = Vec::new();
            plan.gather_seeds(seeds, lane, lanes, csi_len, &mut row);
            out[lane] = Self::from_csi(&row, 1.0, plan.len()).peak().power;
        }
    }

    /// Number of delay taps.
    #[inline]
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// Returns `true` when the profile has no taps (never, post-construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }

    /// Delay spacing between taps, in seconds.
    #[inline]
    pub fn tap_spacing(&self) -> f64 {
        self.tap_spacing
    }

    /// Linear tap powers.
    #[inline]
    pub fn powers(&self) -> &[f64] {
        &self.powers
    }

    /// Tap at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn tap(&self, index: usize) -> Tap {
        Tap {
            index,
            delay: index as f64 * self.tap_spacing,
            power: self.powers[index],
        }
    }

    /// The maximum-power tap.
    ///
    /// This is the paper's PDP surrogate: "it is reasonable to assume that
    /// the [power of the direct path] is the highest among all the
    /// transmission paths. Hence, we can use the maximum power of the power
    /// delay profile to approximate PDP of each link" (§IV-A).
    pub fn peak(&self) -> Tap {
        let (index, _) = self
            .powers
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("profile is non-empty by construction");
        self.tap(index)
    }

    /// The first tap whose power exceeds `threshold × peak power`.
    ///
    /// A *first-path* detector: under LOS this coincides with the peak; under
    /// NLOS the first path is attenuated and arrives before stronger
    /// reflections, which is the dichotomy Fig. 3 of the paper illustrates.
    pub fn first_path(&self, threshold: f64) -> Tap {
        let peak_power = self.peak().power;
        let cut = peak_power * threshold;
        for (i, &p) in self.powers.iter().enumerate() {
            if p >= cut {
                return self.tap(i);
            }
        }
        self.peak()
    }

    /// Total received power (sum of all taps).
    pub fn total_power(&self) -> f64 {
        self.powers.iter().sum()
    }

    /// Mean excess delay: the power-weighted mean tap delay.
    pub fn mean_excess_delay(&self) -> f64 {
        let total = self.total_power();
        if total <= 0.0 {
            return 0.0;
        }
        self.powers
            .iter()
            .enumerate()
            .map(|(i, &p)| i as f64 * self.tap_spacing * p)
            .sum::<f64>()
            / total
    }

    /// RMS delay spread: the power-weighted standard deviation of tap delay.
    ///
    /// A standard channel dispersion metric; large values indicate rich
    /// multipath, the regime where RSS-based localization breaks down.
    pub fn rms_delay_spread(&self) -> f64 {
        let total = self.total_power();
        if total <= 0.0 {
            return 0.0;
        }
        let mean = self.mean_excess_delay();
        let second: f64 = self
            .powers
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let d = i as f64 * self.tap_spacing;
                d * d * p
            })
            .sum::<f64>()
            / total;
        (second - mean * mean).max(0.0).sqrt()
    }

    /// Rician K-factor estimate: peak power over the summed power of all
    /// other taps, in linear scale. Larger means more LOS-dominated.
    pub fn k_factor(&self) -> f64 {
        let peak = self.peak().power;
        let rest = self.total_power() - peak;
        if rest <= 0.0 {
            f64::INFINITY
        } else {
            peak / rest
        }
    }
}

/// The unpruned batched path the seeded kernel replaced, kept as its test
/// oracle.
#[cfg(test)]
impl DelayProfile {
    /// Batched `from_csi_with(..).peak().power` over a full lane-major
    /// batch: the caller packs `lanes` CSI rows of length `csi_len` into
    /// `buf` via [`SoaComplex::reset`] (to `plan.len() * lanes` zeros, the
    /// padding) and [`SoaComplex::write_lane`]; this runs the full batched
    /// inverse and the `total_cmp` fold.
    pub(crate) fn peak_powers_from_batch_with(
        plan: &BatchFftPlan,
        buf: &mut SoaComplex,
        lanes: usize,
        csi_len: usize,
        out: &mut Vec<f64>,
    ) {
        assert!(csi_len > 0, "CSI must not be empty");
        assert!(
            plan.len() >= csi_len,
            "padded plan must cover the CSI length"
        );
        plan.inverse(buf, lanes);
        Self::fold_batch_peaks(plan, buf, lanes, csi_len, out);
    }

    /// Gain + per-lane `total_cmp` running-maximum fold over a transformed
    /// batch (taps walked row-major, so per lane the visit order matches
    /// [`DelayProfile::peak`]'s exactly, later ties winning).
    fn fold_batch_peaks(
        plan: &BatchFftPlan,
        buf: &SoaComplex,
        lanes: usize,
        csi_len: usize,
        out: &mut Vec<f64>,
    ) {
        let gain = plan.len() as f64 / csi_len as f64;
        out.clear();
        // Tap 0 initializes each lane's running maximum…
        for lane in 0..lanes {
            let sr = buf.re[lane] * gain;
            let si = buf.im[lane] * gain;
            out.push(sr * sr + si * si);
        }
        // …and taps 1.. fold in row-major order: per lane this visits taps
        // in exactly the order the scalar fold does.
        for i in 1..plan.len() {
            let base = i * lanes;
            let row_re = &buf.re[base..base + lanes];
            let row_im = &buf.im[base..base + lanes];
            for ((best, &re), &im) in out.iter_mut().zip(row_re).zip(row_im) {
                let sr = re * gain;
                let si = im * gain;
                let power = sr * sr + si * si;
                if power.total_cmp(best) != std::cmp::Ordering::Less {
                    *best = power;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn two_path_csi(n: usize, bw: f64, d1: f64, a1: f64, d2: f64, a2: f64) -> Vec<Complex> {
        (0..n)
            .map(|k| {
                let f = k as f64 * bw / n as f64;
                Complex::cis(-2.0 * PI * f * d1).scale(a1)
                    + Complex::cis(-2.0 * PI * f * d2).scale(a2)
            })
            .collect()
    }

    #[test]
    fn from_csi_with_matches_from_csi() {
        let bw = 20e6;
        let mut scratch = vec![Complex::new(7.0, -7.0); 5]; // dirty, wrong size
        for (n, min_taps) in [(30usize, 256usize), (30, 64), (16, 16), (56, 128)] {
            let csi = two_path_csi(n, bw, 80e-9, 1.0, 350e-9, 0.5);
            let direct = DelayProfile::from_csi(&csi, bw, min_taps);
            let reused = DelayProfile::from_csi_with(&csi, bw, min_taps, &mut scratch);
            // Bit-identical, not just approximately equal.
            assert_eq!(reused, direct, "n={n} min_taps={min_taps}");
        }
    }

    #[test]
    fn batched_peaks_match_scalar_bit_for_bit() {
        let bw = 20e6;
        for (n, min_taps) in [(30usize, 256usize), (30, 64), (16, 16), (56, 128), (1, 1)] {
            let lanes = 5;
            let rows: Vec<Vec<Complex>> = (0..lanes)
                .map(|l| {
                    two_path_csi(
                        n,
                        bw,
                        (50 + 40 * l) as f64 * 1e-9,
                        1.0 - 0.1 * l as f64,
                        350e-9,
                        0.5,
                    )
                })
                .collect();
            let padded = crate::fft::padded_len(n, min_taps);
            let plan = BatchFftPlan::new(padded);
            let mut buf = SoaComplex::new();
            buf.reset(padded * lanes);
            for (l, row) in rows.iter().enumerate() {
                buf.write_lane(l, lanes, row);
            }
            let mut peaks = Vec::new();
            DelayProfile::peak_powers_from_batch_with(&plan, &mut buf, lanes, n, &mut peaks);
            let mut scratch = Vec::new();
            for (l, row) in rows.iter().enumerate() {
                let scalar = DelayProfile::from_csi_with(row, bw, min_taps, &mut scratch)
                    .peak()
                    .power;
                assert_eq!(peaks[l], scalar, "n={n} min_taps={min_taps} lane={l}");
            }
        }
    }

    #[test]
    fn from_cir_powers() {
        let cir = vec![
            Complex::new(2.0, 0.0),
            Complex::new(0.0, 1.0),
            Complex::ZERO,
        ];
        let p = DelayProfile::from_cir(&cir, 50e-9);
        assert_eq!(p.len(), 3);
        assert_eq!(p.powers(), &[4.0, 1.0, 0.0]);
        assert_eq!(p.peak().index, 0);
        assert!((p.tap(1).delay - 50e-9).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "CIR must not be empty")]
    fn from_cir_rejects_empty() {
        let _ = DelayProfile::from_cir(&[], 1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn from_csi_rejects_bad_bandwidth() {
        let _ = DelayProfile::from_csi(&[Complex::ONE], 0.0, 8);
    }

    #[test]
    fn flat_spectrum_is_single_tap() {
        let csi = vec![Complex::ONE; 30];
        let p = DelayProfile::from_csi(&csi, 20e6, 64);
        assert_eq!(p.peak().index, 0);
        // Zero-padding a rectangular spectrum smears the impulse into a
        // Dirichlet main lobe; the lobe (peak ± 3 taps, with wrap-around)
        // still holds the bulk of the energy.
        let n = p.len();
        let lobe: f64 = (-3i64..=3)
            .map(|d| p.powers()[((d.rem_euclid(n as i64)) as usize) % n])
            .sum();
        assert!(lobe / p.total_power() > 0.8, "lobe fraction too small");
    }

    #[test]
    fn delayed_path_peaks_at_its_delay() {
        let bw = 20e6;
        let n = 30;
        let delay = 300e-9; // 300 ns
        let csi: Vec<Complex> = (0..n)
            .map(|k| Complex::cis(-2.0 * PI * (k as f64 * bw / n as f64) * delay))
            .collect();
        let p = DelayProfile::from_csi(&csi, bw, 256);
        let peak = p.peak();
        assert!(
            (peak.delay - delay).abs() < 2.0 * p.tap_spacing(),
            "peak at {} s, expected {} s",
            peak.delay,
            delay
        );
    }

    #[test]
    fn stronger_path_wins_peak() {
        let bw = 20e6;
        // Direct path at 50 ns with amplitude 1.0; reflection at 400 ns, 0.4.
        let csi = two_path_csi(30, bw, 50e-9, 1.0, 400e-9, 0.4);
        let p = DelayProfile::from_csi(&csi, bw, 256);
        assert!((p.peak().delay - 50e-9).abs() < 2.0 * p.tap_spacing());
        // NLOS flips the strengths: the late path now wins the max.
        let csi = two_path_csi(30, bw, 50e-9, 0.2, 400e-9, 0.8);
        let p = DelayProfile::from_csi(&csi, bw, 256);
        assert!((p.peak().delay - 400e-9).abs() < 2.0 * p.tap_spacing());
    }

    #[test]
    fn first_path_detects_early_weak_tap() {
        let bw = 20e6;
        let csi = two_path_csi(30, bw, 50e-9, 0.5, 400e-9, 1.0);
        let p = DelayProfile::from_csi(&csi, bw, 256);
        let first = p.first_path(0.1);
        assert!(first.delay < 100e-9, "first path at {}", first.delay);
        assert!(p.peak().delay > 300e-9);
    }

    #[test]
    fn peak_power_scales_quadratically_with_amplitude() {
        let bw = 20e6;
        let weak = DelayProfile::from_csi(&two_path_csi(30, bw, 0.0, 1.0, 0.0, 0.0), bw, 128);
        let strong = DelayProfile::from_csi(&two_path_csi(30, bw, 0.0, 2.0, 0.0, 0.0), bw, 128);
        let ratio = strong.peak().power / weak.peak().power;
        assert!((ratio - 4.0).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn peak_power_invariant_to_padding() {
        let bw = 20e6;
        // Delay window is 30/bw = 1.5 µs; 93.75 ns lands exactly on a tap
        // for both pad sizes (4/64 and 32/512 of the window), so the peak
        // sample sits on the true maximum and only the normalization is
        // under test.
        let csi = two_path_csi(30, bw, 93.75e-9, 1.0, 0.0, 0.0);
        let p64 = DelayProfile::from_csi(&csi, bw, 64);
        let p512 = DelayProfile::from_csi(&csi, bw, 512);
        let rel = (p64.peak().power - p512.peak().power).abs() / p64.peak().power;
        assert!(rel < 1e-9, "padding changed peak power by {rel}");
        // Off-grid delays suffer bounded scalloping: still within ~15 %.
        let csi = two_path_csi(30, bw, 100e-9, 1.0, 0.0, 0.0);
        let p256 = DelayProfile::from_csi(&csi, bw, 256);
        let p1024 = DelayProfile::from_csi(&csi, bw, 1024);
        let rel = (p256.peak().power - p1024.peak().power).abs() / p1024.peak().power;
        assert!(rel < 0.15, "off-grid scalloping too large: {rel}");
    }

    #[test]
    fn delay_spread_zero_for_single_path() {
        let cir = vec![Complex::ONE, Complex::ZERO, Complex::ZERO];
        let p = DelayProfile::from_cir(&cir, 50e-9);
        assert_eq!(p.rms_delay_spread(), 0.0);
        assert_eq!(p.mean_excess_delay(), 0.0);
    }

    #[test]
    fn delay_spread_positive_for_two_paths() {
        let cir = vec![Complex::ONE, Complex::ZERO, Complex::ONE];
        let p = DelayProfile::from_cir(&cir, 50e-9);
        assert!((p.mean_excess_delay() - 50e-9).abs() < 1e-15);
        assert!((p.rms_delay_spread() - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn k_factor_orders_los_vs_nlos() {
        let los = DelayProfile::from_cir(&[Complex::new(3.0, 0.0), Complex::new(0.5, 0.0)], 50e-9);
        let nlos = DelayProfile::from_cir(
            &[
                Complex::new(1.0, 0.0),
                Complex::new(0.9, 0.0),
                Complex::new(0.8, 0.0),
            ],
            50e-9,
        );
        assert!(los.k_factor() > nlos.k_factor());
        let pure = DelayProfile::from_cir(&[Complex::ONE], 50e-9);
        assert!(pure.k_factor().is_infinite());
    }

    /// Lane `l` of a hostile batch: finite two-path CSI, all zeros, a
    /// quiet NaN, ±infinity, NaN beside infinity, a negative NaN with a
    /// payload, and magnitudes whose butterflies overflow.
    fn hostile_row(csi_len: usize, l: usize) -> Vec<Complex> {
        let mut row = two_path_csi(csi_len, 20e6, (40 + 30 * l) as f64 * 1e-9, 1.0, 350e-9, 0.4);
        let at = (7 * l + 3) % csi_len;
        let neg_nan = f64::from_bits(0xFFF4_0000_0000_1234);
        match l % 8 {
            0 => {}
            1 => row.iter_mut().for_each(|z| *z = Complex::ZERO),
            2 => row[at].re = f64::NAN,
            3 => row[at].im = f64::INFINITY,
            4 => row[at].re = f64::NEG_INFINITY,
            5 => {
                row[at].im = f64::NAN;
                row[csi_len - 1 - at].re = f64::INFINITY;
            }
            6 => row[at] = Complex::new(neg_nan, -1.0),
            _ => row
                .iter_mut()
                .for_each(|z| *z = Complex::new(1e308, -1e308)),
        }
        row
    }

    #[test]
    fn seeded_peaks_match_profile_peak_bits_on_hostile_csi() {
        // Every CSI length class (a lone seed, stride 1, pads of 2–256),
        // every lane count, and lanes whose powers are NaN, infinite or
        // zero: each peak's bits equal the materialized profile's peak.
        let mut seeds = SoaComplex::new();
        let mut work = SoaComplex::new();
        let mut peaks = Vec::new();
        for csi_len in [1usize, 2, 3, 17, 30, 31, 32, 33, 64, 200, 256, 300] {
            for min_taps in [1usize, 64, 256] {
                let padded = fft::padded_len(csi_len, min_taps);
                let plan = BatchFftPlan::new(padded);
                for lanes in [1, 2, 4, 8] {
                    // Rotate the hostile kinds so every kind meets every
                    // lane position across the lane counts.
                    let rows: Vec<Vec<Complex>> = (0..lanes)
                        .map(|l| hostile_row(csi_len, l + lanes))
                        .collect();
                    seeds.reset(csi_len.next_power_of_two() * lanes);
                    for (l, row) in rows.iter().enumerate() {
                        plan.scatter_seeds(&mut seeds, l, lanes, row);
                    }
                    DelayProfile::peak_powers_from_seeds(
                        &plan, &seeds, &mut work, lanes, csi_len, &mut peaks,
                    );
                    assert_eq!(peaks.len(), lanes);
                    for (l, row) in rows.iter().enumerate() {
                        let oracle = DelayProfile::from_csi(row, 20e6, min_taps).peak().power;
                        assert_eq!(
                            peaks[l].to_bits(),
                            oracle.to_bits(),
                            "csi_len={csi_len} min_taps={min_taps} lanes={lanes} lane={l}: \
                             {} vs {oracle}",
                            peaks[l]
                        );
                    }
                }
            }
        }
    }

    /// Deterministic pseudo-random batch of `lanes` rows of `n` samples.
    fn seeded_rows(n: usize, lanes: usize, seed: u64) -> Vec<Vec<Complex>> {
        (0..lanes)
            .map(|l| {
                (0..n)
                    .map(|i| {
                        let t = (i as f64 + 1.3 * l as f64 + 1.0) * (seed as f64 * 0.01 + 1.0);
                        Complex::new((0.37 * t).sin(), (0.73 * t).cos())
                    })
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn batched_pdp_peaks_match_scalar_oracle(
            csi_len in 1usize..60,
            lanes in 1usize..17,
            min_log2 in 0u32..9,
            seed in 0u64..500,
        ) {
            // The full batched PDP reduction (pad → lockstep IFFT → gain →
            // max-tap fold) against the scalar profile's peak tap
            // (DelayProfile::from_csi_with(..).peak().power). Bit-identity per
            // lane.
            let min_taps = 1usize << min_log2;
            let rows = seeded_rows(csi_len, lanes, seed);
            let padded = fft::padded_len(csi_len, min_taps);
            let plan = BatchFftPlan::new(padded);
            let mut soa = SoaComplex::new();
            soa.reset(padded * lanes);
            for (l, row) in rows.iter().enumerate() {
                soa.write_lane(l, lanes, row);
            }
            let mut peaks = Vec::new();
            DelayProfile::peak_powers_from_batch_with(&plan, &mut soa, lanes, csi_len, &mut peaks);
            proptest::prop_assert_eq!(peaks.len(), lanes);
            let mut scratch = Vec::new();
            for (l, row) in rows.iter().enumerate() {
                let scalar = DelayProfile::from_csi_with(row, 20e6, min_taps, &mut scratch)
                    .peak()
                    .power;
                proptest::prop_assert_eq!(peaks[l], scalar, "lane {} of {}", l, lanes);
            }
        }

    }
}
