//! Discrete Fourier transforms.
//!
//! The CSI→CIR conversion at the heart of NomLoc's PDP estimator is an
//! inverse DFT of the per-subcarrier channel coefficients. CSI vectors come
//! in awkward lengths — the Intel 5300 driver exports 30 grouped subcarriers
//! over a 20 MHz 802.11n channel — so alongside the classic radix-2
//! Cooley–Tukey kernel this module provides a Bluestein (chirp-z) fallback
//! that handles any length exactly.
//!
//! All transforms use the convention
//!
//! ```text
//! X[k] = Σ_n x[n]·e^{−j2πkn/N}          (forward)
//! x[n] = (1/N)·Σ_k X[k]·e^{+j2πkn/N}    (inverse)
//! ```

use crate::Complex;
use std::f64::consts::PI;

/// Forward DFT of arbitrary length.
///
/// Uses radix-2 Cooley–Tukey when `x.len()` is a power of two and Bluestein
/// otherwise. O(N log N) in both cases.
pub fn fft(x: &[Complex]) -> Vec<Complex> {
    dft(x, false)
}

/// Inverse DFT of arbitrary length (includes the `1/N` normalization).
pub fn ifft(x: &[Complex]) -> Vec<Complex> {
    dft(x, true)
}

fn dft(x: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let mut out = if n.is_power_of_two() {
        let mut buf = x.to_vec();
        fft_radix2(&mut buf, inverse);
        buf
    } else {
        bluestein(x, inverse)
    };
    if inverse {
        let scale = 1.0 / n as f64;
        for v in &mut out {
            *v = v.scale(scale);
        }
    }
    out
}

/// In-place radix-2 Cooley–Tukey, *without* inverse normalization.
///
/// Routes through the per-thread [`crate::plan::PlanCache`], so the
/// bit-reversal permutation and twiddle tables are computed once per size
/// per thread instead of on every call.
///
/// # Panics
///
/// Panics when `buf.len()` is not a power of two (plan construction
/// rejects other sizes).
pub fn fft_radix2(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    debug_assert!(n.is_power_of_two());
    if n <= 1 {
        return;
    }
    crate::plan::with_thread_plan(n, |plan| plan.process(buf, inverse));
}

/// Bluestein's chirp-z algorithm: DFT of arbitrary N via a power-of-two
/// convolution. No inverse normalization applied here.
fn bluestein(x: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = x.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    // Chirp: w[k] = e^{sign·jπk²/N}. Use k² mod 2N to keep angles bounded.
    let chirp: Vec<Complex> = (0..n)
        .map(|k| {
            let k2 = (k as u128 * k as u128) % (2 * n as u128);
            Complex::cis(sign * PI * k2 as f64 / n as f64)
        })
        .collect();

    let m = (2 * n - 1).next_power_of_two();
    let mut a = vec![Complex::ZERO; m];
    let mut b = vec![Complex::ZERO; m];
    for k in 0..n {
        a[k] = x[k] * chirp[k];
        b[k] = chirp[k].conj();
    }
    for k in 1..n {
        b[m - k] = chirp[k].conj();
    }
    // Convolve via the radix-2 kernel.
    fft_radix2(&mut a, false);
    fft_radix2(&mut b, false);
    for k in 0..m {
        a[k] *= b[k];
    }
    fft_radix2(&mut a, true);
    let scale = 1.0 / m as f64;
    (0..n).map(|k| a[k].scale(scale) * chirp[k]).collect()
}

/// The padded transform length used by [`ifft_padded`]: the next power of
/// two at least `max(len, min_len)`.
///
/// Exposed so batched callers can size their lane-major buffers to the
/// exact length the scalar path would use — the bit-identity contract
/// between the two depends on padding to the same target.
#[inline]
pub fn padded_len(len: usize, min_len: usize) -> usize {
    min_len.max(len).next_power_of_two()
}

/// Zero-pads `x` to the next power of two at least `min_len` and returns the
/// inverse FFT.
///
/// Zero-padding the frequency-domain CSI before the IFFT interpolates the
/// delay-domain profile, giving the PDP estimator sub-tap resolution.
pub fn ifft_padded(x: &[Complex], min_len: usize) -> Vec<Complex> {
    let mut out = Vec::new();
    ifft_padded_into(x, min_len, &mut out);
    out
}

/// [`ifft_padded`] into a caller-provided buffer: `out` is overwritten with
/// the padded inverse FFT and keeps its capacity across calls, so a loop
/// over many same-sized CSI snapshots allocates only on the first one.
///
/// Bit-identical to `ifft_padded` — the padded length is always a power of
/// two, so both run the same radix-2 kernel and `1/N` scaling in the same
/// order.
pub fn ifft_padded_into(x: &[Complex], min_len: usize, out: &mut Vec<Complex>) {
    let target = padded_len(x.len(), min_len);
    out.clear();
    out.extend_from_slice(x);
    out.resize(target, Complex::ZERO);
    fft_radix2(out, true);
    let scale = 1.0 / target as f64;
    for v in out.iter_mut() {
        *v = v.scale(scale);
    }
}

/// Naive O(N²) DFT: the cross-check oracle for the fast paths (this
/// module's and [`crate::plan`]'s tests).
#[cfg(test)]
pub(crate) fn dft_naive(x: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = Complex::ZERO;
        for (i, &xi) in x.iter().enumerate() {
            let theta = sign * 2.0 * PI * (k as f64) * (i as f64) / (n as f64);
            acc += xi * Complex::cis(theta);
        }
        out.push(acc);
    }
    if inverse {
        let scale = 1.0 / n as f64;
        for v in &mut out {
            *v = v.scale(scale);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).abs() < tol,
                "index {i}: {x} vs {y} (diff {})",
                (*x - *y).abs()
            );
        }
    }

    fn signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Complex::new((0.3 * t).sin() + 0.1 * t, (0.7 * t).cos() - 0.05 * t)
            })
            .collect()
    }

    /// The pre-plan iterative radix-2 kernel, the accuracy reference for
    /// the planned one: it recomputes the bit-reversal permutation per call
    /// and accumulates twiddles by repeated multiplication (`w *= wlen`),
    /// which drifts by one rounding error per butterfly.
    ///
    /// Semantics match the planned kernel: in-place, no inverse
    /// normalization.
    fn fft_radix2_unplanned(buf: &mut [Complex], inverse: bool) {
        let n = buf.len();
        debug_assert!(n.is_power_of_two());
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation.
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                buf.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * PI / len as f64;
            let wlen = Complex::cis(ang);
            for start in (0..n).step_by(len) {
                let mut w = Complex::ONE;
                for k in 0..len / 2 {
                    let u = buf[start + k];
                    let v = buf[start + k + len / 2] * w;
                    buf[start + k] = u + v;
                    buf[start + k + len / 2] = u - v;
                    w *= wlen;
                }
            }
            len <<= 1;
        }
    }

    /// [`ifft_padded_into`] running [`fft_radix2_unplanned`].
    fn ifft_padded_into_unplanned(x: &[Complex], min_len: usize, out: &mut Vec<Complex>) {
        let target = padded_len(x.len(), min_len);
        out.clear();
        out.extend_from_slice(x);
        out.resize(target, Complex::ZERO);
        fft_radix2_unplanned(out, true);
        let scale = 1.0 / target as f64;
        for v in out.iter_mut() {
            *v = v.scale(scale);
        }
    }

    #[test]
    fn empty_input() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
    }

    #[test]
    fn single_element_is_identity() {
        let x = vec![Complex::new(2.0, -3.0)];
        assert_close(&fft(&x), &x, 1e-12);
        assert_close(&ifft(&x), &x, 1e-12);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::ONE;
        let spec = fft(&x);
        for s in spec {
            assert!((s - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_has_dc_only_spectrum() {
        let x = vec![Complex::new(3.0, 0.0); 16];
        let spec = fft(&x);
        assert!((spec[0].re - 48.0).abs() < 1e-9);
        for s in &spec[1..] {
            assert!(s.abs() < 1e-9);
        }
    }

    #[test]
    fn single_tone_bin() {
        // x[n] = e^{j2π·3n/16} should land in bin 3.
        let n = 16;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * PI * 3.0 * i as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (k, s) in spec.iter().enumerate() {
            if k == 3 {
                assert!((s.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(s.abs() < 1e-9, "leakage in bin {k}");
            }
        }
    }

    #[test]
    fn round_trip_power_of_two() {
        for n in [2usize, 4, 8, 64, 256] {
            let x = signal(n);
            let back = ifft(&fft(&x));
            assert_close(&back, &x, 1e-9);
        }
    }

    #[test]
    fn round_trip_arbitrary_lengths() {
        // 30 = Intel 5300 grouped subcarriers; 56 = full 20 MHz 802.11n.
        for n in [3usize, 5, 7, 12, 30, 56, 100] {
            let x = signal(n);
            let back = ifft(&fft(&x));
            assert_close(&back, &x, 1e-8);
        }
    }

    #[test]
    fn fast_matches_naive() {
        for n in [4usize, 8, 13, 30, 31] {
            let x = signal(n);
            assert_close(&fft(&x), &dft_naive(&x, false), 1e-8);
            assert_close(&ifft(&x), &dft_naive(&x, true), 1e-8);
        }
    }

    #[test]
    fn linearity() {
        let n = 30;
        let x = signal(n);
        let y: Vec<Complex> = signal(n).iter().map(|z| z.conj()).collect();
        let sum: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let fx = fft(&x);
        let fy = fft(&y);
        let fsum = fft(&sum);
        let expect: Vec<Complex> = fx.iter().zip(&fy).map(|(a, b)| *a + *b).collect();
        assert_close(&fsum, &expect, 1e-8);
    }

    #[test]
    fn parseval_energy_conserved() {
        let x = signal(64);
        let spec = fft(&x);
        let e_time: f64 = x.iter().map(|z| z.norm_sq()).sum();
        let e_freq: f64 = spec.iter().map(|z| z.norm_sq()).sum::<f64>() / 64.0;
        assert!((e_time - e_freq).abs() / e_time < 1e-10);
    }

    #[test]
    fn ifft_padded_pads_to_power_of_two() {
        let x = signal(30);
        let y = ifft_padded(&x, 64);
        assert_eq!(y.len(), 64);
        let z = ifft_padded(&x, 10);
        assert_eq!(z.len(), 32);
    }

    #[test]
    fn ifft_padded_into_matches_allocating_variant() {
        // One dirty scratch reused across shrinking and growing targets —
        // results must stay bit-identical to the allocating call.
        let mut scratch = vec![Complex::new(9.9, -9.9); 7];
        for (n, min_len) in [(30usize, 256usize), (30, 64), (8, 8), (5, 0), (56, 128)] {
            let x = signal(n);
            let expect = ifft_padded(&x, min_len);
            ifft_padded_into(&x, min_len, &mut scratch);
            assert_eq!(scratch, expect, "n={n} min_len={min_len}");
        }
    }

    #[test]
    fn ifft_padded_into_empty_input() {
        // 0.next_power_of_two() == 1: an empty CSI still yields one zero tap.
        let mut scratch = vec![Complex::ONE; 3];
        ifft_padded_into(&[], 0, &mut scratch);
        assert_eq!(scratch, vec![Complex::ZERO]);
        assert_eq!(ifft_padded(&[], 0), vec![Complex::ZERO]);
    }

    #[test]
    fn planned_twiddles_no_worse_than_iterative_on_adversarial_input() {
        // Regression for the twiddle rounding drift: the old kernel
        // accumulated w *= wlen per butterfly, so late butterflies in a long
        // stage used twiddles carrying hundreds of rounding errors. A
        // 1024-point shifted impulse is adversarial for exactly that: its
        // spectrum is a pure twiddle per bin, the O(N²) oracle reduces to a
        // single exact term, so the measured error is the kernel's twiddle
        // error and nothing else.
        let n = 1024usize;
        let mut x = vec![Complex::ZERO; n];
        x[1] = Complex::ONE;
        let oracle = dft_naive(&x, false);

        let mut planned = x.clone();
        fft_radix2(&mut planned, false);
        let mut iterative = x.clone();
        fft_radix2_unplanned(&mut iterative, false);

        let err = |got: &[Complex]| -> f64 {
            got.iter()
                .zip(&oracle)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max)
        };
        let planned_err = err(&planned);
        let iterative_err = err(&iterative);
        assert!(
            planned_err <= iterative_err,
            "planned max error {planned_err:e} exceeds iterative {iterative_err:e}"
        );
        // And the planned kernel must be accurate in absolute terms: every
        // output has unit magnitude, so a few ulps is the right scale.
        assert!(planned_err < 1e-13, "planned error {planned_err:e}");
    }

    #[test]
    fn unplanned_kernel_matches_planned_within_tolerance() {
        for n in [2usize, 8, 64, 256] {
            let x = signal(n);
            let mut a = x.clone();
            fft_radix2(&mut a, false);
            let mut b = x.clone();
            fft_radix2_unplanned(&mut b, false);
            assert_close(&a, &b, 1e-8 * n as f64);
        }
        let x = signal(30);
        let mut planned = Vec::new();
        ifft_padded_into(&x, 256, &mut planned);
        let mut unplanned = Vec::new();
        ifft_padded_into_unplanned(&x, 256, &mut unplanned);
        assert_close(&planned, &unplanned, 1e-10);
    }

    #[test]
    fn padding_preserves_peak_location_for_impulse_like_channel() {
        // Channel with a single dominant delay: spectrum is a complex
        // exponential; the padded IFFT must peak near the same relative
        // delay.
        let n = 30;
        let delay_frac = 0.2; // 20 % of the aliasing window
        let x: Vec<Complex> = (0..n)
            .map(|k| Complex::cis(-2.0 * PI * delay_frac * k as f64))
            .collect();
        let cir = ifft_padded(&x, 256);
        let peak = cir
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm_sq().total_cmp(&b.1.norm_sq()))
            .unwrap()
            .0;
        let got_frac = peak as f64 / cir.len() as f64;
        assert!(
            (got_frac - delay_frac).abs() < 0.05,
            "peak at {got_frac}, expected {delay_frac}"
        );
    }

    fn complex_vec(
        len: std::ops::Range<usize>,
    ) -> impl proptest::prelude::Strategy<Value = Vec<Complex>> {
        use proptest::prelude::*;
        prop::collection::vec(
            (-10.0..10.0f64, -10.0..10.0f64).prop_map(|(re, im)| Complex::new(re, im)),
            len,
        )
    }

    proptest::proptest! {
        #[test]
        fn fft_matches_naive_dft(x in complex_vec(1..40)) {
            let fast = fft(&x);
            let slow = dft_naive(&x, false);
            for (a, b) in fast.iter().zip(&slow) {
                proptest::prop_assert!((*a - *b).abs() < 1e-7);
            }
        }
    }
}
