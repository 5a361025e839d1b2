//! Property-based tests for the DSP crate.

use nomloc_dsp::pdp::DelayProfile;
use nomloc_dsp::stats::{self, Ecdf};
use nomloc_dsp::{fft, from_db, to_db, Complex, FftPlan};
use proptest::prelude::*;

fn complex_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec(
        (-10.0..10.0f64, -10.0..10.0f64).prop_map(|(re, im)| Complex::new(re, im)),
        len,
    )
}

proptest! {
    #[test]
    fn fft_round_trip(x in complex_vec(1..80)) {
        let back = fft::ifft(&fft::fft(&x));
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((*a - *b).abs() < 1e-7);
        }
    }

    #[test]
    fn parseval_holds(x in complex_vec(1..64)) {
        let spec = fft::fft(&x);
        let e_time: f64 = x.iter().map(|z| z.norm_sq()).sum();
        let e_freq: f64 = spec.iter().map(|z| z.norm_sq()).sum::<f64>() / x.len() as f64;
        prop_assert!((e_time - e_freq).abs() <= 1e-7 * (1.0 + e_time));
    }

    #[test]
    fn db_round_trip(x in 1e-8..1e8f64) {
        prop_assert!((from_db(to_db(x)) - x).abs() / x < 1e-10);
    }

    #[test]
    fn db_is_monotone(a in 1e-6..1e6f64, b in 1e-6..1e6f64) {
        prop_assume!(a < b);
        prop_assert!(to_db(a) < to_db(b));
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(xs in prop::collection::vec(-100.0..100.0f64, 1..50)) {
        let cdf = Ecdf::new(xs).unwrap();
        let mut prev = 0.0;
        for i in -110..=110 {
            let v = cdf.eval(i as f64);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev);
            prev = v;
        }
        prop_assert_eq!(cdf.eval(1e9), 1.0);
        prop_assert_eq!(cdf.eval(-1e9), 0.0);
    }

    #[test]
    fn quantile_inverts_eval(xs in prop::collection::vec(-100.0..100.0f64, 1..50), q in 0.01..1.0f64) {
        let cdf = Ecdf::new(xs).unwrap();
        let v = cdf.quantile(q);
        prop_assert!(cdf.eval(v) + 1e-12 >= q);
    }

    #[test]
    fn variance_nonnegative_and_shift_invariant(
        xs in prop::collection::vec(-100.0..100.0f64, 1..50),
        shift in -50.0..50.0f64,
    ) {
        let v = stats::variance(&xs).unwrap();
        prop_assert!(v >= 0.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let vs = stats::variance(&shifted).unwrap();
        prop_assert!((v - vs).abs() < 1e-6 * (1.0 + v));
    }

    #[test]
    fn percentiles_are_monotone(xs in prop::collection::vec(-100.0..100.0f64, 2..50)) {
        let p25 = stats::percentile(&xs, 25.0).unwrap();
        let p50 = stats::percentile(&xs, 50.0).unwrap();
        let p75 = stats::percentile(&xs, 75.0).unwrap();
        prop_assert!(p25 <= p50 && p50 <= p75);
    }

    #[test]
    fn delay_profile_peak_is_max(x in complex_vec(1..40)) {
        let profile = DelayProfile::from_cir(&x, 50e-9);
        let peak = profile.peak();
        for &p in profile.powers() {
            prop_assert!(p <= peak.power + 1e-15);
        }
        prop_assert!(profile.total_power() + 1e-12 >= peak.power);
    }

    #[test]
    fn delay_profile_from_csi_total_power_positive(x in complex_vec(2..40)) {
        prop_assume!(x.iter().any(|z| z.norm_sq() > 1e-6));
        let profile = DelayProfile::from_csi(&x, 20e6, 64);
        prop_assert!(profile.total_power() > 0.0);
        prop_assert!(profile.rms_delay_spread() >= 0.0);
    }

    #[test]
    fn plan_inverse_matches_ifft_padded_into_bit_for_bit(
        x in complex_vec(1..80),
        min_log2 in 0u32..10,
    ) {
        // Where both apply — padded length a power of two — a plan-driven
        // inverse over the padded buffer must be byte-identical to
        // ifft_padded_into, since that is exactly the code path it runs.
        let min_len = 1usize << min_log2;
        let target = min_len.max(x.len()).next_power_of_two();

        let mut via_into = Vec::new();
        fft::ifft_padded_into(&x, min_len, &mut via_into);

        let mut via_plan = x.clone();
        via_plan.resize(target, Complex::ZERO);
        FftPlan::new(target).inverse(&mut via_plan);

        prop_assert_eq!(via_into, via_plan);
    }

    #[test]
    fn plan_round_trip_is_identity(x in complex_vec(1..80), pad_log2 in 0u32..9) {
        let target = (x.len().max(1) << pad_log2).next_power_of_two();
        let plan = FftPlan::new(target);
        let mut buf = x.clone();
        buf.resize(target, Complex::ZERO);
        let orig = buf.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&orig) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }
}
