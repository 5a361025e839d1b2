//! Property-based tests for the batched SoA DSP layer, through its public
//! API: the SoA transposes and the seeded PDP reduction.
//!
//! The batched kernel's contract is *bit*-identity, not approximate
//! equality: per lane it must perform exactly the per-packet planned
//! kernel's float operations in the same order, so every assertion here is
//! `prop_assert_eq!` on the raw values — one flipped rounding anywhere in
//! a butterfly fails the suite. The full batched transform and the
//! unpruned paths are test-only oracles; their properties live in the
//! crate's `batch` and `pdp` test modules.

use nomloc_dsp::pdp::DelayProfile;
use nomloc_dsp::{fft, BatchFftPlan, Complex, SoaComplex};
use proptest::prelude::*;

fn complex_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec(
        (-10.0..10.0f64, -10.0..10.0f64).prop_map(|(re, im)| Complex::new(re, im)),
        len,
    )
}

/// Deterministic pseudo-random batch of `lanes` rows of `n` samples —
/// sized by the drawn parameters, which the shim's strategies cannot do
/// directly (no `prop_flat_map`), matching the idiom of the existing
/// seeded plan properties.
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

fn pack(rows: &[Vec<Complex>]) -> SoaComplex {
    let lanes = rows.len();
    let mut soa = SoaComplex::new();
    soa.reset(rows[0].len() * lanes);
    for (l, row) in rows.iter().enumerate() {
        soa.write_lane(l, lanes, row);
    }
    soa
}

proptest! {
    #[test]
    fn soa_interleaved_round_trip(x in complex_vec(0..120)) {
        let soa = SoaComplex::from_interleaved(&x);
        prop_assert_eq!(soa.len(), x.len());
        prop_assert_eq!(soa.to_interleaved(), x);
    }

    #[test]
    fn soa_lane_transpose_round_trip(
        n in 1usize..64,
        lanes in 1usize..17,
        seed in 0u64..1000,
    ) {
        // write_lane/read_lane_into are exact inverses, and writing every
        // lane fully determines the lane-major matrix.
        let rows = seeded_rows(n, lanes, seed);
        let soa = pack(&rows);
        let mut out = Vec::new();
        for (l, row) in rows.iter().enumerate() {
            soa.read_lane_into(l, lanes, &mut out);
            prop_assert_eq!(&out, row, "lane {} of {}", l, lanes);
        }
    }

    #[test]
    fn soa_short_rows_keep_zero_padding(
        n in 1usize..32,
        lanes in 1usize..17,
        pad_rows in 1usize..32,
        seed in 0u64..1000,
    ) {
        // Lane rows beyond the written CSI stay zero — exactly the padding
        // the batched padded IFFT relies on.
        let rows = seeded_rows(n, lanes, seed);
        let mut soa = SoaComplex::new();
        soa.reset((n + pad_rows) * lanes);
        for (l, row) in rows.iter().enumerate() {
            soa.write_lane(l, lanes, row);
        }
        for i in n..n + pad_rows {
            for l in 0..lanes {
                prop_assert_eq!(soa.get(i * lanes + l), Complex::ZERO);
            }
        }
        let mut out = Vec::new();
        for (l, row) in rows.iter().enumerate() {
            soa.read_lane_into(l, lanes, &mut out);
            prop_assert_eq!(&out[..n], &row[..], "lane {} of {}", l, lanes);
            prop_assert!(out[n..].iter().all(|z| *z == Complex::ZERO));
        }
    }

    #[test]
    fn seeded_pdp_peaks_match_scalar_oracle(
        csi_len in 1usize..60,
        lanes_log2 in 0u32..4,
        min_log2 in 0u32..9,
        seed in 0u64..500,
    ) {
        // The shipping reduction — seeds → pruned inverse → fused fold —
        // against the scalar profile's peak tap
        // (DelayProfile::from_csi(..).peak().power), bit for bit, at every
        // kernel width.
        let lanes = 1usize << lanes_log2;
        let min_taps = 1usize << min_log2;
        let rows = seeded_rows(csi_len, lanes, seed);
        let plan = BatchFftPlan::new(fft::padded_len(csi_len, min_taps));
        let mut seeds = SoaComplex::new();
        seeds.reset(csi_len.next_power_of_two() * lanes);
        for (l, row) in rows.iter().enumerate() {
            plan.scatter_seeds(&mut seeds, l, lanes, row);
        }
        let mut peaks = Vec::new();
        DelayProfile::peak_powers_from_seeds(
            &plan, &seeds, &mut SoaComplex::new(), lanes, csi_len, &mut peaks,
        );
        prop_assert_eq!(peaks.len(), lanes);
        for (l, row) in rows.iter().enumerate() {
            let scalar = DelayProfile::from_csi(row, 20e6, min_taps).peak().power;
            prop_assert_eq!(peaks[l].to_bits(), scalar.to_bits(), "lane {} of {}", l, lanes);
        }
    }
}
