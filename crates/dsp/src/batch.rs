//! Batched FFTs: N same-length signals marched through the planned
//! butterflies in lockstep.
//!
//! The per-packet planned kernel ([`crate::plan::FftPlan`]) already runs
//! without allocation or bounds checks, but it processes one interleaved
//! `Complex` packet at a time: every butterfly is a handful of scalar
//! multiply-adds, so the CPU's vector lanes sit mostly empty and the
//! bit-reversal/twiddle traversal is re-paid per packet. A burst of CSI
//! snapshots, though, is a *batch* of transforms of identical size — the
//! ideal SIMD shape. [`BatchFftPlan`] packs the batch lane-major into a
//! split [`SoaComplex`] buffer (sample `i` of lane `l` at `i * lanes + l`)
//! and executes **one** traversal of the twiddle tables, with every
//! butterfly applied to all lanes via contiguous per-lane inner loops that
//! the compiler autovectorizes (packed `vmulpd`/`vfmadd` under
//! `-C target-cpu=native`; see `scripts/asm_check.sh`).
//!
//! Per lane the kernel performs *exactly* the floating-point operations of
//! [`FftPlan::process`] in the same order — lanes are mutually
//! independent, so vectorizing across them is a pure reordering of
//! independent IEEE-754 operations — which makes every batched result
//! bit-identical to running the per-packet planned kernel on that lane
//! alone. The per-packet kernel is the bit-identity oracle, and so is the
//! full batched transform (swap pass and every stage), which the tests
//! keep.
//!
//! # The zero-pruned inverse
//!
//! The PDP path inverse-transforms CSI rows zero-padded far past their
//! length (30 subcarriers to 256 taps). Take `s = csi_len.next_power_of_two()`
//! *seeds* per lane: the CSI values, then zeros up to `s`. In bit-reversed
//! order every seed lands on a row that is a multiple of
//! `stride = n / s`, and every other row is zero. The first
//! `log2(stride)` butterfly stages therefore only copy each seed across
//! its block of `stride` rows: each of their butterflies adds an exact
//! zero, which can flip the sign of a zero result and otherwise returns
//! its operand (a signalling NaN comes back quiet, as the next stage would
//! make it anyway). [`BatchFftPlan::scatter_seeds`] writes just the seed
//! rows into a compact buffer, and the pruned kernel starts at stage
//! `2·stride`, reading the seeds directly. The broadcast stages, the
//! zero fill of the full buffer and the swap traversal all disappear; at
//! the serving shape three of eight stages go. Apart from the sign of
//! zeros, every output is bit-identical to the unpruned transform, so
//! every tap *power* (a sum of squares) is too.
//!
//! The last butterfly pass hands each finished row to a sink instead of
//! storing it: the PDP reduction
//! ([`crate::pdp::DelayProfile::peak_powers_from_seeds`]) folds it straight
//! into per-lane peak powers, so the transformed batch is never written
//! back and re-read. The kernel takes 1, 2, 4 or 8 lanes ([`MAX_LANES`]).

use crate::plan::FftPlan;
use crate::soa::SoaComplex;
use crate::Complex;
use std::rc::Rc;

/// The widest batch the zero-pruned kernel takes. It takes power-of-two
/// widths up to this (1, 2, 4 or 8 lanes), one monomorphized kernel each:
/// more widths only add code. Eight lanes of 256 taps is a 32 KiB work
/// buffer, which stays in L1d, and at the lab-dense shape it measured
/// faster per lane than sixteen.
pub const MAX_LANES: usize = 8;

/// Views a `lanes`-wide chunk as a fixed-size lane row.
#[inline(always)]
fn row<const L: usize>(s: &mut [f64]) -> &mut [f64; L] {
    s.try_into().expect("chunk is exactly one lane row")
}

/// Copies a `lanes`-wide chunk out as a fixed-size lane row.
#[inline(always)]
fn load<const L: usize>(s: &[f64]) -> [f64; L] {
    s.try_into().expect("chunk is exactly one lane row")
}

/// The twiddle-free butterfly (`w = 1`): `u' = u + v; v' = u − v` across
/// all lanes. Per lane this is exactly the scalar kernel's len = 2 stage.
#[inline(always)]
fn bf2<const L: usize>(
    u_re: &mut [f64; L],
    u_im: &mut [f64; L],
    v_re: &mut [f64; L],
    v_im: &mut [f64; L],
) {
    for l in 0..L {
        let (a_re, a_im) = (u_re[l], u_im[l]);
        let (b_re, b_im) = (v_re[l], v_im[l]);
        u_re[l] = a_re + b_re;
        u_im[l] = a_im + b_im;
        v_re[l] = a_re - b_re;
        v_im[l] = a_im - b_im;
    }
}

/// The twiddle butterfly `b = v·w; u' = u + b; v' = u − b` unrolled into
/// components across all lanes. Same per-lane float op order as
/// `FftPlan::process` — the bit-identity contract depends on it.
#[inline(always)]
fn bf<const L: usize>(
    u_re: &mut [f64; L],
    u_im: &mut [f64; L],
    v_re: &mut [f64; L],
    v_im: &mut [f64; L],
    w: Complex,
) {
    let (w_re, w_im) = (w.re, w.im);
    for l in 0..L {
        let b_re = v_re[l] * w_re - v_im[l] * w_im;
        let b_im = v_re[l] * w_im + v_im[l] * w_re;
        let (a_re, a_im) = (u_re[l], u_im[l]);
        u_re[l] = a_re + b_re;
        u_im[l] = a_im + b_im;
        v_re[l] = a_re - b_re;
        v_im[l] = a_im - b_im;
    }
}

/// Butterfly `k` of a stage whose twiddles are `tw`: the twiddle-free
/// [`bf2`] for the `len = 2` stage (empty `tw`, as the scalar kernel does
/// it — multiplying by `w = 1` would turn an infinite component into NaN),
/// [`bf`] with `tw[k]` otherwise.
#[inline(always)]
fn stage_bf<const L: usize>(
    u_re: &mut [f64; L],
    u_im: &mut [f64; L],
    v_re: &mut [f64; L],
    v_im: &mut [f64; L],
    tw: &[Complex],
    k: usize,
) {
    if tw.is_empty() {
        bf2::<L>(u_re, u_im, v_re, v_im);
    } else {
        bf::<L>(u_re, u_im, v_re, v_im, tw[k]);
    }
}

/// Where a butterfly pass of the zero-pruned kernel sends each finished
/// row: [`Keep`] stores it back for the next pass; the last pass's sink
/// gets the finished taps, before the `1/N` normalization.
pub(crate) trait RowSink {
    /// Takes the finished row `(re, im)` — one tap, all `L` lanes — whose
    /// slot in the work buffer is `(dst_re, dst_im)`.
    fn put<const L: usize>(
        &mut self,
        dst_re: &mut [f64; L],
        dst_im: &mut [f64; L],
        re: &[f64; L],
        im: &[f64; L],
    );
}

/// Stores each row in its slot, unscaled: the sink of every pass but the
/// last.
struct Keep;

impl RowSink for Keep {
    #[inline(always)]
    fn put<const L: usize>(
        &mut self,
        dst_re: &mut [f64; L],
        dst_im: &mut [f64; L],
        re: &[f64; L],
        im: &[f64; L],
    ) {
        *dst_re = *re;
        *dst_im = *im;
    }
}

/// A radix-2 FFT plan applied to a lane-major batch of same-length
/// signals.
///
/// Wraps (and shares) an [`FftPlan`]: the twiddle tables and bit-reversal
/// permutation are identical, only the traversal changes — one pass over
/// the plan drives all `lanes` transforms.
///
/// # Example
///
/// ```
/// use nomloc_dsp::pdp::DelayProfile;
/// use nomloc_dsp::{BatchFftPlan, Complex, SoaComplex};
///
/// // Two 30-subcarrier CSI rows, padded to 256 taps.
/// let rows: Vec<Vec<Complex>> = (0..2)
///     .map(|l| (0..30).map(|k| Complex::cis(-0.2 * (k * (l + 1)) as f64)).collect())
///     .collect();
/// let batch = BatchFftPlan::new(256);
/// let mut seeds = SoaComplex::new();
/// seeds.reset(32 * 2); // 30.next_power_of_two() seed rows × 2 lanes
/// for (lane, row) in rows.iter().enumerate() {
///     batch.scatter_seeds(&mut seeds, lane, 2, row);
/// }
/// let mut peaks = Vec::new();
/// DelayProfile::peak_powers_from_seeds(&batch, &seeds, &mut SoaComplex::new(), 2, 30, &mut peaks);
/// // Each lane's peak is the materialized profile's, bit for bit.
/// for (row, peak) in rows.iter().zip(&peaks) {
///     assert_eq!(*peak, DelayProfile::from_csi(row, 20e6, 256).peak().power);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct BatchFftPlan {
    plan: Rc<FftPlan>,
    /// Full bit-reversal permutation: `bitrev[i]` is where the swap pass
    /// would move row `i`. Lets fill paths scatter rows straight into
    /// their post-permutation positions (see [`Self::scatter_seeds`]).
    bitrev: Vec<u32>,
}

impl BatchFftPlan {
    /// Builds a batched plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two (see [`FftPlan::new`]).
    pub fn new(n: usize) -> Self {
        Self::from_plan(Rc::new(FftPlan::new(n)))
    }

    /// Wraps an existing per-packet plan, sharing its tables.
    pub fn from_plan(plan: Rc<FftPlan>) -> Self {
        // Reconstruct the full permutation by replaying the plan's swap
        // pairs on an identity map — `bitrev` then moves rows exactly as
        // the swap pass does (bit reversal is an involution, so this is
        // also the scatter target of each logical row).
        let mut bitrev: Vec<u32> = (0..plan.len() as u32).collect();
        for &(i, j) in plan.swaps() {
            bitrev.swap(i as usize, j as usize);
        }
        BatchFftPlan { plan, bitrev }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// Whether this is the trivial length-zero plan.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// The shared per-packet plan.
    pub fn plan(&self) -> &FftPlan {
        &self.plan
    }

    /// Writes the seeds of `values` into lane `lane` of the compact seed
    /// buffer the zero-pruned inverse reads (see the module docs).
    ///
    /// The seeds are `values` followed by zeros up to
    /// `s = values.len().next_power_of_two()`, each on its bit-reversed
    /// seed row: `values[i]` lands in seed row `bitrev_s(i)`. Every one of
    /// the `s` seed rows of the lane is written, so the buffer needs no
    /// zero fill between batches. Pure data movement, no arithmetic.
    ///
    /// # Panics
    ///
    /// Panics when `values` is empty or longer than `len()`, when
    /// `lane >= lanes`, or when `seeds.len() != s * lanes`.
    pub fn scatter_seeds(
        &self,
        seeds: &mut SoaComplex,
        lane: usize,
        lanes: usize,
        values: &[Complex],
    ) {
        assert!(!values.is_empty(), "lane data must not be empty");
        assert!(
            values.len() <= self.plan.len(),
            "lane data must fit the transform length"
        );
        assert!(lane < lanes, "lane index out of range");
        let s = values.len().next_power_of_two();
        assert_eq!(
            seeds.len(),
            s * lanes,
            "seed buffer length must be seed rows × lanes"
        );
        // bitrev_n(i) = bitrev_s(i) · stride for i < s: the seed row is
        // the full-transform row scaled down by the stride.
        let shift = (self.plan.len() / s).trailing_zeros();
        let padded = values
            .iter()
            .copied()
            .chain(std::iter::repeat(Complex::ZERO));
        for (v, &p) in padded.zip(&self.bitrev[..s]) {
            let at = (p >> shift) as usize * lanes + lane;
            seeds.re[at] = v.re;
            seeds.im[at] = v.im;
        }
    }

    /// Reads lane `lane`'s first `csi_len` values back out of a seed
    /// buffer filled by [`Self::scatter_seeds`], into `out`: its inverse.
    pub(crate) fn gather_seeds(
        &self,
        seeds: &SoaComplex,
        lane: usize,
        lanes: usize,
        csi_len: usize,
        out: &mut Vec<Complex>,
    ) {
        let shift = (self.plan.len() / csi_len.next_power_of_two()).trailing_zeros();
        out.clear();
        out.extend(self.bitrev[..csi_len].iter().map(|&p| {
            let at = (p >> shift) as usize * lanes + lane;
            Complex::new(seeds.re[at], seeds.im[at])
        }));
    }

    /// The zero-pruned inverse transform of `lanes` seeded rows, its last
    /// pass sent to `last`. `work` grows to at least `len() * lanes`
    /// elements and is never shrunk; the pruned passes use its first
    /// `len() * lanes` and write each row before any pass reads it.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is not a power of two up to [`MAX_LANES`], or
    /// when `seeds.len()` is not `lanes` times a power of two no larger
    /// than `len()`.
    pub(crate) fn run_pruned<F: RowSink>(
        &self,
        seeds: &SoaComplex,
        work: &mut SoaComplex,
        lanes: usize,
        last: &mut F,
    ) {
        let n = self.plan.len();
        assert!(
            lanes.is_power_of_two() && lanes <= MAX_LANES,
            "batch must have 1, 2, 4 or 8 lanes"
        );
        assert_eq!(
            seeds.len() % lanes,
            0,
            "seed buffer must be a whole number of rows"
        );
        let s = seeds.len() / lanes;
        assert!(
            s.is_power_of_two() && s <= n,
            "seed rows must be a power of two no larger than the transform"
        );
        let need = n * lanes;
        if work.len() < need {
            work.resize(need);
        }
        let (sr, si) = (seeds.re.as_slice(), seeds.im.as_slice());
        let re = &mut work.re[..need];
        let im = &mut work.im[..need];
        let table = self.plan.twiddles(true);
        // One monomorphized kernel per width: every lane loop runs over
        // `[f64; L]` with a compile-time trip count, which LLVM unrolls
        // into straight packed instructions with no remainder loops or
        // runtime aliasing guards.
        match lanes {
            1 => Self::pruned::<1, F>(sr, si, re, im, table, n, s, last),
            2 => Self::pruned::<2, F>(sr, si, re, im, table, n, s, last),
            4 => Self::pruned::<4, F>(sr, si, re, im, table, n, s, last),
            _ => Self::pruned::<8, F>(sr, si, re, im, table, n, s, last),
        }
    }

    /// The zero-pruned inverse for a compile-time lane count: `s` seed
    /// rows in, `n` tap rows out through `last`.
    ///
    /// The real stages are `len = 2·stride, 4·stride, …, n` with
    /// `stride = n / s`. The first pass reads the seeds — stage `2·stride`
    /// alone when the stage count is odd, stages `2·stride` and `4·stride`
    /// fused otherwise — and writes every row of `re`/`im`; the rest walk
    /// fused stage pairs in place ([`Self::pair_pass`]). Per value the
    /// butterflies are the unpruned kernel's, in the same order.
    #[allow(clippy::too_many_arguments)]
    fn pruned<const L: usize, F: RowSink>(
        seeds_re: &[f64],
        seeds_im: &[f64],
        re: &mut [f64],
        im: &mut [f64],
        table: &[Complex],
        n: usize,
        s: usize,
        last: &mut F,
    ) {
        // The plan's table holds stages len = 4, 8, …: len/2 entries each,
        // so stage len's start at len/2 − 2. The len = 2 stage has none.
        let tw = |len: usize| {
            if len == 2 {
                &table[..0]
            } else {
                &table[len / 2 - 2..len - 2]
            }
        };
        let stride = n / s;
        let mut len = 2 * stride;
        // The first pass always stores its rows: only the fused pair pass,
        // the steady state, is compiled with the caller's sink.
        if s == 1 {
            // A lone seed: every stage is a broadcast, every tap the seed.
            let (ur, ui) = (load::<L>(seeds_re), load::<L>(seeds_im));
            for (dr, di) in re.chunks_exact_mut(L).zip(im.chunks_exact_mut(L)) {
                *row::<L>(dr) = ur;
                *row::<L>(di) = ui;
            }
        } else if s.trailing_zeros() % 2 == 1 {
            Self::seed_stage::<L>(seeds_re, seeds_im, re, im, tw(len));
            len *= 2;
        } else {
            Self::seed_pair::<L>(seeds_re, seeds_im, re, im, tw(len), tw(2 * len));
            len *= 4;
        }
        if len > n {
            // The first pass was the last (at most two real stages, so
            // `s <= 4`): hand its stored rows to the sink.
            for (dr, di) in re.chunks_exact_mut(L).zip(im.chunks_exact_mut(L)) {
                let (vr, vi) = (load::<L>(dr), load::<L>(di));
                last.put::<L>(row::<L>(dr), row::<L>(di), &vr, &vi);
            }
            return;
        }
        // An even number of stages is left: fused pairs up to n.
        while len < n {
            let (tw1, tw2) = (tw(len), tw(2 * len));
            if 2 * len == n {
                Self::pair_pass::<L, F>(re, im, len, tw1, tw2, last);
            } else {
                Self::pair_pass::<L, Keep>(re, im, len, tw1, tw2, &mut Keep);
            }
            len *= 4;
        }
    }

    /// First pruned pass, one stage: seed rows `2j`, `2j + 1` (in
    /// registers for the whole block) give output block `j`'s two halves.
    fn seed_stage<const L: usize>(
        seeds_re: &[f64],
        seeds_im: &[f64],
        re: &mut [f64],
        im: &mut [f64],
        tw: &[Complex],
    ) {
        let half = tw.len().max(1);
        for (((block_re, block_im), pair_re), pair_im) in re
            .chunks_exact_mut(2 * half * L)
            .zip(im.chunks_exact_mut(2 * half * L))
            .zip(seeds_re.chunks_exact(2 * L))
            .zip(seeds_im.chunks_exact(2 * L))
        {
            let (u_re, v_re) = (load::<L>(&pair_re[..L]), load::<L>(&pair_re[L..]));
            let (u_im, v_im) = (load::<L>(&pair_im[..L]), load::<L>(&pair_im[L..]));
            let (lo_re, hi_re) = block_re.split_at_mut(half * L);
            let (lo_im, hi_im) = block_im.split_at_mut(half * L);
            for (k, (((lr, li), hr), hi)) in lo_re
                .chunks_exact_mut(L)
                .zip(lo_im.chunks_exact_mut(L))
                .zip(hi_re.chunks_exact_mut(L))
                .zip(hi_im.chunks_exact_mut(L))
                .enumerate()
            {
                let (mut ur, mut ui, mut vr, mut vi) = (u_re, u_im, v_re, v_im);
                stage_bf::<L>(&mut ur, &mut ui, &mut vr, &mut vi, tw, k);
                (*row::<L>(lr), *row::<L>(li)) = (ur, ui);
                (*row::<L>(hr), *row::<L>(hi)) = (vr, vi);
            }
        }
    }

    /// First pruned pass, two stages fused: seed rows `4j .. 4j + 4` give
    /// output block `j`'s four quarter runs (the quarter layout of
    /// [`Self::pair_pass`]).
    fn seed_pair<const L: usize>(
        seeds_re: &[f64],
        seeds_im: &[f64],
        re: &mut [f64],
        im: &mut [f64],
        tw1: &[Complex],
        tw2: &[Complex],
    ) {
        let half = tw1.len().max(1);
        let (tw2a, tw2b) = tw2.split_at(half);
        for (((block_re, block_im), quad_re), quad_im) in re
            .chunks_exact_mut(4 * half * L)
            .zip(im.chunks_exact_mut(4 * half * L))
            .zip(seeds_re.chunks_exact(4 * L))
            .zip(seeds_im.chunks_exact(4 * L))
        {
            let seed = |q: &[f64], i: usize| load::<L>(&q[i * L..(i + 1) * L]);
            let (a0r, b0r, c0r, d0r) = (
                seed(quad_re, 0),
                seed(quad_re, 1),
                seed(quad_re, 2),
                seed(quad_re, 3),
            );
            let (a0i, b0i, c0i, d0i) = (
                seed(quad_im, 0),
                seed(quad_im, 1),
                seed(quad_im, 2),
                seed(quad_im, 3),
            );
            let (h0_re, h1_re) = block_re.split_at_mut(2 * half * L);
            let (h0_im, h1_im) = block_im.split_at_mut(2 * half * L);
            let (a_re, b_re) = h0_re.split_at_mut(half * L);
            let (a_im, b_im) = h0_im.split_at_mut(half * L);
            let (c_re, d_re) = h1_re.split_at_mut(half * L);
            let (c_im, d_im) = h1_im.split_at_mut(half * L);
            for (k, (((((((a_re, a_im), b_re), b_im), c_re), c_im), d_re), d_im)) in a_re
                .chunks_exact_mut(L)
                .zip(a_im.chunks_exact_mut(L))
                .zip(b_re.chunks_exact_mut(L))
                .zip(b_im.chunks_exact_mut(L))
                .zip(c_re.chunks_exact_mut(L))
                .zip(c_im.chunks_exact_mut(L))
                .zip(d_re.chunks_exact_mut(L))
                .zip(d_im.chunks_exact_mut(L))
                .enumerate()
            {
                let (mut ar, mut ai, mut br, mut bi) = (a0r, a0i, b0r, b0i);
                let (mut cr, mut ci, mut dr, mut di) = (c0r, c0i, d0r, d0i);
                stage_bf::<L>(&mut ar, &mut ai, &mut br, &mut bi, tw1, k);
                stage_bf::<L>(&mut cr, &mut ci, &mut dr, &mut di, tw1, k);
                bf::<L>(&mut ar, &mut ai, &mut cr, &mut ci, tw2a[k]);
                bf::<L>(&mut br, &mut bi, &mut dr, &mut di, tw2b[k]);
                (*row::<L>(a_re), *row::<L>(a_im)) = (ar, ai);
                (*row::<L>(b_re), *row::<L>(b_im)) = (br, bi);
                (*row::<L>(c_re), *row::<L>(c_im)) = (cr, ci);
                (*row::<L>(d_re), *row::<L>(d_im)) = (dr, di);
            }
        }
    }

    /// Stages `len` and `2·len` (`len ≥ 4`) fused, in place: per `2·len`
    /// block the quarter runs hold rows a = k, b = k + half, c = len + k,
    /// d = len + k + half; stage `len` pairs (a, b) and (c, d) with
    /// `tw1[k]`, stage `2·len` pairs (a, c) with `tw2[k]` and (b, d) with
    /// `tw2[k + half]`. Every row is loaded once and handed to `sink` once.
    fn pair_pass<const L: usize, F: RowSink>(
        re: &mut [f64],
        im: &mut [f64],
        len: usize,
        tw1: &[Complex],
        tw2: &[Complex],
        sink: &mut F,
    ) {
        let half = len / 2;
        let (tw2a, tw2b) = tw2.split_at(half);
        for (block_re, block_im) in re
            .chunks_exact_mut(2 * len * L)
            .zip(im.chunks_exact_mut(2 * len * L))
        {
            let (h0_re, h1_re) = block_re.split_at_mut(len * L);
            let (h0_im, h1_im) = block_im.split_at_mut(len * L);
            let (a_re, b_re) = h0_re.split_at_mut(half * L);
            let (a_im, b_im) = h0_im.split_at_mut(half * L);
            let (c_re, d_re) = h1_re.split_at_mut(half * L);
            let (c_im, d_im) = h1_im.split_at_mut(half * L);
            for (((((((((a_re, a_im), b_re), b_im), c_re), c_im), d_re), d_im), w1), (w2a, w2b)) in
                a_re.chunks_exact_mut(L)
                    .zip(a_im.chunks_exact_mut(L))
                    .zip(b_re.chunks_exact_mut(L))
                    .zip(b_im.chunks_exact_mut(L))
                    .zip(c_re.chunks_exact_mut(L))
                    .zip(c_im.chunks_exact_mut(L))
                    .zip(d_re.chunks_exact_mut(L))
                    .zip(d_im.chunks_exact_mut(L))
                    .zip(tw1)
                    .zip(tw2a.iter().zip(tw2b))
            {
                let (mut ar, mut ai) = (load::<L>(a_re), load::<L>(a_im));
                let (mut br, mut bi) = (load::<L>(b_re), load::<L>(b_im));
                let (mut cr, mut ci) = (load::<L>(c_re), load::<L>(c_im));
                let (mut dr, mut di) = (load::<L>(d_re), load::<L>(d_im));
                bf::<L>(&mut ar, &mut ai, &mut br, &mut bi, *w1);
                bf::<L>(&mut cr, &mut ci, &mut dr, &mut di, *w1);
                bf::<L>(&mut ar, &mut ai, &mut cr, &mut ci, *w2a);
                bf::<L>(&mut br, &mut bi, &mut dr, &mut di, *w2b);
                sink.put::<L>(row::<L>(a_re), row::<L>(a_im), &ar, &ai);
                sink.put::<L>(row::<L>(b_re), row::<L>(b_im), &br, &bi);
                sink.put::<L>(row::<L>(c_re), row::<L>(c_im), &cr, &ci);
                sink.put::<L>(row::<L>(d_re), row::<L>(d_im), &dr, &di);
            }
        }
    }
}

/// Stores each row times the `1/N` normalization — one multiply per
/// value, exactly the scalar kernel's separate scale pass.
#[cfg(test)]
struct Normalize(f64);

#[cfg(test)]
impl RowSink for Normalize {
    #[inline(always)]
    fn put<const L: usize>(
        &mut self,
        dst_re: &mut [f64; L],
        dst_im: &mut [f64; L],
        re: &[f64; L],
        im: &[f64; L],
    ) {
        for l in 0..L {
            dst_re[l] = re[l] * self.0;
            dst_im[l] = im[l] * self.0;
        }
    }
}

/// The full batched transform (swap pass and every stage) and the
/// unpruned inverse paths the zero-pruned kernel replaced, kept as its
/// test oracles, and the pruned inverse with its taps stored.
#[cfg(test)]
impl BatchFftPlan {
    /// Runs the raw in-place transform on all `lanes` lanes *without*
    /// inverse normalization, matching [`FftPlan::process`] per lane.
    ///
    /// `buf` must hold the batch lane-major: `len() * lanes` elements with
    /// sample `i` of lane `l` at flat index `i * lanes + l`.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is zero or `buf.len() != len() * lanes`.
    pub(crate) fn process(&self, buf: &mut SoaComplex, lanes: usize, inverse: bool) {
        self.run(buf, lanes, inverse, false);
    }

    /// In-place forward DFT of every lane.
    pub(crate) fn forward(&self, buf: &mut SoaComplex, lanes: usize) {
        self.process(buf, lanes, false);
    }

    /// Entry for [`Self::process`]; `prepermuted` skips the bit-reversal
    /// swap pass for batches scattered directly into permuted row order.
    fn run(&self, buf: &mut SoaComplex, lanes: usize, inverse: bool, prepermuted: bool) {
        let n = self.plan.len();
        assert!(lanes > 0, "batch must have at least one lane");
        assert_eq!(
            buf.len(),
            n * lanes,
            "buffer length must match plan size × lanes"
        );
        if n <= 1 {
            return;
        }
        let re = buf.re.as_mut_slice();
        let im = buf.im.as_mut_slice();
        let table = self.plan.twiddles(inverse);
        let swaps: &[(u32, u32)] = if prepermuted { &[] } else { self.plan.swaps() };
        // Dispatch on the lane count: each arm monomorphizes the kernel
        // with the lane width as a `const`, so every lane loop runs over
        // `&mut [f64; L]` — compile-time trip counts and bounds, which
        // LLVM unrolls into straight packed instructions with no
        // per-butterfly trip-count checks, remainder loops, or runtime
        // aliasing guards (a dynamic `lanes` pays vector-loop entry
        // overhead comparable to the butterfly's own arithmetic).
        match lanes {
            2 => Self::kernel::<2>(re, im, swaps, table, n),
            3 => Self::kernel::<3>(re, im, swaps, table, n),
            4 => Self::kernel::<4>(re, im, swaps, table, n),
            5 => Self::kernel::<5>(re, im, swaps, table, n),
            6 => Self::kernel::<6>(re, im, swaps, table, n),
            7 => Self::kernel::<7>(re, im, swaps, table, n),
            8 => Self::kernel::<8>(re, im, swaps, table, n),
            16 => Self::kernel::<16>(re, im, swaps, table, n),
            l => Self::kernel_dyn(re, im, l, swaps, table, n),
        }
    }

    /// The full transform for a compile-time lane count: bit-reversal row
    /// swaps, then the butterfly stages walked as *fused pairs* — each
    /// pass loads four lane rows once, applies both stages' butterflies
    /// in registers (radix-2² traversal), and stores once, halving the
    /// number of full-buffer traversals; the per-value computation dags
    /// are untouched, so results stay bit-identical to the per-packet
    /// kernel.
    ///
    /// Per lane the float op order is exactly [`FftPlan::process`], which
    /// the bit-identity tests pin down.
    fn kernel<const L: usize>(
        re: &mut [f64],
        im: &mut [f64],
        swaps: &[(u32, u32)],
        table: &[Complex],
        n: usize,
    ) {
        // Bit-reversal permutation: each swap pair exchanges two whole
        // lane-rows, i.e. two contiguous `L`-wide runs.
        for &(i, j) in swaps {
            let (i, j) = (i as usize * L, j as usize * L);
            let (lo, hi) = re.split_at_mut(j);
            lo[i..i + L].swap_with_slice(&mut hi[..L]);
            let (lo, hi) = im.split_at_mut(j);
            lo[i..i + L].swap_with_slice(&mut hi[..L]);
        }
        let mut off = 0;
        let mut len;
        if n >= 4 {
            // Fused (len = 2, len = 4) pass: blocks of four rows
            // (a, b, c, d); stage 2 is the twiddle-free pairs (a, b) and
            // (c, d), stage 4 couples (a, c) and (b, d) with the first
            // two table entries.
            let (w20, w21) = (table[0], table[1]);
            off = 2;
            for (block_re, block_im) in re.chunks_exact_mut(4 * L).zip(im.chunks_exact_mut(4 * L)) {
                let (h0_re, h1_re) = block_re.split_at_mut(2 * L);
                let (h0_im, h1_im) = block_im.split_at_mut(2 * L);
                let (a_re, b_re) = h0_re.split_at_mut(L);
                let (a_im, b_im) = h0_im.split_at_mut(L);
                let (c_re, d_re) = h1_re.split_at_mut(L);
                let (c_im, d_im) = h1_im.split_at_mut(L);
                let (ar, ai) = (row::<L>(a_re), row::<L>(a_im));
                let (br, bi) = (row::<L>(b_re), row::<L>(b_im));
                let (cr, ci) = (row::<L>(c_re), row::<L>(c_im));
                let (dr, di) = (row::<L>(d_re), row::<L>(d_im));
                bf2::<L>(ar, ai, br, bi);
                bf2::<L>(cr, ci, dr, di);
                bf::<L>(ar, ai, cr, ci, w20);
                bf::<L>(br, bi, dr, di, w21);
            }
            len = 8;
        } else {
            // n == 2: the lone twiddle-free stage.
            for (pair_re, pair_im) in re.chunks_exact_mut(2 * L).zip(im.chunks_exact_mut(2 * L)) {
                let (ur, vr) = pair_re.split_at_mut(L);
                let (ui, vi) = pair_im.split_at_mut(L);
                let (ur, ui, vr, vi) = (row::<L>(ur), row::<L>(ui), row::<L>(vr), row::<L>(vi));
                bf2::<L>(ur, ui, vr, vi);
            }
            len = 4;
        }
        while len <= n {
            let half = len / 2;
            if 2 * len <= n {
                let tw1 = &table[off..off + half];
                let tw2 = &table[off + half..off + half + len];
                off += half + len;
                Self::pair_pass::<L, Keep>(re, im, len, tw1, tw2, &mut Keep);
                len <<= 2;
            } else {
                // Trailing single stage (odd stage count): the plain
                // planned butterfly walk.
                let tw = &table[off..off + half];
                off += half;
                for (block_re, block_im) in re
                    .chunks_exact_mut(len * L)
                    .zip(im.chunks_exact_mut(len * L))
                {
                    let (u_re, v_re) = block_re.split_at_mut(half * L);
                    let (u_im, v_im) = block_im.split_at_mut(half * L);
                    for ((((ur, ui), vr), vi), w) in u_re
                        .chunks_exact_mut(L)
                        .zip(u_im.chunks_exact_mut(L))
                        .zip(v_re.chunks_exact_mut(L))
                        .zip(v_im.chunks_exact_mut(L))
                        .zip(tw)
                    {
                        let (ur, ui, vr, vi) =
                            (row::<L>(ur), row::<L>(ui), row::<L>(vr), row::<L>(vi));
                        bf::<L>(ur, ui, vr, vi, *w);
                    }
                }
                len <<= 1;
            }
        }
    }

    /// Fallback transform for lane counts without a monomorphized arm —
    /// same per-lane op order as [`Self::kernel`], with runtime `lanes`
    /// (single-stage passes and dynamic trip counts, so this path is
    /// correct but not specialized).
    fn kernel_dyn(
        re: &mut [f64],
        im: &mut [f64],
        lanes: usize,
        swaps: &[(u32, u32)],
        table: &[Complex],
        n: usize,
    ) {
        // Bit-reversal permutation: each swap pair exchanges two whole
        // lane-rows, i.e. two contiguous `lanes`-wide runs.
        for &(i, j) in swaps {
            let (i, j) = (i as usize * lanes, j as usize * lanes);
            let (lo, hi) = re.split_at_mut(j);
            lo[i..i + lanes].swap_with_slice(&mut hi[..lanes]);
            let (lo, hi) = im.split_at_mut(j);
            lo[i..i + lanes].swap_with_slice(&mut hi[..lanes]);
        }
        // Stage len = 2: twiddle is exactly 1 — a pure add/sub pair of
        // adjacent rows, done across all lanes at once.
        for (pair_re, pair_im) in re
            .chunks_exact_mut(2 * lanes)
            .zip(im.chunks_exact_mut(2 * lanes))
        {
            let (ur, vr) = pair_re.split_at_mut(lanes);
            let (ui, vi) = pair_im.split_at_mut(lanes);
            for (((ur, ui), vr), vi) in ur
                .iter_mut()
                .zip(ui.iter_mut())
                .zip(vr.iter_mut())
                .zip(vi.iter_mut())
            {
                let (a_re, a_im) = (*ur, *ui);
                let (b_re, b_im) = (*vr, *vi);
                *ur = a_re + b_re;
                *ui = a_im + b_im;
                *vr = a_re - b_re;
                *vi = a_im - b_im;
            }
        }
        let mut off = 0;
        let mut len = 4;
        while len <= n {
            let half = len / 2;
            let tw = &table[off..off + half];
            // Within one block the u rows (k = 0..half) and v rows
            // (k = half..len) are two *contiguous* lane-major runs, so the
            // whole stage is walked with chunked iterators — no index
            // arithmetic or bounds checks anywhere in the butterfly path.
            for (block_re, block_im) in re
                .chunks_exact_mut(len * lanes)
                .zip(im.chunks_exact_mut(len * lanes))
            {
                let (u_re, v_re) = block_re.split_at_mut(half * lanes);
                let (u_im, v_im) = block_im.split_at_mut(half * lanes);
                for ((((ur, ui), vr), vi), w) in u_re
                    .chunks_exact_mut(lanes)
                    .zip(u_im.chunks_exact_mut(lanes))
                    .zip(v_re.chunks_exact_mut(lanes))
                    .zip(v_im.chunks_exact_mut(lanes))
                    .zip(tw)
                {
                    let (w_re, w_im) = (w.re, w.im);
                    // The scalar butterfly `b = v·w; u' = a+b; v' = a−b`
                    // unrolled into components, one lockstep lane loop.
                    // Same per-lane op order as FftPlan::process — the
                    // bit-identity contract depends on it.
                    for (((ur, ui), vr), vi) in ur
                        .iter_mut()
                        .zip(ui.iter_mut())
                        .zip(vr.iter_mut())
                        .zip(vi.iter_mut())
                    {
                        let b_re = *vr * w_re - *vi * w_im;
                        let b_im = *vr * w_im + *vi * w_re;
                        let (a_re, a_im) = (*ur, *ui);
                        *ur = a_re + b_re;
                        *ui = a_im + b_im;
                        *vr = a_re - b_re;
                        *vi = a_im - b_im;
                    }
                }
            }
            off += half;
            len <<= 1;
        }
    }

    /// Writes `values` into lane `lane` with every row already at its
    /// bit-reversed position: `values[i]` lands in row `bitrev[i]`.
    ///
    /// A batch filled this way into a zeroed buffer (zero rows are
    /// invariant under any permutation) is in exactly the state the swap
    /// pass would produce, so [`Self::process_prepermuted`] can skip that
    /// traversal. Rows past `values.len()` are left untouched.
    pub(crate) fn scatter_lane(
        &self,
        buf: &mut SoaComplex,
        lane: usize,
        lanes: usize,
        values: &[Complex],
    ) {
        assert!(lane < lanes, "lane index out of range");
        assert_eq!(
            buf.len(),
            self.plan.len() * lanes,
            "buffer length must match plan size × lanes"
        );
        assert!(
            values.len() <= self.plan.len(),
            "lane data must fit the transform length"
        );
        for (v, &p) in values.iter().zip(&self.bitrev) {
            let at = p as usize * lanes + lane;
            buf.re[at] = v.re;
            buf.im[at] = v.im;
        }
    }

    /// [`Self::process`] for a batch whose rows are already bit-reversed
    /// (filled via [`Self::scatter_lane`]).
    pub(crate) fn process_prepermuted(&self, buf: &mut SoaComplex, lanes: usize, inverse: bool) {
        self.run(buf, lanes, inverse, true);
    }

    /// In-place inverse DFT of every lane, including the `1/N`
    /// normalization as the scalar kernel's separate multiply pass.
    pub(crate) fn inverse(&self, buf: &mut SoaComplex, lanes: usize) {
        self.process(buf, lanes, true);
        self.normalize(buf);
    }

    /// The inverse DFT, `1/N` normalization included, of `lanes` rows
    /// given by their seeds (filled via [`Self::scatter_seeds`]) into
    /// `buf`, which is resized to `len() * lanes`.
    ///
    /// Equals filling a zeroed buffer with the rows and running the full
    /// inverse, except that a zero output may differ in sign (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is not a power of two up to [`MAX_LANES`], or
    /// when `seeds.len()` is not `lanes` times a power of two no larger
    /// than `len()`.
    pub(crate) fn inverse_from_seeds(
        &self,
        seeds: &SoaComplex,
        buf: &mut SoaComplex,
        lanes: usize,
    ) {
        buf.resize(self.plan.len() * lanes);
        let scale = 1.0 / self.plan.len() as f64;
        self.run_pruned(seeds, buf, lanes, &mut Normalize(scale));
    }

    /// [`Self::inverse`] for a batch filled via [`Self::scatter_lane`].
    pub(crate) fn inverse_prepermuted(&self, buf: &mut SoaComplex, lanes: usize) {
        self.process_prepermuted(buf, lanes, true);
        self.normalize(buf);
    }

    fn normalize(&self, buf: &mut SoaComplex) {
        let scale = 1.0 / self.plan.len() as f64;
        for v in buf.re.iter_mut().chain(buf.im.iter_mut()) {
            *v *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex;

    fn signal(n: usize, lane: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = i as f64 + lane as f64 * 0.37;
                Complex::new((0.3 * t).sin() + 0.1 * t, (0.7 * t).cos() - 0.05 * t)
            })
            .collect()
    }

    fn pack(lanes_data: &[Vec<Complex>]) -> SoaComplex {
        let lanes = lanes_data.len();
        let n = lanes_data[0].len();
        let mut soa = SoaComplex::new();
        soa.reset(n * lanes);
        for (l, row) in lanes_data.iter().enumerate() {
            soa.write_lane(l, lanes, row);
        }
        soa
    }

    #[test]
    fn batch_matches_per_packet_plan_bit_for_bit() {
        for lanes in [1usize, 2, 3, 5, 8] {
            for log2 in 1..=6 {
                let n = 1usize << log2;
                let rows: Vec<Vec<Complex>> = (0..lanes).map(|l| signal(n, l)).collect();
                let plan = FftPlan::new(n);
                let batch = BatchFftPlan::from_plan(Rc::new(plan.clone()));
                for inverse in [false, true] {
                    let mut soa = pack(&rows);
                    batch.process(&mut soa, lanes, inverse);
                    let mut lane_out = Vec::new();
                    for (l, row) in rows.iter().enumerate() {
                        let mut expect = row.clone();
                        plan.process(&mut expect, inverse);
                        soa.read_lane_into(l, lanes, &mut lane_out);
                        assert_eq!(lane_out, expect, "n={n} lanes={lanes} lane={l}");
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_normalization_matches_plan() {
        let n = 16;
        let lanes = 4;
        let rows: Vec<Vec<Complex>> = (0..lanes).map(|l| signal(n, l)).collect();
        let plan = FftPlan::new(n);
        let batch = BatchFftPlan::new(n);
        let mut soa = pack(&rows);
        batch.inverse(&mut soa, lanes);
        let mut lane_out = Vec::new();
        for (l, row) in rows.iter().enumerate() {
            let mut expect = row.clone();
            plan.inverse(&mut expect);
            soa.read_lane_into(l, lanes, &mut lane_out);
            assert_eq!(lane_out, expect, "lane {l}");
        }
    }

    #[test]
    fn scattered_prepermuted_matches_unpermuted_path() {
        for lanes in [1usize, 3, 8] {
            for log2 in 0..=6 {
                let n = 1usize << log2;
                // Short rows exercise the zero-padded scatter fill.
                let fill = (n * 3).div_ceil(4).max(1);
                let rows: Vec<Vec<Complex>> = (0..lanes).map(|l| signal(fill, l)).collect();
                let batch = BatchFftPlan::new(n);
                for inverse in [false, true] {
                    let mut via_swap = SoaComplex::new();
                    via_swap.reset(n * lanes);
                    let mut scattered = SoaComplex::new();
                    scattered.reset(n * lanes);
                    for (l, row) in rows.iter().enumerate() {
                        via_swap.write_lane(l, lanes, row);
                        batch.scatter_lane(&mut scattered, l, lanes, row);
                    }
                    batch.process(&mut via_swap, lanes, inverse);
                    batch.process_prepermuted(&mut scattered, lanes, inverse);
                    assert_eq!(scattered.re, via_swap.re, "n={n} lanes={lanes} re");
                    assert_eq!(scattered.im, via_swap.im, "n={n} lanes={lanes} im");
                }
                let mut via_swap = SoaComplex::new();
                via_swap.reset(n * lanes);
                let mut scattered = SoaComplex::new();
                scattered.reset(n * lanes);
                for (l, row) in rows.iter().enumerate() {
                    via_swap.write_lane(l, lanes, row);
                    batch.scatter_lane(&mut scattered, l, lanes, row);
                }
                batch.inverse(&mut via_swap, lanes);
                batch.inverse_prepermuted(&mut scattered, lanes);
                assert_eq!(scattered.re, via_swap.re, "inverse n={n} lanes={lanes} re");
                assert_eq!(scattered.im, via_swap.im, "inverse n={n} lanes={lanes} im");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane data must fit")]
    fn scatter_lane_rejects_long_rows() {
        let batch = BatchFftPlan::new(4);
        let mut soa = SoaComplex::new();
        soa.reset(4 * 2);
        batch.scatter_lane(&mut soa, 0, 2, &[Complex::ONE; 5]);
    }

    #[test]
    fn trivial_size_is_identity() {
        let batch = BatchFftPlan::new(1);
        let rows = vec![vec![Complex::new(2.5, -1.5)], vec![Complex::new(0.5, 3.0)]];
        let mut soa = pack(&rows);
        batch.forward(&mut soa, 2);
        assert_eq!(soa.get(0), Complex::new(2.5, -1.5));
        assert_eq!(soa.get(1), Complex::new(0.5, 3.0));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let batch = BatchFftPlan::new(4);
        let mut soa = SoaComplex::new();
        batch.process(&mut soa, 0, false);
    }

    #[test]
    #[should_panic(expected = "plan size × lanes")]
    fn mismatched_buffer_rejected() {
        let batch = BatchFftPlan::new(4);
        let mut soa = SoaComplex::new();
        soa.reset(4 * 3 - 1);
        batch.process(&mut soa, 3, false);
    }

    /// Seeds of `rows` (all the same length) for `plan`.
    fn seeds_of(plan: &BatchFftPlan, rows: &[Vec<Complex>]) -> SoaComplex {
        let lanes = rows.len();
        let mut seeds = SoaComplex::new();
        seeds.reset(rows[0].len().next_power_of_two() * lanes);
        for (l, row) in rows.iter().enumerate() {
            plan.scatter_seeds(&mut seeds, l, lanes, row);
        }
        seeds
    }

    #[test]
    fn pruned_inverse_matches_unpruned_inverse() {
        // Every pad ratio (stride 1 up to a lone seed), every lane count:
        // the pruned inverse equals the full scattered inverse value for
        // value. `==` on f64, not bit equality: a zero may differ in sign.
        let mut work = SoaComplex::new();
        for log2 in 0..=9 {
            let n = 1usize << log2;
            let batch = BatchFftPlan::new(n);
            let mut csi_lens: Vec<usize> = (0..=log2).map(|k| 1usize << k).collect();
            csi_lens.extend([3, 5, 17, 30, 33, 200, 300].iter().filter(|&&c| c <= n));
            for &csi_len in &csi_lens {
                for lanes in [1, 2, 4, 8] {
                    let rows: Vec<Vec<Complex>> = (0..lanes).map(|l| signal(csi_len, l)).collect();
                    let mut full = SoaComplex::new();
                    full.reset(n * lanes);
                    for (l, row) in rows.iter().enumerate() {
                        batch.scatter_lane(&mut full, l, lanes, row);
                    }
                    batch.inverse_prepermuted(&mut full, lanes);
                    let seeds = seeds_of(&batch, &rows);
                    batch.inverse_from_seeds(&seeds, &mut work, lanes);
                    assert_eq!(work.re, full.re, "n={n} csi_len={csi_len} lanes={lanes} re");
                    assert_eq!(work.im, full.im, "n={n} csi_len={csi_len} lanes={lanes} im");
                }
            }
        }
    }

    #[test]
    fn scatter_seeds_fills_every_seed_row() {
        // A dirty buffer is fully overwritten: the pad seeds are zeros.
        let batch = BatchFftPlan::new(64);
        let rows: Vec<Vec<Complex>> = (0..3).map(|l| signal(5, l)).collect();
        let mut seeds = SoaComplex::from_interleaved(&[Complex::new(9.0, -9.0); 8 * 3]);
        for (l, row) in rows.iter().enumerate() {
            batch.scatter_seeds(&mut seeds, l, 3, row);
        }
        assert_eq!(seeds, seeds_of(&batch, &rows));
        // bitrev_8 = [0, 4, 2, 6, 1, 5, 3, 7]: value i sits in seed row
        // bitrev_8(i); values 5..8 are the zero pads.
        for (i, &r) in [0usize, 4, 2, 6, 1, 5, 3, 7].iter().enumerate() {
            for (l, row) in rows.iter().enumerate() {
                let want = row.get(i).copied().unwrap_or(Complex::ZERO);
                assert_eq!(seeds.get(r * 3 + l), want, "value {i} lane {l}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "seed rows × lanes")]
    fn scatter_seeds_rejects_a_missized_buffer() {
        let batch = BatchFftPlan::new(64);
        let mut seeds = SoaComplex::new();
        seeds.reset(30 * 2);
        batch.scatter_seeds(&mut seeds, 0, 2, &[Complex::ONE; 30]);
    }

    #[test]
    #[should_panic(expected = "1, 2, 4 or 8 lanes")]
    fn pruned_inverse_rejects_wide_batches() {
        let batch = BatchFftPlan::new(4);
        let mut seeds = SoaComplex::new();
        seeds.reset(4 * 16);
        batch.inverse_from_seeds(&seeds, &mut SoaComplex::new(), 16);
    }

    #[test]
    #[should_panic(expected = "1, 2, 4 or 8 lanes")]
    fn pruned_inverse_rejects_odd_widths() {
        let batch = BatchFftPlan::new(4);
        let mut seeds = SoaComplex::new();
        seeds.reset(4 * 3);
        batch.inverse_from_seeds(&seeds, &mut SoaComplex::new(), 3);
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
    fn batch_fft_bit_identical_to_per_packet_plan(
        log2 in 1u32..9,
        lanes in 1usize..17,
        seed in 0u64..1000,
        dir in 0u32..2,
    ) {
        // Tentpole contract: any batch of 1..=16 packets through the
        // lockstep kernel equals running the per-packet planned FFT on
        // each row — bit for bit, both directions.
        let n = 1usize << log2;
        let inverse = dir == 1;
        let rows = seeded_rows(n, lanes, seed);
        let plan = FftPlan::new(n);
        let batched = BatchFftPlan::new(n);
        let mut soa = pack(&rows);
        batched.process(&mut soa, lanes, inverse);
        let mut lane = Vec::new();
        for (l, row) in rows.iter().enumerate() {
            let mut expect = row.clone();
            plan.process(&mut expect, inverse);
            soa.read_lane_into(l, lanes, &mut lane);
            proptest::prop_assert_eq!(&lane, &expect, "lane {} of {} (n={})", l, lanes, n);
        }
    }

        #[test]
        fn batch_inverse_normalization_bit_identical(
            log2 in 1u32..8,
            lanes in 1usize..17,
            seed in 0u64..1000,
        ) {
            // The 1/N pass is applied per component after the raw transform —
            // the same separate multiply as FftPlan::inverse, never fused with
            // downstream gains.
            let n = 1usize << log2;
            let rows = seeded_rows(n, lanes, seed);
            let plan = FftPlan::new(n);
            let batched = BatchFftPlan::new(n);
            let mut soa = pack(&rows);
            batched.inverse(&mut soa, lanes);
            let mut lane = Vec::new();
            for (l, row) in rows.iter().enumerate() {
                let mut expect = row.clone();
                plan.inverse(&mut expect);
                soa.read_lane_into(l, lanes, &mut lane);
                proptest::prop_assert_eq!(&lane, &expect, "lane {} of {} (n={})", l, lanes, n);
            }
        }
    }
}
