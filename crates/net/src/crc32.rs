//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Every wire frame carries a CRC over its payload so that corruption —
//! a flipped bit on a flaky link, a desynchronised stream — is detected
//! before the payload is interpreted. A CSI request payload runs to tens
//! of kilobytes (~93 KB at 32 packets per AP), and the check runs on the
//! daemon's event-loop thread, so the checksum sits squarely on the
//! serving hot path.
//!
//! [`crc32`] has two kernels:
//!
//! * **Carry-less-multiply folding** (x86-64 CPUs with `PCLMULQDQ`,
//!   detected at run time once per process): the body of the input, in
//!   whole 16-byte blocks, is folded four 128-bit lanes at a time, then
//!   reduced to 32 bits with a Barrett step. It takes inputs of 64 bytes
//!   or more; the constants are the published ones for the reflected
//!   polynomial (Intel's "Fast CRC Computation for Generic Polynomials
//!   Using PCLMULQDQ Instruction", as in Linux's `crc32-pclmul` and zlib).
//!   This is the one `unsafe` call of the module: entering a function
//!   compiled for an instruction the build target does not promise.
//! * **Slicing-by-8** (eight compile-time tables, eight bytes folded per
//!   iteration): the tail of under 16 bytes, inputs shorter than 64 bytes,
//!   other targets and CPUs without the instruction. It is also the
//!   equivalence oracle of the folding kernel, and the tests keep the
//!   byte-at-a-time loop as its own oracle.

/// Slicing-by-8 lookup tables: `TABLES[0]` is the classic reflected
/// byte table; `TABLES[j][b]` advances the CRC of byte `b` through `j`
/// additional zero bytes, letting eight bytes fold in one step.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            tables[j][i] = tables[0][(tables[j - 1][i] & 0xFF) as usize] ^ (tables[j - 1][i] >> 8);
            i += 1;
        }
        j += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `data`: init `0xFFFFFFFF`, final XOR `0xFFFFFFFF`.
///
/// Folds the body with carry-less multiplies where the CPU has them (see
/// the module docs) and finishes with slicing-by-8. Bit-identical to
/// slicing-by-8 alone, and to the byte-at-a-time loop, for every input.
pub fn crc32(data: &[u8]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    let mut rest = data;
    #[cfg(target_arch = "x86_64")]
    if rest.len() >= clmul::MIN_LEN && clmul::available() {
        let (body, tail) = rest.split_at(rest.len() & !15);
        state = clmul::fold(state, body);
        rest = tail;
    }
    slicing_by_8(state, rest) ^ 0xFFFF_FFFF
}

/// Advances the CRC register `c` (pre-inversion state) over `data`,
/// eight bytes per step through the sliced tables, the remainder byte by
/// byte.
fn slicing_by_8(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 by slicing-by-8 alone: the portable path, and the oracle the
/// tests hold [`crc32`] to on hosts where it folds.
#[cfg(test)]
pub(crate) fn crc32_portable(data: &[u8]) -> u32 {
    slicing_by_8(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// The carry-less-multiply folding kernel. The crate's second `unsafe`
/// island (after `poll.rs`'s `sys`): one call into a function compiled
/// with the `pclmulqdq` target feature, guarded by run-time detection.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };
    use std::sync::OnceLock;

    /// Shortest input the kernel takes: its four 128-bit accumulators.
    pub const MIN_LEN: usize = 64;

    // Fold and Barrett constants for the reflected polynomial 0xEDB88320
    // (bit-reflected, shifted left by one: the published values).
    /// Fold by 4×128 bits: x^(4·128+32) mod P(x).
    const K1: i64 = 0x1_5444_2bd4;
    /// Fold by 4×128 bits: x^(4·128−32) mod P(x).
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold by 128 bits: x^(128+32) mod P(x).
    const K3: i64 = 0x1_7519_97d0;
    /// Fold by 128 bits: x^(128−32) mod P(x).
    const K4: i64 = 0x0_ccaa_009e;
    /// Fold 96 → 64 bits: x^64 mod P(x).
    const K5: i64 = 0x1_63cd_6124;
    /// P(x) itself.
    const P_X: i64 = 0x1_db71_0641;
    /// Barrett constant μ = ⌊x^64 / P(x)⌋.
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU executes `PCLMULQDQ`; probed once per process.
    pub fn available() -> bool {
        static HAS_CLMUL: OnceLock<bool> = OnceLock::new();
        *HAS_CLMUL.get_or_init(|| std::arch::is_x86_feature_detected!("pclmulqdq"))
    }

    /// Advances the CRC register `state` over `data`.
    ///
    /// # Panics
    ///
    /// Panics when the CPU lacks `PCLMULQDQ` ([`available`]), or when
    /// `data` is shorter than [`MIN_LEN`] or not whole 16-byte blocks.
    pub fn fold(state: u32, data: &[u8]) -> u32 {
        assert!(available(), "CPU lacks PCLMULQDQ");
        assert!(
            data.len() >= MIN_LEN && data.len().is_multiple_of(16),
            "folding takes whole 16-byte blocks, at least {MIN_LEN} bytes"
        );
        // SAFETY: `fold_clmul` needs PCLMULQDQ (plus SSE2, part of the
        // x86-64 baseline), which `available()` has just confirmed; it
        // has no other precondition.
        unsafe { fold_clmul(state, data) }
    }

    /// One little-endian 16-byte block as a vector.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn block(b: &[u8]) -> __m128i {
        let v = u128::from_le_bytes(b.try_into().expect("16-byte block"));
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// Folds accumulator `a` forward by the distance `keys` encode and
    /// adds the next block `b`: `a.lo·k_lo ⊕ a.hi·k_hi ⊕ b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    #[target_feature(enable = "pclmulqdq")]
    fn fold_clmul(state: u32, data: &[u8]) -> u32 {
        let (head, rest) = data.split_at(MIN_LEN);
        // Four accumulators over consecutive blocks; the register state
        // enters through the first.
        let mut x3 = _mm_xor_si128(block(&head[..16]), _mm_cvtsi32_si128(state as i32));
        let mut x2 = block(&head[16..32]);
        let mut x1 = block(&head[32..48]);
        let mut x0 = block(&head[48..]);
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(64);
        for q in &mut quads {
            x3 = fold_into(x3, block(&q[..16]), k1k2);
            x2 = fold_into(x2, block(&q[16..32]), k1k2);
            x1 = fold_into(x1, block(&q[32..48]), k1k2);
            x0 = fold_into(x0, block(&q[48..]), k1k2);
        }
        // Four accumulators to one, then the remaining single blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x3, x2, k3k4);
        x = fold_into(x, x1, k3k4);
        x = fold_into(x, x0, k3k4);
        for b in quads.remainder().chunks_exact(16) {
            x = fold_into(x, block(b), k3k4);
        }
        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett reduction to 32 bits (bit-reflected variant): the
        // remainder is the upper half of the low 64 bits.
        let pmu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic byte-at-a-time reflected table-driven CRC-32: the
    /// equivalence oracle for the sliced [`crc32`].
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn check_value() {
        // The standard CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b""), 0);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        // Pseudo-random buffer; check every length 0..=64 (covers all
        // chunk/remainder splits) and every start offset up to 8 (covers
        // all alignments of the 8-byte folding loop).
        let data: Vec<u8> = (0u32..96)
            .map(|i| (i.wrapping_mul(2_654_435_761).rotate_left(7) & 0xFF) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "divergence at start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = crc32(b"nomloc wire frame payload");
        let mut corrupted = *b"nomloc wire frame payload";
        for i in 0..corrupted.len() {
            for bit in 0..8 {
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at byte {i} bit {bit}");
                corrupted[i] ^= 1 << bit;
            }
        }
    }

    /// `len` pseudo-random bytes.
    fn noise(len: usize) -> Vec<u8> {
        (0u32..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761).rotate_left(7) & 0xFF) as u8)
            .collect()
    }

    #[test]
    fn dispatch_matches_slicing_at_every_length_and_offset() {
        // Every length 0..=512 covers short inputs, the 64-byte threshold,
        // every fold-by-4 / fold-by-1 / tail split; every start offset
        // 0..16 covers every alignment of the 16-byte blocks.
        let data = noise(512 + 16);
        for start in 0..16 {
            for len in 0..=512 {
                let slice = &data[start..start + len];
                let portable = crc32_portable(slice);
                assert_eq!(crc32(slice), portable, "start {start} len {len}");
                assert_eq!(portable, crc32_bytewise(slice), "start {start} len {len}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_kernel_matches_slicing_from_any_state() {
        // The kernel itself, where the CPU has it: any register state in,
        // the state slicing-by-8 reaches over the same blocks out.
        if !clmul::available() {
            return;
        }
        let data = noise(4096);
        for state in [0xFFFF_FFFFu32, 0, 0x1234_5678, 0xDEAD_BEEF] {
            for len in (clmul::MIN_LEN..=data.len()).step_by(16) {
                assert_eq!(
                    clmul::fold(state, &data[..len]),
                    slicing_by_8(state, &data[..len]),
                    "state {state:#x} len {len}"
                );
            }
        }
    }
}
