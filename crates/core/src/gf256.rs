//! Arithmetic over the finite field GF(2^8).
//!
//! The field underlying the random-linear-network-coding layer
//! ([`crate::rlnc`]). Elements are bytes; addition is XOR (so addition
//! and subtraction coincide and vectorize trivially), and
//! multiplication works through compile-time log/exp tables for the
//! primitive polynomial `x^8 + x^4 + x^3 + x^2 + 1` (`0x11D`, the
//! classic Reed–Solomon modulus) with generator `2`.
//!
//! The slice operations are the hot path of Gaussian elimination and
//! packet mixing. The `c = 0` and `c = 1` multiplier cases reduce to a
//! no-op and a plain XOR loop (which the compiler auto-vectorizes).
//! The general case has two kernels that agree byte for byte:
//!
//! - **Table** (every target): one lookup per byte in a compile-time
//!   64 KiB product table `MUL[c][x] = c · x`, so a call does no set-up.
//! - **Split nibble** (x86_64 with AVX2, detected at run time):
//!   `c · x = lo[x & 15] ^ hi[x >> 4]` with two 16-entry tables, so one
//!   byte shuffle multiplies 32 bytes (AVX2) or 16 (SSSE3) at once. It
//!   covers the longest prefix that is a multiple of 16 bytes; the
//!   table kernel takes the tail, and all of a slice shorter than 16.
//!
//! The SIMD kernel is this crate's only `unsafe` code: a private module,
//! compiled only on x86_64, where every block states why its loads and
//! stores stay in bounds.
//!
//! # Examples
//!
//! ```
//! use ocd_core::gf256;
//!
//! let a = 0x53;
//! assert_eq!(gf256::mul(a, gf256::inv(a)), 1);
//! assert_eq!(gf256::add(a, a), 0, "characteristic 2: x + x = 0");
//! ```

/// The primitive polynomial: `x^8 + x^4 + x^3 + x^2 + 1`.
pub const POLY: u16 = 0x11D;

/// `EXP[i] = g^i` for generator `g = 2`, doubled so `EXP[log a + log b]`
/// needs no modular reduction (indices reach at most `254 + 254`).
const EXP: [u8; 512] = TABLES.0;
/// `LOG[x] = log_g x` for `x != 0`; `LOG[0]` is unused.
const LOG: [u8; 256] = TABLES.1;

const TABLES: ([u8; 512], [u8; 256]) = build_tables();

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    (exp, log)
}

/// Field addition: XOR. Subtraction is the same operation
/// (characteristic 2).
#[inline(always)]
#[must_use]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication via the log/exp tables.
#[inline]
#[must_use]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse.
///
/// # Panics
///
/// Panics on `a == 0`, which has no inverse.
#[inline]
#[must_use]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "0 has no multiplicative inverse in GF(2^8)");
    EXP[255 - LOG[a as usize] as usize]
}

/// Field division `a / b`.
///
/// # Panics
///
/// Panics on division by zero.
#[inline]
#[must_use]
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// `MUL[c][x] = c · x` for every pair: the full 64 KiB product table,
/// built at compile time from the log/exp tables. Row `c` is the
/// scalar kernels' lookup table, and its first 16 entries are the
/// low-nibble table of the SIMD kernels.
static MUL: [[u8; 256]; 256] = build_mul();

const fn build_mul() -> [[u8; 256]; 256] {
    let mut table = [[0u8; 256]; 256];
    let mut c = 1;
    while c < 256 {
        let mut x = 1;
        while x < 256 {
            table[c][x] = EXP[LOG[c] as usize + LOG[x] as usize];
            x += 1;
        }
        c += 1;
    }
    table
}

/// `dst[i] ^= src[i]` — vector addition.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn add_slice(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// `dst[i] ^= c · src[i]` — the axpy kernel of Gaussian elimination
/// and packet mixing. `c = 0` is a no-op, `c = 1` a plain XOR loop;
/// other multipliers run the SIMD kernel over the longest prefix it
/// covers (a multiple of 16 bytes, on AVX2 hosts) and the product-table
/// loop over the rest.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_add_slice(dst: &mut [u8], c: u8, src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    match c {
        0 => {}
        1 => add_slice(dst, src),
        _ => {
            let done = simd::mul_add_prefix(dst, c, src);
            mul_add_slice_scalar(&mut dst[done..], c, &src[done..]);
        }
    }
}

/// `dst[i] = c · dst[i]` — row scaling. `c = 1` is a no-op; other
/// multipliers split between the SIMD and table kernels as in
/// [`mul_add_slice`].
pub fn mul_slice(dst: &mut [u8], c: u8) {
    match c {
        0 => dst.fill(0),
        1 => {}
        _ => {
            let done = simd::mul_prefix(dst, c);
            mul_slice_scalar(&mut dst[done..], c);
        }
    }
}

/// The portable axpy: one product-table lookup and XOR per byte. Every
/// target runs it on whatever the SIMD kernel leaves over.
pub(crate) fn mul_add_slice_scalar(dst: &mut [u8], c: u8, src: &[u8]) {
    let row = &MUL[c as usize];
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= row[s as usize];
    }
}

/// The portable row scaling: one product-table lookup per byte.
pub(crate) fn mul_slice_scalar(dst: &mut [u8], c: u8) {
    let row = &MUL[c as usize];
    for d in dst.iter_mut() {
        *d = row[*d as usize];
    }
}

/// Split-nibble SIMD kernels for x86_64: `c · x = lo[x & 15] ^ hi[x >> 4]`,
/// where `lo[i] = c · i` and `hi[i] = c · (i << 4)` are 16-byte tables
/// that one byte shuffle (`pshufb`) indexes 32 (AVX2) or 16 (SSSE3)
/// lanes at a time. Both tables are rows of [`MUL`]: `lo` is the head
/// of row `c`, and since `c · (16 i) = (c · 16) · i`, `hi` is the head
/// of row `c · 16`.
///
/// The kernels run only once `is_x86_feature_detected!("avx2")` has
/// confirmed AVX2 (which implies SSSE3); the standard library caches
/// the CPUID probe, so each call pays one relaxed load. Without AVX2
/// they process nothing and the table kernels do all the work.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::MUL;
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
        _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8, _mm_shuffle_epi8,
        _mm_srli_epi64, _mm_storeu_si128, _mm_xor_si128,
    };

    /// Runs `dst ^= c · src` over the longest prefix that is a multiple
    /// of 16 bytes and returns its length; 0 without AVX2. The caller
    /// has checked that the slices have equal length.
    pub(super) fn mul_add_prefix(dst: &mut [u8], c: u8, src: &[u8]) -> usize {
        if dst.len() < 16 || !is_x86_feature_detected!("avx2") {
            return 0;
        }
        // SAFETY: AVX2 is available on this CPU, checked just above.
        unsafe { mul_add_avx2(dst, c, src) }
    }

    /// Runs `dst = c · dst` over the longest prefix that is a multiple
    /// of 16 bytes and returns its length; 0 without AVX2.
    pub(super) fn mul_prefix(dst: &mut [u8], c: u8) -> usize {
        if dst.len() < 16 || !is_x86_feature_detected!("avx2") {
            return 0;
        }
        // SAFETY: AVX2 is available on this CPU, checked just above.
        unsafe { mul_avx2(dst, c) }
    }

    /// The nibble tables of multiplier `c` as `(lo, hi)`.
    #[target_feature(enable = "avx2")]
    fn nibble_tables(c: u8) -> (__m128i, __m128i) {
        let lo = &MUL[c as usize][..16];
        let hi = &MUL[MUL[c as usize][16] as usize][..16];
        // SAFETY: `lo` and `hi` are 16 bytes each, exactly what the
        // unaligned loads read.
        unsafe {
            (
                _mm_loadu_si128(lo.as_ptr().cast()),
                _mm_loadu_si128(hi.as_ptr().cast()),
            )
        }
    }

    /// `c · x` in each of 32 lanes.
    #[target_feature(enable = "avx2")]
    fn mul32(lo: __m256i, hi: __m256i, x: __m256i) -> __m256i {
        let mask = _mm256_set1_epi8(0x0F);
        let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(x, mask));
        let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask));
        _mm256_xor_si256(l, h)
    }

    /// `c · x` in each of 16 lanes.
    #[target_feature(enable = "avx2")]
    fn mul16(lo: __m128i, hi: __m128i, x: __m128i) -> __m128i {
        let mask = _mm_set1_epi8(0x0F);
        let l = _mm_shuffle_epi8(lo, _mm_and_si128(x, mask));
        let h = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64::<4>(x), mask));
        _mm_xor_si128(l, h)
    }

    #[target_feature(enable = "avx2")]
    fn mul_add_avx2(dst: &mut [u8], c: u8, src: &[u8]) -> usize {
        let (lo, hi) = nibble_tables(c);
        let (lo32, hi32) = (
            _mm256_broadcastsi128_si256(lo),
            _mm256_broadcastsi128_si256(hi),
        );
        let mut dst32 = dst.chunks_exact_mut(32);
        let mut src32 = src.chunks_exact(32);
        for (d, s) in (&mut dst32).zip(&mut src32) {
            // SAFETY: `d` and `s` are 32 bytes each, exactly what the
            // unaligned 256-bit loads and store touch.
            unsafe {
                let x = _mm256_loadu_si256(s.as_ptr().cast());
                let y = _mm256_loadu_si256(d.as_ptr().cast());
                let r = _mm256_xor_si256(y, mul32(lo32, hi32, x));
                _mm256_storeu_si256(d.as_mut_ptr().cast(), r);
            }
        }
        let mut done = src.len() - src32.remainder().len();
        if let (Some(d), Some(s)) = (
            dst32.into_remainder().get_mut(..16),
            src32.remainder().get(..16),
        ) {
            // SAFETY: `d` and `s` are 16 bytes each, exactly what the
            // unaligned 128-bit loads and store touch.
            unsafe {
                let x = _mm_loadu_si128(s.as_ptr().cast());
                let y = _mm_loadu_si128(d.as_ptr().cast());
                let r = _mm_xor_si128(y, mul16(lo, hi, x));
                _mm_storeu_si128(d.as_mut_ptr().cast(), r);
            }
            done += 16;
        }
        done
    }

    #[target_feature(enable = "avx2")]
    fn mul_avx2(dst: &mut [u8], c: u8) -> usize {
        let (lo, hi) = nibble_tables(c);
        let (lo32, hi32) = (
            _mm256_broadcastsi128_si256(lo),
            _mm256_broadcastsi128_si256(hi),
        );
        let len = dst.len();
        let mut dst32 = dst.chunks_exact_mut(32);
        for d in &mut dst32 {
            // SAFETY: `d` is 32 bytes, exactly what the unaligned
            // 256-bit load and store touch.
            unsafe {
                let x = _mm256_loadu_si256(d.as_ptr().cast());
                _mm256_storeu_si256(d.as_mut_ptr().cast(), mul32(lo32, hi32, x));
            }
        }
        let rest = dst32.into_remainder();
        let mut done = len - rest.len();
        if let Some(d) = rest.get_mut(..16) {
            // SAFETY: `d` is 16 bytes, exactly what the unaligned
            // 128-bit load and store touch.
            unsafe {
                let x = _mm_loadu_si128(d.as_ptr().cast());
                _mm_storeu_si128(d.as_mut_ptr().cast(), mul16(lo, hi, x));
            }
            done += 16;
        }
        done
    }
}

/// Targets without a SIMD kernel: the table kernels do all the work.
#[cfg(not(target_arch = "x86_64"))]
mod simd {
    pub(super) fn mul_add_prefix(_dst: &mut [u8], _c: u8, _src: &[u8]) -> usize {
        0
    }

    pub(super) fn mul_prefix(_dst: &mut [u8], _c: u8) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_log_round_trip() {
        for x in 1..=255u8 {
            assert_eq!(EXP[LOG[x as usize] as usize], x);
        }
        // The doubled exp table agrees with itself mod 255.
        for i in 0..255usize {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn multiplication_axioms() {
        // Spot-check associativity and distributivity on a stride of
        // triples (the full cube is 16M cases; the stride covers every
        // residue class of each operand).
        let samples: Vec<u8> = (0u16..256).step_by(7).map(|x| x as u8).collect();
        for &a in &samples {
            for &b in &samples {
                assert_eq!(mul(a, b), mul(b, a));
                for &c in &samples {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn units_and_inverses() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
            assert_eq!(div(a, a), 1);
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn zero_has_no_inverse() {
        let _ = inv(0);
    }

    #[test]
    fn add_slice_is_bytewise_xor() {
        let mut dst = vec![0xAA; 4];
        add_slice(&mut dst, &[0xFF, 0x00, 0xAA, 0x01]);
        assert_eq!(dst, vec![0x55, 0xAA, 0x00, 0xAB]);
    }

    #[test]
    fn product_table_matches_log_exp_multiplication() {
        for c in 0..=255u8 {
            for x in 0..=255u8 {
                assert_eq!(MUL[c as usize][x as usize], mul(c, x), "{c} · {x}");
            }
        }
    }

    /// The differential test below compares against the SIMD kernel
    /// only where it runs; pin that it does on AVX2 hosts, over the
    /// 32-byte and the 16-byte step.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_kernel_covers_the_sixteen_byte_prefix_on_avx2_hosts() {
        let expect = if is_x86_feature_detected!("avx2") {
            48
        } else {
            0
        };
        let mut dst = vec![0u8; 63];
        assert_eq!(simd::mul_add_prefix(&mut dst, 3, &[1; 63]), expect);
        assert_eq!(simd::mul_prefix(&mut dst, 3), expect);
    }

    /// Deterministic filler bytes (xorshift32), so every run checks the
    /// same inputs.
    fn noise(len: usize, mut state: u32) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            })
            .collect()
    }

    /// Every multiplier, every length in `0..=100` plus two multi-block
    /// lengths, at every offset in `0..=31` into the buffers (the source
    /// at a different offset than the destination): covers misalignment
    /// and every tail length of the 32- and 16-byte SIMD steps. The
    /// public kernels (SIMD on AVX2 hosts) must agree with the table
    /// kernels, and the table kernels with byte-wise `mul`.
    #[test]
    fn simd_and_table_kernels_agree_exhaustively() {
        let lens: Vec<usize> = (0..=100).chain([1024, 1040]).collect();
        let src_buf = noise(1040 + 32, 0x9E37_79B9);
        let dst_buf = noise(1040 + 32, 0x85EB_CA6B);
        for c in 0..=255u8 {
            for &len in &lens {
                for off in 0..32 {
                    let src = &src_buf[(off * 7) % 32..][..len];
                    let base = &dst_buf[off..][..len];

                    let mut fast = dst_buf.clone();
                    let mut table = dst_buf.clone();
                    mul_add_slice(&mut fast[off..][..len], c, src);
                    mul_add_slice_scalar(&mut table[off..][..len], c, src);
                    assert_eq!(fast, table, "mul_add_slice c = {c} len = {len} off = {off}");
                    let expect: Vec<u8> =
                        base.iter().zip(src).map(|(&d, &s)| d ^ mul(c, s)).collect();
                    assert_eq!(&table[off..][..len], &expect[..]);

                    let mut fast = dst_buf.clone();
                    let mut table = dst_buf.clone();
                    mul_slice(&mut fast[off..][..len], c);
                    mul_slice_scalar(&mut table[off..][..len], c);
                    assert_eq!(fast, table, "mul_slice c = {c} len = {len} off = {off}");
                    let expect: Vec<u8> = base.iter().map(|&d| mul(c, d)).collect();
                    assert_eq!(&table[off..][..len], &expect[..]);
                }
            }
        }
    }
}
