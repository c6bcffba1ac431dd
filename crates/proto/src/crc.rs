//! CRC-16/CCITT-FALSE, the checksum used by the CC2500's packet engine
//! (polynomial 0x1021, init 0xFFFF, no reflection, no final XOR).
//!
//! The radio frames are tens of bytes, but the policy data plane
//! checksums every service frame once on encode and once on decode, at
//! both hops of a cluster round trip — a batch-256 data-plane frame
//! is 0.6–1.5 KiB. Two implementations share one entry point,
//! [`crc16_ccitt`], and return identical bits:
//!
//! * **Carry-less-multiply folding** (x86_64 with `pclmulqdq` and
//!   `ssse3`, inputs of at least 64 bytes). The message
//!   is a polynomial over GF(2) and the CRC depends only on it modulo
//!   P(x) = x¹⁶ + x¹² + x⁵ + 1, so any 128-bit block `B` that sits `s`
//!   bits ahead of a later one can be replaced by `B·x^s mod P`, which
//!   `pclmulqdq` computes as two 64×16-bit carry-less products: the
//!   high half times `x^(s+64) mod P` plus the low half times
//!   `x^s mod P`. Each block is byte-reversed on load (the CRC is
//!   non-reflected, so the first byte is the highest-order
//!   coefficient) and the 0xFFFF init is XORed into the top 16 bits of
//!   the first block. Four independent accumulators fold forward by
//!   512 bits per 64-byte stride, merge by 128-bit folds, and absorb
//!   the remaining 16-byte blocks. The final 128-bit residue is
//!   congruent to everything absorbed, so the CRC (init 0) of its 16
//!   bytes followed by the tail of fewer than 16 bytes is the CRC of
//!   the whole input; the byte table below finishes it. The fold
//!   constants are computed from the polynomial at compile time.
//! * **Slicing-by-8 tables** everywhere else: shorter inputs (radio
//!   frames, `Hello`, `Ping`, `Error`, `Overloaded`), other targets,
//!   and CPUs without the instructions. It also finishes the folded
//!   residue and is the reference the folding path is tested against.
//!
//! The dispatch depends only on the platform and the input length.
//!
//! Table semantics: `TABLES[k][v]` is the CRC (init 0) of the message
//! consisting of byte `v` followed by `k` zero bytes. By linearity of
//! the CRC over GF(2), the state after absorbing 8 bytes is the XOR of
//! each byte's independent contribution, with the incoming 16-bit
//! state folded into the first two bytes.

/// The generator polynomial with its x¹⁶ term.
const POLY: u32 = 0x1_1021;

/// Shortest input the folding kernel takes: its four accumulators
/// start from the first 64 bytes.
const FOLD_MIN_LEN: usize = 64;

/// `x^k mod P(x)`, the multiplier that moves a coefficient `k` bits
/// toward the end of the message without changing the CRC.
const fn x_pow_mod(k: u32) -> u64 {
    let mut r: u32 = 1;
    let mut i = 0;
    while i < k {
        r <<= 1;
        if r & 0x1_0000 != 0 {
            r ^= POLY;
        }
        i += 1;
    }
    r as u64
}

/// `TABLES[k][v]`: CRC-16/CCITT (init 0) of byte `v` followed by `k`
/// zero bytes, for polynomial 0x1021.
const TABLES: [[u16; 256]; 8] = {
    let mut tables = [[0u16; 256]; 8];
    let mut byte = 0usize;
    while byte < 256 {
        let mut crc = (byte as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0usize;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            // Advance the 16-bit state through one zero byte.
            tables[k][byte] = (prev << 8) ^ tables[0][(prev >> 8) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// Computes CRC-16/CCITT-FALSE over `data`.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN_LEN && fold::available() {
        // SAFETY: `fold::available` just confirmed that the CPU
        // supports every feature `crc16_fold` enables.
        return unsafe { fold::crc16_fold(data) };
    }
    table_update(0xFFFF, data)
}

/// Slicing-by-8: absorbs `data` into the CRC state `crc`.
fn table_update(mut crc: u16, data: &[u8]) -> u16 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        crc = TABLES[7][usize::from(c[0] ^ (crc >> 8) as u8)]
            ^ TABLES[6][usize::from(c[1] ^ (crc & 0xFF) as u8)]
            ^ TABLES[5][usize::from(c[2])]
            ^ TABLES[4][usize::from(c[3])]
            ^ TABLES[3][usize::from(c[4])]
            ^ TABLES[2][usize::from(c[5])]
            ^ TABLES[1][usize::from(c[6])]
            ^ TABLES[0][usize::from(c[7])];
    }
    for &byte in chunks.remainder() {
        crc = (crc << 8) ^ TABLES[0][usize::from((crc >> 8) as u8 ^ byte)];
    }
    crc
}

#[cfg(target_arch = "x86_64")]
mod fold {
    use super::{table_update, x_pow_mod, FOLD_MIN_LEN};
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_loadu_si128, _mm_set_epi64x, _mm_set_epi8,
        _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
    };

    /// Fold-by-512 multipliers: (high half, low half).
    const K512: (u64, u64) = (x_pow_mod(576), x_pow_mod(512));
    /// Fold-by-128 multipliers: (high half, low half).
    const K128: (u64, u64) = (x_pow_mod(192), x_pow_mod(128));

    /// Whether the CPU supports every feature `crc16_fold` enables.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("ssse3")
    }

    /// CRC-16/CCITT-FALSE of `data` by carry-less-multiply folding.
    ///
    /// Panics if `data` is shorter than [`FOLD_MIN_LEN`].
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `ssse3` (check with
    /// [`available`]).
    #[target_feature(enable = "pclmulqdq,ssse3")]
    pub(super) unsafe fn crc16_fold(data: &[u8]) -> u16 {
        let (head, rest) = data.split_at(FOLD_MIN_LEN);
        let k512 = constants(K512);
        let k128 = constants(K128);
        // The 0xFFFF init sits on the message's first 16 bits.
        let init = _mm_set_epi64x((0xFFFF_u64 << 48) as i64, 0);
        let mut acc = [
            _mm_xor_si128(init, load(&head[..16])),
            load(&head[16..32]),
            load(&head[32..48]),
            load(&head[48..]),
        ];
        let mut strides = rest.chunks_exact(64);
        for stride in &mut strides {
            for (a, block) in acc.iter_mut().zip(stride.chunks_exact(16)) {
                *a = _mm_xor_si128(fold(*a, k512), load(block));
            }
        }
        let mut x = acc[0];
        for &a in &acc[1..] {
            x = _mm_xor_si128(fold(x, k128), a);
        }
        let mut blocks = strides.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = _mm_xor_si128(fold(x, k128), load(block));
        }

        let mut residue = [0u8; 16];
        // SAFETY: `residue` is 16 writable bytes; the store is unaligned.
        unsafe { _mm_storeu_si128(residue.as_mut_ptr().cast(), _mm_shuffle_epi8(x, bswap())) };
        table_update(table_update(0, &residue), blocks.remainder())
    }

    /// Packs a (high, low) multiplier pair into one register.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn constants((hi, lo): (u64, u64)) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// Shuffle mask reversing the 16 bytes of a register.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn bswap() -> __m128i {
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
    }

    /// Loads a 16-byte block as a polynomial, first byte highest.
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn load(block: &[u8]) -> __m128i {
        assert_eq!(block.len(), 16, "fold blocks are 16 bytes");
        // SAFETY: `block` holds the 16 readable bytes the unaligned
        // load reads.
        let v = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
        _mm_shuffle_epi8(v, bswap())
    }

    /// Moves `x` forward by `s` bits, for `k` = (x^(s+64), x^s) mod P:
    /// the result is congruent to `x·x^s` modulo P and fits in 80
    /// bits, being two 64×16-bit carry-less products.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x11>(x, k),
            _mm_clmulepi64_si128::<0x00>(x, k),
        )
    }
}

/// Convenience: checks that `data`'s trailing two bytes are the CRC of
/// the preceding bytes. Returns the payload slice on success.
pub fn verify_trailing_crc(data: &[u8]) -> Option<&[u8]> {
    if data.len() < 2 {
        return None;
    }
    let (payload, tail) = data.split_at(data.len() - 2);
    let expected = u16::from_be_bytes([tail[0], tail[1]]);
    (crc16_ccitt(payload) == expected).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The CRC straight from its definition, one bit at a time.
    fn bitwise(data: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &byte in data {
            crc ^= u16::from(byte) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ 0x1021
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    /// Deterministic pseudo-random bytes (SplitMix64 stream).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// Every implementation this target has agrees with `bitwise`.
    fn assert_all_paths(data: &[u8]) {
        let (want, len) = (bitwise(data), data.len());
        assert_eq!(table_update(0xFFFF, data), want, "table, len {len}");
        assert_eq!(crc16_ccitt(data), want, "dispatch, len {len}");
        #[cfg(target_arch = "x86_64")]
        if data.len() >= FOLD_MIN_LEN && fold::available() {
            // SAFETY: the CPU supports the kernel's features.
            let got = unsafe { fold::crc16_fold(data) };
            assert_eq!(got, want, "fold, len {len}");
        }
    }

    #[test]
    fn known_check_value() {
        // The CRC-16/CCITT-FALSE check value for "123456789" is 0x29B1.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
        assert_eq!(bitwise(b"123456789"), 0x29B1);
    }

    #[test]
    fn empty_input_is_initial_value() {
        assert_eq!(crc16_ccitt(&[]), 0xFFFF);
    }

    /// Check values long enough for the folding path, computed from
    /// the bitwise definition.
    #[test]
    fn long_check_values() {
        let ramp: Vec<u8> = (0..4).flat_map(|_| 0..=255u8).collect();
        assert_eq!(crc16_ccitt(&ramp), 0x758F);
        let frame: Vec<u8> = (0..1500u32).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(crc16_ccitt(&frame), 0xF1A5);
        for data in [&ramp, &frame] {
            assert_all_paths(data);
        }
    }

    /// Every length through several 64-byte strides, so each count of
    /// leftover blocks and tail bytes after the fold is hit.
    #[test]
    fn every_length_matches_bitwise() {
        let data = noise(400, 7);
        for len in 0..=data.len() {
            assert_all_paths(&data[..len]);
        }
    }

    #[test]
    fn verify_roundtrip_and_rejection() {
        let payload = b"econcast";
        let mut framed = payload.to_vec();
        framed.extend_from_slice(&crc16_ccitt(payload).to_be_bytes());
        assert_eq!(verify_trailing_crc(&framed), Some(&payload[..]));
        // Flip one bit anywhere → rejected.
        framed[3] ^= 0x10;
        assert_eq!(verify_trailing_crc(&framed), None);
        // Too short → rejected.
        assert_eq!(verify_trailing_crc(&[0x12]), None);
    }

    proptest! {
        /// Table, folding and dispatch agree with the bitwise
        /// definition at any length and buffer alignment.
        #[test]
        fn prop_paths_match_bitwise(
            len in 0usize..=4096,
            offset in 0usize..16,
            seed in any::<u64>(),
        ) {
            let buf = noise(offset + len, seed);
            assert_all_paths(&buf[offset..]);
        }

        /// Any single-bit flip in payload or CRC is detected (CRC-16
        /// detects all single-bit errors by construction).
        #[test]
        fn prop_single_bit_flips_detected(
            payload in proptest::collection::vec(any::<u8>(), 1..2048),
            flip_bit in 0usize..16384,
        ) {
            let mut framed = payload.clone();
            framed.extend_from_slice(&crc16_ccitt(&payload).to_be_bytes());
            let bit = flip_bit % (framed.len() * 8);
            framed[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(verify_trailing_crc(&framed), None);
        }

        /// Round-trip always verifies.
        #[test]
        fn prop_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..128)) {
            let mut framed = payload.clone();
            framed.extend_from_slice(&crc16_ccitt(&payload).to_be_bytes());
            prop_assert_eq!(verify_trailing_crc(&framed), Some(&payload[..]));
        }
    }
}
