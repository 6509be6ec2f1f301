//! The word hasher behind Pitchfork's state fingerprints.
//!
//! [`Fingerprinter`] turns a value's `Hash` stream into 128 bits in one
//! pass: every integer the stream writes is one word, fed to two 64-bit
//! lanes with fixed, unrelated seeds and odd multipliers. A lane update
//! `h ← rotl((h ⊕ w)·k, r)` is a bijection of `h` for a fixed word and of
//! `w` for a fixed lane, so two streams of equal length that differ in
//! one word never collide. Each lane is closed with the word count and
//! murmur3's `fmix64`, a bijective finalizer in which every input bit
//! flips each output bit with probability about one half. Streams that
//! differ in several words collide only when both lanes coincide, about
//! 2⁻¹²⁸ per pair for inputs not crafted against these public constants.
//! The constants are fixed and integers are fed by value, so a digest is
//! the same on every run and host.

use std::hash::Hasher;

/// A two-lane 128-bit word hasher (see the module docs).
#[derive(Clone, Debug)]
pub struct Fingerprinter {
    a: u64,
    b: u64,
    words: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    const SEED_A: u64 = 0x243f_6a88_85a3_08d3;
    const SEED_B: u64 = 0x1319_8a2e_0370_7344;
    const MUL_A: u64 = 0x9e37_79b9_7f4a_7c15;
    const MUL_B: u64 = 0xc2b2_ae3d_27d4_eb4f;

    /// A hasher with the fixed seeds.
    pub fn new() -> Self {
        Fingerprinter {
            a: Self::SEED_A,
            b: Self::SEED_B,
            words: 0,
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(Self::MUL_A).rotate_left(31);
        self.b = (self.b ^ w).wrapping_mul(Self::MUL_B).rotate_left(27);
        self.words += 1;
    }

    /// The 128-bit digest of everything written so far.
    pub fn finish128(&self) -> u128 {
        (u128::from(fmix64(self.a ^ self.words)) << 64) | u128::from(fmix64(self.b ^ self.words))
    }
}

/// murmur3's 64-bit finalizer.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

impl Hasher for Fingerprinter {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_u128(&mut self, i: u128) {
        self.word(i as u64);
        self.word((i >> 64) as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    fn finish(&self) -> u64 {
        self.finish128() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(words: &[u64]) -> u128 {
        let mut h = Fingerprinter::new();
        for &w in words {
            h.write_u64(w);
        }
        h.finish128()
    }

    #[test]
    fn one_word_changes_change_the_digest() {
        let base = digest(&[1, 2, 3, 4]);
        for i in 0..4 {
            let mut words = [1, 2, 3, 4];
            words[i] ^= 1 << 63;
            assert_ne!(digest(&words), base, "flipped the top bit of word {i}");
        }
        assert_eq!(
            digest(&[1, 2, 3, 4]),
            base,
            "fixed seeds: same input, same digest"
        );
    }

    #[test]
    fn word_count_separates_zero_padding() {
        assert_ne!(digest(&[]), digest(&[0]));
        assert_ne!(digest(&[0]), digest(&[0, 0]));
    }
}
