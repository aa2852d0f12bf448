//! 64-bit state fingerprinting.
//!
//! TLC deduplicates its state space with 64-bit fingerprints rather
//! than storing full states. We mix 8-byte words with an FNV-style
//! xor-multiply round plus a rotation (so high input bits diffuse
//! too), over a canonical value encoding: collision-free in practice
//! at the state-space sizes this repository explores (≤ a few million
//! states), deterministic across runs and platforms, and
//! allocation-free. Word-wise mixing is ~8× fewer multiply rounds
//! than the previous byte-at-a-time FNV-1a on the same input.
//!
//! Plain byte-at-a-time 64-bit FNV-1a ([`fnv1a`]) stays the identity
//! hash of printed text — test cases are keyed by it — and [`FnvJump`]
//! folds a fixed text into a running FNV-1a in one step.

use crate::value::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running 64-bit FNV-1a hash `h`: the hash of
/// a text is `fnv1a(0xcbf2_9ce4_8422_2325, text)`, and hashing two
/// pieces in turn is hashing their concatenation.
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// [`fnv1a`] over one fixed text, from any running hash, in one
/// multiply-add: `FnvJump::of(text).apply(h) == fnv1a(h, text)`.
///
/// A round `h ← (h ^ b)·P mod 2⁶⁴` reads only the low byte of `h` to
/// set the low byte of the result (the xor touches bits 0–7, and
/// multiplication carries upward only). So for `h = H + lo`, `lo = h &
/// 0xff`, every round keeps the form `H·Pᵏ + g_k(lo)`, and after `n`
/// bytes `fnv1a(h, text) = h·Pⁿ + (fnv1a(lo, text) − lo·Pⁿ)`: one table
/// entry per possible low byte, 2 KB per text.
pub(crate) struct FnvJump {
    /// `Pⁿ` for a text of `n` bytes.
    pow: u64,
    /// `add[lo] = fnv1a(lo, text) − lo·Pⁿ`.
    add: [u64; 256],
}

impl FnvJump {
    /// Runs `text` once from each of the 256 low bytes.
    pub(crate) fn of(text: &[u8]) -> Box<FnvJump> {
        let mut jump = Box::new(FnvJump {
            pow: 1,
            add: std::array::from_fn(|lo| lo as u64),
        });
        for &b in text {
            jump.pow = jump.pow.wrapping_mul(FNV_PRIME);
            for add in &mut jump.add {
                *add = (*add ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        let pow = jump.pow;
        for (lo, add) in jump.add.iter_mut().enumerate() {
            *add = add.wrapping_sub((lo as u64).wrapping_mul(pow));
        }
        jump
    }

    /// `fnv1a(h, text)`.
    #[inline]
    pub(crate) fn apply(&self, h: u64) -> u64 {
        h.wrapping_mul(self.pow).wrapping_add(self.add[(h & 0xff) as usize])
    }
}

/// Incremental word-wise fingerprinter over canonical value encodings.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    hash: u64,
}

impl Fingerprinter {
    /// Creates a fresh fingerprinter.
    pub fn new() -> Self {
        Fingerprinter { hash: FNV_OFFSET }
    }

    /// Mixes a single byte (kind tags, booleans).
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.hash ^= u64::from(b);
        self.hash = self.hash.wrapping_mul(FNV_PRIME);
    }

    /// Mixes a full 64-bit word in one round. The multiply only
    /// diffuses upward, so a rotation follows to feed high bits back
    /// into the low half before the next round; `to_le_bytes`-based
    /// callers stay stable across platforms.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash ^ v).wrapping_mul(FNV_PRIME).rotate_left(29);
    }

    /// Mixes a length-prefixed string, 8 bytes at a time (the tail is
    /// zero-padded; the length prefix disambiguates it).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        let bytes = s.as_bytes();
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    /// Mixes a value via its canonical encoding (kind tag, then
    /// content; collections are length-prefixed and iterate in their
    /// canonical order, so logically equal values hash equally).
    pub fn write_value(&mut self, v: &Value) {
        match v {
            Value::Nil => self.write_u8(0),
            Value::Bool(b) => {
                self.write_u8(1);
                self.write_u8(u8::from(*b));
            }
            Value::Int(i) => {
                self.write_u8(2);
                self.write_u64(*i as u64);
            }
            Value::Str(s) => {
                self.write_u8(3);
                self.write_str(s);
            }
            Value::Set(s) => {
                self.write_u8(4);
                self.write_u64(s.len() as u64);
                for x in s {
                    self.write_value(x);
                }
            }
            Value::Seq(s) => {
                self.write_u8(5);
                self.write_u64(s.len() as u64);
                for x in s {
                    self.write_value(x);
                }
            }
            Value::Record(r) => {
                self.write_u8(6);
                self.write_u64(r.len() as u64);
                for (k, x) in r {
                    self.write_str(k);
                    self.write_value(x);
                }
            }
            Value::Fun(f) => {
                self.write_u8(7);
                self.write_u64(f.len() as u64);
                for (k, x) in f {
                    self.write_value(k);
                    self.write_value(x);
                }
            }
        }
    }

    /// Finalizes and returns the fingerprint.
    pub fn finish(&self) -> u64 {
        // One extra avalanche round (splitmix64 finalizer) so short
        // inputs still spread across all 64 bits.
        let mut z = self.hash;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

/// Fingerprints a single value.
pub fn fingerprint_value(v: &Value) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_value(v);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{vseq, vset};

    #[test]
    fn deterministic() {
        let v = vset![1, 2, 3];
        assert_eq!(fingerprint_value(&v), fingerprint_value(&v.clone()));
    }

    #[test]
    fn kind_tag_distinguishes_empty_collections() {
        assert_ne!(
            fingerprint_value(&Value::empty_set()),
            fingerprint_value(&Value::empty_seq())
        );
    }

    #[test]
    fn seq_order_matters_set_order_does_not() {
        assert_ne!(
            fingerprint_value(&vseq![1, 2]),
            fingerprint_value(&vseq![2, 1])
        );
        assert_eq!(
            fingerprint_value(&vset![1, 2]),
            fingerprint_value(&vset![2, 1])
        );
    }

    #[test]
    fn nested_values_hash_structurally() {
        let a = Value::record([("log", vseq![1, 2]), ("set", vset![3])]);
        let b = Value::record([("set", vset![3]), ("log", vseq![1, 2])]);
        assert_eq!(fingerprint_value(&a), fingerprint_value(&b));
    }

    #[test]
    fn small_int_fingerprints_spread() {
        // The avalanche finalizer should make consecutive ints differ
        // in roughly half of all bits; just check they're far apart.
        let a = fingerprint_value(&Value::Int(1));
        let b = fingerprint_value(&Value::Int(2));
        assert!((a ^ b).count_ones() > 8, "poor spread: {a:x} vs {b:x}");
    }

    #[test]
    fn golden_values_are_stable() {
        // Pinned outputs of the word-wise mixer: any change to the
        // fingerprint function must update these deliberately, since
        // fingerprints index persisted state graphs.
        assert_eq!(fingerprint_value(&Value::Nil), 0x25fc_6dd3_6ce0_4b20);
        assert_eq!(fingerprint_value(&Value::Int(42)), 0xd428_e955_8ecb_f87c);
        assert_eq!(fingerprint_value(&Value::str("Leader")), 0xef8a_6a09_2e2d_9b10);
        assert_eq!(fingerprint_value(&vseq![1, 2, 3]), 0x0de1_521c_c159_f2e3);
    }

    #[test]
    fn fnv1a_is_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), fnv1a(FNV_OFFSET, b"foobar"));
    }

    #[test]
    fn a_jump_is_the_byte_loop_from_every_running_hash() {
        // SplitMix64: the same 10,360 `(h, text)` pairs on every run.
        let mut seed = 25u64;
        let mut next = || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let utf8 = "ünïcödé ✓ 𝄞 /\\ ".repeat(20);
        let mut texts: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"\n".to_vec(),
            utf8.as_bytes().to_vec(),
            // Cut inside a multi-byte character.
            utf8.as_bytes()[..7].to_vec(),
        ];
        for len in [1, 2, 7, 8, 9, 255, 256, 257, 300] {
            texts.push((0..len).map(|_| next() as u8).collect());
        }
        while texts.len() < 40 {
            let len = (next() % 64) as usize;
            texts.push((0..len).map(|_| next() as u8).collect());
        }
        for text in &texts {
            let jump = FnvJump::of(text);
            // Every low byte once under random high bits, and the edges.
            let hs: Vec<u64> = (0..256).map(|lo| next() & !0xff | lo).collect();
            for h in hs.into_iter().chain([0, u64::MAX, FNV_OFFSET]) {
                assert_eq!(jump.apply(h), fnv1a(h, text), "h={h:#x} text={text:?}");
            }
        }
    }

    #[test]
    fn string_length_prefix_prevents_concat_collisions() {
        let a = {
            let mut f = Fingerprinter::new();
            f.write_str("ab");
            f.write_str("c");
            f.finish()
        };
        let b = {
            let mut f = Fingerprinter::new();
            f.write_str("a");
            f.write_str("bc");
            f.finish()
        };
        assert_ne!(a, b);
    }
}
