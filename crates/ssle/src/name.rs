//! Agent names for `Sublinear-Time-SSR`: bitstrings of length up to
//! `3·log₂ n`.
//!
//! After a reset, each agent draws a fresh uniformly random name of exactly
//! `3·log₂ n` bits, one bit per interaction while it is dormant. With `n³`
//! possible values, a union bound over the `C(n,2)` pairs shows all names are
//! distinct with probability `1 − O(1/n)` (Lemma 5.1). Ranks are then the
//! lexicographic positions of the names in the collected roster.
//!
//! Names are ordered lexicographically *as bitstrings* (a strict prefix sorts
//! before its extensions), matching the paper's use of lexicographic order on
//! `{0,1}^{≤3·log₂ n}`.

use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// A bitstring name of length at most 64 bits.
///
/// # Example
///
/// ```
/// use ssle::Name;
/// let mut a = Name::empty();
/// a.push_bit(true);
/// a.push_bit(false);
/// assert_eq!(a.len(), 2);
/// assert_eq!(a.to_string(), "10");
/// let b = Name::from_bits(&[true, false, true]);
/// assert!(a < b); // "10" is a prefix of "101"
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Name {
    /// Bit `i` (0-based, the `i`-th appended bit) is stored at position `i`.
    bits: u64,
    len: u8,
}

impl Name {
    /// The empty name `ε` (the value agents hold while a reset is
    /// propagating).
    pub fn empty() -> Self {
        Name { bits: 0, len: 0 }
    }

    /// Builds a name from bits, first bit first.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 bits are given.
    pub fn from_bits(bits: &[bool]) -> Self {
        assert!(bits.len() <= 64, "names are limited to 64 bits");
        let mut name = Name::empty();
        for &bit in bits {
            name.push_bit(bit);
        }
        name
    }

    /// Draws a uniformly random name of exactly `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn random(len: u32, rng: &mut impl Rng) -> Self {
        assert!(len <= 64, "names are limited to 64 bits");
        let mask = if len == 64 { u64::MAX } else { (1u64 << len) - 1 };
        Name { bits: rng.gen::<u64>() & mask, len: len as u8 }
    }

    /// Appends one bit to the name.
    ///
    /// # Panics
    ///
    /// Panics if the name already has 64 bits.
    pub fn push_bit(&mut self, bit: bool) {
        assert!(self.len < 64, "names are limited to 64 bits");
        if bit {
            self.bits |= 1u64 << self.len;
        }
        self.len += 1;
    }

    /// The `i`-th bit (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len as usize, "bit index out of range");
        (self.bits >> i) & 1 == 1
    }

    /// The number of bits in the name.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the name is the empty string `ε`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the name has reached its full target length.
    pub fn is_complete(&self, target_bits: u32) -> bool {
        self.len as u32 >= target_bits
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lexicographic order on bitstrings: the first differing bit among the
        // common prefix decides (bit 0 is the first bit, so that is the lowest
        // set bit of the XOR); with no difference, the shorter name is a
        // prefix of the longer and sorts first.
        let common = u32::from(self.len.min(other.len));
        let mask = 1u64.checked_shl(common).unwrap_or(0).wrapping_sub(1);
        let diff = (self.bits ^ other.bits) & mask;
        if diff == 0 {
            self.len.cmp(&other.len)
        } else if (self.bits >> diff.trailing_zeros()) & 1 == 0 {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "ε");
        }
        for i in 0..self.len() {
            write!(f, "{}", if self.bit(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

    #[test]
    fn push_and_read_bits() {
        let mut n = Name::empty();
        assert!(n.is_empty());
        n.push_bit(true);
        n.push_bit(false);
        n.push_bit(true);
        assert_eq!(n.len(), 3);
        assert!(n.bit(0));
        assert!(!n.bit(1));
        assert!(n.bit(2));
        assert!(n.is_complete(3));
        assert!(!n.is_complete(4));
    }

    #[test]
    fn display_shows_bits_in_order() {
        let n = Name::from_bits(&[true, false, false, true]);
        assert_eq!(n.to_string(), "1001");
        assert_eq!(Name::empty().to_string(), "ε");
    }

    #[test]
    fn lexicographic_order_matches_bitstring_semantics() {
        let e = Name::empty();
        let zero = Name::from_bits(&[false]);
        let one = Name::from_bits(&[true]);
        let zero_zero = Name::from_bits(&[false, false]);
        let zero_one = Name::from_bits(&[false, true]);
        // ε < 0 < 00 < 01 < 1
        let mut sorted = vec![one, zero_zero, e, zero_one, zero];
        sorted.sort();
        assert_eq!(sorted, vec![e, zero, zero_zero, zero_one, one]);
    }

    #[test]
    fn equal_length_order_is_numeric_on_reversed_bits() {
        // For equal lengths, lexicographic order compares the first bit first.
        let a = Name::from_bits(&[false, true, true]);
        let b = Name::from_bits(&[true, false, false]);
        assert!(a < b);
    }

    #[test]
    fn random_names_have_requested_length_and_rarely_collide() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let names: BTreeSet<Name> = (0..200).map(|_| Name::random(30, &mut rng)).collect();
        assert!(names.iter().all(|n| n.len() == 30));
        // With 2^30 possibilities, 200 draws collide with probability < 2e-5.
        assert_eq!(names.len(), 200);
    }

    #[test]
    fn random_respects_length_mask() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..100 {
            let n = Name::random(5, &mut rng);
            assert_eq!(n.len(), 5);
            assert!(n.bits < 32);
        }
    }

    /// The bit-by-bit lexicographic comparison `Name::cmp` must agree with.
    fn cmp_bit_by_bit(a: &Name, b: &Name) -> Ordering {
        let common = a.len().min(b.len());
        for i in 0..common {
            match (a.bit(i), b.bit(i)) {
                (false, true) => return Ordering::Less,
                (true, false) => return Ordering::Greater,
                _ => {}
            }
        }
        a.len().cmp(&b.len())
    }

    #[test]
    fn order_matches_the_bit_by_bit_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        // Random names of every length 0..=64, and the all-zero and all-one
        // names of every length.
        let mut names = Vec::new();
        for len in 0..=64 {
            names.extend((0..4).map(|_| Name::random(len as u32, &mut rng)));
            names.push(Name::from_bits(&vec![false; len]));
            names.push(Name::from_bits(&vec![true; len]));
        }
        // Every strict prefix of a few length-64 names, and one length-64
        // name with each single bit flipped (a first difference at every
        // position).
        for _ in 0..4 {
            let bits: Vec<bool> = (0..64).map(|_| rng.gen_bool(0.5)).collect();
            names.extend((0..64).map(|k| Name::from_bits(&bits[..k])));
            names.push(Name::from_bits(&bits));
        }
        let bits: Vec<bool> = (0..64).map(|_| rng.gen_bool(0.5)).collect();
        names.extend((0..64).map(|i| {
            let mut flipped = bits.clone();
            flipped[i] = !flipped[i];
            Name::from_bits(&flipped)
        }));
        for a in &names {
            for b in &names {
                assert_eq!(a.cmp(b), cmp_bit_by_bit(a, b), "{a} vs {b}");
                assert_eq!(a.cmp(b) == Ordering::Equal, a == b, "{a} vs {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "64 bits")]
    fn overlong_names_rejected() {
        let mut n = Name::empty();
        for _ in 0..65 {
            n.push_bit(true);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let n = Name::from_bits(&[true]);
        let _ = n.bit(1);
    }
}
