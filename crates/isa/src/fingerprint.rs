//! Stable 64-bit FNV-1a fingerprinting.
//!
//! Several layers of the workspace need a hash that is *stable across
//! processes, builds and platforms* — unlike `std::hash`, whose output
//! is explicitly unspecified and randomised per process:
//!
//! * [`Workload::content_hash`](../aurora_workloads/struct.Workload.html)
//!   keys the in-memory trace store and the result store's trace hash by
//!   kernel content,
//! * `MachineConfig::fingerprint` (in `aurora-core`) keys memoised
//!   simulation results by configuration,
//! * the `aurora-serve` result store checksums its on-disk records.
//!
//! All of them write their fields through one [`Fnv1a`] so the byte
//! streams (and therefore the fingerprints) are reproducible anywhere.
//! FNV-1a is not cryptographic; it is used for cache keying and
//! corruption detection, never for security.
//!
//! ```
//! use aurora_isa::Fnv1a;
//!
//! let mut h = Fnv1a::new();
//! h.write_u32(17);
//! h.write(b"baseline");
//! let a = h.finish();
//!
//! let mut h2 = Fnv1a::new();
//! h2.write_u32(17);
//! h2.write(b"baseline");
//! // Same field sequence, same fingerprint — in any process, on any host.
//! assert_eq!(a, h2.finish());
//! ```

/// 64-bit FNV-1a offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental, allocation-free 64-bit FNV-1a hasher with a stable,
/// platform-independent output (multi-byte integers are folded in as
/// little-endian bytes).
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Starts a fingerprint at the standard FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(OFFSET)
    }

    /// Folds raw bytes into the fingerprint.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Folds a `u16` (little-endian).
    pub fn write_u16(&mut self, v: u16) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to `u64` so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a boolean as one `0`/`1` byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Folds a string's UTF-8 bytes, length-prefixed so `("ab", "c")`
    /// and `("a", "bc")` fingerprint differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The fingerprint of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// One-shot convenience: the FNV-1a fingerprint of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn field_writers_are_order_sensitive() {
        let mut a = Fnv1a::new();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = Fnv1a::new();
        b.write_u32(2);
        b.write_u32(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn str_length_prefix_disambiguates_concatenation() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn usize_widens_to_u64() {
        let mut a = Fnv1a::new();
        a.write_usize(7);
        let mut b = Fnv1a::new();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
