//! Address geometry shared by all memory structures.

use std::fmt;

/// A cache-line address: the byte address shifted right by the line size.
///
/// Using a newtype keeps line numbers and byte addresses from being mixed
/// up across the many structures that traffic in lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The next sequential line.
    pub fn next(self) -> LineAddr {
        LineAddr(self.0 + 1)
    }

    /// The byte address of the first byte in the line.
    pub fn to_bytes(self, line_bytes: u32) -> u64 {
        self.0 * line_bytes as u64
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Size and line geometry of a direct-mapped structure.
///
/// ```
/// use aurora_mem::Geometry;
/// let g = Geometry::new(16 * 1024, 32);
/// assert_eq!(g.num_lines(), 512);
/// assert_eq!(g.line(0x43), g.line(0x5f));
/// assert_ne!(g.index(0x0), g.index(0x20));
/// // Addresses one cache-size apart share an index but differ in tag.
/// assert_eq!(g.index(0x100), g.index(0x100 + 16 * 1024));
/// assert_ne!(g.tag(0x100), g.tag(0x100 + 16 * 1024));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    size_bytes: u32,
    line_bytes: u32,
    line_shift: u32,
    index_mask: u64,
}

impl Geometry {
    /// Creates a geometry for a structure of `size_bytes` split into
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless both sizes are powers of two and
    /// `size_bytes >= line_bytes`.
    pub fn new(size_bytes: u32, line_bytes: u32) -> Geometry {
        assert!(
            size_bytes.is_power_of_two(),
            "size {size_bytes} not a power of two"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line {line_bytes} not a power of two"
        );
        assert!(size_bytes >= line_bytes);
        Geometry {
            size_bytes,
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            index_mask: (size_bytes / line_bytes - 1) as u64,
        }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.size_bytes
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Number of lines (sets, for a direct-mapped structure).
    pub fn num_lines(&self) -> u32 {
        self.size_bytes / self.line_bytes
    }

    /// The line containing byte address `addr`.
    pub fn line(&self, addr: u64) -> LineAddr {
        LineAddr(addr >> self.line_shift)
    }

    /// The direct-mapped set index for byte address `addr`.
    pub fn index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.index_mask) as usize
    }

    /// The tag for byte address `addr` (the line bits above the index).
    pub fn tag(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) >> (self.index_mask.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn geometry_basic() {
        let g = Geometry::new(1024, 32);
        assert_eq!(g.num_lines(), 32);
        assert_eq!(g.line_bytes(), 32);
        assert_eq!(g.size_bytes(), 1024);
        assert_eq!(g.line(0).0, 0);
        assert_eq!(g.line(31).0, 0);
        assert_eq!(g.line(32).0, 1);
        assert_eq!(g.index(1024), 0);
        assert_eq!(g.index(1024 + 32), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        Geometry::new(1000, 32);
    }

    #[test]
    fn line_addr_helpers() {
        let l = LineAddr(5);
        assert_eq!(l.next(), LineAddr(6));
        assert_eq!(l.to_bytes(32), 160);
        assert_eq!(l.to_string(), "L0x5");
    }

    proptest! {
        /// index/tag decomposition uniquely identifies a line.
        #[test]
        fn index_tag_uniquely_identify_line(
            a in 0u64..1 << 34,
            b in 0u64..1 << 34,
            size_pow in 10u32..18,
            line_pow in 4u32..7,
        ) {
            let g = Geometry::new(1 << size_pow, 1 << line_pow);
            let same_line = g.line(a) == g.line(b);
            let same_slot = g.index(a) == g.index(b) && g.tag(a) == g.tag(b);
            prop_assert_eq!(same_line, same_slot);
        }

        /// All indices are within range.
        #[test]
        fn index_in_range(a in any::<u64>()) {
            let g = Geometry::new(4096, 32);
            prop_assert!(g.index(a) < g.num_lines() as usize);
        }
    }
}
