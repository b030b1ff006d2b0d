//! L006 fixture.

pub fn encode(x: u64) -> u16 {
    x as u16 // FIRE: L006 (unchecked narrowing cast)
}
