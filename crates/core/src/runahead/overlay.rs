//! Runahead's speculative store overlay.
//!
//! Runahead stores must be visible to later runahead loads but never
//! reach architectural memory. The overlay is a byte map keyed by
//! address: a read takes overlaid bytes from it and every other byte
//! from the architectural [`MemoryImage`], with wrapping address
//! arithmetic past `u64::MAX` (the semantics of [`MemoryImage::read`],
//! which therefore serves reads outright while the overlay is empty).
//!
//! The machine owns one overlay for its lifetime and clears it at each
//! episode entry; clearing keeps the table's capacity, so episodes after
//! the first do not allocate.

use ff_isa::mem_image::PageHasher;
use ff_isa::MemoryImage;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Speculative store overlay over architectural memory.
#[derive(Debug, Default)]
pub(super) struct StoreOverlay {
    bytes: HashMap<u64, u8, BuildHasherDefault<PageHasher>>,
}

impl StoreOverlay {
    /// Drops every overlaid store, keeping the table's capacity.
    pub(super) fn clear(&mut self) {
        self.bytes.clear();
    }

    /// Reads `size` bytes (1..=8) little-endian at `addr`: overlaid bytes
    /// from the overlay, the rest from `base`.
    pub(super) fn read(&self, base: &MemoryImage, addr: u64, size: u64) -> u64 {
        if self.bytes.is_empty() {
            return base.read(addr, size);
        }
        let mut v = 0u64;
        for i in 0..size {
            let a = addr.wrapping_add(i);
            let byte = self.bytes.get(&a).copied().unwrap_or_else(|| base.read_u8(a));
            v |= u64::from(byte) << (8 * i);
        }
        v
    }

    /// Overlays the low `size` bytes (1..=8) of `bits`, little-endian, at
    /// `addr`.
    pub(super) fn write(&mut self, addr: u64, size: u64, bits: u64) {
        for i in 0..size {
            self.bytes.insert(addr.wrapping_add(i), (bits >> (8 * i)) as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    //! Randomized oracle: the overlay against an ordered byte map read
    //! byte by byte, over random 1/2/4/8-byte writes and reads with the
    //! vendored deterministic `rand`.

    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::collections::BTreeMap;

    /// The reference semantics: each overlaid byte keyed by its address.
    fn oracle_read(bytes: &BTreeMap<u64, u8>, base: &MemoryImage, addr: u64, size: u64) -> u64 {
        let mut v = 0u64;
        for i in 0..size {
            let a = addr.wrapping_add(i);
            let byte = bytes.get(&a).copied().unwrap_or_else(|| base.read_u8(a));
            v |= u64::from(byte) << (8 * i);
        }
        v
    }

    fn oracle_write(bytes: &mut BTreeMap<u64, u8>, addr: u64, size: u64, bits: u64) {
        for i in 0..size {
            bytes.insert(addr.wrapping_add(i), (bits >> (8 * i)) as u8);
        }
    }

    /// Draws an `(addr, size)` pair from a few narrow windows so accesses
    /// collide often: one straddling a page boundary (and so 8-byte word
    /// boundaries), one at the top of the address space wrapping to 0,
    /// one at the bottom, and one just past a page-aligned address.
    fn gen_access(rng: &mut StdRng) -> (u64, u64) {
        let size = [1u64, 2, 4, 8][rng.gen_range(0usize..4)];
        let addr = match rng.gen_range(0u32..4) {
            0 => 0x1000 - 24 + rng.gen_range(0u64..48),
            1 => u64::MAX - rng.gen_range(0u64..24),
            2 => rng.gen_range(0u64..24),
            _ => 0x20_0000 + rng.gen_range(0u64..24),
        };
        (addr, size)
    }

    /// Architectural memory with known, nonzero contents in every window
    /// `gen_access` draws from, plus untouched holes that read as zero.
    fn base_image(rng: &mut StdRng) -> MemoryImage {
        let mut base = MemoryImage::new();
        for _ in 0..16 {
            let (addr, size) = gen_access(rng);
            base.write(addr, size, rng.next_u64());
        }
        base
    }

    #[test]
    fn overlay_matches_byte_map_oracle() {
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = base_image(&mut rng);
            let mut overlay = StoreOverlay::default();
            let mut oracle = BTreeMap::new();
            for step in 0..200 {
                let (addr, size) = gen_access(&mut rng);
                if rng.gen_bool(0.4) {
                    let bits = rng.next_u64();
                    overlay.write(addr, size, bits);
                    oracle_write(&mut oracle, addr, size, bits);
                } else {
                    assert_eq!(
                        overlay.read(&base, addr, size),
                        oracle_read(&oracle, &base, addr, size),
                        "seed {seed} step {step}: read {size} bytes at {addr:#x}"
                    );
                }
                if rng.gen_bool(0.02) {
                    // An episode boundary: the next episode starts clean.
                    overlay.clear();
                    oracle.clear();
                }
            }
        }
    }

    #[test]
    fn empty_overlay_reads_architectural_memory() {
        let mut rng = StdRng::seed_from_u64(7);
        let base = base_image(&mut rng);
        let mut overlay = StoreOverlay::default();
        for _ in 0..2 {
            for _ in 0..1_000 {
                let (addr, size) = gen_access(&mut rng);
                assert_eq!(overlay.read(&base, addr, size), base.read(addr, size));
            }
            // A cleared overlay is empty again.
            overlay.write(0x20_0000, 8, u64::MAX);
            overlay.clear();
        }
    }

    #[test]
    fn wrapping_store_splits_across_the_address_space_end() {
        let base = MemoryImage::new();
        let mut overlay = StoreOverlay::default();
        overlay.write(u64::MAX - 3, 8, 0x0102_0304_0506_0708);
        assert_eq!(overlay.read(&base, u64::MAX - 3, 8), 0x0102_0304_0506_0708);
        assert_eq!(overlay.read(&base, u64::MAX, 1), 0x05);
        assert_eq!(overlay.read(&base, 0, 4), 0x0102_0304);
        assert_eq!(overlay.read(&base, 4, 4), 0, "bytes past the store read the base");
    }
}
