//! Sparse byte-addressable data memory.
//!
//! [`MemoryImage`] is the functional data memory shared by the golden
//! interpreter and the pipeline models' architectural state. It is a
//! sparse page map: reads of never-written addresses return zero and do
//! not allocate, so wrong-path or wild loads cannot blow up the footprint.
//!
//! The page map is tuned for the simulator's hot loop: pages live in a
//! dense slot vector behind a `page number -> slot` index with a cheap
//! multiplicative hasher, accesses that fit inside one page take a
//! single lookup (not one per byte), and a one-entry last-page cache —
//! refreshed by every `&mut` access — short-circuits the index for the
//! common run of touches to the same page. Accesses that straddle a
//! page boundary (including address-space wraparound past `u64::MAX`)
//! fall back to a byte-wise slow path with wrapping address arithmetic.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Bytes per backing page.
const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Sentinel slot marking the last-page cache as empty.
const NO_SLOT: u32 = u32::MAX;

/// Multiplicative (Fibonacci) hasher for page numbers. Page keys are
/// single `u64`s with low entropy in the high bits, so a multiply by
/// the golden-ratio constant plus an xor-shift disperses them far more
/// cheaply than the default SipHash.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let x = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}

type PageIndex = HashMap<u64, u32, BuildHasherDefault<PageHasher>>;

/// Sparse, byte-addressable 64-bit memory.
///
/// # Examples
///
/// ```
/// use ff_isa::MemoryImage;
///
/// let mut mem = MemoryImage::new();
/// mem.write_u64(0x1000, 42);
/// assert_eq!(mem.read_u64(0x1000), 42);
/// // Unwritten memory reads as zero.
/// assert_eq!(mem.read_u64(0xdead_beef), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryImage {
    /// Page number -> slot in `pages`. Pages are never deallocated, so
    /// slots are stable for the lifetime of the image.
    slots: PageIndex,
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Last-touched `(page number, slot)`; `NO_SLOT` when empty. Only
    /// `&mut self` accessors refresh it, which keeps the type `Sync`
    /// for the parallel sweep engine.
    last_page: u64,
    last_slot: u32,
}

/// Two images are equal when the same set of pages is resident with the
/// same contents; the last-page cache is a lookup accelerator, not
/// state.
impl PartialEq for MemoryImage {
    fn eq(&self, other: &Self) -> bool {
        self.slots.len() == other.slots.len()
            && self.slots.iter().all(|(&page, &slot)| {
                other
                    .slots
                    .get(&page)
                    .is_some_and(|&o| other.pages[o as usize] == self.pages[slot as usize])
            })
    }
}

/// The empty memory, with the last-page cache marked empty (a derived
/// `Default` would zero `last_slot` and make page 0 look cached).
impl Default for MemoryImage {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryImage {
    /// Creates an empty memory; every address reads as zero.
    #[must_use]
    pub fn new() -> Self {
        Self { slots: PageIndex::default(), pages: Vec::new(), last_page: 0, last_slot: NO_SLOT }
    }

    /// Number of resident (written) pages; useful for footprint assertions
    /// in tests.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The slot holding `page`, if resident. Consults the last-page
    /// cache but cannot refresh it (`&self`).
    #[inline]
    fn slot_of(&self, page: u64) -> Option<u32> {
        if self.last_slot != NO_SLOT && self.last_page == page {
            return Some(self.last_slot);
        }
        self.slots.get(&page).copied()
    }

    /// Like [`Self::slot_of`], refreshing the last-page cache on an
    /// index hit.
    #[inline]
    fn slot_of_mut(&mut self, page: u64) -> Option<u32> {
        if self.last_slot != NO_SLOT && self.last_page == page {
            return Some(self.last_slot);
        }
        let slot = self.slots.get(&page).copied();
        if let Some(s) = slot {
            self.last_page = page;
            self.last_slot = s;
        }
        slot
    }

    /// The slot holding `page`, allocating a zeroed page if absent, and
    /// refreshing the last-page cache either way.
    #[inline]
    fn slot_or_alloc(&mut self, page: u64) -> u32 {
        if self.last_slot != NO_SLOT && self.last_page == page {
            return self.last_slot;
        }
        let next = self.pages.len() as u32;
        let slot = *self.slots.entry(page).or_insert(next);
        if slot == next {
            self.pages.push(Box::new([0u8; PAGE_SIZE]));
        }
        self.last_page = page;
        self.last_slot = slot;
        slot
    }

    /// Reads a single byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.slot_of(addr >> PAGE_SHIFT) {
            Some(slot) => self.pages[slot as usize][(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes a single byte, allocating the containing page if needed.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let slot = self.slot_or_alloc(addr >> PAGE_SHIFT);
        self.pages[slot as usize][(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `size` bytes (1..=8) little-endian, zero-extended to 64 bits.
    ///
    /// Accesses contained in one page take a single page lookup;
    /// page-straddling accesses (including wraparound past `u64::MAX`,
    /// which continues byte-wise at address 0) fall back to the
    /// byte-wise slow path.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or greater than 8.
    #[must_use]
    pub fn read(&self, addr: u64, size: u64) -> u64 {
        assert!((1..=8).contains(&size), "access size {size} out of range");
        let off = (addr & PAGE_MASK) as usize;
        let size_b = size as usize;
        if off + size_b <= PAGE_SIZE {
            let mut buf = [0u8; 8];
            if let Some(slot) = self.slot_of(addr >> PAGE_SHIFT) {
                buf[..size_b].copy_from_slice(&self.pages[slot as usize][off..off + size_b]);
            }
            return u64::from_le_bytes(buf);
        }
        self.read_straddle(addr, size)
    }

    /// Reads like [`Self::read`], additionally refreshing the last-page
    /// cache so runs of accesses to the same page skip the page index.
    /// The pipeline models and the interpreter, which own their memory,
    /// use this on the load path.
    #[must_use]
    pub fn load(&mut self, addr: u64, size: u64) -> u64 {
        assert!((1..=8).contains(&size), "access size {size} out of range");
        let off = (addr & PAGE_MASK) as usize;
        let size_b = size as usize;
        if off + size_b <= PAGE_SIZE {
            let mut buf = [0u8; 8];
            if let Some(slot) = self.slot_of_mut(addr >> PAGE_SHIFT) {
                buf[..size_b].copy_from_slice(&self.pages[slot as usize][off..off + size_b]);
            }
            return u64::from_le_bytes(buf);
        }
        self.read_straddle(addr, size)
    }

    /// Byte-wise slow path for page-straddling reads; wrapping address
    /// arithmetic makes an access that runs past `u64::MAX` continue at
    /// address 0, mirroring the historical byte-loop semantics.
    #[cold]
    fn read_straddle(&self, addr: u64, size: u64) -> u64 {
        let mut value = 0u64;
        for i in 0..size {
            value |= u64::from(self.read_u8(addr.wrapping_add(i))) << (8 * i);
        }
        value
    }

    /// Writes the low `size` bytes (1..=8) of `value` little-endian.
    ///
    /// Same fast/slow-path split as [`Self::read`]: one page lookup
    /// when the access fits in a page, byte-wise with wraparound when
    /// it straddles.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or greater than 8.
    pub fn write(&mut self, addr: u64, size: u64, value: u64) {
        assert!((1..=8).contains(&size), "access size {size} out of range");
        let off = (addr & PAGE_MASK) as usize;
        let size_b = size as usize;
        if off + size_b <= PAGE_SIZE {
            let slot = self.slot_or_alloc(addr >> PAGE_SHIFT);
            let bytes = value.to_le_bytes();
            self.pages[slot as usize][off..off + size_b].copy_from_slice(&bytes[..size_b]);
            return;
        }
        self.write_straddle(addr, size, value);
    }

    /// Byte-wise slow path for page-straddling writes.
    #[cold]
    fn write_straddle(&mut self, addr: u64, size: u64, value: u64) {
        for i in 0..size {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Reads an 8-byte little-endian word.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, 8)
    }

    /// Writes an 8-byte little-endian word.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, 8, value);
    }

    /// Reads an 8-byte IEEE-754 double.
    #[must_use]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an 8-byte IEEE-754 double.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Writes a slice of 64-bit words starting at `addr` (8-byte stride).
    pub fn write_u64s(&mut self, addr: u64, values: &[u64]) {
        for (i, v) in values.iter().enumerate() {
            self.write_u64(addr + 8 * i as u64, *v);
        }
    }

    /// Writes a slice of doubles starting at `addr` (8-byte stride).
    pub fn write_f64s(&mut self, addr: u64, values: &[f64]) {
        for (i, v) in values.iter().enumerate() {
            self.write_f64(addr + 8 * i as u64, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero_without_allocating() {
        let mem = MemoryImage::new();
        assert_eq!(mem.read(0, 8), 0);
        assert_eq!(mem.read(u64::MAX - 7, 8), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn read_write_round_trip_all_sizes() {
        let mut mem = MemoryImage::new();
        for size in 1..=8u64 {
            let v = 0x1122_3344_5566_7788u64;
            mem.write(0x2000, size, v);
            let mask = if size == 8 { u64::MAX } else { (1 << (8 * size)) - 1 };
            assert_eq!(mem.read(0x2000, size), v & mask, "size {size}");
            assert_eq!(mem.load(0x2000, size), v & mask, "load size {size}");
        }
    }

    #[test]
    fn writes_are_little_endian() {
        let mut mem = MemoryImage::new();
        mem.write(0x100, 4, 0xAABB_CCDD);
        assert_eq!(mem.read_u8(0x100), 0xDD);
        assert_eq!(mem.read_u8(0x103), 0xAA);
    }

    #[test]
    fn page_crossing_access_round_trips() {
        let mut mem = MemoryImage::new();
        let addr = (1 << PAGE_SHIFT) - 3; // straddles the first page boundary
        mem.write_u64(addr, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(addr), 0x0102_0304_0506_0708);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn every_straddling_offset_round_trips() {
        // Each access size at each offset that makes it cross the page
        // boundary, interleaved with neighbor checks: the fast path and
        // the byte-wise slow path must agree byte for byte.
        for size in 2..=8u64 {
            for back in 1..size {
                let mut mem = MemoryImage::new();
                let addr = (1u64 << PAGE_SHIFT) - back;
                let v = 0xA1B2_C3D4_E5F6_0718u64;
                let mask = if size == 8 { u64::MAX } else { (1 << (8 * size)) - 1 };
                mem.write(addr, size, v);
                assert_eq!(mem.read(addr, size), v & mask, "size {size} back {back}");
                assert_eq!(mem.resident_pages(), 2, "size {size} back {back}");
                // Bytes outside the access stay zero.
                assert_eq!(mem.read_u8(addr - 1), 0);
                assert_eq!(mem.read_u8(addr.wrapping_add(size)), 0);
            }
        }
    }

    #[test]
    fn access_at_top_of_address_space_round_trips() {
        // u64::MAX - 7: the 8-byte access ends exactly at the last byte
        // of the address space — in one page, no wraparound.
        let mut mem = MemoryImage::new();
        mem.write_u64(u64::MAX - 7, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(mem.read_u64(u64::MAX - 7), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    fn access_wrapping_past_address_space_end_wraps_to_zero() {
        // u64::MAX - 3: the 8-byte access covers the last four bytes of
        // the address space and wraps to bytes 0..=3 of address 0,
        // matching the byte-loop semantics (wrapping_add per byte).
        let mut mem = MemoryImage::new();
        mem.write_u64(u64::MAX - 3, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(u64::MAX - 3), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u8(0), 0x04);
        assert_eq!(mem.read_u8(3), 0x01);
        assert_eq!(mem.read_u8(u64::MAX), 0x05);
        assert_eq!(mem.resident_pages(), 2);
        // The wrapped prefix is readable as its own access at 0.
        assert_eq!(mem.read(0, 4), 0x0102_0304);
    }

    #[test]
    fn partial_write_preserves_neighbors() {
        let mut mem = MemoryImage::new();
        mem.write_u64(0x40, u64::MAX);
        mem.write(0x42, 2, 0);
        assert_eq!(mem.read_u64(0x40), 0xFFFF_FFFF_0000_FFFF);
    }

    #[test]
    fn f64_round_trips() {
        let mut mem = MemoryImage::new();
        mem.write_f64(0x80, -3.25);
        assert_eq!(mem.read_f64(0x80), -3.25);
    }

    #[test]
    fn bulk_writers_use_word_stride() {
        let mut mem = MemoryImage::new();
        mem.write_u64s(0x0, &[1, 2, 3]);
        assert_eq!(mem.read_u64(8), 2);
        mem.write_f64s(0x100, &[1.5, 2.5]);
        assert_eq!(mem.read_f64(0x108), 2.5);
    }

    #[test]
    fn equality_ignores_lookup_caches_and_slot_order() {
        // Same logical contents written in different page orders must
        // compare equal even though the slot vectors differ.
        let mut a = MemoryImage::new();
        a.write_u64(0x0000, 7);
        a.write_u64(0x1000, 9);
        let mut b = MemoryImage::new();
        b.write_u64(0x1000, 9);
        b.write_u64(0x0000, 7);
        assert_eq!(a, b);
        b.write_u8(0x1FFF, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn clone_preserves_contents() {
        let mut mem = MemoryImage::new();
        mem.write_u64(0x3000, 0x55AA);
        let copy = mem.clone();
        assert_eq!(copy.read_u64(0x3000), 0x55AA);
        assert_eq!(copy, mem);
    }

    #[test]
    fn default_is_the_empty_memory() {
        // Regression: a derived `Default` set `last_slot: 0`, so the
        // last-page cache claimed page 0 lived in slot 0 of an empty slot
        // vector — a page-0 read indexed out of bounds and a page-0 write
        // skipped allocating its page.
        let mem = MemoryImage::default();
        assert_eq!(mem, MemoryImage::new());
        assert_eq!(mem.read_u64(0x10), 0);
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.resident_pages(), 0);

        let mut mem = MemoryImage::default();
        assert_eq!(mem.load(0x10, 8), 0);
        mem.write_u64(0x10, 0xABCD);
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.read_u64(0x10), 0xABCD);
        assert_eq!(mem.load(0x10, 8), 0xABCD);
        let mut expected = MemoryImage::new();
        expected.write_u64(0x10, 0xABCD);
        assert_eq!(mem, expected);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_size_access_panics() {
        let mem = MemoryImage::new();
        let _ = mem.read(0, 0);
    }
}
