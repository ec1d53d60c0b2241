//! Main-memory model: sparse backing store plus a burst latency model.
//!
//! Patmos accesses main memory in bursts (method-cache fills, cache line
//! fills, stack spill/fill, split loads). The cost model is the classic
//! `latency + words * cycles_per_word` SDRAM abstraction used throughout
//! the time-predictable-architecture literature.

use std::fmt;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: usize = PAGE_SIZE - 1;
/// Pages per block of the two-level page table.
const BLOCK_BITS: u32 = 10;
const BLOCK_PAGES: usize = 1 << BLOCK_BITS;
/// Blocks in the directory, which covers the 32-bit space.
const NUM_BLOCKS: usize = 1 << (32 - PAGE_SHIFT - BLOCK_BITS);

type Page = Box<[u8; PAGE_SIZE]>;
type Block = [Option<Page>; BLOCK_PAGES];

/// Timing parameters of the main-memory interface.
///
/// # Example
///
/// ```
/// use patmos_mem::MemConfig;
/// let cfg = MemConfig::default();
/// // A single-word access costs the full setup latency.
/// assert_eq!(cfg.burst_cycles(1), cfg.latency + cfg.cycles_per_word);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Fixed setup cycles per burst (row activation, controller).
    pub latency: u32,
    /// Additional cycles per 32-bit word transferred.
    pub cycles_per_word: u32,
}

impl MemConfig {
    /// A configuration with the given setup latency and per-word cost.
    pub fn new(latency: u32, cycles_per_word: u32) -> MemConfig {
        MemConfig {
            latency,
            cycles_per_word,
        }
    }

    /// Cycles for a burst of `words` 32-bit words (zero words cost zero).
    pub fn burst_cycles(&self, words: u32) -> u32 {
        if words == 0 {
            0
        } else {
            self.latency + words * self.cycles_per_word
        }
    }
}

impl Default for MemConfig {
    /// Six cycles setup, two cycles per word — a small SDRAM controller.
    fn default() -> MemConfig {
        MemConfig {
            latency: 6,
            cycles_per_word: 2,
        }
    }
}

/// Sparse, byte-addressable main memory with a burst cost model.
///
/// Reads of untouched locations return zero, like initialised SRAM in the
/// FPGA prototype. Addresses wrap within the 32-bit space.
///
/// Storage is a two-level page table — a directory of 1024 blocks of
/// 1024 pointer slots, one per 4 KiB page — so every access is two
/// bounds-free indexes instead of a hash lookup. Blocks and pages
/// materialise on first write, so an empty memory costs an 8 KiB
/// directory, not a half-megabyte flat table that every
/// `Simulator::new` would allocate and zero, at a cost that swings with
/// the allocator's heap state. Small pages keep a clone small: a
/// program's code, data and stacks touch a few 4 KiB pages, and a
/// clone copies those, never a 64 KiB page for a word's sake.
///
/// A clone owns its pages: it and the original never see each other's
/// writes.
pub struct MainMemory {
    blocks: Box<[Option<Box<Block>>; NUM_BLOCKS]>,
    /// Page numbers (`addr >> PAGE_SHIFT`) of the materialised pages, so
    /// a clone visits them without scanning the table.
    resident: Vec<u32>,
    config: MemConfig,
}

fn zero_page() -> Page {
    vec![0u8; PAGE_SIZE]
        .into_boxed_slice()
        .try_into()
        .expect("page-sized allocation")
}

/// A table of `N` empty slots, allocated zeroed rather than built on
/// the stack and copied.
fn empty_table<T: Clone, const N: usize>() -> Box<[Option<Box<T>>; N]> {
    vec![None; N]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!("a vector of N slots"))
}

impl Clone for MainMemory {
    fn clone(&self) -> MainMemory {
        let mut blocks = empty_table::<Block, NUM_BLOCKS>();
        for &page in &self.resident {
            let (b, p) = (
                page as usize >> BLOCK_BITS,
                page as usize & (BLOCK_PAGES - 1),
            );
            let src = self.blocks[b].as_ref().and_then(|block| block[p].clone());
            blocks[b].get_or_insert_with(empty_table)[p] = src;
        }
        MainMemory {
            blocks,
            resident: self.resident.clone(),
            config: self.config,
        }
    }
}

impl fmt::Debug for MainMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MainMemory")
            .field("resident_pages", &self.resident.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Default for MainMemory {
    fn default() -> MainMemory {
        MainMemory::new(MemConfig::default())
    }
}

impl MainMemory {
    /// An empty memory with the given timing configuration.
    pub fn new(config: MemConfig) -> MainMemory {
        MainMemory {
            blocks: empty_table(),
            resident: Vec::new(),
            config,
        }
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        let block = self.blocks[(addr >> (PAGE_SHIFT + BLOCK_BITS)) as usize].as_deref()?;
        block[(addr >> PAGE_SHIFT) as usize & (BLOCK_PAGES - 1)].as_deref()
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        let block = self.blocks[(addr >> (PAGE_SHIFT + BLOCK_BITS)) as usize]
            .get_or_insert_with(empty_table);
        match &mut block[(addr >> PAGE_SHIFT) as usize & (BLOCK_PAGES - 1)] {
            Some(page) => page,
            slot => {
                self.resident.push(addr >> PAGE_SHIFT);
                slot.insert(zero_page())
            }
        }
    }

    /// The timing configuration.
    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// Cycles for a burst of `words` words.
    pub fn burst_cycles(&self, words: u32) -> u32 {
        self.config.burst_cycles(words)
    }

    /// Reads one byte.
    #[inline]
    pub fn read_byte(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(page) => page[addr as usize & OFFSET_MASK],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_byte(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[addr as usize & OFFSET_MASK] = value;
    }

    /// Reads a 16-bit little-endian half-word.
    #[inline]
    pub fn read_half(&self, addr: u32) -> u16 {
        let off = addr as usize & OFFSET_MASK;
        if off <= PAGE_SIZE - 2 {
            match self.page(addr) {
                Some(page) => u16::from_le_bytes(page[off..off + 2].try_into().expect("2 bytes")),
                None => 0,
            }
        } else {
            u16::from_le_bytes([self.read_byte(addr), self.read_byte(addr.wrapping_add(1))])
        }
    }

    /// Writes a 16-bit little-endian half-word.
    #[inline]
    pub fn write_half(&mut self, addr: u32, value: u16) {
        let off = addr as usize & OFFSET_MASK;
        if off <= PAGE_SIZE - 2 {
            self.page_mut(addr)[off..off + 2].copy_from_slice(&value.to_le_bytes());
        } else {
            let [a, b] = value.to_le_bytes();
            self.write_byte(addr, a);
            self.write_byte(addr.wrapping_add(1), b);
        }
    }

    /// Reads a 32-bit little-endian word.
    #[inline]
    pub fn read_word(&self, addr: u32) -> u32 {
        let off = addr as usize & OFFSET_MASK;
        if off <= PAGE_SIZE - 4 {
            match self.page(addr) {
                Some(page) => u32::from_le_bytes(page[off..off + 4].try_into().expect("4 bytes")),
                None => 0,
            }
        } else {
            u32::from_le_bytes([
                self.read_byte(addr),
                self.read_byte(addr.wrapping_add(1)),
                self.read_byte(addr.wrapping_add(2)),
                self.read_byte(addr.wrapping_add(3)),
            ])
        }
    }

    /// Writes a 32-bit little-endian word.
    #[inline]
    pub fn write_word(&mut self, addr: u32, value: u32) {
        let off = addr as usize & OFFSET_MASK;
        if off <= PAGE_SIZE - 4 {
            self.page_mut(addr)[off..off + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().into_iter().enumerate() {
                self.write_byte(addr.wrapping_add(i as u32), b);
            }
        }
    }

    /// Copies `words` into memory starting at `addr` (word-aligned bulk
    /// load used by the program loader).
    pub fn load_words(&mut self, addr: u32, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            self.write_word(addr.wrapping_add((i * 4) as u32), w);
        }
    }

    /// Copies bytes into memory starting at `addr`.
    pub fn load_bytes(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_byte(addr.wrapping_add(i as u32), b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_default_to_zero() {
        let mem = MainMemory::new(MemConfig::default());
        assert_eq!(mem.read_word(0x1234), 0);
        assert_eq!(mem.read_byte(u32::MAX), 0);
    }

    #[test]
    fn word_round_trip_little_endian() {
        let mut mem = MainMemory::new(MemConfig::default());
        mem.write_word(0x100, 0xdead_beef);
        assert_eq!(mem.read_word(0x100), 0xdead_beef);
        assert_eq!(mem.read_byte(0x100), 0xef);
        assert_eq!(mem.read_byte(0x103), 0xde);
        assert_eq!(mem.read_half(0x102), 0xdead);
    }

    #[test]
    fn cross_page_word() {
        let mut mem = MainMemory::new(MemConfig::default());
        let addr = (1 << PAGE_SHIFT) - 2;
        mem.write_word(addr, 0x0102_0304);
        assert_eq!(mem.read_word(addr), 0x0102_0304);
    }

    #[test]
    fn clones_never_see_each_others_writes() {
        let mut original = MainMemory::new(MemConfig::default());
        let boundary = 3 << PAGE_SHIFT;
        original.write_word(boundary - 2, 0x1122_3344);
        let mut clone = original.clone();
        clone.write_word(boundary - 2, 0x5566_7788);
        original.write_byte(boundary + 8, 0xaa);
        assert_eq!(original.read_word(boundary - 2), 0x1122_3344);
        assert_eq!(clone.read_word(boundary - 2), 0x5566_7788);
        assert_eq!(original.read_byte(boundary + 8), 0xaa);
        assert_eq!(
            clone.read_byte(boundary + 8),
            0,
            "the clone's page is its own"
        );
        // A page first touched after the clone is private to its writer.
        clone.write_word(0x40_0000, 7);
        assert_eq!(original.read_word(0x40_0000), 0);
    }

    #[test]
    fn burst_cost_model() {
        let cfg = MemConfig::new(6, 2);
        assert_eq!(cfg.burst_cycles(0), 0);
        assert_eq!(cfg.burst_cycles(1), 8);
        assert_eq!(cfg.burst_cycles(4), 14);
    }

    #[test]
    fn load_words_bulk() {
        let mut mem = MainMemory::new(MemConfig::default());
        mem.load_words(0x200, &[1, 2, 3]);
        assert_eq!(mem.read_word(0x200), 1);
        assert_eq!(mem.read_word(0x208), 3);
    }
}
