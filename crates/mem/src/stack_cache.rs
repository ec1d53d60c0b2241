//! Stack cache with explicit reserve/ensure/free management.
//!
//! "Data allocated on the stack is served by a direct mapped stack cache"
//! (paper, Section 3.3). The cache is a window over the top of the
//! downward-growing stack, delimited by two pointers:
//!
//! * `st` (stack top) — the address of the top of the stack, and
//! * `ss` (stack spill) — the lowest stack address still held in main
//!   memory; everything in `[st, ss)` is cached.
//!
//! The pointers are manipulated only by the three stack-control
//! instructions, whose worst-case spill/fill traffic is exactly what the
//! WCET analysis has to bound:
//!
//! * `sres n` grows the frame; if the occupancy would exceed the cache it
//!   spills the oldest words to memory;
//! * `sens n` re-ensures `n` words after a call may have displaced them;
//! * `sfree n` shrinks the frame without any memory traffic.
//!
//! All loads and stores within the cached window hit by construction —
//! the property that makes stack data trivially analyzable.

use crate::stats::CacheStats;

/// Which stack-control instruction produced a [`StackEffect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackOp {
    /// `sres` — reserve.
    Reserve,
    /// `sens` — ensure.
    Ensure,
    /// `sfree` — free.
    Free,
}

/// Spill/fill traffic caused by a stack-control instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StackEffect {
    /// Words written back to main memory.
    pub spill_words: u32,
    /// Words fetched from main memory.
    pub fill_words: u32,
}

/// The stack-cache occupancy model.
///
/// Like the other caches in this crate it is a timing model: values live
/// in main memory; the cache decides which accesses are (guaranteed)
/// on-chip and how many words each control instruction moves.
///
/// # Example
///
/// ```
/// use patmos_mem::StackCache;
/// let mut sc = StackCache::new(64, 0x0700_0000);
/// let effect = sc.reserve(10);
/// assert_eq!(effect.spill_words, 0, "fits in the cache");
/// assert_eq!(sc.occupied_words(), 10);
/// sc.free(10);
/// assert_eq!(sc.occupied_words(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct StackCache {
    size_words: u32,
    st: u32,
    ss: u32,
    stats: CacheStats,
}

impl StackCache {
    /// A stack cache of `size_words` words with both pointers at
    /// `top_addr` (byte address, 4-byte aligned).
    ///
    /// # Panics
    ///
    /// Panics if `size_words` is zero or `top_addr` is not word-aligned.
    pub fn new(size_words: u32, top_addr: u32) -> StackCache {
        assert!(size_words > 0, "stack cache must have capacity");
        assert_eq!(top_addr % 4, 0, "stack top must be word-aligned");
        StackCache {
            size_words,
            st: top_addr,
            ss: top_addr,
            stats: CacheStats::new(),
        }
    }

    /// Capacity in words.
    pub fn size_words(&self) -> u32 {
        self.size_words
    }

    /// The stack-top pointer (`st` special register).
    pub fn stack_top(&self) -> u32 {
        self.st
    }

    /// The spill pointer (`ss` special register).
    pub fn spill_pointer(&self) -> u32 {
        self.ss
    }

    /// Words currently held in the cache, `(ss - st) / 4`.
    pub fn occupied_words(&self) -> u32 {
        self.ss.wrapping_sub(self.st) / 4
    }

    /// Accumulated statistics (each control op counts as an access; a
    /// spill or fill counts as a miss with its traffic).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Moves both pointers to `top_addr`, emptying the cache (used by
    /// `mts st`).
    pub fn set_stack_top(&mut self, top_addr: u32) {
        assert_eq!(top_addr % 4, 0, "stack top must be word-aligned");
        self.st = top_addr;
        self.ss = top_addr;
    }

    /// Moves the spill pointer (used by `mts ss`); clamped so the
    /// invariants `st <= ss` and occupancy ≤ capacity keep holding.
    pub fn set_spill_pointer(&mut self, addr: u32) {
        assert_eq!(addr % 4, 0, "spill pointer must be word-aligned");
        let max = self.st.saturating_add(self.size_words * 4);
        self.ss = addr.clamp(self.st, max);
    }

    /// `sres n`: reserve `n` words, spilling if the occupancy would
    /// exceed the capacity.
    pub fn reserve(&mut self, words: u32) -> StackEffect {
        self.st = self.st.wrapping_sub(words * 4);
        let occupied = (self.ss.wrapping_sub(self.st)) / 4;
        let spill = occupied.saturating_sub(self.size_words);
        self.ss = self.ss.wrapping_sub(spill * 4);
        self.stats.record(spill == 0, spill as u64);
        StackEffect {
            spill_words: spill,
            fill_words: 0,
        }
    }

    /// `sens n`: ensure the top `n` words of the frame are cached,
    /// filling from memory if a callee displaced them.
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds the cache capacity — such a frame can
    /// never be guaranteed resident and the compiler must not emit it.
    pub fn ensure(&mut self, words: u32) -> StackEffect {
        assert!(
            words <= self.size_words,
            "sens {words} exceeds stack-cache capacity {}",
            self.size_words
        );
        let occupied = (self.ss.wrapping_sub(self.st)) / 4;
        let fill = words.saturating_sub(occupied);
        self.ss = self.ss.wrapping_add(fill * 4);
        self.stats.record(fill == 0, fill as u64);
        StackEffect {
            spill_words: 0,
            fill_words: fill,
        }
    }

    /// `sfree n`: release `n` words. Never causes memory traffic; if the
    /// freed region included spilled words the spill pointer snaps to the
    /// new top.
    pub fn free(&mut self, words: u32) -> StackEffect {
        self.st = self.st.wrapping_add(words * 4);
        if self.st > self.ss {
            self.ss = self.st;
        }
        self.stats.record(true, 0);
        StackEffect::default()
    }

    /// Whether a word access `offset_words` above the stack top lies in
    /// the cached window (the simulator's strict mode checks this; the
    /// hardware would silently access whatever block RAM holds).
    pub fn covers(&self, offset_words: u32) -> bool {
        offset_words < self.occupied_words()
    }

    /// The byte address corresponding to `offset_words` above `st`.
    pub fn address_of(&self, offset_words: u32) -> u32 {
        self.st.wrapping_add(offset_words * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOP: u32 = 0x0700_0000;

    #[test]
    fn reserve_within_capacity_is_free() {
        let mut sc = StackCache::new(8, TOP);
        let e = sc.reserve(8);
        assert_eq!(e.spill_words, 0);
        assert_eq!(sc.occupied_words(), 8);
        assert_eq!(sc.stack_top(), TOP - 32);
    }

    #[test]
    fn reserve_overflow_spills() {
        let mut sc = StackCache::new(8, TOP);
        sc.reserve(6);
        let e = sc.reserve(6);
        assert_eq!(e.spill_words, 4, "12 words in an 8-word cache spill 4");
        assert_eq!(sc.occupied_words(), 8);
        assert_eq!(sc.spill_pointer(), TOP - 16);
    }

    #[test]
    fn ensure_fills_displaced_frame() {
        let mut sc = StackCache::new(8, TOP);
        sc.reserve(6); // caller frame
        sc.reserve(6); // callee frame spills 4 caller words
        sc.free(6); // callee returns; occupancy 8 - 6 = 2
        assert_eq!(sc.occupied_words(), 2);
        let e = sc.ensure(6); // caller needs its 6 words back
        assert_eq!(e.fill_words, 4);
        assert_eq!(sc.occupied_words(), 6);
    }

    #[test]
    fn ensure_when_resident_is_free() {
        let mut sc = StackCache::new(8, TOP);
        sc.reserve(4);
        let e = sc.ensure(4);
        assert_eq!(e.fill_words, 0);
    }

    #[test]
    fn free_never_costs() {
        let mut sc = StackCache::new(4, TOP);
        sc.reserve(10); // spills 6
        let e = sc.free(10);
        assert_eq!(e.spill_words + e.fill_words, 0);
        assert_eq!(sc.occupied_words(), 0);
        assert_eq!(sc.stack_top(), TOP);
        assert_eq!(sc.spill_pointer(), TOP);
    }

    #[test]
    fn pointers_wrap_at_the_ends_of_the_address_space() {
        // A reserve below address 0 wraps `st` past `ss`.
        let mut sc = StackCache::new(8, 0);
        sc.reserve(1);
        assert_eq!(sc.occupied_words(), 1);
        // The spill pointer's clamp saturates at the top.
        let mut sc = StackCache::new(8, u32::MAX - 3);
        sc.set_spill_pointer(0);
        assert_eq!(sc.spill_pointer(), u32::MAX - 3);
    }

    #[test]
    fn covers_tracks_window() {
        let mut sc = StackCache::new(8, TOP);
        sc.reserve(3);
        assert!(sc.covers(0));
        assert!(sc.covers(2));
        assert!(!sc.covers(3));
        assert_eq!(sc.address_of(1), TOP - 12 + 4);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut sc = StackCache::new(4, TOP);
        for n in [1u32, 5, 2, 9, 3] {
            sc.reserve(n);
            assert!(sc.occupied_words() <= 4);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds stack-cache capacity")]
    fn ensure_beyond_capacity_panics() {
        let mut sc = StackCache::new(4, TOP);
        let _ = sc.ensure(5);
    }
}
