//! Byte-accurate simulated 64-bit memory and the heap allocator.
//!
//! Memory is a sparse map of 4 KiB pages. Segments mirror a conventional
//! process image so that spatial bugs behave realistically:
//!
//! * **globals** at [`GLOBAL_BASE`] — laid out contiguously in declaration
//!   order, so an overflowing global buffer silently corrupts its neighbor
//!   (the BugBench `compress` bug class);
//! * **heap** at [`HEAP_BASE`] — bump-with-free-list allocator, optional
//!   redzones (used by the Valgrind-like baseline);
//! * **stack** at [`STACK_BASE`], growing upward; frames carry spilled
//!   return tokens and saved frame pointers (see `interp`);
//! * **code** at [`FN_BASE`] — function "addresses" are synthesized, not
//!   backed by pages, so data accesses to code fault.
//!
//! Accesses to unmapped pages return [`MemFault`], the analogue of a
//! segfault; accesses *within* a mapped page but outside any object are
//! silent corruption — exactly the behaviour that makes spatial bugs
//! dangerous and bounds checking worthwhile.

use sb_cir::MEMORY_LIMIT;
use std::collections::HashMap;

/// Page size in bytes.
pub const PAGE_SIZE: u64 = 4096;
/// Base address of the global/data segment.
pub const GLOBAL_BASE: u64 = 0x0000_0000_0001_0000;
/// Base address of the heap segment.
pub const HEAP_BASE: u64 = 0x0000_2000_0000_0000;
/// Base address of the stack segment (grows upward).
pub const STACK_BASE: u64 = 0x0000_7F00_0000_0000;
/// Base "address" of the code segment (function pointers).
pub const FN_BASE: u64 = 0x0000_4000_0000_0000;
/// Byte stride between synthesized function addresses.
pub const FN_STRIDE: u64 = 16;

/// Encodes a function id as a code address.
pub fn fn_addr(index: u32) -> u64 {
    FN_BASE + index as u64 * FN_STRIDE
}

/// Decodes a code address back to a function index, if well-formed.
pub fn decode_fn_addr(addr: u64) -> Option<u32> {
    if addr >= FN_BASE && (addr - FN_BASE).is_multiple_of(FN_STRIDE) {
        let idx = (addr - FN_BASE) / FN_STRIDE;
        u32::try_from(idx).ok()
    } else {
        None
    }
}

/// An out-of-segment access (the simulated SIGSEGV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting address.
    pub addr: u64,
    /// True if the access was a write.
    pub write: bool,
}

/// Entries in [`Mem`]'s page-translation cache.
const TLB_ENTRIES: usize = 64;

/// The translation-cache entry of a page index. Folding bits 24 and up
/// into the low bits keeps the segments apart: the heap and stack bases
/// both have zero low page-index bits, so with a plain low-bit index
/// heap page 0 and stack page 0 would share an entry and evict each
/// other whenever a loop touches both.
#[inline]
fn tlb_index(page: u64) -> usize {
    (page ^ (page >> 24)) as usize % TLB_ENTRIES
}

/// Sparse paged memory.
///
/// Page frames live in a flat store indexed through the page table, and
/// translations are cached in a small direct-mapped table: loop-shaped
/// access patterns (array scans, stack traffic, a list walk's heap
/// nodes) keep returning to the same few pages, so the common case is
/// one comparison instead of a hash lookup. No page is ever unmapped
/// *within* a run, so a cached entry cannot go stale mid-run; the one
/// path that does drop mappings — [`reset`](Mem::reset) between runs of a
/// reused machine — must (and does) clear the cache, because both
/// `slot_of` and `map_range` trust it without consulting the page table.
#[derive(Debug)]
pub struct Mem {
    /// Page index → slot in `store`.
    pages: HashMap<u64, u32>,
    /// Page frames, in mapping order.
    store: Vec<Box<[u8; PAGE_SIZE as usize]>>,
    /// Frames released by [`reset`](Mem::reset), recycled (re-zeroed)
    /// by `map_range` before a fresh frame is ever allocated.
    free_frames: Vec<u32>,
    /// Direct-mapped translation cache: entry [`tlb_index`]`(page)`
    /// holds `(page, slot)` for a mapped page. The sentinel page index
    /// `u64::MAX` marks an empty entry; it is unreachable (addresses are
    /// `< 2^64`, so page indices are `< 2^52`).
    tlb: [(u64, u32); TLB_ENTRIES],
    /// Total bytes read/written (for statistics).
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
}

/// An empty translation-cache entry.
const NO_TRANSLATION: (u64, u32) = (u64::MAX, 0);

impl Default for Mem {
    fn default() -> Self {
        Mem {
            pages: HashMap::new(),
            store: Vec::new(),
            free_frames: Vec::new(),
            tlb: [NO_TRANSLATION; TLB_ENTRIES],
            bytes_read: 0,
            bytes_written: 0,
        }
    }
}

impl Mem {
    /// Creates empty memory.
    pub fn new() -> Self {
        Mem::default()
    }

    /// Translates a page index to its store slot, through the
    /// translation cache.
    #[inline]
    fn slot_of(&mut self, page: u64) -> Option<u32> {
        let entry = &mut self.tlb[tlb_index(page)];
        if entry.0 == page {
            return Some(entry.1);
        }
        let s = *self.pages.get(&page)?;
        *entry = (page, s);
        Some(s)
    }

    /// Maps (zero-filled) every page overlapping `[addr, addr+len)`.
    pub fn map_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        for p in first..=last {
            // A cached translation proves the page is mapped without a
            // hash lookup (frame setup re-maps the same stack page on
            // every call).
            let entry = tlb_index(p);
            if self.tlb[entry].0 == p || self.pages.contains_key(&p) {
                continue;
            }
            let slot = match self.free_frames.pop() {
                // Recycle a frame dropped by `reset`, restoring the
                // zero-fill a fresh mapping guarantees.
                Some(s) => {
                    self.store[s as usize].fill(0);
                    s
                }
                None => {
                    let slot = u32::try_from(self.store.len()).expect("page-store overflow");
                    self.store.push(Box::new([0u8; PAGE_SIZE as usize]));
                    slot
                }
            };
            self.pages.insert(p, slot);
            self.tlb[entry] = (p, slot);
        }
    }

    /// Unmaps every page and clears the statistics, returning the memory
    /// to its just-constructed *observable* state while keeping the
    /// allocated page frames for recycling — a long-lived machine that
    /// resets between requests pays the host allocator only for its
    /// high-water page count.
    ///
    /// The translation cache must be cleared here: it is the one piece
    /// of state that outlives the page table. `slot_of` returns a cached
    /// slot without consulting `pages`, and `map_range` takes a cache
    /// hit as proof the page is already mapped — a stale entry would let
    /// the next run silently read the previous run's dropped frame, or
    /// skip the zero-fill of a page the new allocation layout maps at
    /// the same address.
    pub fn reset(&mut self) {
        self.pages.clear();
        self.free_frames.clear();
        self.free_frames
            .extend(0..u32::try_from(self.store.len()).expect("page-store overflow"));
        self.tlb = [NO_TRANSLATION; TLB_ENTRIES];
        self.bytes_read = 0;
        self.bytes_written = 0;
    }

    /// True if `addr` is on a mapped page.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.pages.contains_key(&(addr / PAGE_SIZE))
    }

    /// Number of mapped pages (memory-overhead statistics).
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads `buf.len()` bytes from `addr`.
    ///
    /// # Errors
    ///
    /// [`MemFault`] if any byte is on an unmapped page.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        self.bytes_read += buf.len() as u64;
        let in_page = (addr % PAGE_SIZE) as usize;
        // Fast path: the access stays on one page — one translation,
        // one slice copy. (Empty reads succeed even on unmapped
        // addresses, as they always have; the slow loop handles them.)
        if !buf.is_empty() && in_page + buf.len() <= PAGE_SIZE as usize {
            return match self.slot_of(addr / PAGE_SIZE) {
                Some(s) => {
                    let n = buf.len();
                    buf.copy_from_slice(&self.store[s as usize][in_page..in_page + n]);
                    Ok(())
                }
                None => Err(MemFault { addr, write: false }),
            };
        }
        self.read_multi_page(addr, buf)
    }

    fn read_multi_page(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let page = a / PAGE_SIZE;
            let in_page = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(buf.len() - off);
            match self.slot_of(page) {
                Some(s) => {
                    buf[off..off + n].copy_from_slice(&self.store[s as usize][in_page..in_page + n])
                }
                None => {
                    return Err(MemFault {
                        addr: a,
                        write: false,
                    })
                }
            }
            off += n;
        }
        Ok(())
    }

    /// Writes `buf` to `addr`.
    ///
    /// # Errors
    ///
    /// [`MemFault`] if any byte is on an unmapped page.
    pub fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), MemFault> {
        self.bytes_written += buf.len() as u64;
        let in_page = (addr % PAGE_SIZE) as usize;
        if !buf.is_empty() && in_page + buf.len() <= PAGE_SIZE as usize {
            return match self.slot_of(addr / PAGE_SIZE) {
                Some(s) => {
                    self.store[s as usize][in_page..in_page + buf.len()].copy_from_slice(buf);
                    Ok(())
                }
                None => Err(MemFault { addr, write: true }),
            };
        }
        self.write_multi_page(addr, buf)
    }

    fn write_multi_page(&mut self, addr: u64, buf: &[u8]) -> Result<(), MemFault> {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let page = a / PAGE_SIZE;
            let in_page = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(buf.len() - off);
            match self.slot_of(page) {
                Some(s) => {
                    self.store[s as usize][in_page..in_page + n].copy_from_slice(&buf[off..off + n])
                }
                None => {
                    return Err(MemFault {
                        addr: a,
                        write: true,
                    })
                }
            }
            off += n;
        }
        Ok(())
    }

    /// Reads an unsigned little-endian integer of `size` ∈ {1,2,4,8} bytes.
    ///
    /// # Errors
    ///
    /// [`MemFault`] on unmapped access.
    pub fn read_uint(&mut self, addr: u64, size: u64) -> Result<u64, MemFault> {
        // Fixed-width fast path: a machine-word load instead of a
        // variable-length copy when the access stays on one page.
        let in_page = (addr % PAGE_SIZE) as usize;
        if matches!(size, 1 | 2 | 4 | 8) && in_page + size as usize <= PAGE_SIZE as usize {
            self.bytes_read += size;
            return match self.slot_of(addr / PAGE_SIZE) {
                Some(s) => {
                    let p = &self.store[s as usize][in_page..];
                    Ok(match size {
                        1 => p[0] as u64,
                        2 => u16::from_le_bytes(p[..2].try_into().expect("2 bytes")) as u64,
                        4 => u32::from_le_bytes(p[..4].try_into().expect("4 bytes")) as u64,
                        _ => u64::from_le_bytes(p[..8].try_into().expect("8 bytes")),
                    })
                }
                None => Err(MemFault { addr, write: false }),
            };
        }
        let mut b = [0u8; 8];
        self.read(addr, &mut b[..size as usize])?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes the low `size` bytes of `v`, little-endian.
    ///
    /// # Errors
    ///
    /// [`MemFault`] on unmapped access.
    pub fn write_uint(&mut self, addr: u64, size: u64, v: u64) -> Result<(), MemFault> {
        let in_page = (addr % PAGE_SIZE) as usize;
        if in_page + size as usize <= PAGE_SIZE as usize && matches!(size, 1 | 2 | 4 | 8) {
            return match self.slot_of(addr / PAGE_SIZE) {
                Some(s) => {
                    self.bytes_written += size;
                    let p = &mut self.store[s as usize][in_page..];
                    match size {
                        1 => p[0] = v as u8,
                        2 => p[..2].copy_from_slice(&(v as u16).to_le_bytes()),
                        4 => p[..4].copy_from_slice(&(v as u32).to_le_bytes()),
                        _ => p[..8].copy_from_slice(&v.to_le_bytes()),
                    }
                    Ok(())
                }
                None => {
                    self.bytes_written += size;
                    Err(MemFault { addr, write: true })
                }
            };
        }
        let b = v.to_le_bytes();
        self.write(addr, &b[..size as usize])
    }

    /// Reads an unsigned little-endian integer of `size` (≤ 8) bytes
    /// with the access *clamped* to `[lo, hi)`: in-bounds bytes come
    /// from memory, out-of-bounds bytes read as zero (a "zeroed read").
    /// This is the access shape a repair-and-continue violation policy
    /// substitutes for an out-of-bounds load — a fully out-of-bounds
    /// access yields 0 and touches no memory at all.
    ///
    /// # Errors
    ///
    /// [`MemFault`] if an *in-bounds* byte lies on an unmapped page.
    pub fn read_uint_clamped(
        &mut self,
        addr: u64,
        size: u64,
        lo: u64,
        hi: u64,
    ) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        for i in 0..size.min(8) {
            let a = addr.wrapping_add(i);
            if a >= lo && a < hi {
                b[i as usize] = self.read_uint(a, 1)? as u8;
            }
        }
        Ok(u64::from_le_bytes(b))
    }

    /// Writes the low `size` (≤ 8) bytes of `v` little-endian with the
    /// access clamped to `[lo, hi)`: only in-bounds bytes are stored (a
    /// "truncated write"), out-of-bounds bytes are dropped. The
    /// repair-and-continue counterpart of an out-of-bounds store; a
    /// fully out-of-bounds access stores nothing.
    ///
    /// # Errors
    ///
    /// [`MemFault`] if an *in-bounds* byte lies on an unmapped page.
    pub fn write_uint_clamped(
        &mut self,
        addr: u64,
        size: u64,
        v: u64,
        lo: u64,
        hi: u64,
    ) -> Result<(), MemFault> {
        let b = v.to_le_bytes();
        for i in 0..size.min(8) {
            let a = addr.wrapping_add(i);
            if a >= lo && a < hi {
                self.write_uint(a, 1, b[i as usize] as u64)?;
            }
        }
        Ok(())
    }

    /// Digest of the full memory image: which pages are mapped and what
    /// they hold. Two memories with the same mapped pages and the same
    /// bytes digest equal, whatever order the pages were mapped or
    /// written in — the equality the differential suites and the fleet's
    /// determinism contract assert on final memory.
    ///
    /// It is a comparison digest, not a persisted format: see
    /// [`content_hash_range`](Self::content_hash_range) for what it keys
    /// on.
    pub fn content_hash(&self) -> u64 {
        self.content_hash_range(0, u64::MAX)
    }

    /// [`content_hash`](Self::content_hash) restricted to pages whose
    /// start address falls in `[lo, hi)` — e.g. the globals+heap region
    /// below [`FN_BASE`], which holds exactly the program-visible data
    /// an uninstrumented twin must reproduce (stack pages carry frame
    /// residue that legitimately differs across instrumentation).
    ///
    /// The digest is a wrapping sum with one term per mapped page (keyed
    /// on its index, so a mapped all-zero page differs from an unmapped
    /// one) and one term per **non-zero** little-endian `u64` word, keyed
    /// on its value and its absolute index `page << 9 | k` (`k < 512` is
    /// the word's place in its page). For a fixed index, a word's term is
    /// a bijection of its value that maps 0 to 0, so zero words
    /// contribute nothing — all-zero 64-byte lines are skipped with one
    /// OR — and changing any single word always changes the digest. A
    /// sum does not depend on page-table iteration order, so nothing is
    /// sorted or allocated.
    pub fn content_hash_range(&self, lo: u64, hi: u64) -> u64 {
        let pages = lo.div_ceil(PAGE_SIZE)..hi.div_ceil(PAGE_SIZE);
        let mut h = 0u64;
        for (&page, &slot) in &self.pages {
            if !pages.contains(&page) {
                continue;
            }
            h = h.wrapping_add(fmix64(page ^ PAGE_KEY));
            let frame = &self.store[slot as usize];
            for (line, bytes) in frame.chunks_exact(64).enumerate() {
                let words: [u64; 8] = std::array::from_fn(|k| {
                    u64::from_le_bytes(bytes[8 * k..8 * k + 8].try_into().expect("8 bytes"))
                });
                if words.iter().fold(0, |acc, w| acc | w) == 0 {
                    continue;
                }
                for (k, &w) in words.iter().enumerate() {
                    if w != 0 {
                        let index = page << 9 | (line * 8 + k) as u64;
                        let key = fmix64(index) | 1;
                        h = h.wrapping_add(fmix64(fmix64(w).wrapping_mul(key)));
                    }
                }
            }
        }
        h
    }

    /// Reads a NUL-terminated C string (bounded by `max` bytes).
    ///
    /// # Errors
    ///
    /// [`MemFault`] if the string runs onto an unmapped page before a NUL.
    pub fn read_cstr(&mut self, addr: u64, max: u64) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::new();
        for i in 0..max {
            let c = self.read_uint(addr + i, 1)? as u8;
            if c == 0 {
                break;
            }
            out.push(c);
        }
        Ok(out)
    }
}

/// Salt of a mapped page's digest term. Its top bits are set and page
/// indices are `< 2^52`, so `page ^ PAGE_KEY` is never 0 and every
/// mapped page adds a non-zero term.
const PAGE_KEY: u64 = 0x9E37_79B9_7F4A_7C15;

/// MurmurHash3's 64-bit finalizer: a bijection on `u64` with full
/// avalanche that maps 0 to 0.
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Bump allocator with size-class free lists and optional redzones, over
/// [`MEMORY_LIMIT`] bytes of address space from [`HEAP_BASE`].
///
/// Redzones (`redzone > 0`) pad each allocation on both sides; the
/// Valgrind-like baseline marks them unaddressable to catch heap
/// overflows. SoftBound itself needs no redzones.
#[derive(Debug)]
pub struct Heap {
    next: u64,
    limit: u64,
    redzone: u64,
    free: HashMap<u64, Vec<u64>>, // rounded size -> addresses
    live: HashMap<u64, u64>,      // addr -> user size
    /// Number of successful allocations.
    pub alloc_count: u64,
    /// Number of frees.
    pub free_count: u64,
    /// High-water mark of live bytes.
    pub peak_live: u64,
    live_bytes: u64,
}

impl Heap {
    /// Creates a heap with the given redzone padding (0 for none).
    pub fn new(redzone: u64) -> Self {
        Heap {
            next: HEAP_BASE,
            limit: HEAP_BASE + MEMORY_LIMIT,
            redzone,
            free: HashMap::new(),
            live: HashMap::new(),
            alloc_count: 0,
            free_count: 0,
            peak_live: 0,
            live_bytes: 0,
        }
    }

    /// The size class of a `size`-byte block; `None` past 2^63 bytes,
    /// where no power of two is large enough.
    fn class_of(size: u64) -> Option<u64> {
        size.checked_next_power_of_two().map(|c| c.max(16))
    }

    /// Allocates `size` bytes (16-aligned), mapping pages in `mem`.
    /// Returns `None` when the heap's [`MEMORY_LIMIT`] bytes of address
    /// space are exhausted — including for sizes no block could ever
    /// hold (`calloc`'s saturated products).
    pub fn alloc(&mut self, mem: &mut Mem, size: u64) -> Option<u64> {
        let user = size.max(1);
        let class = Self::class_of(user)?;
        self.alloc_count += 1;
        let addr = if let Some(list) = self.free.get_mut(&class) {
            list.pop()
        } else {
            None
        };
        let addr = match addr {
            Some(a) => a,
            None => {
                let base = self.next;
                let end = class
                    .checked_add(2 * self.redzone)
                    .and_then(|total| base.checked_add(total))
                    .filter(|&end| end <= self.limit)?;
                self.next = (end + 15) & !15;
                base + self.redzone
            }
        };
        mem.map_range(addr, class);
        // Zero the block (reused blocks keep stale contents otherwise;
        // zeroing keeps runs deterministic while reuse of *addresses* —
        // what SoftBound's metadata clearing is about — still happens).
        // Chunked through a fixed buffer so allocating simulated memory
        // never allocates host memory.
        let zeros = [0u8; 256];
        let total = user.min(class);
        let mut off = 0u64;
        while off < total {
            let n = (total - off).min(zeros.len() as u64);
            let _ = mem.write(addr + off, &zeros[..n as usize]);
            off += n;
        }
        self.live.insert(addr, user);
        self.live_bytes += user;
        self.peak_live = self.peak_live.max(self.live_bytes);
        Some(addr)
    }

    /// Frees a block; returns its user size, or `None` for a bad pointer
    /// (double free / wild free).
    pub fn dealloc(&mut self, addr: u64) -> Option<u64> {
        let size = self.live.remove(&addr)?;
        self.free_count += 1;
        self.live_bytes -= size;
        let class = Self::class_of(size).expect("a live block's size has a class");
        self.free.entry(class).or_default().push(addr);
        Some(size)
    }

    /// User size of a live block.
    pub fn size_of(&self, addr: u64) -> Option<u64> {
        self.live.get(&addr).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_roundtrip() {
        let mut m = Mem::new();
        m.map_range(0x1000, 64);
        m.write_uint(0x1008, 8, 0xdead_beef_cafe_f00d)
            .expect("write");
        assert_eq!(m.read_uint(0x1008, 8).expect("read"), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_uint(0x1008, 4).expect("read"), 0xcafe_f00d);
        assert_eq!(m.read_uint(0x1008, 1).expect("read"), 0x0d);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Mem::new();
        m.map_range(PAGE_SIZE - 4, 8);
        m.write_uint(PAGE_SIZE - 4, 8, u64::MAX)
            .expect("write spans pages");
        assert_eq!(m.read_uint(PAGE_SIZE - 4, 8).expect("read"), u64::MAX);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = Mem::new();
        assert_eq!(
            m.read_uint(0x5000, 8),
            Err(MemFault {
                addr: 0x5000,
                write: false
            })
        );
        assert_eq!(
            m.write_uint(0x5000, 8, 1),
            Err(MemFault {
                addr: 0x5000,
                write: true
            })
        );
    }

    #[test]
    fn partial_cross_page_fault_reports_address() {
        let mut m = Mem::new();
        m.map_range(0, PAGE_SIZE); // only page 0
        let e = m
            .write_uint(PAGE_SIZE - 2, 4, 0)
            .expect_err("faults on page 1");
        assert_eq!(e.addr, PAGE_SIZE);
        assert!(e.write);
    }

    #[test]
    fn cstr_reading() {
        let mut m = Mem::new();
        m.map_range(0x2000, 16);
        m.write(0x2000, b"hi\0junk").expect("write");
        assert_eq!(m.read_cstr(0x2000, 16).expect("read"), b"hi");
    }

    #[test]
    fn clamped_read_zero_fills_out_of_bounds_bytes() {
        let mut m = Mem::new();
        m.map_range(0x1000, 64);
        m.write_uint(0x1000, 8, u64::MAX).expect("write");
        // Object is [0x1000, 0x1004): upper 4 bytes of the read are OOB.
        assert_eq!(
            m.read_uint_clamped(0x1000, 8, 0x1000, 0x1004)
                .expect("read"),
            0x0000_0000_ffff_ffff
        );
        // Fully out of bounds: zero, even on unmapped addresses.
        assert_eq!(m.read_uint_clamped(0x9000, 8, 0x1000, 0x1004), Ok(0));
        // Straddling the base: low bytes OOB, high bytes in.
        assert_eq!(
            m.read_uint_clamped(0xffe, 4, 0x1000, 0x1004).expect("read"),
            0xffff_0000
        );
    }

    #[test]
    fn clamped_write_stores_only_in_bounds_bytes() {
        let mut m = Mem::new();
        m.map_range(0x1000, 64);
        m.write_uint_clamped(0x1002, 4, 0xaabb_ccdd, 0x1000, 0x1004)
            .expect("write");
        // Bytes at 0x1002..0x1004 stored, 0x1004..0x1006 dropped.
        assert_eq!(m.read_uint(0x1000, 8).expect("read"), 0xccdd_0000);
        // Fully out of bounds: no fault, no store, even unmapped.
        m.write_uint_clamped(0x9000, 8, 0x1234, 0x1000, 0x1004)
            .expect("write nothing");
        assert!(!m.is_mapped(0x9000));
    }

    #[test]
    fn fn_addr_roundtrip() {
        assert_eq!(decode_fn_addr(fn_addr(0)), Some(0));
        assert_eq!(decode_fn_addr(fn_addr(99)), Some(99));
        assert_eq!(decode_fn_addr(fn_addr(7) + 1), None);
        assert_eq!(decode_fn_addr(0x1234), None);
    }

    #[test]
    fn reset_invalidates_translation_cache() {
        let mut m = Mem::new();
        m.map_range(0x1000, 8);
        m.write_uint(0x1000, 8, 0xAB)
            .expect("write warms the cache");
        m.reset();
        // Failure mode being pinned: a surviving (page, slot) cache entry
        // lets this read silently return the dropped frame's contents
        // instead of faulting on the now-unmapped page.
        assert_eq!(
            m.read_uint(0x1000, 8),
            Err(MemFault {
                addr: 0x1000,
                write: false
            })
        );
    }

    #[test]
    fn reset_invalidates_map_range_mapped_proof() {
        let mut m = Mem::new();
        m.map_range(0x1000, 8);
        m.write_uint(0x1000, 8, 0xdead_beef).expect("write");
        m.reset();
        // `map_range` takes a cache hit as proof the page is mapped; a
        // stale entry would skip both the mapping and the zero-fill.
        m.map_range(0x1000, 8);
        assert_eq!(
            m.read_uint(0x1000, 8).expect("mapped again"),
            0,
            "recycled frame must be zero-filled"
        );
    }

    #[test]
    fn reset_recycles_frames_across_different_layouts() {
        let mut m = Mem::new();
        m.map_range(0x1000, PAGE_SIZE * 2);
        m.write_uint(0x1000, 8, 7).expect("write");
        assert_eq!(m.mapped_pages(), 2);
        m.reset();
        assert_eq!(m.mapped_pages(), 0);
        assert_eq!((m.bytes_read, m.bytes_written), (0, 0));
        // A different layout on the second run: recycled frames, zeroed,
        // observably identical to a fresh memory with the same mappings.
        m.map_range(0x9000, 8);
        let mut fresh = Mem::new();
        fresh.map_range(0x9000, 8);
        assert_eq!(m.content_hash(), fresh.content_hash());
    }

    /// One address on each of `n` consecutive pages of every segment:
    /// enough pages to fill every translation-cache entry several times.
    fn pages_across_segments(n: u64) -> Vec<u64> {
        [GLOBAL_BASE, HEAP_BASE, STACK_BASE]
            .iter()
            .flat_map(|&base| (0..n).map(move |i| base + i * PAGE_SIZE + 8))
            .collect()
    }

    #[test]
    fn pages_mapped_before_reset_fault_after_it() {
        let mut m = Mem::new();
        let addrs = pages_across_segments(2 * TLB_ENTRIES as u64);
        for &a in &addrs {
            m.map_range(a, 8);
            m.write_uint(a, 8, a).expect("mapped");
        }
        // Read back in reverse so the cache holds a mix of entries.
        for &a in addrs.iter().rev() {
            assert_eq!(m.read_uint(a, 8), Ok(a));
        }
        m.reset();
        for &a in &addrs {
            assert_eq!(
                m.read_uint(a, 8),
                Err(MemFault {
                    addr: a,
                    write: false
                }),
                "{a:#x} survived the reset"
            );
        }
    }

    #[test]
    fn pages_mapped_again_onto_recycled_frames_read_zero() {
        let mut m = Mem::new();
        let addrs = pages_across_segments(2 * TLB_ENTRIES as u64);
        for &a in &addrs {
            m.map_range(a, 8);
            m.write_uint(a, 8, !a).expect("mapped");
        }
        m.reset();
        // The same pages in a different order: each lands on some other
        // page's recycled frame, and none may show old contents.
        for &a in addrs.iter().rev() {
            m.map_range(a, 8);
        }
        for &a in &addrs {
            assert_eq!(m.read_uint(a, 8), Ok(0), "{a:#x} kept stale bytes");
        }
        assert_eq!(m.mapped_pages(), addrs.len());
    }

    #[test]
    fn pages_sharing_a_cache_entry_each_read_their_own_frame() {
        let heap = HEAP_BASE / PAGE_SIZE;
        let stack = STACK_BASE / PAGE_SIZE;
        // The segments' first pages must not collide; pages a multiple of
        // the table size apart within one segment must.
        assert_ne!(tlb_index(heap), tlb_index(stack));
        assert_ne!(tlb_index(heap), tlb_index(GLOBAL_BASE / PAGE_SIZE));
        let pages = [
            heap,
            heap + TLB_ENTRIES as u64,
            heap + 2 * TLB_ENTRIES as u64,
        ];
        assert!(pages.iter().all(|&p| tlb_index(p) == tlb_index(heap)));
        let mut m = Mem::new();
        for (i, &p) in pages.iter().enumerate() {
            m.map_range(p * PAGE_SIZE, 8);
            m.write_uint(p * PAGE_SIZE, 8, i as u64 + 1)
                .expect("mapped");
        }
        // Alternate between the colliding pages, so every read evicts the
        // previous page's translation.
        for round in 0..3 {
            for (i, &p) in pages.iter().enumerate().rev() {
                assert_eq!(
                    m.read_uint(p * PAGE_SIZE, 8),
                    Ok(i as u64 + 1),
                    "round {round}"
                );
                m.write_uint(p * PAGE_SIZE + 16, 8, round).expect("mapped");
            }
        }
        for &p in &pages {
            assert_eq!(m.read_uint(p * PAGE_SIZE + 16, 8), Ok(2));
        }
    }

    /// A memory with `words` (address, value) written on freshly mapped
    /// pages, in the given order.
    fn image(words: &[(u64, u64)]) -> Mem {
        let mut m = Mem::new();
        for &(addr, v) in words {
            m.map_range(addr, 8);
            m.write_uint(addr, 8, v).expect("mapped");
        }
        m
    }

    #[test]
    fn digest_forgets_values_overwritten_with_zero() {
        let mut m = image(&[(0x1008, 0xdead_beef)]);
        m.write_uint(0x1008, 8, 0).expect("mapped");
        assert_eq!(m.content_hash(), image(&[(0x1008, 0)]).content_hash());
    }

    #[test]
    fn digest_distinguishes_a_mapped_zero_page_from_an_unmapped_one() {
        assert_ne!(
            image(&[(0x1000, 0)]).content_hash(),
            Mem::new().content_hash()
        );
        assert_ne!(
            image(&[(0x1000, 0)]).content_hash(),
            image(&[(0x2000, 0)]).content_hash()
        );
    }

    #[test]
    fn digest_keys_words_on_their_page() {
        // Both pages mapped, the same word on one or the other: only the
        // word's page index tells them apart.
        let mut a = image(&[(0x1010, 7)]);
        a.map_range(0x2000, 8);
        let mut b = image(&[(0x2010, 7)]);
        b.map_range(0x1000, 8);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn digest_detects_swapped_words() {
        for (x, y) in [(0x1000, 0x1008), (0x1000, 0x1ff8), (0x1000, 0x9000)] {
            let (v, w) = (0x1111_2222, 0x3333_4444_5555);
            assert_ne!(
                image(&[(x, v), (y, w)]).content_hash(),
                image(&[(x, w), (y, v)]).content_hash(),
                "swap of {x:#x} and {y:#x}"
            );
        }
    }

    #[test]
    fn digest_detects_a_one_bit_flip_anywhere_in_a_word() {
        for base in [0, 0x0123_4567_89ab_cdef] {
            let h = image(&[(0x1040, base)]).content_hash();
            for bit in 0..64 {
                assert_ne!(
                    image(&[(0x1040, base ^ (1 << bit))]).content_hash(),
                    h,
                    "bit {bit} of {base:#x}"
                );
            }
        }
    }

    #[test]
    fn digest_ignores_mapping_and_write_order() {
        let words = [
            (0x1000, 1),
            (0x5ff8, 2),
            (STACK_BASE + 8, 3),
            (HEAP_BASE, 4),
        ];
        let mut reversed = words;
        reversed.reverse();
        assert_eq!(
            image(&words).content_hash(),
            image(&reversed).content_hash()
        );
    }

    #[test]
    fn range_digest_covers_pages_starting_in_unaligned_bounds() {
        let words = [(0x1000, 1), (0x2000, 2), (0x3000, 3)];
        let m = image(&words);
        // Pages starting in [0x1001, 0x3001) are pages 2 and 3.
        assert_eq!(
            m.content_hash_range(0x1001, 0x3001),
            image(&words[1..]).content_hash()
        );
        // The full range reaches the top page of the address space.
        assert_ne!(
            image(&[(u64::MAX - 15, 9)]).content_hash(),
            Mem::new().content_hash()
        );
    }

    #[test]
    fn heap_alloc_and_free() {
        let mut mem = Mem::new();
        let mut h = Heap::new(0);
        let a = h.alloc(&mut mem, 100).expect("alloc");
        assert!(a >= HEAP_BASE);
        assert!(mem.is_mapped(a));
        assert_eq!(h.size_of(a), Some(100));
        assert_eq!(h.dealloc(a), Some(100));
        assert_eq!(h.dealloc(a), None, "double free detected");
    }

    #[test]
    fn heap_reuses_freed_blocks() {
        let mut mem = Mem::new();
        let mut h = Heap::new(0);
        let a = h.alloc(&mut mem, 64).expect("alloc");
        h.dealloc(a);
        let b = h.alloc(&mut mem, 64).expect("alloc");
        assert_eq!(a, b, "address reuse is what makes stale metadata dangerous");
    }

    #[test]
    fn heap_reuse_zeroes_contents() {
        let mut mem = Mem::new();
        let mut h = Heap::new(0);
        let a = h.alloc(&mut mem, 32).expect("alloc");
        mem.write_uint(a, 8, 0x1234).expect("write");
        h.dealloc(a);
        let b = h.alloc(&mut mem, 32).expect("alloc");
        assert_eq!(mem.read_uint(b, 8).expect("read"), 0);
    }

    #[test]
    fn heap_redzones_separate_blocks() {
        let mut mem = Mem::new();
        let mut h = Heap::new(16);
        let a = h.alloc(&mut mem, 32).expect("alloc");
        let b = h.alloc(&mut mem, 32).expect("alloc");
        assert!(
            b >= a + 32 + 32,
            "redzones keep blocks apart (a={a:#x}, b={b:#x})"
        );
    }

    #[test]
    fn heap_refuses_sizes_past_the_largest_class() {
        // `calloc(2^62 + 1, 2)` reaches the heap as 2^63 + 2 bytes: no
        // power of two holds it, and unchecked rounding would wrap to a
        // 16-byte class (release) or panic (debug).
        let mut mem = Mem::new();
        let mut h = Heap::new(0);
        for size in [(1u64 << 63) + 2, u64::MAX] {
            assert_eq!(h.alloc(&mut mem, size), None, "{size:#x}");
        }
        // 2^63 has a class but no address space behind it, with or
        // without redzones around it.
        assert_eq!(h.alloc(&mut mem, 1 << 63), None);
        assert_eq!(Heap::new(16).alloc(&mut mem, 1 << 63), None);
        let p = h.alloc(&mut mem, 16).expect("the heap still serves");
        assert_eq!(h.size_of(p), Some(16));
    }

    #[test]
    fn peak_live_tracking() {
        let mut mem = Mem::new();
        let mut h = Heap::new(0);
        let a = h.alloc(&mut mem, 100).expect("a");
        let _b = h.alloc(&mut mem, 200).expect("b");
        h.dealloc(a);
        assert_eq!(h.peak_live, 300);
    }
}
