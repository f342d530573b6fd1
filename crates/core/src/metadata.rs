//! The disjoint metadata facilities of §5.1.
//!
//! SoftBound maps the *address of a pointer in memory* to that pointer's
//! `(base, bound)` metadata. The paper evaluates two organizations, both
//! implemented here with the paper's own instruction-count costs:
//!
//! * [`ShadowPages`] — the tag-less direct map of the paper's reserved
//!   virtual-address region, realized as a two-level paged table: the high
//!   bits of the slot index a private directory, the low bits index a
//!   page allocated on first touch. The only state instances share is a
//!   bounded pool of scrubbed page frames. Lookups are O(1) and
//!   branch-light (shift, mask, add, two loads ≈ 5 instructions) with no
//!   collisions by construction.
//! * [`HashTableFacility`] — open hashing over (tag, base, bound) entries;
//!   ~9 x86 instructions per lookup in the no-collision case (shift, mask,
//!   multiply, add, three loads, compare, branch), +3 per extra probe.
//!
//! [`ShadowHashMapFacility`] is a HashMap-backed simulation of the shadow
//! space with the same simulated costs as [`ShadowPages`]. It is not an
//! engine facility: the differential suites and the `metadata`
//! microbenchmark build it directly through
//! [`SoftBoundRuntime`](crate::SoftBoundRuntime) as the oracle the paged
//! map must match.
//!
//! Every access adds its cost to the machine's [`RtCtx`] and reports the
//! simulated table line it touched through [`RtCtx::touch`], so the VM's
//! cache model, which the context owns, charges the extra memory pressure
//! metadata accesses cause (the effect the paper observes on
//! treeadd/mst/health). Without a cache model a touch does nothing, so
//! the hot path stays allocation- and buffer-free.

use sb_vm::RtCtx;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Synthetic base address of the simulated shadow-space region (the paper
/// reserves the middle of the virtual address space via `mmap`).
pub const SHADOW_BASE: u64 = 0x0000_1000_0000_0000;
/// Synthetic base address of the simulated hash table.
pub const HASHTABLE_BASE: u64 = 0x0000_1800_0000_0000;

/// Pointer metadata: `[base, bound)` addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Meta {
    /// Lower bound (inclusive). 0 encodes "no access" (NULL bounds).
    pub base: u64,
    /// Upper bound (exclusive).
    pub bound: u64,
}

impl Meta {
    /// The NULL metadata (any dereference traps).
    pub const NULL: Meta = Meta { base: 0, bound: 0 };

    /// True if this is the NULL metadata.
    pub fn is_null(self) -> bool {
        self.base == 0 && self.bound == 0
    }
}

/// A metadata organization: address-of-pointer → metadata. Every access
/// adds its cost to `ctx.cost` and touches its table lines through
/// [`RtCtx::touch`].
pub trait MetadataFacility {
    /// Looks up the metadata for the pointer stored at `addr`. Returns
    /// [`Meta::NULL`] when absent.
    fn load(&mut self, addr: u64, ctx: &mut RtCtx) -> Meta;

    /// Stores metadata for the pointer stored at `addr`.
    fn store(&mut self, addr: u64, meta: Meta, ctx: &mut RtCtx);

    /// Clears every pointer-slot entry in `[addr, addr+len)` (8-byte
    /// aligned slots). Zero-length ranges touch nothing, even when
    /// `addr` is unaligned (the rounded-down slot lies outside an empty
    /// range).
    fn clear_range(&mut self, addr: u64, len: u64, ctx: &mut RtCtx) {
        if len == 0 {
            return;
        }
        let mut a = addr & !7;
        while a < addr + len {
            self.store(a, Meta::NULL, ctx);
            a += 8;
        }
    }

    /// Copies metadata for every pointer slot from `[src, src+len)` to
    /// `[dst, dst+len)` (memcpy metadata handling, §5.2): each aligned
    /// 8-byte slot offset below `len` is copied exactly once, so an
    /// unaligned length (e.g. a 12-byte memcpy) still moves the slots at
    /// offsets 0 and 8 and nothing else.
    fn copy_range(&mut self, dst: u64, src: u64, len: u64, ctx: &mut RtCtx) {
        let mut off = 0;
        while off < len {
            let m = self.load(src + off, ctx);
            self.store(dst + off, m, ctx);
            off += 8;
        }
    }

    /// Number of live (non-NULL) entries — memory-overhead statistics.
    fn live_entries(&self) -> usize;

    /// Bytes of host memory this facility owns: what it holds between
    /// runs plus what the current run committed. For the paged shadow,
    /// the directory root and chunks, the committed page frames and the
    /// overflow map's buckets ([`reset`](Self::reset) hands the frames
    /// to a process-wide pool charged to no instance); for the hash
    /// table, the bucket array and the chains that ever allocated.
    fn reservation_bytes(&self) -> usize;

    /// Forgets every entry, restoring the facility to its
    /// just-constructed state while keeping its expensive allocations
    /// (the paged shadow's directory chunks, the hash table's bucket
    /// array) alive for the next program run. This is the §5.1
    /// disjoint-metadata payoff a session-oriented embedding exploits:
    /// program state and metadata state reset independently, so
    /// back-to-back runs on one [`Instance`](crate::Instance) skip the
    /// per-machine setup cost entirely.
    fn reset(&mut self);
}

/// Approximates the standing host bytes of a `HashMap`'s *actual* bucket
/// layout. A `len()`-based estimate undercounts a standing reservation —
/// the table keeps its buckets when entries are removed — so facilities
/// size their maps from `capacity()`: hashbrown allocates the smallest
/// power-of-two bucket count whose 7/8 load ceiling covers that capacity,
/// with one `(K, V)` slot and one control byte per bucket.
fn hash_map_reservation_bytes<K, V>(map: &HashMap<K, V>) -> usize {
    let cap = map.capacity();
    if cap == 0 {
        return 0;
    }
    let buckets = (cap * 8).div_ceil(7).next_power_of_two();
    buckets * (std::mem::size_of::<(K, V)>() + 1)
}

// Paged shadow-space geometry: a slot is an 8-byte-aligned pointer
// location (`addr >> 3`). The low `SHADOW_PAGE_BITS` of the slot index a
// page; the next `SHADOW_DIR_BITS` index the directory. Together they
// cover the VM's entire 47-bit simulated address space
// (3 + 18 + 26 = 47); anything beyond spills to a cold overflow map so
// arbitrary u64 addresses remain correct.
const SHADOW_PAGE_BITS: u32 = 18;
const SHADOW_DIR_BITS: u32 = 26;
const SHADOW_PAGE_SLOTS: u64 = 1 << SHADOW_PAGE_BITS;
const SHADOW_DIRECT_SLOTS: u64 = 1 << (SHADOW_PAGE_BITS + SHADOW_DIR_BITS);
/// Host bytes of one page frame (4 MiB).
const PAGE_BYTES: usize = (SHADOW_PAGE_SLOTS as usize) * std::mem::size_of::<u128>();

// The directory splits its 2^26 entries into 2^13 chunks of 2^13 u32
// entries (32 KiB per chunk, 8192-entry root).
const DIR_CHUNK_BITS: u32 = 13;
const DIR_CHUNK_ENTRIES: usize = 1 << DIR_CHUNK_BITS;
const DIR_CHUNKS: usize = 1 << (SHADOW_DIR_BITS - DIR_CHUNK_BITS);

/// Frames [`FRAME_POOL`] retains. The pool is process state and is
/// charged to no instance's
/// [`reservation_bytes`](MetadataFacility::reservation_bytes): this cap
/// bounds it at 32 MiB of address space, mostly non-resident, because a
/// frame is allocated zeroed and only the extent a run wrote was ever
/// touched.
const FRAME_POOL_CAP: usize = 8;

/// Scrubbed (all-zero) page frames shared by every [`ShadowPages`] in
/// the process: [`reset`](MetadataFacility::reset) puts a facility's
/// frames here, and the next page commit, by any instance, takes one
/// instead of allocating. Only commit and reset take the lock; the check
/// path never does.
static FRAME_POOL: Mutex<Vec<Box<[u128]>>> = Mutex::new(Vec::new());

fn frame_pool() -> MutexGuard<'static, Vec<Box<[u128]>>> {
    // A push or pop that panics leaves the Vec intact, so a poisoned
    // pool still holds only all-zero frames.
    FRAME_POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A pooled frame if there is one, else a freshly allocated zeroed
/// frame. Either is all-zero, so a commit never fills.
fn take_frame() -> Box<[u128]> {
    let pooled = frame_pool().pop();
    pooled.unwrap_or_else(|| vec![0u128; SHADOW_PAGE_SLOTS as usize].into_boxed_slice())
}

/// Pools an all-zero frame, or frees it once the pool is full.
fn stash_frame(frame: Box<[u128]>) {
    let mut pool = frame_pool();
    if pool.len() < FRAME_POOL_CAP {
        pool.push(frame);
    }
}

/// One directory chunk: the page ids of `DIR_CHUNK_ENTRIES` consecutive
/// directory entries.
type Chunk = [u32; DIR_CHUNK_ENTRIES];

/// Bytes one chunk costs: the chunk and its pointer.
const CHUNK_BYTES: usize = std::mem::size_of::<Chunk>() + std::mem::size_of::<Box<Chunk>>();

/// The directory (slot high bits → page id + 1, 0 = no page). A span
/// without a chunk reads as "no page"; the first page commit in a
/// 32 KiB span allocates its chunk — the moment a 4 MiB frame is needed
/// anyway — and chunks survive [`MetadataFacility::reset`], so the warm
/// path never allocates.
#[derive(Debug)]
struct Directory {
    /// Per chunk span (`DIR_CHUNKS` entries): 0 while the span has no
    /// chunk, otherwise 1 + the index of its chunk in `chunks`. Two
    /// bytes per span keep the root each instance allocates up front at
    /// 16 KiB; the allocator zeroes a root recycled from freed memory by
    /// hand, which makes all of it resident at once.
    root: Box<[u16]>,
    /// Allocated chunks, in first-commit order.
    chunks: Vec<Box<Chunk>>,
}

impl Directory {
    fn new() -> Self {
        Directory {
            root: vec![0; DIR_CHUNKS].into_boxed_slice(),
            chunks: Vec::new(),
        }
    }

    #[inline]
    fn get(&self, di: usize) -> u32 {
        match self.root[di >> DIR_CHUNK_BITS] {
            0 => 0,
            c => self.chunks[c as usize - 1][di & (DIR_CHUNK_ENTRIES - 1)],
        }
    }

    fn set(&mut self, di: usize, pid: u32) {
        let span = &mut self.root[di >> DIR_CHUNK_BITS];
        if *span == 0 {
            // A span without a chunk already says "no page".
            if pid == 0 {
                return;
            }
            self.chunks.push(
                vec![0u32; DIR_CHUNK_ENTRIES]
                    .into_boxed_slice()
                    .try_into()
                    .expect("allocated with DIR_CHUNK_ENTRIES entries"),
            );
            *span = u16::try_from(self.chunks.len()).expect("at most DIR_CHUNKS chunks");
        }
        self.chunks[*span as usize - 1][di & (DIR_CHUNK_ENTRIES - 1)] = pid;
    }

    /// Host bytes of the root and every allocated chunk.
    fn bytes(&self) -> usize {
        std::mem::size_of_val::<[u16]>(&self.root) + self.chunks.len() * CHUNK_BYTES
    }
}

/// The tag-less shadow-space organization (§5.1 "Shadow space"),
/// implemented as a real two-level paged direct map.
///
/// The directory maps a slot's high bits to a page id, and each page is
/// a flat array of packed `(base, bound)` entries. Pages are allocated
/// zeroed (`calloc` → anonymous mappings), so their spans stay
/// *virtual* until individual OS pages are touched — the same
/// demand-paging trick the paper plays by `mmap`-reserving half the
/// address space for the shadow region. The directory is private: a
/// 16 KiB root whose 32 KiB chunks are allocated by the first page
/// commit in their span, so a span this facility never touched reads as
/// "no page" with nothing behind it. A lookup is shift, mask, a chunk
/// lookup and two indexed loads: O(1), branch-light, no tags, no
/// collisions, and no lock.
///
/// Entries are stored as `u128` words (base in the low half, bound in
/// the high half) so page allocation hits the zeroed-memory fast path;
/// the all-zero word is exactly [`Meta::NULL`].
///
/// ## Frame reuse
///
/// A page stays committed until [`reset`](MetadataFacility::reset),
/// which zeroes each frame's written extent (a few cache lines for a
/// typical request, never a 4 MiB memset), keeps the directory chunks,
/// and hands the frames to a bounded process-wide pool. The next page
/// commit, by this instance or any other, takes a pooled frame instead
/// of allocating, so an idle instance holds no frames and a fleet's
/// fresh workers reuse the frames of those that reset.
/// [`clear_range`](MetadataFacility::clear_range) is the trait's
/// per-slot walk, shared with the HashMap oracle.
#[derive(Debug)]
pub struct ShadowPages {
    dir: Directory,
    /// Committed pages, in first-touch order (index = page id - 1).
    pages: Vec<Page>,
    /// Cold store for slots beyond the 47-bit simulated space.
    overflow: HashMap<u64, Meta>,
    live: usize,
}

/// One committed shadow page.
#[derive(Debug)]
struct Page {
    /// Packed `(base, bound)` entries, all-zero outside
    /// `[dirty_lo, dirty_hi)`.
    slots: Box<[u128]>,
    /// Directory index owning this page.
    dir_index: u32,
    /// Extent of the non-NULL stores since commit (`lo >= hi` = none).
    /// Scrubbing touches only this span, so a worker that writes a few
    /// hundred entries never pays a 4 MiB memset — the frames stay as
    /// cheap to recycle as freshly `calloc`ed ones.
    dirty_lo: u32,
    dirty_hi: u32,
}

impl Page {
    #[inline]
    fn note_write(&mut self, idx: usize) {
        let idx = idx as u32;
        self.dirty_lo = self.dirty_lo.min(idx);
        self.dirty_hi = self.dirty_hi.max(idx + 1);
    }

    /// The frame with its written extent zeroed: all-zero again.
    fn into_scrubbed_frame(mut self) -> Box<[u128]> {
        if self.dirty_lo < self.dirty_hi {
            self.slots[self.dirty_lo as usize..self.dirty_hi as usize].fill(0);
        }
        self.slots
    }
}

#[inline]
fn pack(m: Meta) -> u128 {
    (m.base as u128) | ((m.bound as u128) << 64)
}

#[inline]
fn unpack(v: u128) -> Meta {
    Meta {
        base: v as u64,
        bound: (v >> 64) as u64,
    }
}

impl ShadowPages {
    /// Creates an empty shadow space.
    pub fn new() -> Self {
        ShadowPages {
            dir: Directory::new(),
            pages: Vec::new(),
            overflow: HashMap::new(),
            live: 0,
        }
    }

    /// Number of committed pages (memory-overhead statistics).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    fn table_addr(slot: u64) -> u64 {
        SHADOW_BASE.wrapping_add(slot.wrapping_mul(16))
    }

    /// Commits a page for directory entry `di` and returns its id.
    fn commit_page(&mut self, di: usize) -> u32 {
        self.pages.push(Page {
            slots: take_frame(),
            dir_index: di as u32,
            dirty_lo: u32::MAX,
            dirty_hi: 0,
        });
        let pid = self.pages.len() as u32;
        self.dir.set(di, pid);
        pid
    }
}

impl Default for ShadowPages {
    fn default() -> Self {
        Self::new()
    }
}

impl MetadataFacility for ShadowPages {
    // Static dispatch only pays off if these bodies can cross the crate
    // boundary into the monomorphized machine loop.
    #[inline]
    fn load(&mut self, addr: u64, ctx: &mut RtCtx) -> Meta {
        let slot = addr >> 3;
        ctx.cost += 5;
        ctx.touch(Self::table_addr(slot));
        if slot < SHADOW_DIRECT_SLOTS {
            let pid = self.dir.get((slot >> SHADOW_PAGE_BITS) as usize);
            if pid == 0 {
                return Meta::NULL;
            }
            unpack(self.pages[(pid - 1) as usize].slots[(slot & (SHADOW_PAGE_SLOTS - 1)) as usize])
        } else {
            self.overflow.get(&slot).copied().unwrap_or(Meta::NULL)
        }
    }

    #[inline]
    fn store(&mut self, addr: u64, meta: Meta, ctx: &mut RtCtx) {
        let slot = addr >> 3;
        ctx.cost += 5;
        ctx.touch(Self::table_addr(slot));
        if slot < SHADOW_DIRECT_SLOTS {
            let di = (slot >> SHADOW_PAGE_BITS) as usize;
            let mut pid = self.dir.get(di);
            if pid == 0 {
                // Null stores into untouched regions need no page.
                if meta.is_null() {
                    return;
                }
                pid = self.commit_page(di);
            }
            let page = &mut self.pages[(pid - 1) as usize];
            let idx = (slot & (SHADOW_PAGE_SLOTS - 1)) as usize;
            let entry = &mut page.slots[idx];
            let was_null = *entry == 0;
            *entry = pack(meta);
            if !meta.is_null() {
                // Null stores write zero and can't widen the nonzero
                // extent, so only live stores advance the dirty span.
                page.note_write(idx);
            }
            match (was_null, meta.is_null()) {
                (true, false) => self.live += 1,
                (false, true) => self.live -= 1,
                _ => {}
            }
        } else if meta.is_null() {
            if self.overflow.remove(&slot).is_some() {
                self.live -= 1;
            }
        } else if self.overflow.insert(slot, meta).is_none() {
            self.live += 1;
        }
    }

    fn live_entries(&self) -> usize {
        self.live
    }

    /// The directory's root and chunks, the committed page frames, and
    /// the overflow map's actual bucket layout. Pooled frames belong to
    /// no instance.
    fn reservation_bytes(&self) -> usize {
        self.dir.bytes()
            + self.pages.len() * PAGE_BYTES
            + hash_map_reservation_bytes(&self.overflow)
    }

    /// Empties every committed page, zeroing only the directory entries
    /// that were used and only each frame's written extent, and returns
    /// the frames to the process-wide pool; the directory chunks stay
    /// for the next run.
    fn reset(&mut self) {
        for page in self.pages.drain(..) {
            self.dir.set(page.dir_index as usize, 0);
            stash_frame(page.into_scrubbed_frame());
        }
        self.overflow.clear();
        self.live = 0;
    }
}

/// The HashMap-backed shadow-space *simulation*: the oracle of the
/// differential tests and the slow comparison point of the §5.1
/// microbenchmark. Costs and simulated table addresses match
/// [`ShadowPages`] exactly; only the host data structure differs. Not
/// an engine facility — build it with
/// [`SoftBoundRuntime::new_shadow_hashmap`](crate::SoftBoundRuntime::new_shadow_hashmap).
#[derive(Debug, Default)]
pub struct ShadowHashMapFacility {
    entries: HashMap<u64, Meta>,
}

impl ShadowHashMapFacility {
    /// Creates an empty shadow space.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetadataFacility for ShadowHashMapFacility {
    #[inline]
    fn load(&mut self, addr: u64, ctx: &mut RtCtx) -> Meta {
        let slot = addr >> 3;
        ctx.cost += 5;
        ctx.touch(ShadowPages::table_addr(slot));
        self.entries.get(&slot).copied().unwrap_or(Meta::NULL)
    }

    #[inline]
    fn store(&mut self, addr: u64, meta: Meta, ctx: &mut RtCtx) {
        let slot = addr >> 3;
        ctx.cost += 5;
        ctx.touch(ShadowPages::table_addr(slot));
        if meta.is_null() {
            self.entries.remove(&slot);
        } else {
            self.entries.insert(slot, meta);
        }
    }

    fn live_entries(&self) -> usize {
        self.entries.len()
    }

    /// The HashMap's actual bucket layout (sized from `capacity`); no
    /// standing reservation beyond the table.
    fn reservation_bytes(&self) -> usize {
        hash_map_reservation_bytes(&self.entries)
    }

    fn reset(&mut self) {
        self.entries.clear();
    }
}

/// The open-hashing organization (§5.1 "Hash table").
///
/// Entries are 24-byte (tag, base, bound) triples; the hash is the
/// double-word address modulo a power-of-two table size (shift + mask).
/// Collisions chain; each extra probe costs 3 instructions and touches
/// another table line, which is how this organization loses to the shadow
/// space on pointer-dense workloads.
///
/// Chains keep their capacity across [`reset`](MetadataFacility::reset),
/// and the facility records each bucket the first time its chain
/// allocates, so `reset` and
/// [`reservation_bytes`](MetadataFacility::reservation_bytes) visit only
/// those chains instead of all 2^20 buckets.
#[derive(Debug)]
pub struct HashTableFacility {
    buckets: Vec<Vec<(u64, Meta)>>, // (slot-tag, meta)
    /// Buckets whose chain has allocated, in first-allocation order.
    allocated: Vec<usize>,
    mask: u64,
    live: usize,
    /// Total probes beyond the first (collision statistics).
    pub extra_probes: u64,
}

impl HashTableFacility {
    /// Creates a table with `1 << log2_buckets` buckets (default 20 —
    /// "sizing the table large enough to keep average utilization low").
    pub fn new(log2_buckets: u32) -> Self {
        let n = 1usize << log2_buckets;
        HashTableFacility {
            buckets: vec![Vec::new(); n],
            allocated: Vec::new(),
            mask: n as u64 - 1,
            live: 0,
            extra_probes: 0,
        }
    }

    fn bucket_addr(&self, b: u64, depth: u64) -> u64 {
        HASHTABLE_BASE + b * 24 + depth * (self.mask + 1) * 24
    }
}

impl Default for HashTableFacility {
    fn default() -> Self {
        Self::new(20)
    }
}

impl MetadataFacility for HashTableFacility {
    fn load(&mut self, addr: u64, ctx: &mut RtCtx) -> Meta {
        let slot = addr >> 3;
        let b = slot & self.mask;
        ctx.cost += 9;
        ctx.touch(self.bucket_addr(b, 0));
        let chain = &self.buckets[b as usize];
        for (depth, (tag, meta)) in chain.iter().enumerate() {
            if *tag == slot {
                if depth > 0 {
                    ctx.cost += 3 * depth as u64;
                    self.extra_probes += depth as u64;
                    ctx.touch(self.bucket_addr(b, depth as u64));
                }
                return *meta;
            }
        }
        let extra = chain.len().saturating_sub(1) as u64;
        ctx.cost += 3 * extra;
        self.extra_probes += extra;
        Meta::NULL
    }

    fn store(&mut self, addr: u64, meta: Meta, ctx: &mut RtCtx) {
        let slot = addr >> 3;
        let b = slot & self.mask;
        ctx.cost += 9;
        ctx.touch(self.bucket_addr(b, 0));
        let chain = &mut self.buckets[b as usize];
        if let Some(pos) = chain.iter().position(|(tag, _)| *tag == slot) {
            if pos > 0 {
                ctx.cost += 3 * pos as u64;
                self.extra_probes += pos as u64;
            }
            if meta.is_null() {
                chain.swap_remove(pos);
                self.live -= 1;
            } else {
                chain[pos].1 = meta;
            }
        } else if !meta.is_null() {
            let extra = chain.len() as u64;
            ctx.cost += 3 * extra;
            self.extra_probes += extra;
            if chain.capacity() == 0 {
                self.allocated.push(b as usize);
            }
            chain.push((slot, meta));
            self.live += 1;
        }
    }

    fn live_entries(&self) -> usize {
        self.live
    }

    /// Bucket array (kept across resets) plus the capacities of the
    /// chains that ever allocated.
    fn reservation_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Vec<(u64, Meta)>>()
            + self
                .allocated
                .iter()
                .map(|&b| self.buckets[b].capacity() * std::mem::size_of::<(u64, Meta)>())
                .sum::<usize>()
    }

    /// Empties every chain that ever allocated, in place — chains and
    /// the bucket array keep their capacity, so a reused table skips
    /// re-sizing on the next run.
    fn reset(&mut self) {
        for &b in &self.allocated {
            self.buckets[b].clear();
        }
        self.live = 0;
        self.extra_probes = 0;
    }
}

// Fleet workers each move a facility into their thread. Compile-time
// proof the paged shadow is Send + Sync.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShadowPages>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sb_vm::{CacheConfig, CacheSim, CacheStats};

    fn roundtrip(fac: &mut dyn MetadataFacility) {
        let mut ctx = RtCtx::default();
        let m = Meta {
            base: 0x1000,
            bound: 0x1040,
        };
        assert_eq!(fac.load(0x2000, &mut ctx), Meta::NULL);
        fac.store(0x2000, m, &mut ctx);
        assert_eq!(fac.load(0x2000, &mut ctx), m);
        assert_eq!(
            fac.load(0x2008, &mut ctx),
            Meta::NULL,
            "adjacent slot distinct"
        );
        fac.store(0x2000, Meta::NULL, &mut ctx);
        assert_eq!(fac.load(0x2000, &mut ctx), Meta::NULL);
        assert_eq!(fac.live_entries(), 0);
    }

    #[test]
    fn shadow_paged_roundtrip() {
        roundtrip(&mut ShadowPages::new());
    }

    #[test]
    fn shadow_hashmap_roundtrip() {
        roundtrip(&mut ShadowHashMapFacility::new());
    }

    #[test]
    fn hash_roundtrip() {
        roundtrip(&mut HashTableFacility::new(10));
    }

    /// A context whose cache model charges `miss_penalty` per miss.
    fn cached(miss_penalty: u64) -> RtCtx {
        RtCtx {
            cache: Some(CacheSim::new(CacheConfig {
                miss_penalty,
                ..CacheConfig::CORE2_L1
            })),
            ..RtCtx::default()
        }
    }

    /// What the cache model in `ctx` has seen so far.
    fn cache_stats(ctx: &RtCtx) -> CacheStats {
        ctx.cache.as_ref().expect("context has a cache").stats
    }

    #[test]
    fn shadow_costs_five() {
        for fac in [
            &mut ShadowPages::new() as &mut dyn MetadataFacility,
            &mut ShadowHashMapFacility::new(),
        ] {
            let mut ctx = cached(0);
            fac.load(0x4000, &mut ctx);
            assert_eq!(ctx.cost, 5, "paper: shadow lookup ≈ 5 instructions");
            assert_eq!(cache_stats(&ctx).accesses, 1);
        }
    }

    #[test]
    fn hash_costs_nine_no_collision() {
        let mut f = HashTableFacility::new(16);
        let mut ctx = RtCtx::default();
        f.load(0x4000, &mut ctx);
        assert_eq!(ctx.cost, 9, "paper: hash lookup ≈ 9 instructions");
    }

    #[test]
    fn hash_collisions_cost_extra() {
        // 4-bucket table: slots 0 and 16 collide (slot = addr>>3).
        let mut f = HashTableFacility::new(2);
        let mut ctx = RtCtx::default();
        let m = Meta { base: 1, bound: 2 };
        f.store(0x0, m, &mut ctx); // slot 0, bucket 0
        f.store(0x80, m, &mut ctx); // slot 16, bucket 0 → chained
        ctx.reset();
        f.load(0x80, &mut ctx);
        assert_eq!(
            ctx.cost,
            9 + 3,
            "second chain position costs one extra probe"
        );
        assert!(f.extra_probes > 0);
    }

    #[test]
    fn touches_charge_misses_only_under_a_cache() {
        // Without a cache model a touch costs nothing; with one, the
        // store's cold line misses and the load of the same slot hits.
        let m = Meta { base: 1, bound: 2 };
        let mut f = ShadowPages::new();
        let mut flat = RtCtx::default();
        f.store(0x2000, m, &mut flat);
        assert_eq!(f.load(0x2000, &mut flat), m);
        assert_eq!(flat.cost, 2 * 5);
        let penalty = CacheConfig::CORE2_L1.miss_penalty;
        let mut ctx = cached(penalty);
        f.store(0x2000, m, &mut ctx);
        assert_eq!(f.load(0x2000, &mut ctx), m);
        let stats = cache_stats(&ctx);
        assert_eq!((stats.accesses, stats.misses), (2, 1));
        assert_eq!(ctx.cost, 2 * 5 + penalty);
    }

    #[test]
    fn facilities_agree_randomized() {
        // Property: all three organizations implement the same map. The
        // HashMap shadow is the oracle; the paged shadow and the (tiny,
        // collision-heavy) hash table must agree with it after a churn
        // of overwrites and deletions.
        let mut paged = ShadowPages::new();
        let mut oracle = ShadowHashMapFacility::new();
        let mut ht = HashTableFacility::new(6); // tiny → lots of collisions
        let mut ctx = RtCtx::default();
        let mut state = 0x12345u64;
        let mut addrs = Vec::new();
        for i in 0..3000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (state % 4096) & !7;
            // A third of the stores are deletions (NULL metadata).
            let meta = if i % 3 == 0 {
                Meta::NULL
            } else {
                Meta {
                    base: i * 16,
                    bound: i * 16 + 64,
                }
            };
            paged.store(addr, meta, &mut ctx);
            oracle.store(addr, meta, &mut ctx);
            ht.store(addr, meta, &mut ctx);
            addrs.push(addr);
        }
        for addr in addrs {
            let expected = oracle.load(addr, &mut ctx);
            assert_eq!(
                paged.load(addr, &mut ctx),
                expected,
                "paged diverged at {addr:#x}"
            );
            assert_eq!(
                ht.load(addr, &mut ctx),
                expected,
                "hash diverged at {addr:#x}"
            );
        }
        assert_eq!(paged.live_entries(), oracle.live_entries());
        assert_eq!(ht.live_entries(), oracle.live_entries());
    }

    #[test]
    fn sparse_addresses_hit_distinct_pages() {
        // Widely separated addresses — the VM's global/heap/stack regions,
        // page-boundary straddles, and beyond-47-bit overflow — must land
        // in distinct directory entries without aliasing.
        let mut f = ShadowPages::new();
        let mut ctx = RtCtx::default();
        let page_span = 8 << SHADOW_PAGE_BITS; // addresses covered per page
        let addrs: Vec<u64> = vec![
            0x0000_0000_0001_0000, // GLOBAL_BASE
            0x0000_2000_0000_0000, // HEAP_BASE
            0x0000_7F00_0000_0000, // STACK_BASE
            0x0000_4000_0000_0000, // FN_BASE
            page_span - 8,         // last slot of page 0
            page_span,             // first slot of page 1
            37 * page_span + 1024, // interior of a far page
            (1 << 47) - 8,         // last directly-mapped slot
            1 << 47,               // first overflow slot
            !7u64,                 // extreme overflow (highest aligned slot)
        ];
        for (i, &a) in addrs.iter().enumerate() {
            let meta = Meta {
                base: i as u64 + 1,
                bound: i as u64 + 100,
            };
            f.store(a, meta, &mut ctx);
        }
        for (i, &a) in addrs.iter().enumerate() {
            let expected = Meta {
                base: i as u64 + 1,
                bound: i as u64 + 100,
            };
            assert_eq!(f.load(a, &mut ctx), expected, "aliased at {a:#x}");
        }
        assert_eq!(f.live_entries(), addrs.len());
        // Adjacent-but-cross-page slots must not have merged.
        assert!(
            f.page_count() >= 6,
            "expected many distinct pages, got {}",
            f.page_count()
        );
        // Clearing restores emptiness (exercises overflow removal too).
        for &a in &addrs {
            f.store(a, Meta::NULL, &mut ctx);
        }
        assert_eq!(f.live_entries(), 0);
    }

    #[test]
    fn null_stores_do_not_materialize_pages() {
        let mut f = ShadowPages::new();
        let mut ctx = RtCtx::default();
        f.store(0x5000, Meta::NULL, &mut ctx);
        f.clear_range(0x9000, 256, &mut ctx);
        assert_eq!(f.page_count(), 0, "null stores must not commit pages");
        assert_eq!(f.live_entries(), 0);
    }

    #[test]
    fn clear_range_wipes_slots() {
        let mut f = ShadowPages::new();
        let mut ctx = RtCtx::default();
        for i in 0..8 {
            f.store(0x3000 + i * 8, Meta { base: 1, bound: 2 }, &mut ctx);
        }
        f.clear_range(0x3000, 32, &mut ctx);
        assert_eq!(f.live_entries(), 4, "only the first 4 slots cleared");
    }

    #[test]
    fn copy_range_moves_metadata() {
        let mut f = ShadowPages::new();
        let mut ctx = RtCtx::default();
        let m = Meta {
            base: 0x10,
            bound: 0x20,
        };
        f.store(0x5000, m, &mut ctx);
        f.store(
            0x5008,
            Meta {
                base: 0x30,
                bound: 0x40,
            },
            &mut ctx,
        );
        f.copy_range(0x6000, 0x5000, 16, &mut ctx);
        assert_eq!(f.load(0x6000, &mut ctx), m);
        assert_eq!(f.load(0x6008, &mut ctx).base, 0x30);
    }

    #[test]
    fn copy_range_unaligned_len_copies_each_slot_once() {
        // Regression for the old convoluted slot loop: a 12-byte memcpy
        // must copy the slots at offsets 0 and 8 exactly once each (two
        // loads + two stores = 4 shadow accesses, 20 cost units) and must
        // not touch the slot at offset 16.
        for fac in [
            &mut ShadowPages::new() as &mut dyn MetadataFacility,
            &mut ShadowHashMapFacility::new(),
        ] {
            let mut ctx = RtCtx::default();
            fac.store(0x5000, Meta { base: 1, bound: 2 }, &mut ctx);
            fac.store(0x5008, Meta { base: 3, bound: 4 }, &mut ctx);
            fac.store(0x5010, Meta { base: 5, bound: 6 }, &mut ctx);
            let mut ctx = cached(0);
            fac.copy_range(0x6000, 0x5000, 12, &mut ctx);
            assert_eq!(
                ctx.cost,
                4 * 5,
                "2 loads + 2 stores at 5 each: {}",
                ctx.cost
            );
            assert_eq!(cache_stats(&ctx).accesses, 4);
            assert_eq!(fac.load(0x6000, &mut ctx), Meta { base: 1, bound: 2 });
            assert_eq!(fac.load(0x6008, &mut ctx), Meta { base: 3, bound: 4 });
            assert_eq!(
                fac.load(0x6010, &mut ctx),
                Meta::NULL,
                "slot past len untouched"
            );
        }
    }

    /// Bytes of simulated address space covered by one shadow page.
    const PAGE_SPAN: u64 = 8 << SHADOW_PAGE_BITS;

    /// Runs the same mutation script against the paged shadow and the
    /// HashMap oracle, then asserts both agree on every probed address
    /// and on the live-entry count.
    fn differential(script: impl Fn(&mut dyn MetadataFacility, &mut RtCtx), probes: &[u64]) {
        let mut paged = ShadowPages::new();
        let mut oracle = ShadowHashMapFacility::new();
        let mut ctx = RtCtx::default();
        script(&mut paged, &mut ctx);
        script(&mut oracle, &mut ctx);
        for &a in probes {
            let expected = oracle.load(a, &mut ctx);
            assert_eq!(
                paged.load(a, &mut ctx),
                expected,
                "paged diverged from oracle at {a:#x}"
            );
        }
        assert_eq!(paged.live_entries(), oracle.live_entries());
    }

    #[test]
    fn clear_range_across_directory_entries() {
        // A span straddling the page-0/page-1 boundary clears slots in
        // *two* directory entries; neighbours on either side survive.
        let lo = PAGE_SPAN - 32; // last 4 slots of page 0
        let probes: Vec<u64> = (0..12).map(|i| lo - 16 + i * 8).collect();
        differential(
            |f, ctx| {
                for i in 0..12 {
                    f.store(lo - 16 + i * 8, Meta { base: 1, bound: 2 }, ctx);
                }
                f.clear_range(lo, 64, ctx); // 4 slots each side of the boundary
            },
            &probes,
        );
        // Direct structural claim: both pages stayed materialized and
        // exactly the 4 surviving neighbours remain.
        let mut f = ShadowPages::new();
        let mut ctx = RtCtx::default();
        for i in 0..12 {
            f.store(lo - 16 + i * 8, Meta { base: 1, bound: 2 }, &mut ctx);
        }
        assert_eq!(f.page_count(), 2);
        f.clear_range(lo, 64, &mut ctx);
        assert_eq!(f.live_entries(), 4);
        assert_eq!(f.load(lo - 16, &mut ctx), Meta { base: 1, bound: 2 });
        assert_eq!(f.load(lo + 64, &mut ctx), Meta { base: 1, bound: 2 });
    }

    #[test]
    fn copy_range_across_directory_entries() {
        // Source sits at the end of page 0, destination at the start of
        // page 37: the copy reads and writes across directory entries.
        let src = PAGE_SPAN - 24;
        let dst = 37 * PAGE_SPAN;
        let probes: Vec<u64> = (0..6).flat_map(|i| [src + i * 8, dst + i * 8]).collect();
        differential(
            |f, ctx| {
                for i in 0..6u64 {
                    f.store(
                        src + i * 8,
                        Meta {
                            base: 10 + i,
                            bound: 100 + i,
                        },
                        ctx,
                    );
                }
                f.copy_range(dst, src, 48, ctx);
            },
            &probes,
        );
    }

    #[test]
    fn whole_page_clear_empties_exactly_one_page() {
        // Populate all of page 1 plus one sentinel slot on each
        // neighbouring page, clear exactly page 1, and check the paged
        // map against the oracle on the boundary slots.
        let page1 = PAGE_SPAN;
        let stride = 512; // sample the page rather than all 256Ki slots
        differential(
            |f, ctx| {
                f.store(page1 - 8, Meta { base: 7, bound: 8 }, ctx);
                f.store(2 * PAGE_SPAN, Meta { base: 9, bound: 10 }, ctx);
                let mut a = page1;
                while a < 2 * PAGE_SPAN {
                    f.store(
                        a,
                        Meta {
                            base: a,
                            bound: a + 8,
                        },
                        ctx,
                    );
                    a += stride;
                }
                f.clear_range(page1, PAGE_SPAN, ctx);
            },
            &[
                page1 - 8,
                page1,
                page1 + stride,
                2 * PAGE_SPAN - stride,
                2 * PAGE_SPAN,
            ],
        );
        let mut f = ShadowPages::new();
        let mut ctx = RtCtx::default();
        let mut a = page1;
        while a < 2 * PAGE_SPAN {
            f.store(a, Meta { base: 1, bound: 2 }, &mut ctx);
            a += stride;
        }
        f.store(page1 - 8, Meta { base: 7, bound: 8 }, &mut ctx);
        f.clear_range(page1, PAGE_SPAN, &mut ctx);
        assert_eq!(f.live_entries(), 1, "only the page-0 sentinel survives");
    }

    #[test]
    fn zero_length_ops_touch_nothing() {
        // Aligned and unaligned zero-length clears and copies are no-ops
        // on both organizations — including the rounded-down slot of an
        // unaligned address.
        let probes = [0x5000u64, 0x5008, PAGE_SPAN - 8, PAGE_SPAN];
        differential(
            |f, ctx| {
                for &a in &probes {
                    f.store(a, Meta { base: 3, bound: 4 }, ctx);
                }
                f.clear_range(0x5000, 0, ctx);
                f.clear_range(0x5004, 0, ctx); // unaligned
                f.clear_range(PAGE_SPAN - 1, 0, ctx); // unaligned at a boundary
                f.copy_range(0x6000, 0x5000, 0, ctx);
            },
            &probes,
        );
        let mut f = ShadowPages::new();
        let mut ctx = RtCtx::default();
        f.store(0x5000, Meta { base: 3, bound: 4 }, &mut ctx);
        f.clear_range(0x5004, 0, &mut ctx);
        assert_eq!(
            f.load(0x5000, &mut ctx),
            Meta { base: 3, bound: 4 },
            "unaligned zero-length clear must not wipe the containing slot"
        );
    }

    #[test]
    fn clear_range_differential_random_churn() {
        // Pseudo-random stores interleaved with clears — partial spans,
        // page-straddling spans, and multi-whole-page spans — must leave
        // both organizations with identical maps and live counts.
        let addr_of = |state: u64| (state % (5 * PAGE_SPAN)) & !7;
        let probes: Vec<u64> = {
            let mut v: Vec<u64> = (0..5 * PAGE_SPAN / 8).step_by(997).map(|s| s * 8).collect();
            v.extend([
                0,
                PAGE_SPAN - 8,
                PAGE_SPAN,
                4 * PAGE_SPAN,
                5 * PAGE_SPAN - 8,
            ]);
            v
        };
        differential(
            |f, ctx| {
                let mut state = 0xfeed_beefu64;
                for i in 0..1500u64 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let addr = addr_of(state);
                    if i % 149 == 0 {
                        // Clear a whole page. Rare, because each side
                        // pays a per-slot walk.
                        f.clear_range((addr / PAGE_SPAN) * PAGE_SPAN, PAGE_SPAN, ctx);
                    } else if i % 599 == 1 {
                        // Two whole pages plus a partial tail.
                        f.clear_range((addr / PAGE_SPAN) * PAGE_SPAN, 2 * PAGE_SPAN + 72, ctx);
                    } else if i % 13 == 5 {
                        // A span straddling up to two pages.
                        f.clear_range(addr, (state >> 33) % 512 + 1, ctx);
                    } else {
                        f.store(
                            addr,
                            Meta {
                                base: i + 1,
                                bound: i + 101,
                            },
                            ctx,
                        );
                    }
                }
            },
            &probes,
        );
    }

    #[test]
    fn whole_page_clear_cost_matches_oracle() {
        // A clear over a whole page must report exactly the cost and
        // table traffic of the oracle's per-slot walk, or the cycle
        // equality the machine differential suite asserts would break.
        let mut paged = ShadowPages::new();
        let mut oracle = ShadowHashMapFacility::new();
        let mut setup = RtCtx::default();
        for f in [
            &mut paged as &mut dyn MetadataFacility,
            &mut oracle as &mut dyn MetadataFacility,
        ] {
            f.store(PAGE_SPAN + 64, Meta { base: 1, bound: 2 }, &mut setup);
        }
        // A span covering all of page 1 plus 3 slots of page 2.
        let penalty = CacheConfig::CORE2_L1.miss_penalty;
        let mut ps = cached(penalty);
        paged.clear_range(PAGE_SPAN, PAGE_SPAN + 24, &mut ps);
        let mut os = cached(penalty);
        oracle.clear_range(PAGE_SPAN, PAGE_SPAN + 24, &mut os);
        assert_eq!(ps.cost, os.cost, "whole-page clear cost diverged");
        assert_eq!(cache_stats(&ps), cache_stats(&os), "table traffic diverged");
    }

    #[test]
    fn reset_empties_every_facility_and_reuses_reservation() {
        for (name, fac) in [
            (
                "paged",
                &mut ShadowPages::new() as &mut dyn MetadataFacility,
            ),
            ("oracle", &mut ShadowHashMapFacility::new()),
            ("hash table", &mut HashTableFacility::new(8)),
        ] {
            let mut ctx = RtCtx::default();
            for i in 0..64u64 {
                fac.store(
                    0x8000 + i * 8,
                    Meta {
                        base: i + 1,
                        bound: i + 2,
                    },
                    &mut ctx,
                );
            }
            fac.store(1 << 50, Meta { base: 9, bound: 10 }, &mut ctx);
            assert_eq!(fac.live_entries(), 65, "{name}");
            fac.reset();
            assert_eq!(fac.live_entries(), 0, "{name} not empty after reset");
            assert_eq!(fac.load(0x8000, &mut ctx), Meta::NULL, "{name}");
            assert_eq!(fac.load(1 << 50, &mut ctx), Meta::NULL, "{name}");
            // The facility stays fully usable after reset.
            fac.store(0x8000, Meta { base: 3, bound: 4 }, &mut ctx);
            assert_eq!(fac.load(0x8000, &mut ctx), Meta { base: 3, bound: 4 });
            assert_eq!(fac.live_entries(), 1);
        }

        // Paged specifics: every frame leaves the facility (a cleared
        // page included), and the directory chunk is kept (its pointer
        // is stable across reset).
        let mut f = ShadowPages::new();
        let mut ctx = RtCtx::default();
        f.store(0x9000, Meta { base: 1, bound: 2 }, &mut ctx);
        f.clear_range(0, 2 * PAGE_SPAN, &mut ctx);
        f.store(5 * PAGE_SPAN, Meta { base: 5, bound: 6 }, &mut ctx);
        assert_eq!(f.page_count(), 2, "a cleared page stays committed");
        let chunk = |f: &ShadowPages| f.dir.chunks[0].as_ptr();
        let chunk_ptr = chunk(&f);
        f.reset();
        assert_eq!(f.page_count(), 0);
        assert_eq!(f.live_entries(), 0);
        assert!(
            std::ptr::eq(chunk_ptr, chunk(&f)),
            "directory chunk reallocated"
        );
        // Every directory entry that was used is zero again.
        assert_eq!(f.load(0x9000, &mut ctx), Meta::NULL);
        assert_eq!(f.load(5 * PAGE_SPAN, &mut ctx), Meta::NULL);

        // Hash-table specifics: reset and the reservation visit only the
        // chains that ever allocated; across collision-heavy churn and
        // resets the reservation equals the walk over every bucket, and
        // reset leaves every chain empty.
        let full_walk = |t: &HashTableFacility| {
            t.buckets.capacity() * std::mem::size_of::<Vec<(u64, Meta)>>()
                + t.buckets
                    .iter()
                    .map(|c| c.capacity() * std::mem::size_of::<(u64, Meta)>())
                    .sum::<usize>()
        };
        let mut ht = HashTableFacility::new(8);
        for round in 0..3u64 {
            for i in 0..300u64 {
                let addr = 0x1000 + i * 40 + round * 8;
                ht.store(
                    addr,
                    Meta {
                        base: i + 1,
                        bound: i + 2,
                    },
                    &mut ctx,
                );
                if i % 3 == 0 {
                    ht.store(addr, Meta::NULL, &mut ctx);
                }
            }
            assert_eq!(ht.live_entries(), 200);
            assert_eq!(ht.reservation_bytes(), full_walk(&ht), "round {round}");
            ht.reset();
            assert_eq!(ht.reservation_bytes(), full_walk(&ht), "round {round}");
            assert!(ht.buckets.iter().all(Vec::is_empty));
            assert_eq!(ht.live_entries(), 0);
        }
    }

    #[test]
    fn copy_range_zero_len_is_noop() {
        let mut f = ShadowPages::new();
        let mut ctx = RtCtx::default();
        f.store(0x5000, Meta { base: 1, bound: 2 }, &mut ctx);
        ctx.reset();
        f.copy_range(0x6000, 0x5000, 0, &mut ctx);
        assert_eq!(ctx.cost, 0);
        assert_eq!(f.load(0x6000, &mut ctx), Meta::NULL);
    }

    #[test]
    fn reservation_accounting_pinned_across_churn() {
        // Pins `reservation_bytes` across a commit → whole-page clear →
        // second commit → reset cycle: committed frames count until
        // reset hands them to the pool, which no instance is charged for.
        let mut f = ShadowPages::new();
        let mut ctx = RtCtx::default();
        let idle = f.reservation_bytes();
        assert_eq!(idle, DIR_CHUNKS * std::mem::size_of::<u16>());

        // The first commit charges a frame and one directory chunk.
        f.store(0x100, Meta { base: 1, bound: 2 }, &mut ctx);
        let chunked = idle + CHUNK_BYTES;
        assert_eq!(f.reservation_bytes(), chunked + PAGE_BYTES);

        // Clearing the page end to end leaves it committed and counted.
        f.clear_range(0, PAGE_SPAN, &mut ctx);
        assert_eq!(f.live_entries(), 0);
        assert_eq!(f.page_count(), 1);
        assert_eq!(f.reservation_bytes(), chunked + PAGE_BYTES);

        // A page at another directory entry of the same chunk is a
        // second frame, not a second chunk.
        f.store(37 * PAGE_SPAN, Meta { base: 3, bound: 4 }, &mut ctx);
        assert_eq!(f.page_count(), 2);
        assert_eq!(f.reservation_bytes(), chunked + 2 * PAGE_BYTES);

        // Overflow entries count at the map's actual bucket layout, and
        // the standing estimate must not shrink when an entry is
        // removed — the table keeps its buckets.
        f.store(1 << 50, Meta { base: 7, bound: 8 }, &mut ctx);
        let with_overflow = f.reservation_bytes();
        assert!(
            with_overflow > chunked + 2 * PAGE_BYTES,
            "overflow uncounted"
        );
        f.store(1 << 50, Meta::NULL, &mut ctx);
        assert_eq!(
            f.reservation_bytes(),
            with_overflow,
            "standing overflow reservation vanished on remove (len-based estimate)"
        );

        // Reset hands both frames to the pool — no longer charged to
        // this facility — and keeps the directory chunk and the overflow
        // map's buckets: a warm idle worker's standing cost.
        f.reset();
        assert_eq!(f.live_entries(), 0);
        assert_eq!(
            f.reservation_bytes(),
            with_overflow - 2 * PAGE_BYTES,
            "reset must pool frames, not keep them"
        );

        // The next run's first store commits a frame again.
        f.store(0x100, Meta { base: 9, bound: 10 }, &mut ctx);
        assert_eq!(f.page_count(), 1);
        assert_eq!(f.reservation_bytes(), with_overflow - PAGE_BYTES);
    }

    #[test]
    fn reset_does_not_disturb_siblings() {
        let mut a = ShadowPages::new();
        let mut b = ShadowPages::new();
        let mut ctx = RtCtx::default();
        let m = Meta {
            base: 0x10,
            bound: 0x20,
        };
        // Identical simulated addresses on purpose: a reset that pools
        // `a`'s frames must leave `b`'s pages alone.
        a.store(0x3000, m, &mut ctx);
        b.store(
            0x3000,
            Meta {
                base: 0x30,
                bound: 0x40,
            },
            &mut ctx,
        );
        b.store(5 * PAGE_SPAN, m, &mut ctx);
        a.reset();
        assert_eq!(a.live_entries(), 0);
        assert_eq!(a.load(0x3000, &mut ctx), Meta::NULL);
        assert_eq!(b.live_entries(), 2, "sibling lost entries to a reset");
        assert_eq!(
            b.load(0x3000, &mut ctx),
            Meta {
                base: 0x30,
                bound: 0x40
            }
        );
        assert_eq!(b.load(5 * PAGE_SPAN, &mut ctx), m);
    }

    #[test]
    fn directory_chunks_allocate_on_first_commit_only() {
        let mut f = ShadowPages::new();
        let mut ctx = RtCtx::default();
        let root_only = f.dir.bytes();
        // Loads and NULL stores into spans without a chunk allocate
        // nothing.
        assert_eq!(f.load(0x4000, &mut ctx), Meta::NULL);
        f.store(0x4000, Meta::NULL, &mut ctx);
        f.clear_range(0, 4 * PAGE_SPAN, &mut ctx);
        assert_eq!(
            f.dir.bytes(),
            root_only,
            "read/NULL paths allocated a chunk"
        );
        // The first real store commits a page and one directory chunk;
        // a second store under the same chunk reuses it.
        f.store(0x4000, Meta { base: 1, bound: 2 }, &mut ctx);
        assert_eq!(f.dir.bytes(), root_only + CHUNK_BYTES);
        f.store(0x4008, Meta { base: 3, bound: 4 }, &mut ctx);
        assert_eq!(f.dir.bytes(), root_only + CHUNK_BYTES);
        assert_eq!(f.load(0x4000, &mut ctx), Meta { base: 1, bound: 2 });
    }
}
