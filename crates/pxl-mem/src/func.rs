//! Functional memory: the data plane of the simulation.
//!
//! Every simulated engine (FlexArch, LiteArch, the CPU baseline) executes
//! benchmarks *for real* against a shared [`Memory`], while the timing
//! hierarchy separately answers how long each access takes. The split is the
//! standard timing-directed simulation structure and is what lets the test
//! suite verify that, e.g., a 32-PE work-stealing run of quicksort actually
//! sorts.
//!
//! Reads never allocate: a read of an untouched page returns zeros and
//! leaves [`Memory::resident_pages`] (and so the snapshot bytes) unchanged.
//! A write allocates exactly the pages its bytes land in. Word accesses
//! that stay inside one 4 KiB page cost one page lookup and a fixed-size
//! copy, and the typed slice accessors work page by page, so the data plane
//! stays cheap next to the timing model it runs beside.

use std::collections::HashMap;

use pxl_sim::hash::Mix64Build;
use pxl_sim::json::JsonValue;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A sparse, byte-addressable, zero-initialized 64-bit memory.
///
/// Backed by 4 KiB pages allocated on first touch, so simulations can use
/// realistic (sparse) address-space layouts without host cost.
///
/// # Examples
///
/// ```
/// use pxl_mem::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_u32(0x1000, 0xDEAD_BEEF);
/// assert_eq!(mem.read_u32(0x1000), 0xDEAD_BEEF);
/// assert_eq!(mem.read_u32(0x2000), 0); // untouched memory reads zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, Mix64Build>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let in_page = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - in_page).min(buf.len() - off);
            match self.pages.get(&(a >> PAGE_SHIFT)) {
                Some(p) => buf[off..off + n].copy_from_slice(&p[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }

    /// Writes `buf` starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let in_page = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - in_page).min(buf.len() - off);
            self.page_mut(a)[in_page..in_page + n].copy_from_slice(&buf[off..off + n]);
            off += n;
        }
    }

    /// Reads `N` bytes at `addr`. An access inside one page is one page
    /// lookup and a fixed-size copy; only a page-straddling access takes
    /// the [`Memory::read_bytes`] loop.
    #[inline]
    fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut b = [0u8; N];
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                b.copy_from_slice(&p[off..off + N]);
            }
        } else {
            self.read_bytes(addr, &mut b);
        }
        b
    }

    /// Writes `N` bytes at `addr`; the write-side twin of
    /// [`Memory::read_array`].
    #[inline]
    fn write_array<const N: usize>(&mut self, addr: u64, b: [u8; N]) {
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            self.page_mut(addr)[off..off + N].copy_from_slice(&b);
        } else {
            self.write_bytes(addr, &b);
        }
    }

    /// Reads `n` consecutive `N`-byte elements, decoding each with `decode`:
    /// one page lookup per page, straight out of the page. (`addr` steps
    /// with `wrapping_add` because the address past a slice that ends at
    /// the top of the address space is computed but never used.)
    fn read_elems<T, const N: usize>(
        &self,
        mut addr: u64,
        n: usize,
        decode: fn([u8; N]) -> T,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let off = (addr & PAGE_MASK) as usize;
            let k = ((PAGE_SIZE - off) / N).min(n - out.len());
            if k == 0 {
                // The next element straddles a page boundary.
                out.push(decode(self.read_array(addr)));
                addr = addr.wrapping_add(N as u64);
                continue;
            }
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => out.extend(
                    p[off..off + k * N]
                        .chunks_exact(N)
                        .map(|c| decode(c.try_into().expect("chunk of N bytes"))),
                ),
                None => out.extend((0..k).map(|_| decode([0; N]))),
            }
            addr = addr.wrapping_add((k * N) as u64);
        }
        out
    }

    /// Writes consecutive `N`-byte elements, encoding each with `encode`:
    /// one page lookup per page, straight into the page.
    fn write_elems<T: Copy, const N: usize>(
        &mut self,
        mut addr: u64,
        mut vals: &[T],
        encode: fn(T) -> [u8; N],
    ) {
        while let Some(&first) = vals.first() {
            let off = (addr & PAGE_MASK) as usize;
            let k = ((PAGE_SIZE - off) / N).min(vals.len());
            if k == 0 {
                // The next element straddles a page boundary.
                self.write_array(addr, encode(first));
                addr = addr.wrapping_add(N as u64);
                vals = &vals[1..];
                continue;
            }
            let page = self.page_mut(addr);
            for (c, &v) in page[off..off + k * N].chunks_exact_mut(N).zip(&vals[..k]) {
                c.copy_from_slice(&encode(v));
            }
            addr = addr.wrapping_add((k * N) as u64);
            vals = &vals[k..];
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_array::<1>(addr)[0]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.write_array(addr, [v]);
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, v: u16) {
        self.write_array(addr, v.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write_array(addr, v.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_array(addr, v.to_le_bytes());
    }

    /// Reads a little-endian `i32`.
    pub fn read_i32(&self, addr: u64) -> i32 {
        self.read_u32(addr) as i32
    }

    /// Writes a little-endian `i32`.
    pub fn write_i32(&mut self, addr: u64, v: i32) {
        self.write_u32(addr, v as u32);
    }

    /// Reads an `f32` from its bit pattern.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` as its bit pattern.
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Reads an `f64` from its bit pattern.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` as its bit pattern.
    pub fn write_f64(&mut self, addr: u64, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Reads `n` consecutive little-endian `u32` values starting at `addr`.
    pub fn read_u32_slice(&self, addr: u64, n: usize) -> Vec<u32> {
        self.read_elems(addr, n, u32::from_le_bytes)
    }

    /// Writes consecutive little-endian `u32` values starting at `addr`.
    pub fn write_u32_slice(&mut self, addr: u64, vals: &[u32]) {
        self.write_elems(addr, vals, u32::to_le_bytes);
    }

    /// Reads `n` consecutive little-endian `i32` values starting at `addr`.
    pub fn read_i32_slice(&self, addr: u64, n: usize) -> Vec<i32> {
        self.read_elems(addr, n, i32::from_le_bytes)
    }

    /// Writes consecutive little-endian `i32` values starting at `addr`.
    pub fn write_i32_slice(&mut self, addr: u64, vals: &[i32]) {
        self.write_elems(addr, vals, i32::to_le_bytes);
    }

    /// Serializes every resident page for snapshot/restore: an object
    /// keyed by decimal page index (in index order, so the output is
    /// deterministic) holding each 4 KiB page as lower-case hex.
    pub fn state_to_json_value(&self) -> JsonValue {
        let mut indices: Vec<u64> = self.pages.keys().copied().collect();
        indices.sort_unstable();
        let members = indices
            .into_iter()
            .map(|idx| {
                let page = &self.pages[&idx];
                let mut hex = String::with_capacity(2 * PAGE_SIZE);
                for b in page.iter() {
                    hex.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
                    hex.push(char::from_digit((b & 0xF) as u32, 16).expect("nibble"));
                }
                (idx.to_string(), JsonValue::Str(hex))
            })
            .collect();
        JsonValue::Object(members)
    }

    /// Replaces the entire contents with a state captured by
    /// [`Memory::state_to_json_value`]. Pages not in the snapshot are
    /// dropped (they read zero again), so restoring over a memory that
    /// already holds benchmark inputs reproduces the snapshotted state
    /// exactly.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed page.
    pub fn restore_state(&mut self, value: &JsonValue) -> Result<(), String> {
        let members = value
            .as_object()
            .ok_or("memory state: not an object of pages")?;
        let mut pages: HashMap<_, _, Mix64Build> =
            HashMap::with_capacity_and_hasher(members.len(), Mix64Build::default());
        for (key, page) in members {
            let idx: u64 = key
                .parse()
                .map_err(|_| format!("memory state: bad page index {key:?}"))?;
            let hex = page
                .as_str()
                .ok_or_else(|| format!("memory state: page {key} is not a hex string"))?;
            if hex.len() != 2 * PAGE_SIZE {
                return Err(format!(
                    "memory state: page {key} has {} hex digits, want {}",
                    hex.len(),
                    2 * PAGE_SIZE
                ));
            }
            let mut data = Box::new([0u8; PAGE_SIZE]);
            let bytes = hex.as_bytes();
            for (i, out) in data.iter_mut().enumerate() {
                let nibble = |c: u8| -> Result<u8, String> {
                    (c as char)
                        .to_digit(16)
                        .map(|d| d as u8)
                        .ok_or_else(|| format!("memory state: page {key} has non-hex byte"))
                };
                *out = (nibble(bytes[2 * i])? << 4) | nibble(bytes[2 * i + 1])?;
            }
            pages.insert(idx, data);
        }
        self.pages = pages;
        Ok(())
    }
}

/// A bump allocator for laying out benchmark data in the simulated address
/// space.
///
/// Mirrors what the host program's `malloc` would do before offloading to the
/// accelerator. Never frees; each benchmark run uses a fresh allocator.
///
/// # Examples
///
/// ```
/// use pxl_mem::Allocator;
///
/// let mut alloc = Allocator::new(0x1000);
/// let a = alloc.alloc(100, 64);
/// let b = alloc.alloc(8, 8);
/// assert_eq!(a % 64, 0);
/// assert!(b >= a + 100);
/// ```
#[derive(Debug, Clone)]
pub struct Allocator {
    next: u64,
}

impl Allocator {
    /// Creates an allocator whose first allocation is at or after `base`.
    pub fn new(base: u64) -> Self {
        Allocator { next: base }
    }

    /// Allocates `size` bytes aligned to `align` and returns the address.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.next + align - 1) & !(align - 1);
        self.next = addr + size;
        addr
    }

    /// Allocates room for `n` elements of `elem_size` bytes, cache-line
    /// aligned (the layout HLS buffers use).
    pub fn alloc_array(&mut self, n: u64, elem_size: u64) -> u64 {
        self.alloc(n * elem_size, 64)
    }

    /// Address the next allocation would start searching from.
    pub fn watermark(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_sim::qcheck::{check, Gen};

    #[test]
    fn zero_initialized() {
        let mem = Memory::new();
        assert_eq!(mem.read_u64(0), 0);
        assert_eq!(mem.read_u8(0xFFFF_FFFF), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn typed_roundtrips() {
        let mut mem = Memory::new();
        mem.write_u8(10, 0xAB);
        mem.write_u16(20, 0xBEEF);
        mem.write_u32(30, 0xDEAD_BEEF);
        mem.write_u64(40, 0x0123_4567_89AB_CDEF);
        mem.write_i32(50, -42);
        mem.write_f32(60, 3.5);
        mem.write_f64(70, -2.25);
        assert_eq!(mem.read_u8(10), 0xAB);
        assert_eq!(mem.read_u16(20), 0xBEEF);
        assert_eq!(mem.read_u32(30), 0xDEAD_BEEF);
        assert_eq!(mem.read_u64(40), 0x0123_4567_89AB_CDEF);
        assert_eq!(mem.read_i32(50), -42);
        assert_eq!(mem.read_f32(60), 3.5);
        assert_eq!(mem.read_f64(70), -2.25);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = Memory::new();
        let addr = PAGE_SIZE as u64 - 3; // straddles a page boundary
        mem.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(mem.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut mem = Memory::new();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        mem.write_bytes(123, &data);
        let mut back = vec![0u8; data.len()];
        mem.read_bytes(123, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn slice_helpers() {
        let mut mem = Memory::new();
        mem.write_i32_slice(0x100, &[-1, 2, -3]);
        assert_eq!(mem.read_i32_slice(0x100, 3), vec![-1, 2, -3]);
        mem.write_u32_slice(0x200, &[7, 8]);
        assert_eq!(mem.read_u32_slice(0x200, 2), vec![7, 8]);
        // A slice that ends at the top of the address space.
        mem.write_u32_slice(u64::MAX - 7, &[9, 10]);
        assert_eq!(mem.read_u32_slice(u64::MAX - 7, 2), vec![9, 10]);
    }

    /// A plain byte map: what `Memory` must behave like.
    #[derive(Default)]
    struct Model {
        bytes: HashMap<u64, u8>,
    }

    impl Model {
        fn write(&mut self, addr: u64, data: &[u8]) {
            for (i, &b) in data.iter().enumerate() {
                self.bytes.insert(addr + i as u64, b);
            }
        }

        fn read(&self, addr: u64, n: usize) -> Vec<u8> {
            (0..n as u64)
                .map(|i| self.bytes.get(&(addr + i)).copied().unwrap_or(0))
                .collect()
        }

        /// Pages holding at least one written byte.
        fn pages(&self) -> usize {
            let mut pages: Vec<u64> = self.bytes.keys().map(|a| a >> PAGE_SHIFT).collect();
            pages.sort_unstable();
            pages.dedup();
            pages.len()
        }
    }

    /// An address in one of four pages, often within 7 bytes of the page
    /// end so word and slice accesses straddle into the next page.
    fn arb_addr(g: &mut Gen) -> u64 {
        let page = g.range(0, 4);
        let off = if g.bool() {
            g.range(PAGE_SIZE as u64 - 7, PAGE_SIZE as u64)
        } else {
            g.range(0, PAGE_SIZE as u64)
        };
        (page << PAGE_SHIFT) + off
    }

    fn le_words(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Reads `len` bytes through one of the word or slice accessors.
    fn read_via(mem: &Memory, g: &mut Gen, addr: u64) -> (usize, Vec<u8>) {
        match g.range(0, 7) {
            0 => (1, vec![mem.read_u8(addr)]),
            1 => (2, mem.read_u16(addr).to_le_bytes().to_vec()),
            2 => (4, mem.read_u32(addr).to_le_bytes().to_vec()),
            3 => (8, mem.read_u64(addr).to_le_bytes().to_vec()),
            4 => {
                let n = g.usize_in(0, 1100);
                (4 * n, le_words(&mem.read_u32_slice(addr, n)))
            }
            5 => {
                let n = g.usize_in(0, 1100);
                let words: Vec<u32> = mem
                    .read_i32_slice(addr, n)
                    .into_iter()
                    .map(|v| v as u32)
                    .collect();
                (4 * n, le_words(&words))
            }
            _ => {
                let mut buf = vec![0u8; g.usize_in(0, 5000)];
                mem.read_bytes(addr, &mut buf);
                (buf.len(), buf)
            }
        }
    }

    /// Writes through one of the word or slice accessors; returns the bytes
    /// written.
    fn write_via(mem: &mut Memory, g: &mut Gen, addr: u64) -> Vec<u8> {
        let v = g.u64();
        match g.range(0, 7) {
            0 => {
                mem.write_u8(addr, v as u8);
                vec![v as u8]
            }
            1 => {
                mem.write_u16(addr, v as u16);
                (v as u16).to_le_bytes().to_vec()
            }
            2 => {
                mem.write_u32(addr, v as u32);
                (v as u32).to_le_bytes().to_vec()
            }
            3 => {
                mem.write_u64(addr, v);
                v.to_le_bytes().to_vec()
            }
            4 => {
                let words: Vec<u32> = (0..g.usize_in(0, 1100)).map(|_| g.u64() as u32).collect();
                mem.write_u32_slice(addr, &words);
                le_words(&words)
            }
            5 => {
                let vals: Vec<i32> = (0..g.usize_in(0, 1100)).map(|_| g.u64() as i32).collect();
                mem.write_i32_slice(addr, &vals);
                vals.iter().flat_map(|v| v.to_le_bytes()).collect()
            }
            _ => {
                let data: Vec<u8> = (0..g.usize_in(0, 5000)).map(|_| g.u64() as u8).collect();
                mem.write_bytes(addr, &data);
                data
            }
        }
    }

    #[test]
    fn accessors_agree_with_a_byte_map() {
        check(200, "memory matches a byte map", |g: &mut Gen| {
            let mut mem = Memory::new();
            let mut model = Model::default();
            for _ in 0..40 {
                let addr = arb_addr(g);
                if g.bool() {
                    let data = write_via(&mut mem, g, addr);
                    model.write(addr, &data);
                    assert_eq!(mem.resident_pages(), model.pages(), "write at {addr:#x}");
                } else {
                    let pages = mem.resident_pages();
                    let (n, got) = read_via(&mem, g, addr);
                    assert_eq!(got, model.read(addr, n), "read of {n} bytes at {addr:#x}");
                    assert_eq!(mem.resident_pages(), pages, "a read allocated a page");
                }
            }
        });
    }

    #[test]
    fn slice_writes_match_word_writes() {
        check(100, "slice fill == word fill", |g: &mut Gen| {
            let addr = arb_addr(g);
            let words: Vec<u32> = (0..g.usize_in(0, 2100)).map(|_| g.u64() as u32).collect();
            let (mut by_word, mut by_slice) = (Memory::new(), Memory::new());
            if g.bool() {
                for (i, &w) in words.iter().enumerate() {
                    by_word.write_u32(addr + 4 * i as u64, w);
                }
                by_slice.write_u32_slice(addr, &words);
            } else {
                for (i, &w) in words.iter().enumerate() {
                    by_word.write_i32(addr + 4 * i as u64, w as i32);
                }
                let vals: Vec<i32> = words.iter().map(|&w| w as i32).collect();
                by_slice.write_i32_slice(addr, &vals);
            }
            assert_eq!(
                by_slice.state_to_json_value().to_json(),
                by_word.state_to_json_value().to_json()
            );
        });
    }

    #[test]
    fn state_round_trip_replaces_everything() {
        let mut mem = Memory::new();
        mem.write_u64(0x40, 0x0123_4567_89AB_CDEF);
        mem.write_bytes(3 * PAGE_SIZE as u64 - 2, &[1, 2, 3, 4]);
        let state = mem.state_to_json_value();
        // Restoring over a dirtied memory must drop the extra page and
        // reproduce the original bytes exactly.
        let mut other = Memory::new();
        other.write_u64(0x40, 999);
        other.write_u64(0x9000, 7);
        other.restore_state(&state).unwrap();
        assert_eq!(other.read_u64(0x40), 0x0123_4567_89AB_CDEF);
        assert_eq!(other.read_u64(0x9000), 0, "stale page must vanish");
        assert_eq!(other.resident_pages(), mem.resident_pages());
        assert_eq!(
            other.state_to_json_value().to_json(),
            state.to_json(),
            "round trip is byte-stable"
        );
    }

    #[test]
    fn state_restore_rejects_garbage() {
        let mut mem = Memory::new();
        let bad = JsonValue::parse("{\"x\":\"00\"}").unwrap();
        assert!(mem.restore_state(&bad).unwrap_err().contains("page index"));
        let bad = JsonValue::parse("{\"1\":\"zz\"}").unwrap();
        assert!(mem.restore_state(&bad).unwrap_err().contains("hex digits"));
        let bad = JsonValue::parse("[1]").unwrap();
        assert!(mem.restore_state(&bad).is_err());
    }

    #[test]
    fn allocator_alignment_and_progress() {
        let mut a = Allocator::new(1);
        let x = a.alloc(10, 16);
        assert_eq!(x, 16);
        let y = a.alloc(1, 1);
        assert_eq!(y, 26);
        let z = a.alloc_array(4, 4);
        assert_eq!(z % 64, 0);
        assert!(a.watermark() >= z + 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn allocator_bad_alignment() {
        let mut a = Allocator::new(0);
        a.alloc(1, 3);
    }
}
