//! The coherence directory behind the snooping protocol.
//!
//! The L2 is inclusive, so every line an L1 holds has an L2 way. The
//! directory keeps one entry per L2 way: the set of L1 ports holding
//! the line (a `u64` sharer mask, hence [`MAX_L1_PORTS`]) and the one port
//! holding it in an owning state (M, O or E), if any. A snoop then costs
//! one L2 probe and a few bit operations instead of a tag scan of every
//! remote L1.
//!
//! The directory is derived state: it is never serialized, and
//! [`crate::MemorySystem::restore_state`] rebuilds it from the L1 arrays.
//! Entries live in fixed pages allocated on first write, so a system that
//! touches few L2 sets (and every freshly built engine) pays for few pages.

/// The widest memory system the directory's sharer masks can describe.
pub const MAX_L1_PORTS: usize = 64;

/// Entries per page: 4 KiB of sharer masks.
const PAGE: usize = 512;

#[derive(Debug, Clone)]
struct Page {
    sharers: [u64; PAGE],
    /// Owning port + 1; 0 when no L1 owns the line.
    owners: [u8; PAGE],
}

/// Sharer mask and owner per L2 way, allocated a page at a time.
#[derive(Debug, Clone)]
pub(crate) struct Directory {
    pages: Vec<Option<Box<Page>>>,
}

impl Directory {
    /// An empty directory for an L2 of `ways` ways (sets × associativity).
    pub(crate) fn new(ways: usize) -> Self {
        Directory {
            pages: vec![None; ways.div_ceil(PAGE)],
        }
    }

    #[inline]
    fn page(&self, way: usize) -> Option<&Page> {
        self.pages[way / PAGE].as_deref()
    }

    #[inline]
    fn page_mut(&mut self, way: usize) -> &mut Page {
        self.pages[way / PAGE].get_or_insert_with(|| {
            Box::new(Page {
                sharers: [0; PAGE],
                owners: [0; PAGE],
            })
        })
    }

    /// The ports holding the line in L2 way `way`, one bit per port.
    #[inline]
    pub(crate) fn sharers(&self, way: usize) -> u64 {
        self.page(way).map_or(0, |p| p.sharers[way % PAGE])
    }

    /// The port holding the line in L2 way `way` in M, O or E.
    #[inline]
    pub(crate) fn owner(&self, way: usize) -> Option<usize> {
        match self.page(way).map_or(0, |p| p.owners[way % PAGE]) {
            0 => None,
            o => Some(o as usize - 1),
        }
    }

    /// Records that `port` now holds the line, as its owner when `owns`.
    #[inline]
    pub(crate) fn add(&mut self, way: usize, port: usize, owns: bool) {
        let page = self.page_mut(way);
        page.sharers[way % PAGE] |= 1 << port;
        if owns {
            page.owners[way % PAGE] = port as u8 + 1;
        }
    }

    /// Records that `port` no longer holds the line.
    #[inline]
    pub(crate) fn remove(&mut self, way: usize, port: usize) {
        let page = self.page_mut(way);
        page.sharers[way % PAGE] &= !(1 << port);
        if page.owners[way % PAGE] == port as u8 + 1 {
            page.owners[way % PAGE] = 0;
        }
    }

    /// Records that no L1 owns the line any more (its owner went E -> S).
    #[inline]
    pub(crate) fn disown(&mut self, way: usize) {
        if let Some(page) = self.pages[way / PAGE].as_deref_mut() {
            page.owners[way % PAGE] = 0;
        }
    }

    /// Empties the entry and returns the ports that held the line.
    #[inline]
    pub(crate) fn take(&mut self, way: usize) -> u64 {
        match self.pages[way / PAGE].as_deref_mut() {
            Some(page) => {
                page.owners[way % PAGE] = 0;
                std::mem::take(&mut page.sharers[way % PAGE])
            }
            None => 0,
        }
    }

    /// Forgets every entry and releases every page.
    pub(crate) fn clear(&mut self) {
        self.pages.fill(None);
    }
}

/// The ports of a sharer mask in ascending order.
pub(crate) fn ports(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let port = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            port
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_track_sharers_and_owner() {
        let mut d = Directory::new(2 * PAGE);
        assert_eq!((d.sharers(700), d.owner(700)), (0, None));
        assert!(
            d.pages.iter().all(Option::is_none),
            "reads allocate nothing"
        );
        d.add(700, 3, false);
        d.add(700, 63, true);
        assert_eq!(d.sharers(700), 1 << 3 | 1 << 63);
        assert_eq!(d.owner(700), Some(63));
        assert!(d.pages[0].is_none(), "only the written page is allocated");
        d.remove(700, 3);
        assert_eq!(d.owner(700), Some(63), "removing a sharer keeps the owner");
        d.disown(700);
        assert_eq!((d.sharers(700), d.owner(700)), (1 << 63, None));
        d.add(700, 5, true);
        d.remove(700, 5);
        assert_eq!(d.owner(700), None, "removing the owner clears it");
        assert_eq!(d.take(700), 1 << 63);
        assert_eq!((d.sharers(700), d.owner(700)), (0, None));
        assert_eq!(d.take(3), 0, "taking from an unallocated page");
        d.clear();
        assert!(d.pages.iter().all(Option::is_none));
    }

    #[test]
    fn ports_ascend() {
        assert_eq!(ports(0).count(), 0);
        assert_eq!(
            ports(1 | 1 << 9 | 1 << 63).collect::<Vec<_>>(),
            vec![0, 9, 63]
        );
    }
}
