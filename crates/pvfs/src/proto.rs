//! Wire-level protocol types exchanged between clients, the metadata
//! server, and data servers.

use ibridge_device::IoDir;
use ibridge_localfs::FileHandle;
use std::fmt;

/// Sibling server ids a [`SiblingList`] stores without heap allocation:
/// a fragment of an eight-server layout (the paper's testbed) has at
/// most seven siblings, so every one of them stays inline.
pub const SIBLING_INLINE: usize = 7;

/// The sibling server ids of a fragment, in decomposition order: stores
/// up to [`SIBLING_INLINE`] ids in place, and the `spill` vector takes
/// over (holding *all* ids) past that. Mirrors the block layer's
/// `TagList`; dereferences to `[u32]`.
#[derive(Clone)]
pub struct SiblingList {
    /// Valid in `..len` while `spill` is empty.
    inline: [u32; SIBLING_INLINE],
    len: u8,
    /// Heap storage after overflow; holds *all* ids then.
    spill: Vec<u32>,
}

impl SiblingList {
    /// An empty list.
    pub const fn new() -> Self {
        SiblingList {
            inline: [0; SIBLING_INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// A list holding one server id.
    pub const fn one(server: u32) -> Self {
        let mut inline = [0; SIBLING_INLINE];
        inline[0] = server;
        SiblingList {
            inline,
            len: 1,
            spill: Vec::new(),
        }
    }

    /// Appends a server id, spilling to the heap past the inline capacity.
    pub fn push(&mut self, server: u32) {
        if !self.spill.is_empty() {
            self.spill.push(server);
        } else if (self.len as usize) < SIBLING_INLINE {
            self.inline[self.len as usize] = server;
            self.len += 1;
        } else {
            self.spill.reserve(SIBLING_INLINE * 2);
            self.spill
                .extend_from_slice(&self.inline[..self.len as usize]);
            self.spill.push(server);
            self.len = 0;
        }
    }

    /// The ids as a slice.
    pub fn as_slice(&self) -> &[u32] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

impl Default for SiblingList {
    fn default() -> Self {
        SiblingList::new()
    }
}

impl std::ops::Deref for SiblingList {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl fmt::Debug for SiblingList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for SiblingList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SiblingList {}

impl FromIterator<u32> for SiblingList {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut list = SiblingList::new();
        for server in iter {
            list.push(server);
        }
        list
    }
}

/// Classification of a sub-request, decided at the client
/// (the paper's instrumented `io_datafile_setup_msgpairs()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReqClass {
    /// A small piece of a larger request that spans several servers;
    /// carries the ids of the servers holding its sibling sub-requests
    /// so the data server can evaluate the striping magnification effect.
    Fragment {
        /// Servers serving this fragment's siblings.
        siblings: SiblingList,
    },
    /// The whole parent request is smaller than the threshold — a
    /// "regular random request" in the paper's terminology.
    Random,
    /// Anything else: large or aligned pieces.
    Bulk,
}

impl ReqClass {
    /// True for [`ReqClass::Fragment`].
    pub fn is_fragment(&self) -> bool {
        matches!(self, ReqClass::Fragment { .. })
    }
    /// True for [`ReqClass::Random`].
    pub fn is_random(&self) -> bool {
        matches!(self, ReqClass::Random)
    }
}

/// A client-level file request (before striping decomposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileRequest {
    /// Read or write.
    pub dir: IoDir,
    /// Target file.
    pub file: FileHandle,
    /// Logical byte offset.
    pub offset: u64,
    /// Length in bytes (> 0).
    pub len: u64,
}

/// A sub-request as shipped to one data server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubRequest {
    /// Read or write.
    pub dir: IoDir,
    /// Target file (per-server datafile namespace).
    pub file: FileHandle,
    /// Destination data server.
    pub server: usize,
    /// Offset within the server's local datafile.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Client-side classification (iBridge's fragment flag).
    pub class: ReqClass,
}

/// Fixed overhead of a request/reply message on the wire, in bytes.
pub const MSG_HEADER_BYTES: u64 = 256;

impl SubRequest {
    /// Bytes of the request message client → server.
    pub fn request_bytes(&self) -> u64 {
        match self.dir {
            IoDir::Write => MSG_HEADER_BYTES + self.len,
            IoDir::Read => MSG_HEADER_BYTES,
        }
    }

    /// Bytes of the reply message server → client.
    pub fn reply_bytes(&self) -> u64 {
        match self.dir {
            IoDir::Write => MSG_HEADER_BYTES,
            IoDir::Read => MSG_HEADER_BYTES + self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_sizes_carry_payload_on_the_data_direction() {
        let mut s = SubRequest {
            dir: IoDir::Write,
            file: FileHandle(1),
            server: 0,
            offset: 0,
            len: 1000,
            class: ReqClass::Bulk,
        };
        assert_eq!(s.request_bytes(), MSG_HEADER_BYTES + 1000);
        assert_eq!(s.reply_bytes(), MSG_HEADER_BYTES);
        s.dir = IoDir::Read;
        assert_eq!(s.request_bytes(), MSG_HEADER_BYTES);
        assert_eq!(s.reply_bytes(), MSG_HEADER_BYTES + 1000);
    }

    #[test]
    fn class_predicates() {
        assert!(ReqClass::Fragment {
            siblings: SiblingList::new()
        }
        .is_fragment());
        assert!(ReqClass::Random.is_random());
        assert!(!ReqClass::Bulk.is_fragment());
        assert!(!ReqClass::Bulk.is_random());
    }

    #[test]
    fn sibling_list_keeps_order_across_the_spill() {
        let ids: Vec<u32> = (0..20).rev().collect();
        for n in [0, 1, SIBLING_INLINE, SIBLING_INLINE + 1, ids.len()] {
            let list: SiblingList = ids[..n].iter().copied().collect();
            assert_eq!(list.as_slice(), &ids[..n]);
        }
        assert_eq!(SiblingList::one(3).as_slice(), &[3]);
        assert_eq!(format!("{:?}", SiblingList::one(3)), "[3]");
    }
}
