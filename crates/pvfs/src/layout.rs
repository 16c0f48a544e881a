//! File striping layout and request decomposition.
//!
//! PVFS2 stripes a logical file over `n` data servers in `stripe_unit`-
//! sized units, round-robin: unit `u` lives on server `u % n`, at local
//! datafile offset `(u / n) * stripe_unit`. A client request for a
//! contiguous logical range therefore decomposes into **at most one
//! contiguous sub-request per server** (interior units owned by a server
//! are consecutive in its datafile; only the first and last units can be
//! partial).
//!
//! This is where *unaligned access* becomes visible: when the request is
//! not aligned to stripe-unit boundaries, the first and/or last
//! sub-requests are smaller than the unit — the paper's *fragments*.

use crate::proto::{ReqClass, SubRequest};
use ibridge_device::IoDir;
use ibridge_localfs::FileHandle;

/// Striping parameters of a file.
///
/// ```
/// use ibridge_pvfs::Layout;
///
/// let layout = Layout::default_with_servers(8);
/// // A 65 KB request starting at 0 splits into a 64 KB piece on server
/// // 0 and a 1 KB fragment on server 1.
/// let pieces = layout.decompose(0, 65 * 1024);
/// assert_eq!(pieces, vec![(0, 0, 64 * 1024), (1, 0, 1024)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Stripe unit size in bytes (PVFS2 default: 64 KB).
    pub stripe_unit: u64,
    /// Number of data servers the file is striped over.
    pub n_servers: usize,
}

impl Layout {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics on a zero stripe unit or zero servers.
    pub fn new(stripe_unit: u64, n_servers: usize) -> Self {
        assert!(stripe_unit > 0, "zero stripe unit");
        assert!(n_servers > 0, "zero servers");
        Layout {
            stripe_unit,
            n_servers,
        }
    }

    /// The PVFS2 default: 64 KB units.
    pub fn default_with_servers(n_servers: usize) -> Self {
        Layout::new(64 * 1024, n_servers)
    }

    /// The server holding logical byte `offset`.
    pub fn server_of(&self, offset: u64) -> usize {
        ((offset / self.stripe_unit) % self.n_servers as u64) as usize
    }

    /// Maps a logical byte offset to its local datafile offset.
    pub fn local_offset(&self, offset: u64) -> u64 {
        let unit = offset / self.stripe_unit;
        (unit / self.n_servers as u64) * self.stripe_unit + offset % self.stripe_unit
    }

    /// Decomposes a logical range into per-server contiguous pieces,
    /// ordered by server index. Each element is
    /// `(server, local_offset, len)`.
    pub fn decompose(&self, offset: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let mut out = Vec::new();
        self.decompose_into(offset, len, &mut out);
        out
    }

    /// [`decompose`](Layout::decompose) into a caller-owned buffer
    /// (cleared first), so per-request hot paths can reuse one
    /// allocation across millions of requests.
    pub fn decompose_into(&self, offset: u64, len: u64, out: &mut Vec<(usize, u64, u64)>) {
        out.clear();
        if len == 0 {
            return;
        }
        let su = self.stripe_unit;
        let n = self.n_servers as u64;
        let u0 = offset / su;
        let u1 = (offset + len - 1) / su;
        for s in 0..n {
            // First unit ≥ u0 owned by server s.
            let first = u0 + (s + n - u0 % n) % n;
            if first > u1 {
                continue;
            }
            // Last unit ≤ u1 owned by server s.
            let last = u1 - (u1 % n + n - s) % n;
            debug_assert!(last >= first && last % n == s);
            let start_local = (first / n) * su + if first == u0 { offset % su } else { 0 };
            let end_local = (last / n) * su
                + if last == u1 {
                    (offset + len - 1) % su + 1
                } else {
                    su
                };
            out.push((s as usize, start_local, end_local - start_local));
        }
    }

    /// Builds classified sub-requests for a parent request, implementing
    /// the client-side logic the paper adds to
    /// `io_datafile_setup_msgpairs()`:
    ///
    /// * a parent smaller than `threshold` makes every sub-request a
    ///   *regular random request*;
    /// * a sub-request smaller than `threshold`, belonging to a parent
    ///   that spans several servers, is a *fragment* and carries the
    ///   identifiers of its siblings' servers;
    /// * everything else is bulk.
    ///
    /// When `flag_fragments` is false (stock system) everything is bulk —
    /// the servers are "not aware of the distinction between requests and
    /// sub-requests".
    pub fn sub_requests(
        &self,
        dir: IoDir,
        file: FileHandle,
        offset: u64,
        len: u64,
        threshold: u64,
        flag_fragments: bool,
    ) -> Vec<SubRequest> {
        let mut pieces = Vec::new();
        let mut out = Vec::new();
        self.sub_requests_into(
            dir,
            file,
            offset,
            len,
            threshold,
            flag_fragments,
            &mut pieces,
            &mut out,
        );
        out
    }

    /// [`sub_requests`](Layout::sub_requests) into caller-owned buffers
    /// (both cleared first). `pieces` is scratch for the decomposition;
    /// `out` receives the classified sub-requests. Nothing allocates once
    /// the buffers are warm: a fragment's sibling list stays inline up to
    /// [`SIBLING_INLINE`](crate::proto::SIBLING_INLINE) siblings.
    #[allow(clippy::too_many_arguments)]
    pub fn sub_requests_into(
        &self,
        dir: IoDir,
        file: FileHandle,
        offset: u64,
        len: u64,
        threshold: u64,
        flag_fragments: bool,
        pieces: &mut Vec<(usize, u64, u64)>,
        out: &mut Vec<SubRequest>,
    ) {
        self.decompose_into(offset, len, pieces);
        out.clear();
        out.reserve(pieces.len());
        for &(server, local_offset, sub_len) in pieces.iter() {
            let class = if !flag_fragments {
                ReqClass::Bulk
            } else if len < threshold {
                ReqClass::Random
            } else if sub_len < threshold && pieces.len() > 1 {
                let siblings = pieces
                    .iter()
                    .map(|&(s, _, _)| s as u32)
                    .filter(|&s| s != server as u32)
                    .collect();
                ReqClass::Fragment { siblings }
            } else {
                ReqClass::Bulk
            };
            out.push(SubRequest {
                dir,
                file,
                server,
                offset: local_offset,
                len: sub_len,
                class,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: u64 = 1024;

    fn l8() -> Layout {
        Layout::default_with_servers(8)
    }

    /// Brute-force byte-level oracle for decompose.
    fn oracle(layout: &Layout, offset: u64, len: u64) -> Vec<(usize, u64, u64)> {
        use std::collections::BTreeMap;
        let mut per_server: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for b in offset..offset + len {
            per_server
                .entry(layout.server_of(b))
                .or_default()
                .push(layout.local_offset(b));
        }
        per_server
            .into_iter()
            .map(|(s, locals)| {
                // Must be contiguous.
                for w in locals.windows(2) {
                    assert_eq!(w[1], w[0] + 1, "non-contiguous local range");
                }
                (s, locals[0], locals.len() as u64)
            })
            .collect()
    }

    #[test]
    fn aligned_request_hits_one_server() {
        let l = l8();
        let d = l.decompose(64 * KB * 10, 64 * KB);
        assert_eq!(d, vec![(2, 64 * KB, 64 * KB)]);
    }

    #[test]
    fn unaligned_65k_spans_two_servers() {
        let l = l8();
        // 65 KB at offset 0: unit 0 full (64 KB) + 1 KB on unit 1.
        let mut d = l.decompose(0, 65 * KB);
        d.sort();
        assert_eq!(d, vec![(0, 0, 64 * KB), (1, 0, KB)]);
    }

    #[test]
    fn offset_request_splits_head_and_tail() {
        let l = l8();
        // 64 KB at offset 10 KB: 54 KB on server 0, 10 KB on server 1.
        let mut d = l.decompose(10 * KB, 64 * KB);
        d.sort();
        assert_eq!(d, vec![(0, 10 * KB, 54 * KB), (1, 0, 10 * KB)]);
    }

    #[test]
    fn large_request_gets_contiguous_per_server_ranges() {
        let l = Layout::new(64 * KB, 4);
        // 16 units + 1 KB starting mid-unit.
        let d = l.decompose(32 * KB, 16 * 64 * KB + KB);
        let mut o = oracle(&l, 32 * KB, 16 * 64 * KB + KB);
        let mut d2 = d.clone();
        d2.sort();
        o.sort();
        assert_eq!(d2, o);
    }

    #[test]
    fn decompose_matches_oracle_extensively() {
        for n in [1usize, 2, 3, 5, 8] {
            let l = Layout::new(4 * KB, n);
            for offset in [0, 1, 4095, 4096, 10_000, 65_536] {
                for len in [1, 100, 4096, 4097, 20_000, 70_000] {
                    let mut d = l.decompose(offset, len);
                    d.sort();
                    let mut o = oracle(&l, offset, len);
                    o.sort();
                    assert_eq!(d, o, "n={n} offset={offset} len={len}");
                }
            }
        }
    }

    #[test]
    fn total_length_preserved() {
        let l = l8();
        for (offset, len) in [(0, 65 * KB), (10 * KB, 64 * KB), (123, 456_789)] {
            let total: u64 = l.decompose(offset, len).iter().map(|&(_, _, l)| l).sum();
            assert_eq!(total, len);
        }
    }

    #[test]
    fn zero_length_decomposes_to_nothing() {
        assert!(l8().decompose(100, 0).is_empty());
    }

    #[test]
    fn single_server_layout_keeps_logical_offsets() {
        let l = Layout::new(64 * KB, 1);
        let d = l.decompose(100 * KB, 200 * KB);
        assert_eq!(d, vec![(0, 100 * KB, 200 * KB)]);
    }

    #[test]
    fn fragment_flagging_for_65k() {
        let l = l8();
        let subs = l.sub_requests(IoDir::Read, FileHandle(1), 0, 65 * KB, 20 * KB, true);
        assert_eq!(subs.len(), 2);
        let bulk = subs.iter().find(|s| s.len == 64 * KB).unwrap();
        assert_eq!(bulk.class, ReqClass::Bulk);
        let frag = subs.iter().find(|s| s.len == KB).unwrap();
        match &frag.class {
            ReqClass::Fragment { siblings } => assert_eq!(siblings.as_slice(), &[0u32]),
            c => panic!("expected fragment, got {c:?}"),
        }
    }

    #[test]
    fn small_parent_is_regular_random() {
        let l = l8();
        let subs = l.sub_requests(IoDir::Write, FileHandle(1), 0, 4 * KB, 20 * KB, true);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].class, ReqClass::Random);
    }

    #[test]
    fn stock_system_flags_nothing() {
        let l = l8();
        let subs = l.sub_requests(IoDir::Read, FileHandle(1), 0, 65 * KB, 20 * KB, false);
        assert!(subs.iter().all(|s| s.class == ReqClass::Bulk));
    }

    #[test]
    fn large_sub_requests_are_bulk_even_when_flagging() {
        let l = l8();
        // Aligned 64 KB: single 64 KB sub-request, not a fragment.
        let subs = l.sub_requests(IoDir::Read, FileHandle(1), 0, 64 * KB, 20 * KB, true);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].class, ReqClass::Bulk);
    }

    #[test]
    fn fragment_threshold_boundary() {
        let l = l8();
        // Head piece exactly at threshold is NOT a fragment (must be smaller).
        let subs = l.sub_requests(
            IoDir::Read,
            FileHandle(1),
            44 * KB, // head piece = 20 KB
            64 * KB,
            20 * KB,
            true,
        );
        let head = subs.iter().find(|s| s.len == 20 * KB).unwrap();
        assert_eq!(head.class, ReqClass::Bulk);
    }
}
