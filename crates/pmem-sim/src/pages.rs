//! Copy-on-write pool bytes: the one representation of a PM pool's contents.
//!
//! A pool is a byte length plus 4 KiB pages behind [`Arc`]. Cloning a pool
//! costs one reference-count bump per resident page; a write copies only
//! the page it lands in, and only if another pool still shares it. An
//! all-zero page is never allocated (`None`), so a fresh pool costs nothing
//! per page and reads of untouched memory return zeroes.
//!
//! Every crash image, recovery boot and replayed view of one pool shares
//! the pages nobody wrote since the snapshot, which is almost all of them:
//! a boot copies only the pages holding the lines that differ.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::sync::Arc;

/// Page size in bytes. Pool bases are page-aligned, so a 64-byte cache
/// line of a machine-mapped pool never straddles two pages.
const PAGE: usize = 4096;

type Page = [u8; PAGE];

static ZERO: Page = [0; PAGE];

/// A pool's bytes as shared copy-on-write pages.
#[derive(Clone, Default)]
pub struct Pages {
    len: usize,
    pages: Vec<Option<Arc<Page>>>,
}

impl Pages {
    /// `len` zero bytes; allocates no page.
    pub fn zeroed(len: usize) -> Self {
        Pages {
            len,
            pages: vec![None; len.div_ceil(PAGE)],
        }
    }

    /// The byte length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool holds no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The page-sized segments of `[off, off + len)`: `(page index, offset
    /// in page, byte count)` in address order.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the pool (as slice indexing would).
    fn segments(&self, off: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        let Some(end) = off.checked_add(len).filter(|&e| e <= self.len) else {
            panic!("range {off}+{len} outside a pool of {} bytes", self.len);
        };
        let mut at = off;
        std::iter::from_fn(move || {
            (at < end).then(|| {
                let (page, in_page) = (at / PAGE, at % PAGE);
                let n = (PAGE - in_page).min(end - at);
                at += n;
                (page, in_page, n)
            })
        })
    }

    /// The page's bytes for writing: allocated if zero, copied if shared.
    fn page_mut(&mut self, page: usize) -> &mut Page {
        Arc::make_mut(self.pages[page].get_or_insert_with(|| Arc::new(ZERO)))
    }

    /// `[off, off + len)` borrowed in place, when it lies inside one page.
    pub fn slice(&self, off: usize, len: usize) -> Option<&[u8]> {
        let (page, at) = (off / PAGE, off % PAGE);
        let end = off.checked_add(len)?;
        (end <= self.len && at + len <= PAGE)
            .then(|| &self.pages[page].as_deref().unwrap_or(&ZERO)[at..at + len])
    }

    /// Copies `[off, off + out.len())` into `out`.
    pub fn read(&self, off: usize, out: &mut [u8]) {
        let mut done = 0;
        for (page, at, n) in self.segments(off, out.len()) {
            let src = self.pages[page].as_deref().unwrap_or(&ZERO);
            out[done..done + n].copy_from_slice(&src[at..at + n]);
            done += n;
        }
    }

    /// Writes `bytes` at `off`.
    pub fn write(&mut self, off: usize, bytes: &[u8]) {
        let mut done = 0;
        for (page, at, n) in self.segments(off, bytes.len()) {
            self.page_mut(page)[at..at + n].copy_from_slice(&bytes[done..done + n]);
            done += n;
        }
    }

    /// Sets `[off, off + len)` to `val`.
    pub(crate) fn fill(&mut self, off: usize, len: usize, val: u8) {
        for (page, at, n) in self.segments(off, len) {
            if val == 0 && self.pages[page].is_none() {
                continue;
            }
            self.page_mut(page)[at..at + n].fill(val);
        }
    }

    /// Copies `[off, off + len)` from `src` (a view of the same pool) to the
    /// same offsets here. Pages the two views share are skipped: their
    /// bytes are already equal.
    pub fn copy_from(&mut self, src: &Pages, off: usize, len: usize) {
        for (page, at, n) in self.segments(off, len) {
            let from = match (&self.pages[page], &src.pages[page]) {
                (None, None) => continue,
                (Some(a), Some(b)) if Arc::ptr_eq(a, b) => continue,
                (_, from) => from.as_deref().unwrap_or(&ZERO),
            };
            self.page_mut(page)[at..at + n].copy_from_slice(&from[at..at + n]);
        }
    }

    /// An owned copy of every byte.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0; self.len];
        self.read(0, &mut out);
        out
    }
}

impl From<Vec<u8>> for Pages {
    fn from(bytes: Vec<u8>) -> Self {
        let pages = bytes
            .chunks(PAGE)
            .map(|chunk| {
                chunk.iter().any(|&b| b != 0).then(|| {
                    let mut page = ZERO;
                    page[..chunk.len()].copy_from_slice(chunk);
                    Arc::new(page)
                })
            })
            .collect();
        Pages {
            len: bytes.len(),
            pages,
        }
    }
}

impl PartialEq for Pages {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
                    (Some(p), None) | (None, Some(p)) => **p == ZERO,
                    (None, None) => true,
                })
    }
}

impl Eq for Pages {}

impl fmt::Debug for Pages {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pages")
            .field("len", &self.len)
            .field("resident", &self.pages.iter().flatten().count())
            .finish()
    }
}

/// Serialized as the plain byte array, the form pool images always had.
impl Serialize for Pages {
    fn to_value(&self) -> Value {
        self.to_vec().to_value()
    }
}

impl Deserialize for Pages {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<u8>::from_value(v).map(Pages::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_until_written() {
        let mut a = Pages::zeroed(3 * PAGE);
        a.write(PAGE + 10, b"abc");
        let mut b = a.clone();
        assert!(Arc::ptr_eq(
            a.pages[1].as_ref().unwrap(),
            b.pages[1].as_ref().unwrap()
        ));
        b.write(PAGE + 11, b"X");
        let mut buf = [0; 3];
        a.read(PAGE + 10, &mut buf);
        assert_eq!(&buf, b"abc", "the original keeps its bytes");
        b.read(PAGE + 10, &mut buf);
        assert_eq!(&buf, b"aXc");
        assert!(a.pages[0].is_none() && a.pages[2].is_none());
    }

    #[test]
    fn accesses_straddle_pages() {
        let mut p = Pages::zeroed(2 * PAGE + 64);
        let bytes: Vec<u8> = (1..=200).collect();
        p.write(PAGE - 100, &bytes);
        p.fill(2 * PAGE - 1, 3, 7);
        let v = p.to_vec();
        assert_eq!(&v[PAGE - 100..PAGE + 100], &bytes[..]);
        assert_eq!(&v[2 * PAGE - 1..2 * PAGE + 2], &[7, 7, 7]);
        let mut q = Pages::zeroed(p.len());
        q.copy_from(&p, PAGE - 50, 100);
        assert_eq!(&q.to_vec()[PAGE - 50..PAGE + 50], &v[PAGE - 50..PAGE + 50]);
        assert_eq!(Pages::from(v), p);
    }

    #[test]
    fn zero_pages_compare_equal_to_allocated_zeroes() {
        let mut a = Pages::zeroed(PAGE + 1);
        a.write(5, &[1]);
        a.write(5, &[0]);
        assert_eq!(a, Pages::zeroed(PAGE + 1));
        assert_ne!(a, Pages::zeroed(PAGE));
        assert_eq!(Pages::from(vec![0; 100]).pages, vec![None]);
    }
}
