//! The object model: two-word headers and field layout.
//!
//! Jikes RVM keeps a status word in every object header; the paper stores
//! the **bookmark** as "a single bit already available in the object's
//! header" (§3.5) alongside the mark bit. This reproduction uses a uniform
//! two-word header:
//!
//! ```text
//! word 0 (status): [ ... | ARRAY_REF | FORWARDED | ARRAY | BOOKMARK | MARK ]
//! word 1:          scalar    → size_words << 16 | num_ref_fields
//!                  array     → element count
//!                  forwarded → forwarding address (status.FORWARDED set)
//! ```
//!
//! Scalars lay their reference fields first (fields `0 .. num_refs` are
//! references), which lets an eviction-time page scan find outgoing pointers
//! without external type information — the ability §4 obtains in Jikes by
//! segregating scalar and array superpages and disabling the header-offset
//! optimizations. Arrays are either all-reference or all-data.

use crate::addr::{round_up_words, Address, WORD};

/// Header size in bytes (two words).
pub const HEADER_BYTES: u32 = 2 * WORD;
/// Objects larger than this go to the large object space
/// (§3: "BC allocates objects larger than 8180 bytes — half the size of a
/// superpage minus metadata — into the large object space").
pub const MAX_SMALL_OBJECT_BYTES: u32 = 8180;
/// The largest mark-sweep cell (the ⌊usable/2⌋ divisor class).
pub const LARGEST_CELL_BYTES: u32 = ((16384 - 12) / 2) & !(WORD - 1);

const MARK_BIT: u32 = 1 << 0;
const BOOKMARK_BIT: u32 = 1 << 1;
const ARRAY_BIT: u32 = 1 << 2;
const FORWARDED_BIT: u32 = 1 << 3;
const ARRAY_REF_BIT: u32 = 1 << 4;

/// The shape of an object: a scalar with leading reference fields, or an
/// array of all-reference / all-data words.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// A fixed-shape object. `size_words` includes the header.
    Scalar {
        /// Total size in words, header included.
        size_words: u16,
        /// Number of leading reference fields.
        num_refs: u16,
    },
    /// A word-element array.
    Array {
        /// Element count.
        len: u32,
        /// Whether every element is a reference.
        refs: bool,
    },
}

impl ObjectKind {
    /// A scalar sized for `data_words` payload words, of which the first
    /// `num_refs` are references.
    ///
    /// # Panics
    ///
    /// Panics if `num_refs > data_words` or the object exceeds 8180 bytes.
    #[inline]
    pub fn scalar(data_words: u16, num_refs: u16) -> ObjectKind {
        assert!(num_refs <= data_words, "more refs than fields");
        let size_words = data_words as u32 + HEADER_BYTES / WORD;
        assert!(
            size_words * WORD <= MAX_SMALL_OBJECT_BYTES,
            "scalar of {} bytes exceeds the 8180-byte scalar limit",
            size_words * WORD
        );
        ObjectKind::Scalar {
            size_words: size_words as u16,
            num_refs,
        }
    }

    /// Total object size in bytes, header included, word-aligned.
    #[inline]
    pub fn size_bytes(&self) -> u32 {
        match *self {
            ObjectKind::Scalar { size_words, .. } => size_words as u32 * WORD,
            ObjectKind::Array { len, .. } => round_up_words(HEADER_BYTES + len * WORD),
        }
    }

    /// Number of reference fields.
    #[inline]
    pub fn num_ref_fields(&self) -> u32 {
        match *self {
            ObjectKind::Scalar { num_refs, .. } => num_refs as u32,
            ObjectKind::Array { len, refs: true } => len,
            ObjectKind::Array { refs: false, .. } => 0,
        }
    }

    /// Whether this is an array (for scalar/array superpage segregation).
    #[inline]
    pub fn is_array(&self) -> bool {
        matches!(self, ObjectKind::Array { .. })
    }
}

/// A decoded object header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Mark bit (tracing liveness).
    pub mark: bool,
    /// Bookmark bit (§3.4: the object is the target of at least one pointer
    /// from an evicted page).
    pub bookmark: bool,
    /// The object's shape.
    pub kind: ObjectKind,
}

impl Header {
    /// A fresh header for a newly allocated object.
    #[inline]
    pub fn new(kind: ObjectKind) -> Header {
        Header {
            mark: false,
            bookmark: false,
            kind,
        }
    }

    /// Encodes to the two header words.
    #[inline]
    pub fn encode(&self) -> (u32, u32) {
        let mut w0 = 0;
        if self.mark {
            w0 |= MARK_BIT;
        }
        if self.bookmark {
            w0 |= BOOKMARK_BIT;
        }
        let w1 = match self.kind {
            ObjectKind::Scalar {
                size_words,
                num_refs,
            } => ((size_words as u32) << 16) | num_refs as u32,
            ObjectKind::Array { len, refs } => {
                w0 |= ARRAY_BIT;
                if refs {
                    w0 |= ARRAY_REF_BIT;
                }
                len
            }
        };
        (w0, w1)
    }

    /// Decodes the two header words.
    ///
    /// # Panics
    ///
    /// Panics if the header is a forwarding stub (see
    /// [`decode_forwarded`](Header::decode_forwarded)).
    #[inline]
    pub fn decode(w0: u32, w1: u32) -> Header {
        assert_eq!(w0 & FORWARDED_BIT, 0, "decoding a forwarding stub");
        let kind = if w0 & ARRAY_BIT != 0 {
            ObjectKind::Array {
                len: w1,
                refs: w0 & ARRAY_REF_BIT != 0,
            }
        } else {
            ObjectKind::Scalar {
                size_words: (w1 >> 16) as u16,
                num_refs: (w1 & 0xFFFF) as u16,
            }
        };
        Header {
            mark: w0 & MARK_BIT != 0,
            bookmark: w0 & BOOKMARK_BIT != 0,
            kind,
        }
    }

    /// Decodes a header that may be a forwarding stub left by a copying
    /// collection: `Ok(header)` for ordinary objects, `Err(new_address)`
    /// when the object has been forwarded.
    #[inline]
    pub fn decode_forwarded(w0: u32, w1: u32) -> Result<Header, Address> {
        if w0 & FORWARDED_BIT != 0 {
            Err(Address(w1))
        } else {
            Ok(Header::decode(w0, w1))
        }
    }

    /// The header words of a forwarding stub pointing at `to` (written into
    /// the *old* copy of a moved object).
    #[inline]
    pub fn forwarding_stub(to: Address) -> (u32, u32) {
        (FORWARDED_BIT, to.0)
    }

    /// Tests the mark bit directly on an encoded status word.
    #[inline]
    pub fn is_marked(w0: u32) -> bool {
        w0 & MARK_BIT != 0
    }

    /// Tests the bookmark bit directly on an encoded status word.
    #[inline]
    pub fn is_bookmarked(w0: u32) -> bool {
        w0 & BOOKMARK_BIT != 0
    }

    /// Sets or clears the mark bit on an encoded status word.
    #[inline]
    pub fn with_mark(w0: u32, mark: bool) -> u32 {
        if mark {
            w0 | MARK_BIT
        } else {
            w0 & !MARK_BIT
        }
    }

    /// Sets or clears the bookmark bit on an encoded status word.
    #[inline]
    pub fn with_bookmark(w0: u32, bookmark: bool) -> u32 {
        if bookmark {
            w0 | BOOKMARK_BIT
        } else {
            w0 & !BOOKMARK_BIT
        }
    }
}

/// Address of reference field `i` of the object at `obj`.
///
/// Valid for `i < kind.num_ref_fields()`; scalar reference fields and array
/// elements both start right after the header.
#[inline]
pub fn field_addr(obj: Address, i: u32) -> Address {
    obj.offset(HEADER_BYTES + i * WORD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let kind = ObjectKind::scalar(6, 2);
        let h = Header {
            mark: true,
            bookmark: false,
            kind,
        };
        let (w0, w1) = h.encode();
        assert_eq!(Header::decode(w0, w1), h);
        assert_eq!(kind.size_bytes(), 8 + 24);
        assert_eq!(kind.num_ref_fields(), 2);
        assert!(!kind.is_array());
    }

    #[test]
    fn array_round_trip() {
        for refs in [true, false] {
            let kind = ObjectKind::Array { len: 1000, refs };
            let h = Header {
                mark: false,
                bookmark: true,
                kind,
            };
            let (w0, w1) = h.encode();
            assert_eq!(Header::decode(w0, w1), h);
            assert_eq!(kind.size_bytes(), 8 + 4000);
            assert_eq!(kind.num_ref_fields(), if refs { 1000 } else { 0 });
            assert!(kind.is_array());
        }
    }

    #[test]
    fn forwarding_stub_round_trip() {
        let (w0, w1) = Header::forwarding_stub(Address(0x1234_5678));
        assert_eq!(Header::decode_forwarded(w0, w1), Err(Address(0x1234_5678)));
        let h = Header::new(ObjectKind::scalar(1, 0));
        let (w0, w1) = h.encode();
        assert_eq!(Header::decode_forwarded(w0, w1), Ok(h));
    }

    #[test]
    #[should_panic(expected = "forwarding stub")]
    fn decoding_a_stub_panics() {
        let (w0, w1) = Header::forwarding_stub(Address(64));
        let _ = Header::decode(w0, w1);
    }

    #[test]
    fn bit_helpers_flip_only_their_bit() {
        let h = Header {
            mark: false,
            bookmark: true,
            kind: ObjectKind::scalar(3, 1),
        };
        let (w0, w1) = h.encode();
        let marked = Header::with_mark(w0, true);
        assert!(Header::is_marked(marked));
        assert!(Header::is_bookmarked(marked));
        assert_eq!(Header::decode(Header::with_mark(marked, false), w1), h);
        let unbooked = Header::with_bookmark(w0, false);
        assert!(!Header::is_bookmarked(unbooked));
    }

    #[test]
    #[should_panic(expected = "8180-byte")]
    fn oversized_scalar_is_rejected() {
        let _ = ObjectKind::scalar(2100, 0);
    }

    #[test]
    #[should_panic(expected = "more refs than fields")]
    fn refs_beyond_fields_rejected() {
        let _ = ObjectKind::scalar(2, 3);
    }

    #[test]
    fn field_addresses_follow_header() {
        let obj = Address(0x1000);
        assert_eq!(field_addr(obj, 0), Address(0x1008));
        assert_eq!(field_addr(obj, 3), Address(0x1014));
    }

    #[test]
    fn largest_cell_constant_is_half_superpage_minus_metadata() {
        assert_eq!(LARGEST_CELL_BYTES, 8184);
        const { assert!(LARGEST_CELL_BYTES >= MAX_SMALL_OBJECT_BYTES) };
    }
}
