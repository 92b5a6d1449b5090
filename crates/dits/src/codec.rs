//! The byte format of integers and cell sets in the wire messages of the
//! multi-source framework.
//!
//! * An integer is an unsigned LEB128 varint: seven bits per byte, low bits
//!   first, the high bit set on every byte but the last.
//! * A cell set is its cell count followed by the gaps between consecutive
//!   cells (the first gap is the first cell itself).  Cell sets are sorted,
//!   so the gaps are small and most take one byte.
//!
//! The bytes are untrusted input, and the readers accept exactly what the
//! writers produce, so every value has one encoding and
//! `encode(decode(b)) == b` for every `b` a reader accepts: a varint padded
//! with a zero final byte, one that does not fit 64 bits and a cell gap of
//! zero after the first are refused, not repaired.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use bytes::{Buf, BufMut};
use spatial::{CellId, CellSet};

/// Why bytes are not the encoding of a varint or a cell set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended inside a varint, or a cell count exceeds the bytes
    /// left.
    Truncated,
    /// A varint is not the shortest encoding of a 64-bit value: it overflows
    /// 64 bits, runs past ten bytes, or ends in a padding zero byte.
    BadVarint,
    /// The gaps of a cell set sum past `u64::MAX`.
    CellOverflow,
    /// A cell gap after the first is zero: the set repeats a cell.
    DuplicateCell,
}

/// The longest varint: nine bytes of seven bits and one byte holding bit 63.
const MAX_VARINT_BYTES: u32 = 10;

/// Writes an unsigned LEB128 varint.
pub fn put_varint<B: BufMut>(buf: &mut B, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads the varint [`put_varint`] writes, and nothing else.
pub fn get_varint<B: Buf>(buf: &mut B) -> Result<u64, CodecError> {
    let mut value = 0u64;
    for index in 0..MAX_VARINT_BYTES {
        if !buf.has_remaining() {
            return Err(CodecError::Truncated);
        }
        let byte = buf.get_u8();
        // The tenth byte holds bit 63 alone: anything above 1 either
        // overflows 64 bits or announces an eleventh byte.
        if index == MAX_VARINT_BYTES - 1 && byte > 1 {
            return Err(CodecError::BadVarint);
        }
        value |= u64::from(byte & 0x7f) << (7 * index);
        if byte & 0x80 == 0 {
            // A zero byte after the first adds nothing but a second
            // encoding of the same value.
            return if byte == 0 && index > 0 {
                Err(CodecError::BadVarint)
            } else {
                Ok(value)
            };
        }
    }
    Err(CodecError::BadVarint)
}

/// Writes a cell set as its count followed by the gap before each cell.
pub fn put_cells<B: BufMut>(buf: &mut B, cells: &CellSet) {
    put_varint(buf, cells.len() as u64);
    let mut previous: CellId = 0;
    for cell in cells.iter() {
        put_varint(buf, cell - previous);
        previous = cell;
    }
}

/// Reads the cell set [`put_cells`] writes.  The cells arrive strictly
/// increasing and are packed as they are read, with no sort, no dedup and
/// no cell list in between.  A repeated cell is reported once every gap has
/// been read, so a cut-off or malformed gap after it still wins.
pub fn get_cells<B: Buf>(buf: &mut B) -> Result<CellSet, CodecError> {
    let count = get_varint(buf)?;
    // Every gap takes at least one byte, so a count beyond the bytes left
    // is a cut-off buffer — known before anything is read for it.
    if count > buf.remaining() as u64 {
        return Err(CodecError::Truncated);
    }
    let mut failure = None;
    let mut previous: Option<CellId> = None;
    let read = (0..count).map_while(|_| {
        let gap = get_varint(buf).map_err(|e| failure = Some(e)).ok()?;
        let Some(cell) = previous.map_or(Some(gap), |cell| cell.checked_add(gap)) else {
            failure = Some(CodecError::CellOverflow);
            return None;
        };
        let repeat = previous == Some(cell);
        previous = Some(cell);
        Some((cell, repeat))
    });
    let mut repeated = false;
    let set = CellSet::from_sorted_cells(read.filter_map(|(cell, repeat)| {
        repeated |= repeat;
        (!repeat).then_some(cell)
    }));
    match failure {
        Some(e) => Err(e),
        None if repeated => Err(CodecError::DuplicateCell),
        None => set.ok_or(CodecError::DuplicateCell),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint(value: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, value);
        buf
    }

    #[test]
    fn varints_round_trip_and_have_exactly_one_encoding() {
        for value in [
            0,
            1,
            127,
            128,
            300,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let bytes = varint(value);
            let mut rest = bytes.as_slice();
            assert_eq!(get_varint(&mut rest), Ok(value));
            assert!(rest.is_empty(), "{value} left bytes unread");
        }
        assert_eq!(varint(0), [0]);
        assert_eq!(varint(300), [0xAC, 0x02]);
        assert_eq!(varint(u64::MAX).len(), MAX_VARINT_BYTES as usize);

        let decode = |mut bytes: &[u8]| get_varint(&mut bytes);
        // Padded: 5 and 0 with a zero byte too many.
        assert_eq!(decode(&[0x85, 0x00]), Err(CodecError::BadVarint));
        assert_eq!(decode(&[0x80, 0x00]), Err(CodecError::BadVarint));
        // Overflowing: 2^64 used to wrap to 0.
        let mut overflow = vec![0x80; 9];
        overflow.push(0x02);
        assert_eq!(decode(&overflow), Err(CodecError::BadVarint));
        // Over-long: an eleventh byte, whatever it holds.
        let mut long = vec![0x80; 10];
        long.push(0x01);
        assert_eq!(decode(&long), Err(CodecError::BadVarint));
        // Cut off: every proper prefix of a ten-byte varint.
        let full = varint(u64::MAX);
        for cut in 0..full.len() {
            assert_eq!(decode(&full[..cut]), Err(CodecError::Truncated));
        }
    }

    #[test]
    fn cell_sets_round_trip_and_refuse_what_put_cells_never_writes() {
        let cells = CellSet::from_cells([0u64, 1, 300, u64::MAX]);
        let mut bytes = Vec::new();
        put_cells(&mut bytes, &cells);
        let mut rest = bytes.as_slice();
        assert_eq!(get_cells(&mut rest), Ok(cells));
        assert!(rest.is_empty());

        let decode = |mut bytes: &[u8]| get_cells(&mut bytes);
        assert_eq!(decode(&[0]), Ok(CellSet::new()));
        assert_eq!(decode(&[2, 5, 0]), Err(CodecError::DuplicateCell));
        // A gap cut off after a repeated cell: the cut is what is reported.
        assert_eq!(decode(&[3, 5, 0, 0x80]), Err(CodecError::Truncated));
        assert_eq!(decode(&[3, 1, 1]), Err(CodecError::Truncated));
        let mut overflow = vec![2];
        overflow.extend(varint(u64::MAX));
        overflow.push(1);
        assert_eq!(decode(&overflow), Err(CodecError::CellOverflow));
    }
}
