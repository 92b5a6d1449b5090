//! Z-order (Morton) space-filling curve.
//!
//! Definition 4 maps each grid cell's `(X, Y)` coordinates to a unique
//! non-negative integer by interleaving the binary representations of the two
//! coordinates — the classic z-order curve.  Cell IDs are consecutive in the
//! range `[0, 2^θ × 2^θ − 1]`.
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

/// Integer identifier of a grid cell, produced by the z-order curve.
pub type CellId = u64;

/// Interleaves the lower 32 bits of `v` with zeros, producing a 64-bit value
/// whose even bit positions carry `v`'s bits.
#[inline]
const fn spread_bits(v: u32) -> u64 {
    let mut x = v as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`spread_bits`]: collects the even bit positions of `v` back
/// into a compact 32-bit value.
#[inline]
const fn compact_bits(v: u64) -> u32 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x as u32
}

/// Encodes cell coordinates `(x, y)` into a z-order cell ID
/// (`z(X, Y) = c` in Definition 4).
///
/// Bit `i` of `x` lands at bit `2i` of the result and bit `i` of `y` at bit
/// `2i + 1`, so for a `2^θ × 2^θ` grid the IDs form the contiguous range
/// `[0, 4^θ)`.
#[inline]
pub const fn cell_id(x: u32, y: u32) -> CellId {
    spread_bits(x) | (spread_bits(y) << 1)
}

/// Decodes a z-order cell ID back into its `(x, y)` cell coordinates.
#[inline]
pub const fn cell_coords(id: CellId) -> (u32, u32) {
    (compact_bits(id), compact_bits(id >> 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_fig2() {
        // Fig. 2(a): θ = 2, the bottom-left cell has coordinates (0,0) -> id 0,
        // and the full 4x4 grid is numbered in z-order:
        //  10 11 14 15
        //   8  9 12 13
        //   2  3  6  7
        //   0  1  4  5
        let expected = [
            [0u64, 1, 4, 5],
            [2, 3, 6, 7],
            [8, 9, 12, 13],
            [10, 11, 14, 15],
        ];
        for (y, row) in expected.iter().enumerate() {
            for (x, id) in row.iter().enumerate() {
                assert_eq!(cell_id(x as u32, y as u32), *id, "cell ({x},{y})");
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_small() {
        for x in 0..64u32 {
            for y in 0..64u32 {
                let id = cell_id(x, y);
                assert_eq!(cell_coords(id), (x, y));
            }
        }
    }

    #[test]
    fn ids_are_dense_for_square_grid() {
        // For a 2^θ x 2^θ grid the set of ids is exactly [0, 4^θ).
        let theta = 3u32;
        let side = 1u32 << theta;
        let mut seen = vec![false; (side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                let id = cell_id(x, y) as usize;
                assert!(id < seen.len());
                assert!(!seen[id], "duplicate id {id}");
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn high_bit_coordinates_survive() {
        let x = (1u32 << 31) - 1;
        let y = 12345u32;
        assert_eq!(cell_coords(cell_id(x, y)), (x, y));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(x in 0u32..u32::MAX, y in 0u32..u32::MAX) {
            prop_assert_eq!(cell_coords(cell_id(x, y)), (x, y));
        }

        #[test]
        fn prop_monotone_in_quadrant(x in 0u32..1000, y in 0u32..1000) {
            // Moving to a strictly larger quadrant (both coords doubled range)
            // never decreases the id: z-order preserves the block ordering.
            let id = cell_id(x, y);
            let id_shifted = cell_id(x + 1024, y + 1024);
            prop_assert!(id_shifted > id);
        }
    }
}
