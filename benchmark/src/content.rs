//! Self-describing file content: every 4 KiB block and every log record
//! carries which file and position it belongs to and which write produced
//! it, under a checksum, so that a reader can tell the last acknowledged
//! write from any other state.

use crate::plan::{mix, APPEND_BYTES, BLOCK};

const MAGIC: u64 = 0xA2C4_F5B1_0C4B_10C5;

fn words(file: u32, position: u32, stamp: u32) -> (u64, u64) {
    let id = u64::from(position) | u64::from(stamp) << 32;
    (id, mix(MAGIC ^ u64::from(file) << 48 ^ id))
}

/// Fill `buf` (one block or one record) with the content of write number
/// `stamp` at `position` (block or record index) of `file`.
pub fn fill(buf: &mut [u8], file: u32, position: u32, stamp: u32) {
    let (id, sum) = words(file, position, stamp);
    buf[..8].copy_from_slice(&id.to_le_bytes());
    for chunk in buf[8..].chunks_exact_mut(8) {
        chunk.copy_from_slice(&sum.to_le_bytes());
    }
}

/// The stamp of the write whose content `buf` holds, if `buf` is intact
/// content for `position` of `file`.
pub fn stamp_of(buf: &[u8], file: u32, position: u32) -> Option<u32> {
    let id = u64::from_le_bytes(buf[..8].try_into().ok()?);
    if id as u32 != position {
        return None;
    }
    let stamp = (id >> 32) as u32;
    let (_, sum) = words(file, position, stamp);
    let want = sum.to_le_bytes();
    buf[8..].chunks_exact(8).all(|c| c == want).then_some(stamp)
}

/// The position a block or record claims to be for, without validating it
/// (cheap in-run check; positions never change, so a concurrent writer
/// cannot make it wrong).
pub fn position_of(buf: &[u8]) -> u32 {
    u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]])
}

/// A buffer of `n` consecutive blocks starting at `first`, all of write
/// `stamp`.
pub fn fill_blocks(buf: &mut [u8], file: u32, first: u32, stamp: u32) {
    for (i, block) in buf.chunks_exact_mut(BLOCK).enumerate() {
        fill(block, file, first + i as u32, stamp);
    }
}

/// Last acknowledged write of every block of one file.
#[derive(Debug, Clone)]
pub struct BlockModel {
    pub file: u32,
    pub stamps: Vec<u32>,
}

impl BlockModel {
    /// A file of `blocks` blocks, all prefilled by write 0.
    pub fn new(file: u32, blocks: usize) -> BlockModel {
        BlockModel {
            file,
            stamps: vec![0; blocks],
        }
    }
}

/// The append log of one thread: records `base..base + len` are in the
/// file, in order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogModel {
    pub file: u32,
    pub len: u32,
    /// Appends ever acknowledged; the next record's stamp.
    pub next: u32,
}

impl LogModel {
    pub fn bytes(&self) -> u64 {
        u64::from(self.len) * APPEND_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_round_trips_and_rejects_everything_else() {
        let mut b = vec![0u8; BLOCK];
        fill(&mut b, 3, 17, 42);
        assert_eq!(stamp_of(&b, 3, 17), Some(42));
        assert_eq!(position_of(&b), 17);
        assert_eq!(stamp_of(&b, 3, 18), None, "wrong position");
        assert_eq!(stamp_of(&b, 4, 17), None, "wrong file");
        b[100] ^= 1;
        assert_eq!(stamp_of(&b, 3, 17), None, "torn payload");
        assert_eq!(stamp_of(&vec![0u8; BLOCK], 3, 0), None, "zeroes");
        let mut r = vec![0u8; APPEND_BYTES];
        fill(&mut r, 9, 5, 5);
        assert_eq!(stamp_of(&r, 9, 5), Some(5));
    }

    #[test]
    fn consecutive_blocks_carry_consecutive_positions() {
        let mut b = vec![0u8; 4 * BLOCK];
        fill_blocks(&mut b, 1, 10, 7);
        for i in 0..4 {
            assert_eq!(
                stamp_of(&b[i * BLOCK..(i + 1) * BLOCK], 1, 10 + i as u32),
                Some(7)
            );
        }
    }
}
