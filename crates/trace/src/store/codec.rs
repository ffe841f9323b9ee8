//! Record codec: delta + varint encoding of [`TraceRecord`]s and the
//! FNV-1a 64 checksum that guards each file frame.
//!
//! Per record, in order:
//!
//! 1. `varint((instr_gap << 1) | is_store)` — gap and store bit packed;
//! 2. `varint(zigzag(pc - prev_pc))` — program counters stride forward,
//!    so deltas are tiny;
//! 3. `varint(zigzag(line - prev_line))` — cache lines cluster spatially.
//!
//! `prev_pc`/`prev_line` ([`DeltaChain`]) start at 0 at the head of each
//! chain. In a file every frame is its own chain, never carried across a
//! frame boundary: each frame decodes with no context, which is what lets
//! [`StreamingTrace`](super::StreamingTrace) rewind by seeking to the
//! first frame.

use crate::TraceRecord;

/// LEB128-style unsigned varint (7 bits per byte, high bit = continue).
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one varint from `buf` starting at `*pos`, advancing `*pos`.
///
/// Returns `None` on truncation or an overlong (> 10 byte) encoding.
/// Always inlined: as a call, each of a record's three reads passes
/// `pos` through memory, and a replayed record cost about 20% more.
#[inline(always)]
pub(crate) fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        // The 10th byte may only carry the last single bit of a u64.
        if shift == 63 && byte & 0x7e != 0 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Maps signed deltas to small unsigned values (0, -1, 1, -2, … → 0, 1, 2, 3, …).
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The delta state of one record chain: the previous record's `pc` and
/// `line`, both zero before the chain's first record.
///
/// [`encode`](DeltaChain::encode) and [`decode`](DeltaChain::decode) are
/// the one per-record step of the encoding; file frames run one chain per
/// frame.
#[derive(Debug, Default)]
pub(crate) struct DeltaChain {
    prev_pc: u64,
    prev_line: u64,
}

impl DeltaChain {
    /// Appends `r` to `out`, delta-encoded against the previous record.
    #[inline]
    pub(crate) fn encode(&mut self, r: &TraceRecord, out: &mut Vec<u8>) {
        put_varint(out, (u64::from(r.instr_gap) << 1) | u64::from(r.is_store));
        put_varint(out, zigzag(r.pc.wrapping_sub(self.prev_pc) as i64));
        put_varint(out, zigzag(r.line.wrapping_sub(self.prev_line) as i64));
        self.prev_pc = r.pc;
        self.prev_line = r.line;
    }

    /// Decodes the record at `buf[*pos..]`, advancing `*pos`. The error
    /// names the field that failed to decode.
    #[inline]
    pub(crate) fn decode(
        &mut self,
        buf: &[u8],
        pos: &mut usize,
    ) -> Result<TraceRecord, &'static str> {
        let gap_store = get_varint(buf, pos).ok_or("bad gap varint")?;
        let instr_gap = u32::try_from(gap_store >> 1).map_err(|_| "instr_gap overflow")?;
        let dpc = get_varint(buf, pos).ok_or("bad pc varint")?;
        let dline = get_varint(buf, pos).ok_or("bad line varint")?;
        self.prev_pc = self.prev_pc.wrapping_add(unzigzag(dpc) as u64);
        self.prev_line = self.prev_line.wrapping_add(unzigzag(dline) as u64);
        Ok(TraceRecord {
            instr_gap,
            pc: self.prev_pc,
            line: self.prev_line,
            is_store: gap_store & 1 == 1,
        })
    }
}

/// Decodes one frame payload into `out` (cleared first).
///
/// `count` is the record count from the frame header; the payload must
/// hold exactly that many records and no trailing bytes. Errors return a
/// human-readable detail string for [`StoreError::FrameDecode`]
/// (super::StoreError).
pub(crate) fn decode_frame(
    payload: &[u8],
    count: u32,
    out: &mut Vec<TraceRecord>,
) -> Result<(), String> {
    out.clear();
    let mut pos = 0usize;
    let mut chain = DeltaChain::default();
    for i in 0..count {
        let r = chain
            .decode(payload, &mut pos)
            .map_err(|what| format!("{what} at record {i}"))?;
        out.push(r);
    }
    if pos != payload.len() {
        return Err(format!(
            "{} trailing bytes after {count} records",
            payload.len() - pos
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(records: &[TraceRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut chain = DeltaChain::default();
        for r in records {
            chain.encode(r, &mut out);
        }
        out
    }

    #[test]
    fn varint_round_trip_edges() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overlong() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn frame_round_trip() {
        let records = vec![
            TraceRecord {
                instr_gap: 0,
                pc: u64::MAX,
                line: 0,
                is_store: true,
            },
            TraceRecord {
                instr_gap: u32::MAX,
                pc: 0,
                line: u64::MAX,
                is_store: false,
            },
            TraceRecord {
                instr_gap: 7,
                pc: 0x4000_1234,
                line: 0x4000_1234 >> 6,
                is_store: false,
            },
        ];
        let payload = encode(&records);
        let mut back = Vec::new();
        decode_frame(&payload, records.len() as u32, &mut back).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let records = vec![TraceRecord {
            instr_gap: 1,
            pc: 2,
            line: 3,
            is_store: false,
        }];
        let mut payload = encode(&records);
        payload.push(0);
        let mut back = Vec::new();
        assert!(decode_frame(&payload, 1, &mut back).is_err());
    }
}
