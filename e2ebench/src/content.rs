//! Self-describing element contents.
//!
//! Every element the benchmark writes — prefill included — starts with a
//! 32-byte header: its own data address, the writer that produced it, the
//! writer's sequence number and a checksum of the payload. The payload is
//! a pure function of `(addr, writer, seq)`, so any element read back can
//! be regenerated and compared byte for byte without keeping a shadow copy
//! of the volume.

/// Header bytes at the front of every element.
pub const HEADER: usize = 32;

/// Writer id of the prefill (its sequence number is always 0).
pub const PREFILL: u64 = 0;

/// Writer id of benchmark client `client` during arm `epoch` (epochs start
/// at 1). Distinct arms replay the same streams, so the epoch keeps their
/// writes apart.
pub fn writer_id(epoch: u64, client: usize) -> u64 {
    (epoch << 8) | (client as u64 + 1)
}

/// Splits a writer id into `(epoch, client)`; `None` for the prefill or a
/// malformed id.
pub fn split_writer(writer: u64) -> Option<(u64, usize)> {
    let client = (writer & 0xff) as usize;
    (writer != PREFILL && client >= 1).then(|| (writer >> 8, client - 1))
}

/// The decoded header of one element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub writer: u64,
    pub seq: u64,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn key(addr: usize, writer: u64, seq: u64) -> u64 {
    mix(mix(addr as u64 ^ 0x005e_ed0f_e1e7)
        ^ writer.rotate_left(23)
        ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn word(key: u64, i: usize) -> u64 {
    mix(key.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

fn checksum_step(sum: u64, w: u64) -> u64 {
    (sum ^ w).wrapping_mul(0x0000_0100_0000_01b3)
}

fn field(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte header field"))
}

/// Fills `buf` (one element) with the contents `writer` gives data
/// address `addr` at sequence number `seq`.
pub fn fill(buf: &mut [u8], addr: usize, writer: u64, seq: u64) {
    assert!(
        buf.len() > HEADER && buf.len().is_multiple_of(8),
        "element size must be a multiple of 8 above 32"
    );
    let k = key(addr, writer, seq);
    let mut sum = 0u64;
    for (i, chunk) in buf[HEADER..].chunks_exact_mut(8).enumerate() {
        let w = word(k, i);
        sum = checksum_step(sum, w);
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    buf[0..8].copy_from_slice(&(addr as u64).to_le_bytes());
    buf[8..16].copy_from_slice(&writer.to_le_bytes());
    buf[16..24].copy_from_slice(&seq.to_le_bytes());
    buf[24..32].copy_from_slice(&sum.to_le_bytes());
}

/// Checks one element read back from data address `addr`: the header must
/// name that address, the checksum must match the payload, and the payload
/// must be exactly what its `(writer, seq)` generates.
pub fn check(buf: &[u8], addr: usize) -> Result<Header, String> {
    let stored_addr = field(buf, 0);
    if stored_addr != addr as u64 {
        return Err(format!(
            "element {addr} holds the header of element {stored_addr}"
        ));
    }
    let h = Header {
        writer: field(buf, 8),
        seq: field(buf, 16),
    };
    let mut sum = 0u64;
    for chunk in buf[HEADER..].chunks_exact(8) {
        sum = checksum_step(
            sum,
            u64::from_le_bytes(chunk.try_into().expect("8-byte word")),
        );
    }
    if sum != field(buf, 24) {
        return Err(format!("element {addr}: payload checksum mismatch ({h:?})"));
    }
    let k = key(addr, h.writer, h.seq);
    for (i, chunk) in buf[HEADER..].chunks_exact(8).enumerate() {
        if chunk != word(k, i).to_le_bytes() {
            return Err(format!(
                "element {addr}: payload word {i} differs from what {h:?} wrote"
            ));
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_check_round_trips_and_catches_damage() {
        let mut buf = vec![0u8; 4096];
        fill(&mut buf, 77, writer_id(1, 1), 9);
        assert_eq!(
            check(&buf, 77).unwrap(),
            Header {
                writer: writer_id(1, 1),
                seq: 9
            }
        );
        assert!(check(&buf, 78).is_err());
        buf[1000] ^= 1;
        assert!(check(&buf, 77).is_err());
        assert_eq!(split_writer(writer_id(3, 0)), Some((3, 0)));
        assert_eq!(split_writer(PREFILL), None);
    }
}
