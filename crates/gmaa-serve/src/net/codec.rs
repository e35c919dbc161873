//! Frame codec: 4-byte big-endian length prefix + payload bytes.
//!
//! Serving-path code: no panics, no `[]` indexing — fixed-size reads
//! land in arrays that are destructured, never indexed.

use std::io::{self, IoSlice, Read, Write};

/// Why a frame could not be read.
#[derive(Debug)]
pub(crate) enum FrameError {
    /// The transport failed (includes a peer that vanished mid-frame).
    Io(io::Error),
    /// The length prefix exceeds the configured cap (or this target's
    /// address space). The payload was not consumed, so the stream is no
    /// longer aligned — the caller must close the connection after
    /// reporting the error.
    Oversized {
        /// The length the prefix announced. Held as `u64` so the exact
        /// attacker-supplied value survives even where it does not fit
        /// in `usize`.
        len: u64,
        /// The configured cap it broke.
        max: usize,
    },
}

/// Write one frame, length prefix and payload together, then flush.
///
/// Both parts go out through `write_vectored`, so on a socket the whole
/// frame is one `writev` (one segment under `TCP_NODELAY` where it fits)
/// and the reader never wakes for a lone 4-byte prefix; the loop only
/// repeats for what a short write left over.
pub(crate) fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::other("frame payload exceeds the u32 length prefix"))?;
    let prefix = len.to_be_bytes();
    let mut parts = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut rest: &mut [IoSlice<'_>] = &mut parts;
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(written) => IoSlice::advance_slices(&mut rest, written),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Read one frame's payload. `Ok(None)` is a clean close: the peer shut
/// the stream *between* frames. EOF mid-frame is an I/O error.
pub(crate) fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    // First prefix byte by hand so a clean close is distinguishable
    // from a torn one.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let mut rest = [0u8; 3];
    r.read_exact(&mut rest).map_err(FrameError::Io)?;
    let [b0] = first;
    let [b1, b2, b3] = rest;
    // The prefix is attacker-controlled: widen it losslessly, then prove
    // it fits both the cap and this target's usize before allocating.
    // No bare `as` — a narrowing cast here silently truncates a >4 GiB
    // announcement into a small allocation on 32-bit targets.
    let announced = u64::from(u32::from_be_bytes([b0, b1, b2, b3]));
    let len = match usize::try_from(announced) {
        Ok(len) if len <= max => len,
        _ => {
            return Err(FrameError::Oversized {
                len: announced,
                max,
            })
        }
    };
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 64).unwrap().is_none(), "clean EOF");
    }

    /// Records the byte count of every write call; `max` caps how much
    /// one call accepts, to force short writes.
    struct Counting {
        writes: Vec<usize>,
        bytes: Vec<u8>,
        max: usize,
    }

    impl Counting {
        fn new(max: usize) -> Counting {
            Counting {
                writes: Vec::new(),
                bytes: Vec::new(),
                max,
            }
        }
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.max - taken);
                self.bytes.extend_from_slice(&buf[..n]);
                taken += n;
            }
            self.writes.push(taken);
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        // A small frame and one past the 8 KiB a `BufWriter` holds: the
        // prefix never goes out on its own.
        for len in [5usize, 13_422] {
            let payload = vec![b'x'; len];
            let mut w = Counting::new(usize::MAX);
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, vec![4 + len], "{len}-byte payload");
            let mut r = io::Cursor::new(w.bytes);
            assert_eq!(read_frame(&mut r, len).unwrap().unwrap(), payload);
        }
    }

    #[test]
    fn short_writes_resume_where_they_stopped() {
        let payload: Vec<u8> = (0..=255).collect();
        let mut w = Counting::new(3);
        write_frame(&mut w, &payload).unwrap();
        assert_eq!(w.writes.iter().sum::<usize>(), 4 + payload.len());
        assert!(w
            .writes
            .iter()
            .all(|&n| n == 3 || n == (4 + payload.len()) % 3));
        let mut r = io::Cursor::new(w.bytes);
        assert_eq!(read_frame(&mut r, 256).unwrap().unwrap(), payload);
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = io::Cursor::new(buf);
        match read_frame(&mut r, 1024) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    /// The 4 GiB boundary: the largest possible announcement must be
    /// reported exactly (no truncation through a narrowing cast), and
    /// the cap must cut precisely between `max` and `max + 1`.
    #[test]
    fn four_gib_boundary_is_exact() {
        // 4 GiB - 1, the maximum encodable prefix, survives verbatim.
        let mut r = io::Cursor::new(u32::MAX.to_be_bytes().to_vec());
        match read_frame(&mut r, usize::MAX) {
            // Caps at or above 4 GiB only exist on 64-bit targets; there
            // the frame passes the cap and dies on the missing payload.
            Err(FrameError::Io(_)) if usize::try_from(u64::from(u32::MAX)).is_ok() => {}
            Err(FrameError::Oversized { len, .. }) => assert_eq!(len, (1u64 << 32) - 1),
            other => panic!("unexpected result {other:?}"),
        }

        // Exactly at the cap: accepted (fails later on the torn payload,
        // which proves the allocation path was taken, not the cap).
        let cap = 4096usize;
        let mut at = Vec::new();
        at.extend_from_slice(&u32::try_from(cap).unwrap().to_be_bytes());
        at.extend_from_slice(&vec![7u8; cap]);
        let mut r = io::Cursor::new(at);
        assert_eq!(read_frame(&mut r, cap).unwrap().unwrap().len(), cap);

        // One past the cap: rejected with the exact announced length.
        let mut over = Vec::new();
        over.extend_from_slice(&u32::try_from(cap + 1).unwrap().to_be_bytes());
        let mut r = io::Cursor::new(over);
        match read_frame(&mut r, cap) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u64::try_from(cap).unwrap() + 1);
                assert_eq!(max, cap);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn torn_frame_is_an_io_error_not_a_clean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Io(_))));
        // Torn inside the prefix itself, too.
        let mut r = io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Io(_))));
    }
}
