//! The two frame readers — blocking `read_raw_frame` and the resumable
//! `FrameAssembler` — on damaged input. Alone in this file: the
//! `bate_wire_*` counters are process-wide, and the deltas are exact only
//! while nothing else moves frames.

use bate_system::wire::{
    encode_frame, encode_frame_ctx, read_raw_frame, FrameAssembler, FrameCtx, WireError,
};

/// `bate_wire_{frames_received,corrupt_frames,malformed_frames}_total`.
fn counters() -> [u64; 3] {
    ["frames_received", "corrupt_frames", "malformed_frames"]
        .map(|n| bate_obs::Registry::global().counter(&format!("bate_wire_{n}_total")).get())
}

/// Feed `bytes` to both readers; each must refuse them with the same
/// error variant and book the same counters, which are returned as
/// `(variant is Corrupt, [received, corrupt, malformed] deltas)`.
fn refused_by_both(bytes: &[u8]) -> (bool, [u64; 3]) {
    let read = |by: &dyn Fn() -> WireError| {
        let before = counters();
        let err = by();
        let after = counters();
        let corrupt = match err {
            WireError::Corrupt { .. } => true,
            WireError::Malformed(_) => false,
            other => panic!("not frame damage: {other}"),
        };
        (corrupt, [0, 1, 2].map(|i| after[i] - before[i]))
    };
    let blocking = read(&|| read_raw_frame(&mut &bytes[..]).unwrap_err());
    let resumable = read(&|| {
        let mut asm = FrameAssembler::new();
        asm.push(bytes);
        asm.next_frame().unwrap_err()
    });
    assert_eq!(blocking, resumable, "the readers disagree");
    blocking
}

#[test]
fn assembler_reports_partial_frames_and_damage() {
    let frame = encode_frame(&vec![9u64; 4]).unwrap();
    let mut asm = FrameAssembler::new();
    asm.push(&frame[..frame.len() - 1]);
    assert!(asm.next_frame().unwrap().is_none(), "incomplete frame");
    assert!(asm.buffered() > 0, "mid-frame bytes are visible");
    asm.push(&frame[frame.len() - 1..]);
    assert!(asm.next_frame().unwrap().is_some());
    assert_eq!(asm.buffered(), 0);

    // A flipped payload bit is Corrupt.
    let mut bad = frame.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x40;
    assert_eq!(refused_by_both(&bad), (true, [0, 1, 0]));

    // So is one inside the ctx extension (bytes 8..24): the CRC covers it.
    let ctx = FrameCtx {
        trace_id: 42,
        span_id: 43,
    };
    let mut bad = encode_frame_ctx(&1u64, Some(ctx)).unwrap();
    bad[10] ^= 0x01;
    assert_eq!(refused_by_both(&bad), (true, [0, 1, 0]));

    // An oversized length header (64 MiB > MAX_FRAME, flag bit clear) is
    // Malformed, rejected before anything is buffered or allocated for it.
    let mut raw = (64u32 << 20).to_be_bytes().to_vec();
    raw.extend_from_slice(&0u32.to_be_bytes());
    assert_eq!(refused_by_both(&raw), (false, [0, 0, 1]));
}
