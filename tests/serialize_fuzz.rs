//! Adversarial-input property suite for `rle::serialize`: the decoders
//! face document-pipeline reality (truncated transfers, bit rot, hostile
//! headers) and must *never* panic or allocate beyond input-proportional
//! bounds — every malformed stream is a structured [`DecodeError`].
//!
//! Strategy coverage: exact round-trips on valid bytes, every truncation
//! point, single-bit flips, random garbage, trailing extensions, and
//! crafted count/height headers. On every image input the row skipper
//! (`RowReader::skip_row`) runs beside the decoder and must agree with it.

mod common;

use common::rle_row;
use proptest::prelude::*;
use rle_systolic::rle::serialize::{
    self, decode_image, decode_row, encode_image, encode_row, DecodeError, ImageReader, RowReader,
};
use rle_systolic::rle::RleImage;

/// Skips every row of `bytes` beside a decode of it: the skipper never
/// panics or leaves the slice, succeeds wherever decoding succeeds and
/// then ends at the same byte, and fails only for want of bytes or on a
/// row's count (with the error decoding reports).
fn skipping_agrees_with_decoding(bytes: &[u8]) {
    let (Ok(mut decoder), Ok(mut skipper)) = (RowReader::new(bytes), RowReader::new(bytes)) else {
        return;
    };
    while let (Some(decoded), Some(skipped)) = (decoder.next_row(), skipper.skip_row()) {
        assert!(skipper.position() <= bytes.len(), "skip left the slice");
        match (decoded, skipped) {
            (Ok(_), Ok(())) => assert_eq!(decoder.position(), skipper.position()),
            (Ok(_), Err(e)) => panic!("skip failed ({e:?}) where decoding succeeded"),
            // A body varint past 32 bits or a run past the width: a skip
            // does not look.
            (Err(_), Ok(())) => return,
            (Err(_), Err(DecodeError::Truncated)) => return,
            (Err(d), Err(s)) => {
                assert!(
                    matches!(
                        s,
                        DecodeError::ImplausibleCount { .. } | DecodeError::VarintOverflow
                    ),
                    "{s:?}"
                );
                assert_eq!(d, s, "a count error is the decoder's");
                return;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid bytes still round-trip exactly (the hardening must not reject
    /// anything the encoder produces).
    #[test]
    fn row_round_trip_survives_hardening(row in rle_row(5_000, 40, true)) {
        let bytes = encode_row(&row);
        prop_assert_eq!(decode_row(&bytes).unwrap(), row);
    }

    /// Image round-trip, batch and streaming decoders agreeing.
    #[test]
    fn image_round_trip_survives_hardening(
        rows in prop::collection::vec(rle_row(900, 24, true), 1..8),
    ) {
        let img = RleImage::from_rows(900, rows).unwrap();
        let bytes = encode_image(&img);
        prop_assert_eq!(decode_image(&bytes).unwrap(), img.clone());
        skipping_agrees_with_decoding(&bytes);
        let mut reader = ImageReader::new(&bytes[..]).unwrap();
        let mut streamed = Vec::new();
        while let Some(next) = reader.next_row() {
            streamed.push(next.unwrap());
        }
        prop_assert_eq!(RleImage::from_rows(900, streamed).unwrap(), img);
    }

    /// Every truncation of a valid row stream errors without panicking.
    #[test]
    fn truncated_rows_never_panic(row in rle_row(2_000, 24, true)) {
        let bytes = encode_row(&row);
        for cut in 0..bytes.len() {
            prop_assert!(decode_row(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
    }

    /// Every truncation of a valid image stream errors (batch and
    /// streaming) without panicking.
    #[test]
    fn truncated_images_never_panic(
        rows in prop::collection::vec(rle_row(300, 10, true), 1..5),
    ) {
        let img = RleImage::from_rows(300, rows).unwrap();
        let bytes = encode_image(&img);
        for cut in 0..bytes.len() {
            prop_assert!(decode_image(&bytes[..cut]).is_err(), "cut at {}", cut);
            skipping_agrees_with_decoding(&bytes[..cut]);
            match ImageReader::new(&bytes[..cut]) {
                Err(_) => {}
                Ok(mut reader) => {
                    // Draining a truncated stream must end in an error,
                    // never a panic (it may yield valid prefix rows first).
                    let mut failed = false;
                    while let Some(next) = reader.next_row() {
                        if next.is_err() {
                            failed = true;
                            break;
                        }
                    }
                    prop_assert!(
                        failed || reader.rows_remaining() == 0,
                        "cut at {} decoded cleanly",
                        cut
                    );
                }
            }
        }
    }

    /// A single flipped bit anywhere decodes to Ok (a different valid row)
    /// or a structured error — never a panic, never a huge allocation.
    #[test]
    fn bit_flips_never_panic(
        row in rle_row(2_000, 24, true),
        flip_byte in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let mut bytes = encode_row(&row);
        let idx = usize::from(flip_byte) % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        let _ = decode_row(&bytes); // Ok or Err both fine; no panic.
    }

    /// Same for whole images, batch and streaming.
    #[test]
    fn image_bit_flips_never_panic(
        rows in prop::collection::vec(rle_row(300, 10, true), 1..5),
        flip_byte in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let img = RleImage::from_rows(300, rows).unwrap();
        let mut bytes = encode_image(&img);
        let idx = usize::from(flip_byte) % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        let _ = decode_image(&bytes);
        skipping_agrees_with_decoding(&bytes);
        if let Ok(mut reader) = ImageReader::new(&bytes[..]) {
            while let Some(next) = reader.next_row() {
                if next.is_err() {
                    break;
                }
            }
        }
    }

    /// Pure garbage never panics either decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_row(&bytes);
        let _ = decode_image(&bytes);
        skipping_agrees_with_decoding(&bytes);
        if let Ok(mut reader) = ImageReader::new(&bytes[..]) {
            while let Some(next) = reader.next_row() {
                if next.is_err() {
                    break;
                }
            }
        }
    }

    /// Garbage wearing a valid magic number still can't panic or force a
    /// disproportionate allocation.
    #[test]
    fn garbage_with_magic_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let mut row_bytes = b"RLR1".to_vec();
        row_bytes.extend_from_slice(&bytes);
        let _ = decode_row(&row_bytes);
        let mut img_bytes = b"RLI1".to_vec();
        img_bytes.extend_from_slice(&bytes);
        let _ = decode_image(&img_bytes);
        skipping_agrees_with_decoding(&img_bytes);
    }

    /// Trailing extension bytes after a valid row are ignored (the row
    /// format is length-delimited by its own header), and an extended image
    /// decodes its declared height then errors or stops cleanly.
    #[test]
    fn extended_streams_never_panic(
        row in rle_row(2_000, 24, true),
        extra in prop::collection::vec(any::<u8>(), 1..50),
    ) {
        let mut bytes = encode_row(&row);
        bytes.extend_from_slice(&extra);
        prop_assert_eq!(decode_row(&bytes).unwrap(), row);
    }
}

#[test]
fn adversarial_count_headers_are_rejected_fast() {
    // Row: declares u32::MAX runs in a handful of bytes.
    let mut bytes = b"RLR1".to_vec();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]); // count = u32::MAX
    assert!(matches!(
        decode_row(&bytes),
        Err(DecodeError::ImplausibleCount { .. })
    ));

    // Image: 13 bytes claiming ~268M rows.
    let mut bytes = b"RLI1".to_vec();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0x7F]);
    assert!(matches!(
        decode_image(&bytes),
        Err(DecodeError::ImplausibleCount { .. })
    ));

    // Streaming: a row claiming more runs than the image is wide.
    let mut bytes = b"RLI1".to_vec();
    bytes.extend_from_slice(&16u32.to_le_bytes());
    bytes.push(1); // height 1
    bytes.extend_from_slice(&[0xFF, 0x7F]); // count = 16383 runs in 16 px
    let mut reader = ImageReader::new(&bytes[..]).unwrap();
    assert!(matches!(
        reader.next_row().unwrap(),
        Err(DecodeError::ImplausibleCount { .. })
    ));
}

#[test]
fn dense_size_reporting_still_works() {
    // Smoke-check the module's unrelated entry point still behaves after
    // the hardening refactor.
    assert_eq!(serialize::dense_size_bytes(16, 4), 8);
}
