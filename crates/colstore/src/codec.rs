//! Per-segment integer codecs for the columnar store.
//!
//! Every fixed-width column value is widened to `u64` before encoding, so
//! one codec set covers u8/u16/u32/u64 columns alike. Five encodings:
//!
//! * **Plain** — values at the column's native width, little-endian. The
//!   fallback; always representable.
//! * **Packed** — values at the minimal byte width that fits the segment
//!   maximum (`param` = that width). Pays off on u64 columns whose values
//!   are small (path lengths, cert versions).
//! * **Delta** — an 8-byte LE base followed by `rows - 1` successive
//!   differences packed at `param` bytes each. Only offered for
//!   non-decreasing segments (timestamps, end-offset columns).
//! * **Rle** — `(value: width bytes LE, run: u32 LE)` pairs. Wins on
//!   low-cardinality columns (ports, flags, established).
//! * **For** — frame-of-reference: an 8-byte LE base (the segment
//!   minimum) followed by `rows` offsets `v - base` packed at `param`
//!   bytes each. Wins on wide columns whose values cluster in a narrow
//!   range far from zero — `orig_h`, where a campus trace's client IPs
//!   share a prefix, so Packed (anchored at zero) cannot shrink them.
//!
//! Selection is deterministic: the smallest encoded size wins, ties
//! resolved by the fixed candidate order Plain, Packed, Delta, Rle, For —
//! so identical input always produces identical bytes, which the
//! workspace's byte-identity tests rely on. `For` was appended after the
//! original four, so segments those codecs already won stay byte-stable
//! across a re-encode.

use crate::{ColError, ColResult};

/// Segment encoding identifier, as recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Raw values at native column width.
    Plain,
    /// Values at a smaller fixed byte width (`param`).
    Packed,
    /// Base + packed non-negative deltas (`param` = delta width).
    Delta,
    /// (value, u32 run-length) pairs.
    Rle,
    /// Frame-of-reference: 8-byte base + packed `v - base` offsets.
    For,
}

impl Encoding {
    /// Manifest string form.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Plain => "plain",
            Encoding::Packed => "packed",
            Encoding::Delta => "delta",
            Encoding::Rle => "rle",
            Encoding::For => "for",
        }
    }

    /// Parse the manifest string form.
    pub fn parse(s: &str) -> ColResult<Encoding> {
        match s {
            "plain" => Ok(Encoding::Plain),
            "packed" => Ok(Encoding::Packed),
            "delta" => Ok(Encoding::Delta),
            "rle" => Ok(Encoding::Rle),
            "for" => Ok(Encoding::For),
            other => Err(ColError::Format(format!(
                "unknown segment encoding {other:?} (expected plain/packed/delta/rle/for)"
            ))),
        }
    }
}

/// Largest value representable at `width` bytes.
fn width_max(width: u8) -> u64 {
    if width >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * u32::from(width))) - 1
    }
}

/// Minimal byte width in {1, 2, 4, 8} that fits `v`.
fn byte_width(v: u64) -> u8 {
    if v <= 0xFF {
        1
    } else if v <= 0xFFFF {
        2
    } else if v <= 0xFFFF_FFFF {
        4
    } else {
        8
    }
}

/// Append `v`'s low `width` bytes, little-endian.
fn put_at(out: &mut Vec<u8>, v: u64, width: u8) {
    out.extend_from_slice(&v.to_le_bytes()[..width as usize]);
}

/// Read one `width`-byte little-endian value at `at`.
fn get_at(bytes: &[u8], at: usize, width: u8) -> u64 {
    let mut buf = [0u8; 8];
    buf[..width as usize].copy_from_slice(&bytes[at..at + width as usize]);
    u64::from_le_bytes(buf)
}

/// Encode one segment of logical values for a column of native `width`,
/// returning the chosen encoding, its parameter, and the payload bytes.
///
/// Every value must fit in `width` bytes (the writer only ever hands in
/// values it produced at that width).
pub fn encode(values: &[u64], width: u8) -> (Encoding, u8, Vec<u8>) {
    debug_assert!(matches!(width, 1 | 2 | 4 | 8));
    debug_assert!(values.iter().all(|&v| v <= width_max(width)));
    let rows = values.len();
    let mut best = (Encoding::Plain, width, rows * width as usize);

    let max = values.iter().copied().max().unwrap_or(0);
    let packed_w = byte_width(max);
    if packed_w < width {
        let size = rows * packed_w as usize;
        if size < best.2 {
            best = (Encoding::Packed, packed_w, size);
        }
    }

    let sorted = values.windows(2).all(|w| w[0] <= w[1]);
    let mut delta_w = 0u8;
    if sorted && rows > 0 {
        let max_delta = values.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        delta_w = byte_width(max_delta);
        let size = 8 + (rows - 1) * delta_w as usize;
        if size < best.2 {
            best = (Encoding::Delta, delta_w, size);
        }
    }

    let mut runs = 0usize;
    let mut i = 0usize;
    while i < rows {
        let mut j = i + 1;
        while j < rows && values[j] == values[i] {
            j += 1;
        }
        runs += 1;
        i = j;
    }
    let rle_size = runs * (width as usize + 4);
    if rows > 0 && rle_size < best.2 {
        best = (Encoding::Rle, width, rle_size);
    }

    // Frame-of-reference: values rebased to the segment minimum, packed
    // at the width of the (max - min) range. Only narrower-than-native
    // offsets can win, and the strict `<` keeps every segment the four
    // original codecs already encode at the same size byte-stable.
    let min = values.iter().copied().min().unwrap_or(0);
    let for_w = byte_width(max - min);
    if rows > 0 && for_w < width {
        let size = 8 + rows * for_w as usize;
        if size < best.2 {
            best = (Encoding::For, for_w, size);
        }
    }

    let (enc, param, size) = best;
    let mut out = Vec::with_capacity(size);
    match enc {
        Encoding::Plain => {
            for &v in values {
                put_at(&mut out, v, width);
            }
        }
        Encoding::Packed => {
            for &v in values {
                put_at(&mut out, v, param);
            }
        }
        Encoding::Delta => {
            out.extend_from_slice(&values[0].to_le_bytes());
            for w in values.windows(2) {
                put_at(&mut out, w[1] - w[0], delta_w);
            }
        }
        Encoding::Rle => {
            let mut i = 0usize;
            while i < rows {
                let mut j = i + 1;
                while j < rows && values[j] == values[i] {
                    j += 1;
                }
                put_at(&mut out, values[i], width);
                out.extend_from_slice(&u32::try_from(j - i).unwrap_or(u32::MAX).to_le_bytes());
                i = j;
            }
        }
        Encoding::For => {
            out.extend_from_slice(&min.to_le_bytes());
            for &v in values {
                put_at(&mut out, v - min, param);
            }
        }
    }
    debug_assert_eq!(out.len(), size);
    (enc, param, out)
}

/// Sanity-check an (encoding, param) pair against the column width,
/// without touching payload bytes — used at manifest parse time.
pub fn validate_param(enc: Encoding, param: u8, width: u8) -> ColResult<()> {
    let ok = match enc {
        Encoding::Plain | Encoding::Rle => param == width,
        Encoding::Packed => matches!(param, 1 | 2 | 4 | 8) && param < width,
        Encoding::Delta => matches!(param, 1 | 2 | 4 | 8),
        Encoding::For => matches!(param, 1 | 2 | 4) && param < width,
    };
    if ok {
        Ok(())
    } else {
        Err(ColError::Format(format!(
            "segment encoding {} has invalid param {param} for a {width}-byte column",
            enc.name()
        )))
    }
}

fn corrupt(what: &str, detail: impl std::fmt::Display) -> ColError {
    ColError::Corrupt(format!("{what}: {detail}"))
}

/// Decode one segment's payload, appending exactly `rows` values to
/// `out`. Validates payload length, run sums, value ranges, and delta
/// overflow; any mismatch is a structured [`ColError::Corrupt`].
pub fn decode_into(
    enc: Encoding,
    param: u8,
    width: u8,
    rows: usize,
    bytes: &[u8],
    out: &mut Vec<u64>,
) -> ColResult<()> {
    validate_param(enc, param, width).map_err(|e| corrupt("segment decode", e))?;
    let max = width_max(width);
    out.reserve(rows);
    match enc {
        Encoding::Plain | Encoding::Packed => {
            let w = param as usize;
            if bytes.len() != rows * w {
                return Err(corrupt(
                    "segment decode",
                    format!("{} payload bytes for {rows} rows at width {w}", bytes.len()),
                ));
            }
            match w {
                1 => out.extend(bytes.iter().map(|&b| u64::from(b))),
                2 => out.extend(
                    bytes
                        .chunks_exact(2)
                        .map(|c| u64::from(u16::from_le_bytes(c.try_into().expect("2 bytes")))),
                ),
                4 => out.extend(
                    bytes
                        .chunks_exact(4)
                        .map(|c| u64::from(u32::from_le_bytes(c.try_into().expect("4 bytes")))),
                ),
                _ => out.extend(
                    bytes
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
                ),
            }
        }
        Encoding::Delta => {
            let expected = if rows == 0 {
                0
            } else {
                8 + (rows - 1) * param as usize
            };
            if bytes.len() != expected {
                return Err(corrupt(
                    "segment decode",
                    format!(
                        "{} delta payload bytes, expected {expected} for {rows} rows",
                        bytes.len()
                    ),
                ));
            }
            if rows == 0 {
                return Ok(());
            }
            let mut cur = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
            if cur > max {
                return Err(corrupt(
                    "segment decode",
                    format!("delta base {cur} exceeds {width}-byte column range"),
                ));
            }
            out.push(cur);
            let mut at = 8usize;
            for _ in 1..rows {
                let d = get_at(bytes, at, param);
                at += param as usize;
                cur = cur.checked_add(d).filter(|&v| v <= max).ok_or_else(|| {
                    corrupt(
                        "segment decode",
                        format!("delta overflow past {width}-byte column range"),
                    )
                })?;
                out.push(cur);
            }
        }
        Encoding::Rle => {
            let pair = width as usize + 4;
            if bytes.len() % pair != 0 {
                return Err(corrupt(
                    "segment decode",
                    format!(
                        "{} rle payload bytes is not a multiple of {pair}",
                        bytes.len()
                    ),
                ));
            }
            let mut total = 0usize;
            for chunk in bytes.chunks_exact(pair) {
                let v = get_at(chunk, 0, width);
                let run = u32::from_le_bytes(chunk[width as usize..].try_into().expect("4 bytes"))
                    as usize;
                if run == 0 {
                    return Err(corrupt("segment decode", "rle run of length 0"));
                }
                total += run;
                if total > rows {
                    return Err(corrupt(
                        "segment decode",
                        format!("rle runs exceed segment rows {rows}"),
                    ));
                }
                for _ in 0..run {
                    out.push(v);
                }
            }
            if total != rows {
                return Err(corrupt(
                    "segment decode",
                    format!("rle runs cover {total} rows, segment has {rows}"),
                ));
            }
        }
        Encoding::For => {
            let expected = if rows == 0 {
                0
            } else {
                8 + rows * param as usize
            };
            if bytes.len() != expected {
                return Err(corrupt(
                    "segment decode",
                    format!(
                        "{} for payload bytes, expected {expected} for {rows} rows",
                        bytes.len()
                    ),
                ));
            }
            if rows == 0 {
                return Ok(());
            }
            let base = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
            if base > max {
                return Err(corrupt(
                    "segment decode",
                    format!("for base {base} exceeds {width}-byte column range"),
                ));
            }
            let mut at = 8usize;
            for _ in 0..rows {
                let off = get_at(bytes, at, param);
                at += param as usize;
                let v = base.checked_add(off).filter(|&v| v <= max).ok_or_else(|| {
                    corrupt(
                        "segment decode",
                        format!("for offset overflows {width}-byte column range"),
                    )
                })?;
                out.push(v);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[u64], width: u8) -> (Encoding, usize) {
        let (enc, param, bytes) = encode(values, width);
        let mut out = Vec::new();
        decode_into(enc, param, width, values.len(), &bytes, &mut out).expect("decode");
        assert_eq!(out, values);
        (enc, bytes.len())
    }

    #[test]
    fn sorted_wide_values_pick_delta() {
        let values: Vec<u64> = (0..64).map(|i| 1_700_000_000 + i * 3).collect();
        let (enc, size) = round_trip(&values, 8);
        assert_eq!(enc, Encoding::Delta);
        assert!(size < values.len() * 8);
    }

    #[test]
    fn constant_values_pick_rle() {
        let values = vec![443u64; 100];
        let (enc, size) = round_trip(&values, 2);
        assert_eq!(enc, Encoding::Rle);
        assert_eq!(size, 6);
    }

    #[test]
    fn small_u64_values_pick_packed() {
        let values: Vec<u64> = (0..32).map(|i| u64::from(i % 7 == 0)).rev().collect();
        let (enc, _) = round_trip(&values, 8);
        assert!(matches!(enc, Encoding::Packed | Encoding::Rle));
    }

    #[test]
    fn empty_and_single_row_segments() {
        assert_eq!(round_trip(&[], 4).0, Encoding::Plain);
        round_trip(&[0], 1);
        round_trip(&[u32::MAX as u64], 4);
        round_trip(&[u64::MAX], 8);
    }

    #[test]
    fn rle_rejects_short_and_overlong_runs() {
        let (enc, param, bytes) = encode(&[7u64; 10], 2);
        assert_eq!(enc, Encoding::Rle);
        let mut out = Vec::new();
        // Claiming fewer rows than the runs cover must fail.
        assert!(decode_into(enc, param, 2, 9, &bytes, &mut out).is_err());
        out.clear();
        // Claiming more rows than the runs cover must fail.
        assert!(decode_into(enc, param, 2, 11, &bytes, &mut out).is_err());
    }

    #[test]
    fn delta_overflow_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&250u64.to_le_bytes());
        bytes.push(10); // 250 + 10 exceeds a 1-byte column.
        let mut out = Vec::new();
        let err = decode_into(Encoding::Delta, 1, 1, 2, &bytes, &mut out).unwrap_err();
        assert!(err.to_string().contains("delta"), "{err}");
    }

    #[test]
    fn wrong_payload_length_is_rejected() {
        let mut out = Vec::new();
        assert!(decode_into(Encoding::Plain, 4, 4, 3, &[0u8; 11], &mut out).is_err());
        assert!(decode_into(Encoding::Packed, 9, 8, 1, &[0u8; 9], &mut out).is_err());
    }

    #[test]
    fn clustered_wide_values_pick_for() {
        // Campus-style client IPs: a /24 worth of spread, far from zero.
        // Packed cannot shrink a 4-byte value anchored at zero; FoR packs
        // the offsets at one byte each.
        let base = u64::from(u32::from_be_bytes([10, 11, 12, 0]));
        let values: Vec<u64> = (0..128).map(|i| base + (i * 37) % 251).collect();
        let (enc, size) = round_trip(&values, 4);
        assert_eq!(enc, Encoding::For);
        assert_eq!(size, 8 + values.len());
    }

    #[test]
    fn zero_anchored_values_prefer_packed_over_for() {
        // Same spread but anchored at zero: Packed wins (no 8-byte base),
        // pinning the tie-break order.
        let values: Vec<u64> = (0..128).map(|i| (i * 37) % 251).collect();
        let (enc, _) = round_trip(&values, 4);
        assert_eq!(enc, Encoding::Packed);
    }

    #[test]
    fn for_corruption_is_rejected() {
        let base = 0xFFFF_FFF0u64;
        // Unsorted so Delta is not offered and FoR wins.
        let values: Vec<u64> = (0..16).map(|i| base + (i * 7) % 16).collect();
        let (enc, param, bytes) = encode(&values, 4);
        assert_eq!(enc, Encoding::For);
        let mut out = Vec::new();
        // Truncated payload.
        assert!(decode_into(enc, param, 4, 16, &bytes[..bytes.len() - 1], &mut out).is_err());
        out.clear();
        // Base + offset overflowing the column range.
        let mut bad = bytes.clone();
        bad[8 + 15] = 0xFF; // last offset: 0xFFFF_FF00 + 0xFF overflows u32
        assert!(decode_into(enc, param, 4, 16, &bad, &mut out).is_err());
        out.clear();
        // Base alone out of range for the column width.
        let mut bad = bytes;
        bad[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_into(enc, param, 4, 16, &bad, &mut out).is_err());
    }

    #[test]
    fn for_name_round_trips() {
        assert_eq!(Encoding::parse("for").unwrap(), Encoding::For);
        assert_eq!(Encoding::For.name(), "for");
        // param must be narrower than the column for FoR to be valid.
        assert!(validate_param(Encoding::For, 4, 4).is_err());
        assert!(validate_param(Encoding::For, 2, 4).is_ok());
    }
}
