//! Segment metadata: the manifest-side description of one encoded row
//! band of one fixed-width column.

use crate::codec::Encoding;
use crate::zonemap::ZoneMap;
use crate::{ColError, ColResult};
use certchain_obs::json::JsonValue;

/// Default rows per segment for freshly written stores. Small enough
/// that zone maps discriminate on campus-scale traces, large enough that
/// per-segment decode overhead stays negligible.
pub const DEFAULT_SEGMENT_ROWS: u64 = 4096;

/// One segment's manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Logical rows in the segment (always ≥ 1 on disk).
    pub rows: u64,
    /// Encoded payload bytes in the column file.
    pub bytes: u64,
    /// Payload encoding.
    pub encoding: Encoding,
    /// Encoding parameter (packed/delta byte width; native width
    /// otherwise).
    pub param: u8,
    /// Min/max (and optional presence bitmap) over the segment's values.
    pub zone: ZoneMap,
}

impl SegmentMeta {
    /// Serialise to the manifest JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("rows".to_string(), JsonValue::Num(self.rows as f64)),
            ("bytes".to_string(), JsonValue::Num(self.bytes as f64)),
            (
                "enc".to_string(),
                JsonValue::Str(self.encoding.name().to_string()),
            ),
            ("param".to_string(), JsonValue::Num(f64::from(self.param))),
            ("min".to_string(), JsonValue::Num(self.zone.min as f64)),
            ("max".to_string(), JsonValue::Num(self.zone.max as f64)),
        ];
        if let Some(hex) = self.zone.bitmap_hex() {
            fields.push(("bitmap".to_string(), JsonValue::Str(hex)));
        }
        JsonValue::Obj(fields)
    }

    /// Parse one manifest segment object (`col` names the column in
    /// error messages).
    pub fn from_json(col: &str, doc: &JsonValue) -> ColResult<SegmentMeta> {
        let num = |name: &str| {
            doc.get(name).and_then(JsonValue::as_u64).ok_or_else(|| {
                ColError::Format(format!("column {col:?}: segment missing numeric {name:?}"))
            })
        };
        let enc = doc
            .get("enc")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ColError::Format(format!("column {col:?}: segment missing \"enc\"")))?;
        let encoding =
            Encoding::parse(enc).map_err(|e| ColError::Format(format!("column {col:?}: {e}")))?;
        let param = u8::try_from(num("param")?)
            .map_err(|_| ColError::Format(format!("column {col:?}: segment param out of range")))?;
        let bitmap = match doc.get("bitmap") {
            None => None,
            Some(v) => {
                let hex = v.as_str().ok_or_else(|| {
                    ColError::Format(format!("column {col:?}: segment bitmap is not a string"))
                })?;
                Some(
                    ZoneMap::bitmap_from_hex(hex)
                        .map_err(|e| ColError::Format(format!("column {col:?}: {e}")))?,
                )
            }
        };
        let zone = ZoneMap {
            min: num("min")?,
            max: num("max")?,
            bitmap,
        };
        if zone.min > zone.max {
            return Err(ColError::Format(format!(
                "column {col:?}: segment min {} exceeds max {}",
                zone.min, zone.max
            )));
        }
        Ok(SegmentMeta {
            rows: num("rows")?,
            bytes: num("bytes")?,
            encoding,
            param,
            zone,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_meta_round_trips_through_json() {
        let meta = SegmentMeta {
            rows: 4096,
            bytes: 812,
            encoding: Encoding::Delta,
            param: 2,
            zone: ZoneMap::with_presence(&[3, 19, 200]),
        };
        let back = SegmentMeta::from_json("ssl.sni", &meta.to_json()).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn bad_encoding_and_inverted_bounds_are_rejected() {
        let meta = SegmentMeta {
            rows: 1,
            bytes: 8,
            encoding: Encoding::Plain,
            param: 8,
            zone: ZoneMap::of(&[7]),
        };
        let mut doc = meta.to_json();
        if let JsonValue::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "enc" {
                    *v = JsonValue::Str("bogus".into());
                }
            }
        }
        let msg = SegmentMeta::from_json("ssl.ts", &doc)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("bogus"), "{msg}");

        let mut doc = meta.to_json();
        if let JsonValue::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "min" {
                    *v = JsonValue::Num(9.0);
                }
            }
        }
        assert!(SegmentMeta::from_json("ssl.ts", &doc).is_err());
    }
}
