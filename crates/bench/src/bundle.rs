//! `LVCB` bundle codec: a single-file, checksummed container for
//! result-store records.
//!
//! A bundle is the store's one on-disk format. Every segment a store
//! publishes (`<root>/segments/*.lvcb`, see `store.rs`) is a bundle, and
//! so is the file a warm cache travels between machines in:
//! `lowvcc-store export` merges a store's segments into one bundle,
//! `import` (or `lowvcc-serve --warm-bundle`) publishes it into another
//! store as a segment — after which a full paper-artefact run reports
//! zero simulations. The codec here is pure and deterministic; all
//! filesystem work lives in the store and admin layers.
//!
//! Layout (all integers little-endian, mirroring `canon.rs`):
//!
//! ```text
//! "LVCB"                      4-byte magic
//! u32   bundle format version (1)
//! u32   engine semantics version
//! u64   record count
//! count × {
//!     u128  SimKey value
//!     u64   record length
//!     ...   LVCR record bytes (opaque here; validated at import)
//! }
//! u128  FNV-1a-128 digest over every preceding byte
//! ```
//!
//! The decoder fails closed exactly like the LVCR decoder: the digest
//! is verified **before any field is trusted**, version mismatches are
//! typed errors (a bundle produced under different engine semantics
//! must never seed a cache — its keys would alias fresh simulations
//! with stale physics), and trailing bytes are rejected. Individual
//! records are deliberately opaque at this layer: the store decodes a
//! segment's records when it reads them, and the importer decodes each
//! one and quarantines failures without abandoning the rest.

use lowvcc_core::canon::{fnv1a_128, CanonError, ENGINE_SEMANTICS_VERSION};

/// Magic prefix of a bundle file.
pub const BUNDLE_MAGIC: &[u8; 4] = b"LVCB";

/// Bundle container format version. Bump on any layout change.
pub const BUNDLE_FORMAT_VERSION: u32 = 1;

/// Digest width (FNV-1a-128) at the bundle tail.
const DIGEST_LEN: usize = 16;

/// Fixed header bytes before the first record: magic + format version
/// + engine version + record count.
const HEADER_LEN: usize = 4 + 4 + 4 + 8;

/// Bytes a bundle spends outside its records: header plus digest.
pub(crate) const ENVELOPE_LEN: usize = HEADER_LEN + DIGEST_LEN;

/// Bytes a bundle spends on each record besides its LVCR bytes: the
/// key and the length field.
pub(crate) const RECORD_OVERHEAD: usize = 16 + 8;

/// One store record: the key's raw value and its encoded LVCR bytes,
/// exactly as they sit in a store segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleRecord {
    /// Raw [`lowvcc_core::SimKey`] value.
    pub key: u128,
    /// Encoded LVCR record (`encode_sim_result` output).
    pub bytes: Vec<u8>,
}

/// Encodes `records` into a complete bundle file image. Deterministic:
/// the same records in the same order produce identical bytes (the
/// exporter sorts by key so two exports of one store compare equal).
#[must_use]
pub fn encode_bundle(records: &[BundleRecord]) -> Vec<u8> {
    let payload: usize = records
        .iter()
        .map(|r| RECORD_OVERHEAD + r.bytes.len())
        .sum();
    let mut out = Vec::with_capacity(ENVELOPE_LEN + payload);
    out.extend_from_slice(BUNDLE_MAGIC);
    out.extend_from_slice(&BUNDLE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&ENGINE_SEMANTICS_VERSION.to_le_bytes());
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for r in records {
        out.extend_from_slice(&r.key.to_le_bytes());
        out.extend_from_slice(&(r.bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&r.bytes);
    }
    let digest = fnv1a_128(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Strict little-endian reader over the digest-verified body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CanonError> {
        let have = self.buf.len() - self.pos;
        if n > have {
            return Err(CanonError::Truncated { needed: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CanonError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CanonError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn u128(&mut self) -> Result<u128, CanonError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("16 bytes"),
        ))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Decodes a bundle file image, failing closed on any damage.
///
/// # Errors
///
/// [`CanonError::Truncated`] if the file ends early,
/// [`CanonError::ChecksumMismatch`] if the tail digest does not cover
/// the body (verified before anything else is read),
/// [`CanonError::BadMagic`] / [`CanonError::UnsupportedFormat`] /
/// [`CanonError::EngineVersionMismatch`] on header mismatches, and
/// [`CanonError::TrailingBytes`] if bytes follow the last record.
pub fn decode_bundle(bytes: &[u8]) -> Result<Vec<BundleRecord>, CanonError> {
    if bytes.len() < HEADER_LEN + DIGEST_LEN {
        return Err(CanonError::Truncated {
            needed: HEADER_LEN + DIGEST_LEN,
            have: bytes.len(),
        });
    }
    let (body, tail) = bytes.split_at(bytes.len() - DIGEST_LEN);
    let expect = u128::from_le_bytes(tail.try_into().expect("16 bytes"));
    if fnv1a_128(body) != expect {
        return Err(CanonError::ChecksumMismatch);
    }
    let mut r = Reader { buf: body, pos: 0 };
    if r.take(4)? != BUNDLE_MAGIC {
        return Err(CanonError::BadMagic);
    }
    let format = r.u32()?;
    if format != BUNDLE_FORMAT_VERSION {
        return Err(CanonError::UnsupportedFormat { found: format });
    }
    let engine = r.u32()?;
    if engine != ENGINE_SEMANTICS_VERSION {
        return Err(CanonError::EngineVersionMismatch {
            found: engine,
            expected: ENGINE_SEMANTICS_VERSION,
        });
    }
    let count = r.u64()?;
    // The digest already vouches for `count`, but cap the preallocation
    // anyway: trust bounds, not arithmetic.
    let mut records = Vec::with_capacity(usize::try_from(count.min(4096)).unwrap_or(0));
    for _ in 0..count {
        let key = r.u128()?;
        let len = usize::try_from(r.u64()?).map_err(|_| CanonError::Truncated {
            needed: usize::MAX,
            have: r.remaining(),
        })?;
        records.push(BundleRecord {
            key,
            bytes: r.take(len)?.to_vec(),
        });
    }
    if r.remaining() != 0 {
        return Err(CanonError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<BundleRecord> {
        vec![
            BundleRecord {
                key: 0x0123_4567_89ab_cdef_0011_2233_4455_6677,
                bytes: b"first record".to_vec(),
            },
            BundleRecord {
                key: u128::MAX,
                bytes: Vec::new(),
            },
            BundleRecord {
                key: 7,
                bytes: vec![0xAA; 300],
            },
        ]
    }

    #[test]
    fn round_trips_and_is_deterministic() {
        let records = sample();
        let a = encode_bundle(&records);
        let b = encode_bundle(&records);
        assert_eq!(a, b, "same records, same bytes");
        assert_eq!(decode_bundle(&a).unwrap(), records);
        assert_eq!(decode_bundle(&encode_bundle(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn every_flipped_bit_in_the_header_or_body_is_caught() {
        let good = encode_bundle(&sample());
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode_bundle(&bad).is_err(),
                "flip at byte {pos} must not decode"
            );
        }
    }

    #[test]
    fn header_mismatches_are_typed() {
        // Version fields sit after the magic; rebuild bundles with the
        // digest recomputed so only the tested field is wrong.
        let rebuild = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let full = encode_bundle(&sample());
            let mut body = full[..full.len() - 16].to_vec();
            mutate(&mut body);
            let digest = fnv1a_128(&body);
            body.extend_from_slice(&digest.to_le_bytes());
            body
        };
        let bad_magic = rebuild(&|b| b[0] = b'X');
        assert_eq!(decode_bundle(&bad_magic), Err(CanonError::BadMagic));
        let bad_format = rebuild(&|b| b[4..8].copy_from_slice(&99u32.to_le_bytes()));
        assert_eq!(
            decode_bundle(&bad_format),
            Err(CanonError::UnsupportedFormat { found: 99 })
        );
        let bad_engine = rebuild(&|b| b[8..12].copy_from_slice(&77u32.to_le_bytes()));
        assert_eq!(
            decode_bundle(&bad_engine),
            Err(CanonError::EngineVersionMismatch {
                found: 77,
                expected: ENGINE_SEMANTICS_VERSION,
            })
        );
        let trailing = rebuild(&|b| b.push(0));
        assert_eq!(
            decode_bundle(&trailing),
            Err(CanonError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn truncation_fails_closed_at_every_length() {
        let good = encode_bundle(&sample());
        for keep in 0..good.len() {
            assert!(
                decode_bundle(&good[..keep]).is_err(),
                "prefix of {keep} bytes must not decode"
            );
        }
    }
}
