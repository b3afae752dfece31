//! The binary frame of the MBSP engine's checkpoints.
//!
//! The vendored serde stub serialises element-wise through JSON, which is far
//! too slow to checkpoint a 100k-node session; this crate is the fast path it
//! cannot provide: a **length-prefixed, versioned, CRC-checked binary format**
//! for the engine's persistent state.
//!
//! # Format
//!
//! A blob is `magic "MBIO" · version: u16 · kind: u32` followed by a flat
//! stream of sections, each `tag: u32 · len: u64 · crc32: u32 · payload`.
//! All integers are little-endian; `f64`s travel as the bytes of their
//! IEEE-754 bit pattern, so round-trips are bit-exact. Section payloads are
//! independent — a reader verifies each CRC before interpreting a byte of the
//! payload.
//!
//! # What is covered
//!
//! - [`encode_dag`]/[`decode_dag`] — a [`mbsp_dag::CompDag`] (name, weights,
//!   labels, edge list; the CSR arrays are rebuilt and re-validated on
//!   decode).
//! - The kinds and section tags of every artifact, session checkpoints
//!   ([`KIND_SESSION`]) and the `mbsp_serve` daemon's instance files
//!   ([`KIND_INSTANCE`]) included: one namespace, so no two sections share a
//!   tag. The session format itself — configuration, architecture,
//!   assignment and pending set around an embedded DAG
//!   ([`write_dag_sections`], [`DagSections`]) — is written and read in
//!   `mbsp_ilp::session`, with [`Writer`]'s `put_*` and [`Reader`]'s `get_*`
//!   methods like every field here. An instance file is one
//!   [`SEC_GENERATION`] section followed by those same sections, so one
//!   rename replaces an instance's whole durable state.
//!
//! # Robustness contract
//!
//! Decoding is *total*: any byte sequence either round-trips to a valid value
//! or is rejected with a typed [`DecodeError`] naming the offset and cause —
//! truncation, checksum mismatch, version skew, unknown section, or a value
//! the domain constructors refuse (a cyclic edge list). No decode path panics or allocates unboundedly on untrusted
//! input: a count is checked against the bytes left before anything is
//! allocated for it ([`Reader::get_vec`]).

mod artifacts;
mod frame;

pub use artifacts::{
    decode_dag, encode_dag, set_once, valid_instance_name, write_dag_sections, DagSections,
    KIND_DAG, KIND_INSTANCE, KIND_SESSION, SEC_ARCH, SEC_CONFIG, SEC_EDGES, SEC_GENERATION,
    SEC_LABELS, SEC_META, SEC_PENDING, SEC_PROCS, SEC_WEIGHTS,
};
pub use frame::{crc32, DecodeError, Reader, Writer, MAGIC, VERSION};

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::{CompDag, NodeWeights};

    fn sample_dag() -> CompDag {
        let weights = (0..6)
            .map(|i| NodeWeights::new(1.0 + i as f64, 2.0 + i as f64))
            .collect();
        CompDag::from_edges("sample", weights, &[(0, 2), (1, 2), (2, 3), (2, 4), (3, 5)])
            .expect("sample dag is valid")
    }

    #[test]
    fn dag_round_trips_bit_exact() {
        let dag = sample_dag();
        let blob = encode_dag(&dag);
        let back = decode_dag(&blob).expect("decode");
        assert_eq!(back.name(), dag.name());
        assert_eq!(back.num_nodes(), dag.num_nodes());
        assert_eq!(back.num_edges(), dag.num_edges());
        for v in dag.nodes() {
            assert_eq!(back.weights(v), dag.weights(v));
            assert_eq!(back.label(v), dag.label(v));
            assert_eq!(back.children(v), dag.children(v));
        }
        // Encoding the decoded DAG reproduces the same bytes.
        assert_eq!(encode_dag(&back), blob);
    }

    #[test]
    fn header_corruption_is_typed() {
        let blob = encode_dag(&sample_dag());
        let mut bad = blob.clone();
        bad[0] ^= 0x01;
        assert!(matches!(
            decode_dag(&bad),
            Err(DecodeError::BadMagic { .. })
        ));
        let mut skew = blob.clone();
        skew[4] = 0xFF; // version low byte
        assert!(matches!(
            decode_dag(&skew),
            Err(DecodeError::UnsupportedVersion { .. })
        ));
        let session = Writer::new(KIND_SESSION).finish();
        assert!(matches!(
            decode_dag(&session),
            Err(DecodeError::WrongArtifact { .. })
        ));
    }

    #[test]
    fn every_payload_bit_flip_is_rejected() {
        let blob = encode_dag(&sample_dag());
        // Flip one bit in each byte past the header; every flip must surface
        // as a typed error, never a panic or a silently different DAG.
        for pos in 10..blob.len() {
            let mut bad = blob.clone();
            bad[pos] ^= 0x10;
            match decode_dag(&bad) {
                Err(_) => {}
                Ok(back) => assert_eq!(
                    encode_dag(&back),
                    blob,
                    "an accepted flip at byte {pos} must decode to the same DAG"
                ),
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_rejected() {
        let blob = encode_dag(&sample_dag());
        for cut in 0..blob.len() {
            let err = decode_dag(&blob[..cut]).expect_err("truncated blob must fail");
            match err {
                DecodeError::Truncated { .. }
                | DecodeError::BadMagic { .. }
                | DecodeError::MissingSection { .. }
                | DecodeError::ChecksumMismatch { .. } => {}
                other => panic!("unexpected error for cut at {cut}: {other}"),
            }
        }
    }

    /// A counted sequence whose count is one past what its payload holds is
    /// refused at the count, before any element is read or allocated.
    #[test]
    fn a_count_past_its_payload_is_truncated_at_the_count() {
        const TAG: u32 = u32::from_le_bytes(*b"TEST");
        let mut w = Writer::new(KIND_DAG);
        w.section(TAG, |w| {
            w.put_u64(3);
            for v in [10u64, 20, 30] {
                w.put_u64(v);
            }
        });
        let blob = w.finish();
        // magic(4) + version(2) + kind(4), then tag(4) + len(8) + crc(4).
        let count_at = 26;
        let available = blob.len() - count_at - 8;
        let count = available / 8 + 1;
        let mut bad = blob.clone();
        bad[count_at..count_at + 8].copy_from_slice(&(count as u64).to_le_bytes());
        let crc = crc32(&bad[count_at..]);
        bad[22..26].copy_from_slice(&crc.to_le_bytes());

        let read = |bytes: &[u8], calls: &mut usize| {
            let mut r = Reader::open(bytes, KIND_DAG)?;
            let (tag, mut body) = r.next_section()?.expect("one section");
            assert_eq!(tag, TAG);
            body.get_vec(8, |r| {
                *calls += 1;
                r.get_u64()
            })
        };
        let mut calls = 0;
        assert_eq!(read(&blob, &mut calls), Ok(vec![10, 20, 30]));
        calls = 0;
        assert_eq!(
            read(&bad, &mut calls),
            Err(DecodeError::Truncated {
                offset: count_at,
                needed: count * 8,
                available,
            })
        );
        assert_eq!(calls, 0, "no element is read past a refused count");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values of the IEEE 802.3 CRC-32 (zlib `crc32`).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }
}
