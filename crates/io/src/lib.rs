//! Binary checkpoint codec for the MBSP engine.
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
//! - [`SavedOrder`] — the persistent state of a [`mbsp_dag::PkOrder`].
//! - [`ServiceRegistry`] — the instance registry of the `mbsp_serve` daemon
//!   (instance name → session-checkpoint file + generation counter), so a
//!   restarted daemon knows which engine sessions to restore.
//! - [`Encode`]/[`Decode`] impls for the primitives and id types any composite
//!   artifact needs. Full `IncrementalScheduler` session checkpoints compose
//!   these in `mbsp_ilp::session` (this crate cannot depend on the scheduler).
//!
//! # Robustness contract
//!
//! Decoding is *total*: any byte sequence either round-trips to a valid value
//! or is rejected with a typed [`DecodeError`] naming the offset and cause —
//! truncation, checksum mismatch, version skew, unknown section, or a value
//! the domain constructors refuse (cyclic edge list, duplicate order value,
//! out-of-range processor). No decode path panics or allocates unboundedly on
//! untrusted input.

mod artifacts;
mod codec;
mod frame;

pub use artifacts::{
    check_assignment, decode_dag, encode_dag, valid_instance_name, write_dag_sections, DagSections,
    RegistryEntry, SavedOrder, ServiceRegistry, KIND_DAG, KIND_REGISTRY, KIND_SESSION, SEC_ARCH,
    SEC_CONFIG, SEC_EDGES, SEC_INSTANCES, SEC_LABELS, SEC_META, SEC_ORDER, SEC_PENDING, SEC_PROCS,
    SEC_WEIGHTS,
};
pub use codec::{Decode, Encode};
pub use frame::{crc32, DecodeError, Reader, Writer, MAGIC, VERSION};

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::{CompDag, NodeWeights, PkOrder};

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

    #[test]
    fn saved_order_round_trips_and_rejects_corruption() {
        let dag = sample_dag();
        let order = PkOrder::of_dag(&dag);
        let saved = SavedOrder::of(&order);
        let mut w = Writer::new(KIND_DAG);
        w.section(SEC_ORDER, |w| saved.encode(w));
        let blob = w.finish();
        let mut r = Reader::open(&blob, KIND_DAG).expect("open");
        let (tag, mut body) = r.next_section().expect("section").expect("present");
        assert_eq!(tag, SEC_ORDER);
        let back = SavedOrder::decode(&mut body).expect("decode");
        assert_eq!(back, saved);
        let restored = back.restore().expect("restore");
        assert_eq!(restored.values(), order.values());
        assert_eq!(restored.next_value(), order.next_value());

        let dup = SavedOrder {
            values: vec![0, 1, 1],
            next_value: 3,
        };
        assert!(matches!(
            dup.restore(),
            Err(DecodeError::InvalidValue { .. })
        ));
        let high = SavedOrder {
            values: vec![0, 7],
            next_value: 3,
        };
        assert!(matches!(
            high.restore(),
            Err(DecodeError::InvalidValue { .. })
        ));
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
