//! Property tests for the durable segment-log store: the reader is
//! *total* (no panic, no over-allocation) on any bytes, acknowledged
//! records survive any crash point bit-identical, and the v1 wire format
//! is pinned byte-for-byte so it can never drift silently.

use iotax_obs::store::{
    crc32, encode_record, scan_segment, DamageKind, ScanOptions, StoreFaultKind, StoreFaultPlan,
    HEADER_LEN,
};
use proptest::prelude::*;

/// The v1 record layout, pinned as exact bytes (little-endian):
/// magic "DLOG" (`0x444C4F47`), version 1, flags 0, reserved 0,
/// offset 3, payload_len 8, CRC-32("taxonomy") = 0xFD12B83D, payload.
/// If this test fails, the on-disk format changed: that requires a new
/// version byte, not an edit to this pin.
#[test]
fn golden_v1_record_bytes() {
    let expected = "474f4c44010000000300000000000000080000003db812fd7461786f6e6f6d79";
    let bytes = encode_record(3, b"taxonomy");
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, expected);
    assert_eq!(crc32(b"taxonomy"), 0xFD12_B83D);
    assert_eq!(bytes.len(), HEADER_LEN + 8);
}

/// A forged header claiming a multi-GiB payload must surface as
/// [`DamageKind::OversizedLength`] without the reader ever allocating
/// anything near the claimed size.
#[test]
fn forged_huge_length_header_is_rejected_not_allocated() {
    let mut bytes = encode_record(0, b"legitimate");
    let mut forged = encode_record(1, b"x");
    forged[16..20].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
    bytes.extend_from_slice(&forged);
    let scan = scan_segment("seg", &bytes, 0, &ScanOptions::default());
    assert_eq!(scan.records.len(), 1);
    assert!(scan.damage.iter().any(|d| d.kind == DamageKind::OversizedLength), "{:?}", scan.damage);
    let recovered: usize = scan.records.iter().map(|r| r.payload.len()).sum();
    assert!(recovered <= bytes.len());
}

/// The bytewise, bit-at-a-time CRC-32 (IEEE) that the slicing-by-8
/// kernel must reproduce exactly.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// Builds a clean segment image of `payloads` starting at offset 0.
fn clean_segment(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (i, p) in payloads.iter().enumerate() {
        bytes.extend_from_slice(&encode_record(i as u64, p));
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slicing-by-8 CRC equals the bytewise reference on any bytes,
    /// whatever the length mod 8 and wherever the slice starts.
    #[test]
    fn crc32_matches_the_bytewise_reference(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        skip in 0usize..8,
    ) {
        let data = bytes.get(skip..).unwrap_or(&[]);
        prop_assert_eq!(crc32(data), crc32_bytewise(data));
    }

    /// Totality: arbitrary byte soup never panics the scanner, and the
    /// sum of recovered payload bytes can never exceed the input (the
    /// allocation-cap property: a scan of N bytes allocates O(N)).
    #[test]
    fn scanner_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let scan = scan_segment("seg", &bytes, 0, &ScanOptions::default());
        let recovered: usize = scan.records.iter().map(|r| r.payload.len()).sum();
        prop_assert!(recovered <= bytes.len());
        prop_assert!(scan.records.len() <= bytes.len() / HEADER_LEN + 1);
    }

    /// Adversarial totality: a valid magic + version prefix commits the
    /// scanner to reading attacker-controlled header fields.
    #[test]
    fn scanner_is_total_on_magic_prefixed_bytes(tail in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut bytes = 0x444C_4F47u32.to_le_bytes().to_vec();
        bytes.push(1); // version
        bytes.extend_from_slice(&tail);
        let scan = scan_segment("seg", &bytes, 0, &ScanOptions::default());
        let recovered: usize = scan.records.iter().map(|r| r.payload.len()).sum();
        prop_assert!(recovered <= bytes.len());
    }

    /// Round trip: a clean segment scans to exactly its records, with no
    /// damage and the correct continuation offset.
    #[test]
    fn clean_segments_round_trip(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..20)
    ) {
        let bytes = clean_segment(&payloads);
        let scan = scan_segment("seg", &bytes, 0, &ScanOptions::default());
        prop_assert!(scan.damage.is_empty(), "{:?}", scan.damage);
        prop_assert_eq!(scan.records.len(), payloads.len());
        for (i, p) in payloads.iter().enumerate() {
            prop_assert_eq!(scan.records[i].offset, i as u64);
            prop_assert_eq!(&scan.records[i].payload, p);
        }
        prop_assert_eq!(scan.next_offset, payloads.len() as u64);
    }

    /// Write-ahead durability: for ANY crash point K, every record whose
    /// bytes lie entirely below K (i.e. whose append was acknowledged
    /// before the crash) is recovered bit-identical.
    #[test]
    fn crash_point_preserves_every_acknowledged_record(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..16),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = clean_segment(&payloads);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let scan = scan_segment("seg", &bytes[..cut], 0, &ScanOptions::default());
        let mut end = 0usize;
        for (i, p) in payloads.iter().enumerate() {
            end += HEADER_LEN + p.len();
            if end > cut {
                break; // this record and everything after was in flight
            }
            let got = scan.records.iter().find(|r| r.offset == i as u64);
            match got {
                Some(r) => prop_assert!(&r.payload == p, "record {} altered at cut {}", i, cut),
                None => prop_assert!(false, "acked record {} lost at cut {}", i, cut),
            }
        }
    }

    /// The seeded fault plan upholds its ground truth for every kind and
    /// any seed: damage is detected, and only the records the fault
    /// names as lost may be missing from the rescan.
    #[test]
    fn fault_plan_ground_truth_holds_for_any_seed(
        seed in any::<u64>(),
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..100), 2..12),
    ) {
        let bytes = clean_segment(&payloads);
        let plan = StoreFaultPlan::new(seed);
        for kind in StoreFaultKind::ALL {
            let Some((dirty, fault)) = plan.apply(kind, &bytes) else {
                prop_assert!(false, "{:?}: plan refused a clean segment", kind);
                continue;
            };
            prop_assert!(dirty != bytes, "{:?}: no damage applied", kind);
            let scan = scan_segment("seg", &dirty, 0, &ScanOptions::default());
            prop_assert!(!scan.damage.is_empty(), "{:?}: corruption undetected", kind);
            for (i, p) in payloads.iter().enumerate() {
                if fault.lost.contains(&(i as u64)) {
                    continue;
                }
                let intact = scan.records.iter().any(|r| r.offset == i as u64 && &r.payload == p);
                prop_assert!(intact, "{:?} seed {}: acked record {} lost outside ground truth",
                    kind, seed, i);
            }
        }
    }
}
