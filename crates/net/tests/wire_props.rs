//! Wire-format properties: encode→decode is the identity for **every**
//! [`Msg`] variant — including K-column [`SmallBlock`]s straddling the
//! inline/spill boundary — and decode is *total*: truncated frames,
//! garbage headers and random byte soup produce typed errors, never
//! panics.

use dtm_core::local::LocalSolverKind;
use dtm_core::runtime::{DtmMsg, PortUpdate, SmallBlock, Termination, SMALL_BLOCK_INLINE};
use dtm_graph::evs::{split as evs_split, EvsOptions};
use dtm_graph::{partition, ElectricGraph, PartitionPlan};
use dtm_net::wire::{decode, encode, read_frame, write_frame, GroupPlan, GroupRates};
use dtm_net::wire::{Msg, PartPlan, Snapshot, Wave};
use dtm_sparse::generators;
use proptest::prelude::*;

/// Block widths covering the scalar path, both sides of the
/// inline/spill boundary, and a wide spill.
const BLOCK_WIDTHS: [usize; 4] = [1, 4, 5, 16];

/// Deterministic f64 stream (seeded xorshift, same idiom as the sparse
/// property tests).
fn f64_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

fn wave(k: usize, n_updates: usize, seed: u64) -> Wave {
    let mut next = f64_stream(seed);
    let updates = (0..n_updates)
        .map(|p| PortUpdate {
            port: p,
            u: SmallBlock::from_fn(k, |_| next()),
            omega: SmallBlock::from_fn(k, |_| next()),
        })
        .collect();
    Wave {
        round: seed % 97,
        src: seed % 13,
        dst: seed % 7,
        msg: DtmMsg { updates },
    }
}

/// A real [`GroupPlan`]: the 6×6 grid Laplacian torn into 4 parts, with
/// genuine subdomains (matrices, ports, source shares) — the same data a
/// production `Plan` frame carries.
fn real_plan() -> GroupPlan {
    let side = 6;
    let a = generators::grid2d_laplacian(side, side);
    let b = generators::random_rhs(side * side, 77);
    let g = ElectricGraph::from_system(a, b).expect("symmetric");
    let asg = partition::grid_blocks(side, side, 2, 2);
    let plan = PartitionPlan::from_assignment(&g, &asg).expect("valid");
    let ss = evs_split(&g, &plan, &EvsOptions::default()).expect("splits");
    let mut next = f64_stream(4242);
    let parts: Vec<PartPlan> = ss
        .subdomains
        .iter()
        .map(|sd| PartPlan {
            sub: sd.clone(),
            z_ports: sd.ports.iter().map(|_| next().abs() + 0.05).collect(),
        })
        .collect();
    GroupPlan {
        group: 1,
        n_groups: 2,
        n_parts: 4,
        group_of_part: vec![0, 0, 1, 1],
        max_rounds: 10_000,
        solver_kind: LocalSolverKind::Auto,
        termination: Termination::Residual { tol: 1e-8 },
        max_solves_per_node: 200_000,
        listen_spec: "/tmp/dtm-net-test/peer-1.sock".to_string(),
        parts,
    }
}

fn roundtrip(msg: &Msg) -> Msg {
    decode(&encode(msg)).expect("decode of a valid encoding")
}

#[test]
fn every_variant_roundtrips() {
    let msgs = vec![
        Msg::Hello { group: 3 },
        Msg::PeerHello { group: 0 },
        Msg::Plan(Box::new(real_plan())),
        Msg::Listening {
            addr: "/tmp/x.sock".into(),
        },
        Msg::PeerMap {
            addrs: vec![(0, "/a".into()), (1, "127.0.0.1:4411".into())],
        },
        Msg::Ready(GroupRates {
            solves_per_round: 2,
            messages_per_round: 6,
            flops_per_round: 12_345,
        }),
        Msg::Go,
        Msg::Wave(wave(5, 3, 9)),
        Msg::Snapshot(Snapshot {
            part: 2,
            round: 41,
            values: vec![0.5, -0.25, 3.75],
        }),
        Msg::Stop,
        Msg::Done,
        Msg::Err {
            text: "boundary ütf-8 ✓".into(),
        },
    ];
    for msg in &msgs {
        assert_eq!(&roundtrip(msg), msg, "roundtrip identity");
    }
}

#[test]
fn small_block_widths_roundtrip_losslessly() {
    for &k in &BLOCK_WIDTHS {
        let w = Msg::Wave(wave(k, 2, k as u64 + 1));
        let back = roundtrip(&w);
        let (Msg::Wave(a), Msg::Wave(b)) = (&w, &back) else {
            panic!("variant changed in roundtrip");
        };
        for (ua, ub) in a.msg.updates.iter().zip(&b.msg.updates) {
            assert_eq!(ua.u.len(), k);
            assert_eq!(ub.u.len(), k);
            // Lossless at the representation level, not just value
            // equality: the inline-vs-spill split is a function of the
            // length alone, so `as_slice` must expose identical bits.
            for (x, y) in ua.u.as_slice().iter().zip(ub.u.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in ua.omega.as_slice().iter().zip(ub.omega.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Sanity: the chosen widths actually straddle the boundary.
        assert!(BLOCK_WIDTHS.contains(&SMALL_BLOCK_INLINE));
        assert!(BLOCK_WIDTHS.contains(&(SMALL_BLOCK_INLINE + 1)));
    }
}

#[test]
fn special_float_bit_patterns_survive() {
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
    ];
    let snap = Msg::Snapshot(Snapshot {
        part: 0,
        round: 0,
        values: specials.to_vec(),
    });
    let Msg::Snapshot(back) = roundtrip(&snap) else {
        panic!("variant changed in roundtrip");
    };
    for (a, b) in specials.iter().zip(&back.values) {
        assert_eq!(a.to_bits(), b.to_bits(), "bit pattern of {a:?}");
    }
}

#[test]
fn framing_roundtrips_and_reports_clean_eof() {
    let mut buf: Vec<u8> = Vec::new();
    let msgs = [Msg::Hello { group: 7 }, Msg::Go, Msg::Stop];
    for m in &msgs {
        write_frame(&mut buf, m).expect("write");
    }
    let mut r = buf.as_slice();
    for m in &msgs {
        let got = read_frame(&mut r).expect("read").expect("frame present");
        assert_eq!(&got, m);
    }
    assert!(read_frame(&mut r).expect("clean eof").is_none());
}

#[test]
fn truncated_frames_error_never_panic() {
    let msgs = [
        Msg::Plan(Box::new(real_plan())),
        Msg::Wave(wave(16, 3, 5)),
        Msg::Snapshot(Snapshot {
            part: 1,
            round: 2,
            values: vec![1.0; 9],
        }),
        Msg::PeerMap {
            addrs: vec![(0, "addr".into())],
        },
    ];
    for m in &msgs {
        let payload = encode(m);
        // Every strict prefix of the payload must decode to an error.
        for cut in 0..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "prefix of length {cut} decoded successfully"
            );
        }
        // Mid-frame EOF at every cut of the framed byte stream.
        let mut framed: Vec<u8> = Vec::new();
        write_frame(&mut framed, m).expect("write");
        for cut in 1..framed.len() {
            let mut r = &framed[..cut];
            assert!(
                read_frame(&mut r).is_err(),
                "stream cut at {cut} read successfully"
            );
        }
    }
}

#[test]
fn garbage_headers_error_never_panic() {
    // Oversized length prefix: rejected before any allocation.
    let mut huge = (u32::MAX).to_le_bytes().to_vec();
    huge.extend_from_slice(&[0u8; 16]);
    assert!(read_frame(&mut huge.as_slice()).is_err());

    // Unknown tag.
    assert!(decode(&[200]).is_err());
    // Empty payload.
    assert!(decode(&[]).is_err());
    // Known tag, trailing bytes.
    let mut go = encode(&Msg::Go);
    go.push(0);
    assert!(decode(&go).is_err());
    // Count field far beyond the frame: rejected before allocation.
    let mut snap = Vec::new();
    snap.push(8u8); // TAG_SNAPSHOT
    snap.extend_from_slice(&0u64.to_le_bytes()); // part
    snap.extend_from_slice(&0u64.to_le_bytes()); // round
    snap.extend_from_slice(&u64::MAX.to_le_bytes()); // values count: absurd
    assert!(decode(&snap).is_err());
}

#[test]
fn solver_kind_tags_decode_and_retired_tag_is_rejected() {
    // The solver kind is the one byte where an `Auto` and a `Dense` plan
    // differ.
    let encode_kind = |kind| {
        encode(&Msg::Plan(Box::new(GroupPlan {
            solver_kind: kind,
            ..real_plan()
        })))
    };
    let auto = encode_kind(LocalSolverKind::Auto);
    let dense = encode_kind(LocalSolverKind::Dense);
    let diff: Vec<usize> = (0..auto.len()).filter(|&i| auto[i] != dense[i]).collect();
    assert_eq!(diff.len(), 1);
    let at = diff[0];
    assert_eq!((auto[at], dense[at]), (0, 1));
    for (tag, kind) in [
        (0u8, LocalSolverKind::Auto),
        (1, LocalSolverKind::Dense),
        (3, LocalSolverKind::SparseRcm),
    ] {
        let mut frame = auto.clone();
        frame[at] = tag;
        assert_eq!(frame, encode_kind(kind), "tag {tag}");
        let Ok(Msg::Plan(plan)) = decode(&frame) else {
            panic!("tag {tag} must decode to a plan");
        };
        assert_eq!(plan.solver_kind, kind);
    }
    // Tag 2 (the retired natural-order sparse kind) and unassigned tags
    // are typed errors.
    for tag in [2u8, 4, 255] {
        let mut frame = auto.clone();
        frame[at] = tag;
        let err = decode(&frame).expect_err("retired or unknown solver kind");
        assert!(
            err.to_string().contains("unknown solver kind"),
            "tag {tag}: {err}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Encode→decode identity on randomized waves across all block
    /// widths (scalar, inline boundary, first spill, wide spill).
    #[test]
    fn wave_roundtrip(
        k_idx in 0usize..BLOCK_WIDTHS.len(),
        n_updates in 0usize..5,
        seed in any::<u64>(),
    ) {
        let w = Msg::Wave(wave(BLOCK_WIDTHS[k_idx], n_updates, seed));
        prop_assert_eq!(roundtrip(&w), w);
    }

    /// Encode→decode identity on randomized snapshots.
    #[test]
    fn snapshot_roundtrip(
        part in 0u64..64,
        round in any::<u64>(),
        values in proptest::collection::vec(-1e9f64..1e9, 0..40),
    ) {
        let s = Msg::Snapshot(Snapshot { part, round, values });
        prop_assert_eq!(roundtrip(&s), s);
    }

    /// Encode→decode identity on randomized control frames.
    #[test]
    fn control_roundtrip(
        group in any::<u64>(),
        solves in any::<u64>(),
        messages in any::<u64>(),
        flops in any::<u64>(),
        text in proptest::collection::vec(0x20u64..0x7f, 0..60)
            .prop_map(|cs| cs.into_iter().map(|c| c as u8 as char).collect::<String>()),
    ) {
        for m in [
            Msg::Hello { group },
            Msg::PeerHello { group },
            Msg::Listening { addr: text.clone() },
            Msg::PeerMap { addrs: vec![(group, text.clone())] },
            Msg::Ready(GroupRates {
                solves_per_round: solves,
                messages_per_round: messages,
                flops_per_round: flops,
            }),
            Msg::Err { text: text.clone() },
        ] {
            prop_assert_eq!(roundtrip(&m), m);
        }
    }

    /// Decode is total on arbitrary byte soup: typed error or a valid
    /// message (e.g. a lone `Go` tag), never a panic. A successful decode
    /// must re-encode to the same byte string (NaN-safe canonicity check:
    /// bytes, not `PartialEq`, which NaN payloads would break).
    #[test]
    fn decode_never_panics_on_random_bytes(
        bytes in proptest::collection::vec(0u64..256, 0..300)
            .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()),
    ) {
        if let Ok(msg) = decode(&bytes) {
            prop_assert_eq!(encode(&msg), bytes);
        }
        let mut r = bytes.as_slice();
        // read_frame on the same soup: Ok(frame), Ok(None) or Err — no
        // panic, no unbounded allocation.
        let _ = read_frame(&mut r);
    }
}
