//! Single-thread replay of a request in round order, for unit costs.
//!
//! The replay drives cloned node templates exactly as the distributed
//! round executor does: at round `r > 0` each part absorbs its
//! neighbours' round-`r−1` waves in ascending source order, then steps.
//! Every `absorb_owned` and `step` is timed, and the [`Transport`] the
//! steps scatter through times each send. Every frame the socket backend
//! would ship — each cross-group wave and each part's per-round solution
//! snapshot to the supervisor — goes through the wire codec
//! (`wire::encode` / `wire::decode`) for byte counts and codec costs.
//! With scalar templates and the executor's round count the replay ends
//! in the executor's exact state, which [`ReplayStats::solution`] lets the
//! caller check bit for bit.

use crate::problem::{gather, Res};
use dtm_core::runtime::{DtmMsg, NodeRuntime, Transport};
use dtm_graph::evs::SplitSystem;
use dtm_net::wire::{self, Msg, Snapshot, Wave};
use std::collections::BTreeMap;
use std::time::Instant;

/// Timings and counts of one replay.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// Per step: `NodeRuntime::step` time minus its sends, in ns.
    pub step_ns: Vec<f64>,
    /// Per wave: time inside `Transport::send`, in ns.
    pub send_ns: Vec<f64>,
    /// Per wave: `absorb_owned` time, in ns.
    pub absorb_ns: Vec<f64>,
    /// Counted flops of all steps (the nodes' own counters).
    pub flops: u64,
    /// Encoded bytes of every shipped frame, with frame headers.
    pub wire_bytes: u64,
    /// Per shipped frame: `wire::encode` time, in ns.
    pub encode_ns: Vec<f64>,
    /// Per shipped frame: `wire::decode` time, in ns.
    pub decode_ns: Vec<f64>,
    /// Gathered global solution after the last round (first column).
    pub solution: Vec<f64>,
}

/// A transport that times each send and keeps the waves in order.
struct TimingTransport {
    out: Vec<(usize, DtmMsg)>,
    send_ns: Vec<f64>,
}

impl Transport for TimingTransport {
    fn send(&mut self, dst: usize, msg: DtmMsg) {
        let t = Instant::now();
        self.out.push((dst, msg));
        let ns = t.elapsed().as_nanos() as f64;
        self.send_ns.push(ns);
    }
}

/// Frame length prefix the socket transport adds to every encoded message.
const FRAME_HEADER_BYTES: u64 = 4;

/// Replay `rounds` rounds over clones of `templates`, treating waves
/// between parts of different groups (`group_of_part`) and every part's
/// snapshot as wire traffic.
///
/// # Errors
/// Fails when a wave the round order needs is missing or a wire frame
/// does not decode back to the wave that was encoded.
pub fn replay(
    split: &SplitSystem,
    templates: &[NodeRuntime],
    rounds: u64,
    group_of_part: &[usize],
) -> Res<ReplayStats> {
    let mut nodes: Vec<NodeRuntime> = templates.to_vec();
    let neighbors: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| {
            let mut v: Vec<usize> = n.neighbor_parts().collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let flops0: u64 = nodes.iter().map(NodeRuntime::flops).sum();
    let mut st = ReplayStats::default();
    let mut tx = TimingTransport {
        out: Vec::new(),
        send_ns: Vec::new(),
    };
    let mut pending: BTreeMap<(usize, usize), DtmMsg> = BTreeMap::new();
    let mut next: BTreeMap<(usize, usize), DtmMsg> = BTreeMap::new();
    for round in 0..rounds {
        for (p, node) in nodes.iter_mut().enumerate() {
            if round > 0 {
                for &src in &neighbors[p] {
                    let msg = pending
                        .remove(&(p, src))
                        .ok_or_else(|| format!("replay: no wave {src}->{p} in round {round}"))?;
                    let t = Instant::now();
                    node.absorb_owned(msg);
                    st.absorb_ns.push(t.elapsed().as_nanos() as f64);
                }
            }
            tx.send_ns.clear();
            let t = Instant::now();
            let _ = node.step(&mut tx);
            let total = t.elapsed().as_nanos() as f64;
            let sends: f64 = tx.send_ns.iter().sum();
            st.step_ns.push(total - sends);
            st.send_ns.extend_from_slice(&tx.send_ns);
            for (dst, msg) in tx.out.drain(..) {
                if group_of_part[p] != group_of_part[dst] {
                    let wave = Wave {
                        round,
                        src: p as u64,
                        dst: dst as u64,
                        msg: msg.clone(),
                    };
                    wire_cost(&mut st, round, p, &Msg::Wave(wave))?;
                }
                next.insert((dst, p), msg);
            }
            let snap = Snapshot {
                part: p as u64,
                round,
                values: node.local().solution().to_vec(),
            };
            wire_cost(&mut st, round, p, &Msg::Snapshot(snap))?;
        }
        std::mem::swap(&mut pending, &mut next);
        next.clear();
    }
    st.flops = nodes.iter().map(NodeRuntime::flops).sum::<u64>() - flops0;
    let locals: Vec<&[f64]> = nodes.iter().map(|n| n.local().solution_col(0)).collect();
    st.solution = gather(split, &locals);
    Ok(st)
}

/// Encode one frame part `src` ships in `round` as the socket transport
/// would, decode it back, and record bytes and both times.
fn wire_cost(st: &mut ReplayStats, round: u64, src: usize, frame: &Msg) -> Res<()> {
    let t = Instant::now();
    let bytes = wire::encode(frame);
    st.encode_ns.push(t.elapsed().as_nanos() as f64);
    let t = Instant::now();
    let back = wire::decode(&bytes).map_err(|e| format!("replay: wire decode: {e}"))?;
    st.decode_ns.push(t.elapsed().as_nanos() as f64);
    if back != *frame {
        return Err(format!(
            "replay: a frame of part {src} in round {round} changed on the wire"
        ));
    }
    st.wire_bytes += bytes.len() as u64 + FRAME_HEADER_BYTES;
    Ok(())
}
