//! Multi-source broadcast with superimposed codes — the paper's cited
//! companion problem (Beauquier, Burman, Davies & Dufoulon, "Optimal
//! multi-cast with beeps using group testing", SIROCCO 2019; the paper's
//! [6]).
//!
//! `k` source nodes each hold an `a`-bit message; every node must learn
//! the *set* of source messages. The beeping channel computes OR for
//! free, so the sources simply transmit their Kautz–Singleton codewords
//! simultaneously, wave by wave:
//!
//! * the codeword bits are serialized into windows of `D_bound + 1`
//!   rounds;
//! * in window `i`, every source whose codeword has bit `i = 1` starts a
//!   beep wave, and every node relays the first beep it hears in the
//!   window — so by the window's end, all nodes know the OR of bit `i`
//!   across all sources;
//! * after all windows, every node holds the superimposition
//!   `∨ C(m_s)` and decodes the message set with the classical cover-free
//!   guarantee (exact for up to `k` sources, Definition 1).
//!
//! This is the simple unpipelined variant: `O(q²·D)` rounds for field
//! size `q` ([6] pipelines waves to approach `O(D + q²)`); it is also
//! noiseless, like the primitive it implements. Its purpose in this
//! workspace is to exercise the classical superimposed code in an actual
//! beeping protocol, the contrast the paper's Section 1.4 draws.

use crate::error::AppError;
use beep_bits::BitVec;
use beep_codes::KautzSingleton;
use beep_net::{BeepNetwork, Graph, Noise};

/// Outcome of a multi-source broadcast.
#[derive(Debug, Clone)]
pub struct MulticastReport {
    /// The OR-superimposition of all source codewords, as every node
    /// reconstructed it (validated identical across nodes).
    pub superimposition: BitVec,
    /// The decoded source messages (candidates confirmed covered), sorted.
    pub decoded: Vec<BitVec>,
    /// Rounds executed.
    pub rounds: usize,
    /// Total beeps emitted.
    pub beeps: u64,
}

/// Broadcasts the messages of up to `k` sources to every node.
///
/// `sources` pairs node ids with their `message_bits`-bit messages;
/// `candidates` is the message list to test against the decoded
/// superimposition (cover-free decoding is a membership test; see
/// ARCHITECTURE.md, *Candidate-and-decoy decoding* — pass the universe of
/// possible messages when it is small, or the plausible candidates plus
/// decoys).
///
/// # Errors
///
/// * [`AppError::InvalidOutput`] if more than `k` sources are given, a
///   source id repeats, or nodes end up with inconsistent views (cannot
///   happen on a connected graph with a correct diameter bound).
/// * [`AppError::Net`] on engine errors.
///
/// # Panics
///
/// Panics if a message has the wrong width or a source id is out of
/// range (caller bugs).
pub fn multi_source_broadcast(
    graph: &Graph,
    sources: &[(usize, BitVec)],
    k: usize,
    message_bits: usize,
    diameter_bound: usize,
    candidates: &[BitVec],
    seed: u64,
) -> Result<MulticastReport, AppError> {
    let n = graph.node_count();
    if sources.len() > k {
        return Err(AppError::InvalidOutput {
            detail: format!("{} sources exceed the design order k = {k}", sources.len()),
        });
    }
    {
        let mut ids: Vec<usize> = sources.iter().map(|&(s, _)| s).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != sources.len() {
            return Err(AppError::InvalidOutput {
                detail: "duplicate source id".into(),
            });
        }
    }
    for (s, m) in sources {
        assert!(*s < n, "source {s} out of range");
        assert_eq!(m.len(), message_bits, "message width mismatch");
    }
    let code =
        KautzSingleton::new(message_bits, k.max(1)).map_err(|e| AppError::InvalidOutput {
            detail: format!("code construction: {e}"),
        })?;
    let len = code.params().length();
    let codewords: Vec<(usize, BitVec)> =
        sources.iter().map(|(s, m)| (*s, code.encode(m))).collect();

    let mut net = BeepNetwork::new(graph.clone(), Noise::Noiseless, seed);
    let window = diameter_bound + 1;
    // Per-node reconstructed superimposition.
    let mut heard_bits: Vec<BitVec> = (0..n).map(|_| BitVec::zeros(len)).collect();
    let mut beepers = BitVec::zeros(n);
    let mut received = BitVec::zeros(n);
    for bit in 0..len {
        // One OR-wave window for codeword bit `bit`.
        let mut heard = vec![false; n];
        let mut relayed = vec![false; n];
        for (s, cw) in &codewords {
            if cw.get(bit) {
                heard[*s] = true;
            }
        }
        for _t in 0..window {
            for v in 0..n {
                // Fire once: sources in the window's first round, relays
                // one round after first hearing the wave.
                let fire = heard[v] && !relayed[v];
                if fire {
                    relayed[v] = true;
                }
                beepers.set(v, fire);
            }
            net.run_round_bitset_into(&beepers, &mut received)?;
            for v in received.iter_ones() {
                heard[v] = true;
            }
        }
        for v in 0..n {
            if heard[v] {
                heard_bits[v].set(bit, true);
            }
        }
    }
    // All nodes must agree (wave floods the whole component).
    let superimposition = heard_bits[0].clone();
    if heard_bits.iter().any(|h| h != &superimposition) {
        return Err(AppError::InvalidOutput {
            detail: "nodes reconstructed different superimpositions (disconnected graph or bad diameter bound?)".into(),
        });
    }
    // Cover-free decoding against the candidate list.
    let mut decoded: Vec<BitVec> = candidates
        .iter()
        .filter(|m| code.covered(m, &superimposition))
        .cloned()
        .collect();
    decoded.sort_unstable_by_key(std::string::ToString::to_string);
    decoded.dedup();
    let stats = net.stats();
    Ok(MulticastReport {
        superimposition,
        decoded,
        rounds: stats.rounds,
        beeps: stats.beeps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_net::topology;

    fn all_messages(bits: usize) -> Vec<BitVec> {
        (0..(1u64 << bits))
            .map(|v| BitVec::from_u64_lsb(v, bits))
            .collect()
    }

    #[test]
    fn two_sources_on_a_grid() {
        let g = topology::grid(3, 4).unwrap();
        let d = g.diameter().unwrap();
        let msgs = [
            (0usize, BitVec::from_u64_lsb(0x2B, 6)),
            (11usize, BitVec::from_u64_lsb(0x15, 6)),
        ];
        let report = multi_source_broadcast(&g, &msgs, 3, 6, d, &all_messages(6), 1).unwrap();
        let expected: Vec<BitVec> = {
            let mut v = vec![msgs[0].1.clone(), msgs[1].1.clone()];
            v.sort_unstable_by_key(std::string::ToString::to_string);
            v
        };
        assert_eq!(report.decoded, expected);
    }

    #[test]
    fn up_to_k_sources_decode_exactly() {
        let g = topology::cycle(9).unwrap();
        let d = g.diameter().unwrap();
        for count in 1..=3usize {
            let msgs: Vec<(usize, BitVec)> = (0..count)
                .map(|i| (i * 3, BitVec::from_u64_lsb(17 * i as u64 + 1, 6)))
                .collect();
            let report = multi_source_broadcast(&g, &msgs, 3, 6, d, &all_messages(6), 2).unwrap();
            assert_eq!(report.decoded.len(), count, "count = {count}");
            for (_, m) in &msgs {
                assert!(report.decoded.contains(m));
            }
        }
    }

    #[test]
    fn zero_sources_decode_to_nothing() {
        let g = topology::path(4).unwrap();
        let report = multi_source_broadcast(&g, &[], 2, 6, 3, &all_messages(6), 3).unwrap();
        assert!(report.decoded.is_empty());
        assert_eq!(report.superimposition.count_ones(), 0);
        assert_eq!(report.beeps, 0);
    }

    #[test]
    fn too_many_sources_rejected() {
        let g = topology::path(5).unwrap();
        let msgs: Vec<(usize, BitVec)> = (0..4)
            .map(|i| (i, BitVec::from_u64_lsb(i as u64, 6)))
            .collect();
        assert!(matches!(
            multi_source_broadcast(&g, &msgs, 3, 6, 4, &all_messages(6), 4),
            Err(AppError::InvalidOutput { .. })
        ));
    }

    #[test]
    fn duplicate_source_rejected() {
        let g = topology::path(5).unwrap();
        let msgs = [
            (1usize, BitVec::from_u64_lsb(1, 6)),
            (1usize, BitVec::from_u64_lsb(2, 6)),
        ];
        assert!(matches!(
            multi_source_broadcast(&g, &msgs, 3, 6, 4, &all_messages(6), 5),
            Err(AppError::InvalidOutput { .. })
        ));
    }

    #[test]
    fn round_cost_is_length_times_window() {
        let g = topology::path(6).unwrap();
        let d = 5;
        let msgs = [(0usize, BitVec::from_u64_lsb(9, 6))];
        let report = multi_source_broadcast(&g, &msgs, 2, 6, d, &all_messages(6), 6).unwrap();
        let code = KautzSingleton::new(6, 2).unwrap();
        assert_eq!(report.rounds, code.params().length() * (d + 1));
    }
}
