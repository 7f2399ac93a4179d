//! The algorithm-facing model traits.

use crate::message::Message;
use beep_net::{Graph, NodeId};

/// Per-node static context handed to an algorithm at initialization.
///
/// Node IDs are the graph indices `0..n` (the paper's "unique identifier
/// `ID_v ∈ [n]`", Definition 13). Experiments that need larger ID spaces
/// (e.g. Theorem 22's IDs from `[n⁴]`) draw them internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCtx {
    /// This node's index / identifier.
    pub node: NodeId,
    /// Total number of nodes `n`.
    pub n: usize,
    /// This node's degree.
    pub degree: usize,
    /// The run's fixed message width in bits (the paper's `γ·log n`).
    pub message_bits: usize,
    /// Seed for this node's private randomness (node-separated by
    /// [`NodeCtx::for_node`]).
    pub seed: u64,
}

impl NodeCtx {
    /// The context every runner hands node `v` of `graph`: its degree, the
    /// run's message width, and the run seed separated per node. Native
    /// and simulated runs derive it here, so the same algorithm values
    /// draw the same randomness under either.
    #[must_use]
    pub fn for_node(graph: &Graph, v: NodeId, message_bits: usize, seed: u64) -> Self {
        NodeCtx {
            node: v,
            n: graph.node_count(),
            degree: graph.degree(v),
            message_bits,
            seed: seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Bits needed to address any node id in `[n]` (`⌈log₂ n⌉`, min 1).
    #[must_use]
    pub fn id_bits(&self) -> usize {
        id_bits_for(self.n)
    }
}

/// `⌈log₂ n⌉` (min 1): the width of one node id field.
#[must_use]
pub fn id_bits_for(n: usize) -> usize {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1) as usize
}

/// A node-local Broadcast CONGEST algorithm.
///
/// The runner drives each round as: `round_message` on every node →
/// delivery → `on_receive` on every node with the sorted multiset of
/// neighbor messages. Returning `None` from `round_message` means staying
/// silent that round (neighbors simply receive nothing from this node).
pub trait BroadcastAlgorithm {
    /// Called once before round 0.
    fn init(&mut self, ctx: &NodeCtx);

    /// This round's broadcast, or `None` to stay silent. Must be exactly
    /// `ctx.message_bits` wide when present.
    fn round_message(&mut self, round: usize) -> Option<Message>;

    /// Receives the canonical-sorted multiset of messages the node's
    /// neighbors broadcast this round (no sender identity — see the crate
    /// docs).
    fn on_receive(&mut self, round: usize, received: &[Message]);

    /// Whether this node has terminated (stopped acting and producing
    /// output). The runner stops when all nodes are done.
    fn is_done(&self) -> bool;
}

/// A node-local CONGEST algorithm: per-neighbor messages.
///
/// Reception is a sorted list of `(sender, message)` pairs — CONGEST's
/// usual port knowledge.
pub trait CongestAlgorithm {
    /// Called once before round 0.
    fn init(&mut self, ctx: &NodeCtx);

    /// This round's outgoing messages, each addressed to a neighbor.
    /// An empty vector means silence.
    fn round_messages(&mut self, round: usize) -> Vec<(NodeId, Message)>;

    /// Receives `(sender, message)` pairs sorted by sender.
    fn on_receive(&mut self, round: usize, received: &[(NodeId, Message)]);

    /// Whether this node has terminated.
    fn is_done(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_bits() {
        assert_eq!(id_bits_for(0), 1);
        assert_eq!(id_bits_for(1), 1);
        assert_eq!(id_bits_for(2), 1);
        assert_eq!(id_bits_for(3), 2);
        assert_eq!(id_bits_for(4), 2);
        assert_eq!(id_bits_for(5), 3);
        assert_eq!(id_bits_for(1024), 10);
        assert_eq!(id_bits_for(1025), 11);
    }

    #[test]
    fn ctx_id_bits() {
        let ctx = NodeCtx {
            node: 0,
            n: 100,
            degree: 3,
            message_bits: 64,
            seed: 1,
        };
        assert_eq!(ctx.id_bits(), 7);
    }
}
