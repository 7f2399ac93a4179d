//! Native (direct-delivery) runners for the two models.
//!
//! These execute algorithms under the models *as defined* — they are both
//! the reference semantics the beeping simulation must reproduce and the
//! baseline for round-count comparisons (a Broadcast CONGEST round here
//! costs 1; under beep simulation it costs `Θ(Δ log n)`).

use crate::error::CongestError;
use crate::message::Message;
use crate::model::{BroadcastAlgorithm, CongestAlgorithm, NodeCtx};
use beep_net::Graph;

/// Outcome of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Communication rounds executed.
    pub rounds: usize,
    /// Total messages delivered (sum over rounds and receivers).
    pub deliveries: u64,
}

/// Executes [`BroadcastAlgorithm`]s with direct message delivery.
#[derive(Debug)]
pub struct BroadcastRunner<'g> {
    graph: &'g Graph,
    message_bits: usize,
    seed: u64,
}

impl<'g> BroadcastRunner<'g> {
    /// Creates a runner over `graph` with the given exact message width and
    /// randomness seed (node `v`'s algorithm receives
    /// [`NodeCtx::for_node`]`(graph, v, message_bits, seed)`).
    #[must_use]
    pub fn new(graph: &'g Graph, message_bits: usize, seed: u64) -> Self {
        BroadcastRunner {
            graph,
            message_bits,
            seed,
        }
    }

    /// The fixed message width.
    #[must_use]
    pub fn message_bits(&self) -> usize {
        self.message_bits
    }

    /// Initializes every node's algorithm with its context.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::NodeCount`] on an instance-count mismatch.
    pub fn init<A: BroadcastAlgorithm + ?Sized>(
        &self,
        algorithms: &mut [Box<A>],
    ) -> Result<(), CongestError> {
        let n = self.graph.node_count();
        if algorithms.len() != n {
            return Err(CongestError::NodeCount {
                expected: n,
                actual: algorithms.len(),
            });
        }
        for (v, algo) in algorithms.iter_mut().enumerate() {
            algo.init(&NodeCtx::for_node(
                self.graph,
                v,
                self.message_bits,
                self.seed,
            ));
        }
        Ok(())
    }

    /// Runs one communication round: collect, validate, deliver.
    /// Returns the number of messages delivered.
    ///
    /// # Errors
    ///
    /// * [`CongestError::NodeCount`] on an instance-count mismatch.
    /// * [`CongestError::MessageWidth`] if a node emits a message that is
    ///   not exactly `message_bits` wide.
    pub fn run_round<A: BroadcastAlgorithm + ?Sized>(
        &self,
        round: usize,
        algorithms: &mut [Box<A>],
    ) -> Result<u64, CongestError> {
        let n = self.graph.node_count();
        if algorithms.len() != n {
            return Err(CongestError::NodeCount {
                expected: n,
                actual: algorithms.len(),
            });
        }
        let mut outgoing: Vec<Option<Message>> = Vec::with_capacity(n);
        for (v, algo) in algorithms.iter_mut().enumerate() {
            let msg = algo.round_message(round);
            if let Some(m) = &msg {
                if m.len() != self.message_bits {
                    return Err(CongestError::MessageWidth {
                        expected: self.message_bits,
                        actual: m.len(),
                        node: v,
                    });
                }
            }
            outgoing.push(msg);
        }
        let mut delivered = 0u64;
        for (v, algo) in algorithms.iter_mut().enumerate() {
            let mut inbox: Vec<Message> = Vec::new();
            self.graph
                .for_each_neighbor(v, |u| inbox.extend(outgoing[u].clone()));
            // Canonical order: reception is an anonymous multiset.
            inbox.sort_unstable();
            delivered += inbox.len() as u64;
            algo.on_receive(round, &inbox);
        }
        Ok(delivered)
    }

    /// Initializes and runs until every node is done or the budget is hit.
    ///
    /// # Errors
    ///
    /// Propagates per-round errors, plus
    /// [`CongestError::RoundBudgetExhausted`] if the algorithms never all
    /// finish.
    pub fn run_to_completion<A: BroadcastAlgorithm + ?Sized>(
        &self,
        algorithms: &mut [Box<A>],
        max_rounds: usize,
    ) -> Result<RunReport, CongestError> {
        self.init(algorithms)?;
        let mut deliveries = 0u64;
        for round in 0..max_rounds {
            if algorithms.iter().all(|a| a.is_done()) {
                return Ok(RunReport {
                    rounds: round,
                    deliveries,
                });
            }
            deliveries += self.run_round(round, algorithms)?;
        }
        if algorithms.iter().all(|a| a.is_done()) {
            Ok(RunReport {
                rounds: max_rounds,
                deliveries,
            })
        } else {
            Err(CongestError::RoundBudgetExhausted { budget: max_rounds })
        }
    }
}

/// Executes [`CongestAlgorithm`]s with direct per-neighbor delivery.
#[derive(Debug)]
pub struct CongestRunner<'g> {
    graph: &'g Graph,
    message_bits: usize,
    seed: u64,
}

impl<'g> CongestRunner<'g> {
    /// Creates a runner over `graph` with the given exact message width.
    #[must_use]
    pub fn new(graph: &'g Graph, message_bits: usize, seed: u64) -> Self {
        CongestRunner {
            graph,
            message_bits,
            seed,
        }
    }

    /// Initializes and runs until every node is done or the budget is hit.
    ///
    /// # Errors
    ///
    /// * [`CongestError::NodeCount`], [`CongestError::MessageWidth`],
    ///   [`CongestError::NotANeighbor`] per round.
    /// * [`CongestError::RoundBudgetExhausted`] at the budget.
    pub fn run_to_completion<A: CongestAlgorithm + ?Sized>(
        &self,
        algorithms: &mut [Box<A>],
        max_rounds: usize,
    ) -> Result<RunReport, CongestError> {
        let n = self.graph.node_count();
        if algorithms.len() != n {
            return Err(CongestError::NodeCount {
                expected: n,
                actual: algorithms.len(),
            });
        }
        for (v, algo) in algorithms.iter_mut().enumerate() {
            algo.init(&NodeCtx::for_node(
                self.graph,
                v,
                self.message_bits,
                self.seed,
            ));
        }
        let mut deliveries = 0u64;
        for round in 0..max_rounds {
            if algorithms.iter().all(|a| a.is_done()) {
                return Ok(RunReport {
                    rounds: round,
                    deliveries,
                });
            }
            let mut inboxes: Vec<Vec<(usize, Message)>> = vec![Vec::new(); n];
            for (v, algo) in algorithms.iter_mut().enumerate() {
                for (to, msg) in algo.round_messages(round) {
                    if !self.graph.has_edge(v, to) {
                        return Err(CongestError::NotANeighbor { from: v, to });
                    }
                    if msg.len() != self.message_bits {
                        return Err(CongestError::MessageWidth {
                            expected: self.message_bits,
                            actual: msg.len(),
                            node: v,
                        });
                    }
                    inboxes[to].push((v, msg));
                }
            }
            for (v, algo) in algorithms.iter_mut().enumerate() {
                let mut inbox = std::mem::take(&mut inboxes[v]);
                inbox.sort_unstable();
                deliveries += inbox.len() as u64;
                algo.on_receive(round, &inbox);
            }
        }
        if algorithms.iter().all(|a| a.is_done()) {
            Ok(RunReport {
                rounds: max_rounds,
                deliveries,
            })
        } else {
            Err(CongestError::RoundBudgetExhausted { budget: max_rounds })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageWriter;
    use beep_net::topology;

    /// Broadcast test algorithm: every node broadcasts its id once in round
    /// 0, records everything it hears, then is done.
    struct IdOnce {
        ctx: Option<NodeCtx>,
        heard: Vec<u64>,
        done: bool,
    }
    impl IdOnce {
        fn new() -> Self {
            IdOnce {
                ctx: None,
                heard: Vec::new(),
                done: false,
            }
        }
    }
    impl BroadcastAlgorithm for IdOnce {
        fn init(&mut self, ctx: &NodeCtx) {
            self.ctx = Some(*ctx);
        }
        fn round_message(&mut self, round: usize) -> Option<Message> {
            let ctx = self.ctx.as_ref().expect("init called first");
            (round == 0).then(|| {
                MessageWriter::new()
                    .push_uint(ctx.node as u64, ctx.id_bits())
                    .finish(ctx.message_bits)
            })
        }
        fn on_receive(&mut self, _round: usize, received: &[Message]) {
            let bits = self.ctx.as_ref().unwrap().id_bits();
            for m in received {
                self.heard.push(m.reader().read_uint(bits));
            }
            self.done = true;
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn broadcast_delivers_neighbor_ids() {
        let g = topology::path(4).unwrap();
        let runner = BroadcastRunner::new(&g, 16, 0);
        let mut algos: Vec<Box<IdOnce>> = (0..4).map(|_| Box::new(IdOnce::new())).collect();
        let report = runner.run_to_completion(&mut algos, 10).unwrap();
        assert_eq!(report.rounds, 1);
        assert_eq!(algos[0].heard, vec![1]);
        assert_eq!(algos[1].heard, vec![0, 2]);
        assert_eq!(algos[2].heard, vec![1, 3]);
        assert_eq!(algos[3].heard, vec![2]);
        assert_eq!(report.deliveries, 6);
    }

    #[test]
    fn silent_nodes_deliver_nothing() {
        struct Silent {
            done: bool,
            inbox_sizes: Vec<usize>,
        }
        impl BroadcastAlgorithm for Silent {
            fn init(&mut self, _ctx: &NodeCtx) {}
            fn round_message(&mut self, _round: usize) -> Option<Message> {
                None
            }
            fn on_receive(&mut self, _round: usize, received: &[Message]) {
                self.inbox_sizes.push(received.len());
                self.done = true;
            }
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let g = topology::complete(3).unwrap();
        let runner = BroadcastRunner::new(&g, 8, 0);
        let mut algos: Vec<Box<Silent>> = (0..3)
            .map(|_| {
                Box::new(Silent {
                    done: false,
                    inbox_sizes: Vec::new(),
                })
            })
            .collect();
        let report = runner.run_to_completion(&mut algos, 5).unwrap();
        assert_eq!(report.deliveries, 0);
        assert!(algos.iter().all(|a| a.inbox_sizes == vec![0]));
    }

    #[test]
    fn message_width_enforced() {
        struct WrongWidth;
        impl BroadcastAlgorithm for WrongWidth {
            fn init(&mut self, _ctx: &NodeCtx) {}
            fn round_message(&mut self, _round: usize) -> Option<Message> {
                Some(Message::zero(7))
            }
            fn on_receive(&mut self, _round: usize, _received: &[Message]) {}
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = topology::path(2).unwrap();
        let runner = BroadcastRunner::new(&g, 8, 0);
        let mut algos: Vec<Box<WrongWidth>> = vec![Box::new(WrongWidth), Box::new(WrongWidth)];
        assert_eq!(
            runner.run_to_completion(&mut algos, 5),
            Err(CongestError::MessageWidth {
                expected: 8,
                actual: 7,
                node: 0
            })
        );
    }

    #[test]
    fn node_count_enforced() {
        let g = topology::path(3).unwrap();
        let runner = BroadcastRunner::new(&g, 8, 0);
        let mut algos: Vec<Box<IdOnce>> = vec![Box::new(IdOnce::new())];
        assert_eq!(
            runner.run_to_completion(&mut algos, 5),
            Err(CongestError::NodeCount {
                expected: 3,
                actual: 1
            })
        );
    }

    #[test]
    fn budget_exhaustion_reported() {
        struct Never;
        impl BroadcastAlgorithm for Never {
            fn init(&mut self, _ctx: &NodeCtx) {}
            fn round_message(&mut self, _round: usize) -> Option<Message> {
                None
            }
            fn on_receive(&mut self, _round: usize, _received: &[Message]) {}
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = topology::path(2).unwrap();
        let runner = BroadcastRunner::new(&g, 8, 0);
        let mut algos: Vec<Box<Never>> = vec![Box::new(Never), Box::new(Never)];
        assert_eq!(
            runner.run_to_completion(&mut algos, 3),
            Err(CongestError::RoundBudgetExhausted { budget: 3 })
        );
    }

    /// CONGEST test algorithm: node v sends its id to each neighbor with a
    /// per-neighbor tweak, verifying addressed delivery.
    struct Addressed {
        ctx: Option<NodeCtx>,
        heard: Vec<(usize, u64)>,
        done: bool,
    }
    impl CongestAlgorithm for Addressed {
        fn init(&mut self, ctx: &NodeCtx) {
            self.ctx = Some(*ctx);
        }
        fn round_messages(&mut self, round: usize) -> Vec<(usize, Message)> {
            if round > 0 {
                return Vec::new();
            }
            let ctx = self.ctx.as_ref().unwrap();
            let me = ctx.node;
            // On a path, neighbors are me±1.
            let mut out = Vec::new();
            for to in [me.wrapping_sub(1), me + 1] {
                if to < ctx.n {
                    let payload = (me as u64) * 100 + to as u64;
                    out.push((to, MessageWriter::new().push_uint(payload, 16).finish(16)));
                }
            }
            out
        }
        fn on_receive(&mut self, _round: usize, received: &[(usize, Message)]) {
            for (from, m) in received {
                self.heard.push((*from, m.reader().read_uint(16)));
            }
            self.done = true;
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn congest_addressed_delivery() {
        let g = topology::path(3).unwrap();
        let runner = CongestRunner::new(&g, 16, 0);
        let mut algos: Vec<Box<Addressed>> = (0..3)
            .map(|_| {
                Box::new(Addressed {
                    ctx: None,
                    heard: Vec::new(),
                    done: false,
                })
            })
            .collect();
        runner.run_to_completion(&mut algos, 5).unwrap();
        // Node 1 hears from 0 (payload 0*100+1) and from 2 (payload 2*100+1).
        assert_eq!(algos[1].heard, vec![(0, 1), (2, 201)]);
        assert_eq!(algos[0].heard, vec![(1, 100)]);
        assert_eq!(algos[2].heard, vec![(1, 102)]);
    }

    #[test]
    fn congest_rejects_non_neighbor() {
        struct BadAddress;
        impl CongestAlgorithm for BadAddress {
            fn init(&mut self, _ctx: &NodeCtx) {}
            fn round_messages(&mut self, _round: usize) -> Vec<(usize, Message)> {
                vec![(2, Message::zero(8))]
            }
            fn on_receive(&mut self, _round: usize, _received: &[(usize, Message)]) {}
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = topology::path(3).unwrap(); // 0-1-2: 0 and 2 not adjacent
        let runner = CongestRunner::new(&g, 8, 0);
        let mut algos: Vec<Box<BadAddress>> = vec![
            Box::new(BadAddress),
            Box::new(BadAddress),
            Box::new(BadAddress),
        ];
        assert_eq!(
            runner.run_to_completion(&mut algos, 5),
            Err(CongestError::NotANeighbor { from: 0, to: 2 })
        );
    }
}
