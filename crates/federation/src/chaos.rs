//! Deterministic fault injection for federation testing.
//!
//! [`ChaosNode`] wraps a [`FederationNode`] and misbehaves on purpose:
//! it can **drop** responses (the request is served but the reply is
//! lost, so the caller's deadline fires), **delay** them (the node
//! thread stalls, modelling a hung peer), answer with injected
//! **errors**, or **garble** the reply (corrupted chunk bytes or a
//! wrong response variant). Faults are driven by a seeded xorshift
//! generator plus deterministic "first N requests" windows, so every
//! failure scenario replays bit-for-bit — the in-process stand-in for
//! the network faults a real §4.4 consortium federation must survive.

use crate::node::{FederationNode, NodeService};
use crate::protocol::{Request, Response};
use std::time::Duration;

/// What a [`ChaosNode`] injects, and when.
///
/// Deterministic windows (`drop_first`, `fail_first`) apply to the
/// first matching requests in arrival order; after those are exhausted,
/// the `*_rate` probabilities are sampled from the seeded generator.
/// With an empty [`only_kinds`](Self::only_kinds) every request is
/// eligible; otherwise only the listed
/// [`Request::kind`] names are tampered with.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the deterministic fault generator.
    pub seed: u64,
    /// Drop the responses of the first N matching requests.
    pub drop_first: usize,
    /// After the drop window: answer the next N matching requests with
    /// an injected `Response::Error`.
    pub fail_first: usize,
    /// Probability (0..=1) of dropping a response.
    pub drop_rate: f64,
    /// Probability of answering with an injected error.
    pub error_rate: f64,
    /// Probability of garbling the response.
    pub garble_rate: f64,
    /// Probability of stalling for [`delay`](Self::delay) before serving.
    pub delay_rate: f64,
    /// Stall duration; the node thread sleeps, so queued requests stall
    /// too — exactly how a hung peer looks from the coordinator.
    pub delay: Duration,
    /// Restrict chaos to these [`Request::kind`] names (empty = all).
    pub only_kinds: Vec<String>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 42,
            drop_first: 0,
            fail_first: 0,
            drop_rate: 0.0,
            error_rate: 0.0,
            garble_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::ZERO,
            only_kinds: Vec::new(),
        }
    }
}

impl ChaosConfig {
    /// A peer that never answers: every matching response is dropped.
    pub fn unresponsive() -> ChaosConfig {
        ChaosConfig { drop_rate: 1.0, ..ChaosConfig::default() }
    }

    /// A hung peer: every matching request stalls for `delay` first.
    /// Keep `delay` modest (a few hundred ms) — the node thread really
    /// sleeps, and `Federation::drop` joins it.
    pub fn hung(delay: Duration) -> ChaosConfig {
        ChaosConfig { delay_rate: 1.0, delay, ..ChaosConfig::default() }
    }

    /// A flaky peer: loses the first `n` matching responses, then
    /// behaves — made for exercising the retry budget.
    pub fn flaky(n: usize) -> ChaosConfig {
        ChaosConfig { drop_first: n, ..ChaosConfig::default() }
    }
}

/// A [`FederationNode`] wrapped in configurable, seeded misbehaviour.
pub struct ChaosNode {
    inner: FederationNode,
    config: ChaosConfig,
    rng: u64,
    /// Matching requests seen so far (drives the deterministic windows).
    seen: usize,
}

impl ChaosNode {
    /// Wrap `inner` with the given fault plan.
    pub fn new(inner: FederationNode, config: ChaosConfig) -> ChaosNode {
        // A zero seed would lock xorshift at zero; nudge it.
        let rng = config.seed | 1;
        ChaosNode { inner, config, rng, seen: 0 }
    }

    /// The wrapped node (e.g. to inspect `staged_results` in tests).
    pub fn inner(&self) -> &FederationNode {
        &self.inner
    }

    fn applies(&self, request: &Request) -> bool {
        self.config.only_kinds.is_empty()
            || self.config.only_kinds.iter().any(|k| k == request.kind())
    }

    /// Deterministic uniform draw in `[0, 1)`.
    fn draw(&mut self) -> f64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng >> 11) as f64 / (1u64 << 53) as f64
    }

    fn garble(response: Response) -> Response {
        match response {
            // Flip a byte mid-payload: its container's checksum rejects
            // it (the frame does, if the byte was a length prefix).
            Response::Chunk { ticket, index, mut data, last } => {
                if data.is_empty() {
                    data.push(0xFF);
                } else {
                    let mid = data.len() / 2;
                    data[mid] ^= 0xA5;
                }
                Response::Chunk { ticket, index, data, last }
            }
            // Everything else degrades to a wrong variant, which callers
            // must surface as a protocol violation, not a panic.
            _ => Response::Ok,
        }
    }
}

impl NodeService for ChaosNode {
    fn id(&self) -> &str {
        &self.inner.id
    }

    fn serve(&mut self, request: &Request) -> Option<Response> {
        if !self.applies(request) {
            return self.inner.serve(request);
        }
        self.seen += 1;
        let n = self.seen;
        if n <= self.config.drop_first {
            // Served but the reply is lost — state changes still happen,
            // exactly like a response lost on the wire.
            let _ = self.inner.serve(request);
            return None;
        }
        if n <= self.config.drop_first + self.config.fail_first {
            return Some(Response::Error(format!("chaos: injected fault #{n}")));
        }
        if self.config.delay_rate > 0.0 && self.draw() < self.config.delay_rate {
            std::thread::sleep(self.config.delay);
        }
        if self.config.drop_rate > 0.0 && self.draw() < self.config.drop_rate {
            let _ = self.inner.serve(request);
            return None;
        }
        if self.config.error_rate > 0.0 && self.draw() < self.config.error_rate {
            return Some(Response::Error(format!("chaos: injected fault #{n}")));
        }
        let response = self.inner.serve(request)?;
        if self.config.garble_rate > 0.0 && self.draw() < self.config.garble_rate {
            return Some(Self::garble(response));
        }
        Some(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_node() -> FederationNode {
        FederationNode::new("chaotic", 1)
    }

    #[test]
    fn deterministic_windows_then_clean() {
        let config = ChaosConfig { drop_first: 1, fail_first: 1, ..ChaosConfig::default() };
        let mut chaos = ChaosNode::new(bare_node(), config);
        assert!(chaos.serve(&Request::Status).is_none(), "first response dropped");
        assert!(
            matches!(chaos.serve(&Request::Status), Some(Response::Error(_))),
            "second response errors"
        );
        assert!(
            matches!(chaos.serve(&Request::Status), Some(Response::Status { .. })),
            "then the node behaves"
        );
    }

    #[test]
    fn only_kinds_scopes_the_chaos() {
        let config = ChaosConfig {
            fail_first: 100,
            only_kinds: vec!["ListDatasets".to_owned()],
            ..ChaosConfig::default()
        };
        let mut chaos = ChaosNode::new(bare_node(), config);
        assert!(matches!(chaos.serve(&Request::Status), Some(Response::Status { .. })));
        assert!(matches!(chaos.serve(&Request::ListDatasets), Some(Response::Error(_))));
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let config = ChaosConfig { drop_rate: 0.5, ..ChaosConfig::default() };
        let mut a = ChaosNode::new(bare_node(), config.clone());
        let mut b = ChaosNode::new(bare_node(), config);
        for _ in 0..64 {
            let ra = a.serve(&Request::Status).is_some();
            let rb = b.serve(&Request::Status).is_some();
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn garbled_chunk_is_corrupt_not_missing() {
        match ChaosNode::garble(Response::Chunk {
            ticket: 1,
            index: 0,
            data: vec![1, 2, 3, 4],
            last: true,
        }) {
            Response::Chunk { data, .. } => assert_ne!(data, vec![1, 2, 3, 4]),
            other => panic!("{other:?}"),
        }
        assert!(matches!(ChaosNode::garble(Response::Ok), Response::Ok));
        assert!(matches!(ChaosNode::garble(Response::Error("e".into())), Response::Ok));
    }
}
