//! Wire scheduling: the timing wheel, delay policy and FIFO clamp.
//!
//! A [`Transport`] owns everything between "a message left its sender" and
//! "the message reached its destination's in-port": it applies the
//! [`LinkDelay`] policy, enforces per-link FIFO, and holds in-flight
//! messages in a timing wheel keyed by arrival round. The invariants this
//! layer owns:
//!
//! * **delay ≥ 1** — a message transmitted at round `t` arrives no earlier
//!   than `t + 1` (information travels at most one hop per round under the
//!   paper's unit-delay model; other policies only stretch this);
//! * **per-link FIFO** — no message overtakes an earlier message on the
//!   same directed link. Constant-per-link policies are FIFO by
//!   construction; per-message policies ([`LinkDelay::Jitter`]) are clamped
//!   so each arrival is no earlier than the previous arrival scheduled on
//!   that link;
//! * **deterministic maturity order** — [`Transport::drain_due`] yields
//!   wires in (arrival round, transmission sequence) order, so delivery
//!   order is a pure function of the transmission history. The sequence
//!   number is assigned by the scheduler (globally, across *all* transports
//!   of a run), which is what makes a sharded run with per-shard transports
//!   reproduce the single-transport execution exactly.
//!
//! The wheel is a ring of 64 per-round batches covering the arrival
//! rounds `base..base + 64`, where `base` is the first round not yet
//! drained, plus an ordered overflow map for arrivals outside that window
//! (large fixed delays, wide jitter). `base` only grows, so every overflow
//! wire due at round `r` was transmitted — and numbered — before any ring
//! wire due at `r`: draining a round's overflow batch before its ring batch
//! keeps the (arrival, sequence) order.
//!
//! Batches are recycled rather than kept in place: a drained ring batch
//! goes onto a spare list with its capacity, and a ring slot that has none
//! takes a spare before it allocates. The wheel therefore holds about as
//! many batches as rounds in flight (two under unit delay) instead of
//! growing all 64 slots to the largest round's traffic, and steady state
//! still allocates nothing.

use crate::report::LinkDelay;
use crate::Round;
use ccq_graph::NodeId;
use std::collections::{BTreeMap, HashMap};

/// A message in flight.
#[derive(Debug)]
pub struct Wire<M> {
    /// Sender.
    pub src: NodeId,
    /// Destination.
    pub dst: NodeId,
    /// Round at which it arrives at the destination's in-port.
    pub arrival: Round,
    /// Global transmission sequence number (1-based; merge/jitter key).
    pub seq: u64,
    /// Payload.
    pub msg: M,
}

/// Arrival rounds the ring covers; farther arrivals wait in the overflow.
const RING: Round = 64;

/// Scheduler of in-flight messages under one delay policy.
#[derive(Debug)]
pub struct Transport<M> {
    delay: LinkDelay,
    /// First arrival round not yet drained: the ring's window start.
    base: Round,
    /// `ring[r % RING]` holds the wires arriving at round `r` for `r` in
    /// `base..base + RING`, in transmission (= sequence) order. A drained
    /// slot hands its batch to `spare`.
    ring: Vec<Vec<Wire<M>>>,
    /// Empty batches with capacity, taken by ring slots that have none.
    spare: Vec<Vec<Wire<M>>>,
    /// Number of wires in the ring.
    ring_len: usize,
    /// Wires arriving outside the ring's window, keyed by arrival round;
    /// each batch is in transmission order.
    overflow: BTreeMap<Round, Vec<Wire<M>>>,
    /// Per-directed-link last scheduled arrival (FIFO clamp under jitter).
    link_last: HashMap<(NodeId, NodeId), Round>,
}

impl<M> Transport<M> {
    /// An idle transport under `delay`.
    pub fn new(delay: LinkDelay) -> Self {
        Transport {
            delay,
            base: 0,
            ring: (0..RING).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            ring_len: 0,
            overflow: BTreeMap::new(),
            link_last: HashMap::new(),
        }
    }

    /// Place a message on the wire at `round`. `seq` is the run-global
    /// transmission sequence number: it indexes per-message delay draws
    /// and orders simultaneous arrivals.
    pub fn transmit(&mut self, src: NodeId, dst: NodeId, msg: M, round: Round, seq: u64) {
        let mut arrival = round + self.delay.delay_of(src, dst, seq);
        if self.delay.varies_per_message() {
            // FIFO per directed link: never overtake an earlier message.
            let slot = self.link_last.entry((src, dst)).or_insert(0);
            arrival = arrival.max(*slot);
            *slot = arrival;
        }
        let wire = Wire { src, dst, arrival, seq, msg };
        if arrival >= self.base && arrival - self.base < RING {
            let slot = &mut self.ring[(arrival % RING) as usize];
            if slot.capacity() == 0 {
                if let Some(batch) = self.spare.pop() {
                    *slot = batch;
                }
            }
            slot.push(wire);
            self.ring_len += 1;
        } else {
            self.overflow.entry(arrival).or_default().push(wire);
        }
    }

    /// Remove and yield every wire due at or before `round`, in
    /// (arrival round, sequence) order.
    pub fn drain_due(&mut self, round: Round, mut sink: impl FnMut(Wire<M>)) {
        loop {
            let far = self.overflow.first_key_value().map(|(&r, _)| r);
            // The earliest round that may hold wires. With the ring empty
            // an idle gap is skipped in one step.
            let next = match (self.ring_len > 0, far) {
                (true, Some(f)) => f.min(self.base),
                (true, None) => self.base,
                (false, Some(f)) => f,
                (false, None) => break,
            };
            if next > round {
                break;
            }
            if far == Some(next) {
                for w in self.overflow.remove(&next).expect("checked key") {
                    sink(w);
                }
            }
            if next >= self.base {
                let mut batch = std::mem::take(&mut self.ring[(next % RING) as usize]);
                self.ring_len -= batch.len();
                for w in batch.drain(..) {
                    sink(w);
                }
                if batch.capacity() > 0 {
                    self.spare.push(batch);
                }
                if next == Round::MAX {
                    break;
                }
                self.base = next + 1;
            }
        }
        if self.ring_len == 0 {
            // Nothing is due before `round + 1`: move the window there so
            // the next round's transmissions land in the ring.
            self.base = self.base.max(round.saturating_add(1));
        }
    }

    /// Rewrite the sequence number of every in-flight wire through `f`.
    /// The wavefront executor uses this at a wave commit to replace the
    /// provisional in-wave sequence keys with the true run-global numbers;
    /// the mapping must be order-preserving within each arrival batch
    /// (batches stay in transmission order and are never re-sorted).
    pub fn remap_seqs(&mut self, mut f: impl FnMut(u64) -> u64) {
        for batch in self.overflow.values_mut().chain(self.ring.iter_mut()) {
            for w in batch.iter_mut() {
                w.seq = f(w.seq);
            }
        }
    }

    /// Whether nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.ring_len == 0 && self.overflow.is_empty()
    }

    /// Read-only view of every in-flight wire, batch by batch in
    /// transmission order; the batch order is stable but not by arrival.
    /// The probe layer's canonical-state renderer merges and re-sorts
    /// wires across transports, so the per-transport order here only
    /// needs to be stable.
    pub fn wires(&self) -> impl Iterator<Item = &Wire<M>> {
        self.overflow.values().chain(self.ring.iter()).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(t: &mut Transport<u32>, round: Round) -> Vec<(NodeId, u64, u32)> {
        let mut out = Vec::new();
        t.drain_due(round, |w| out.push((w.dst, w.seq, w.msg)));
        out
    }

    #[test]
    fn unit_delay_schedules_next_round() {
        let mut t: Transport<u32> = Transport::new(LinkDelay::Unit);
        t.transmit(0, 1, 7, 3, 1);
        t.drain_due(3, |_| panic!("not due at transmit round"));
        assert_eq!(arrivals(&mut t, 4), vec![(1, 1, 7)]);
        assert!(t.is_idle());
    }

    #[test]
    fn drain_is_arrival_then_sequence_ordered() {
        let mut t: Transport<u32> = Transport::new(LinkDelay::Fixed { delay: 2 });
        t.transmit(0, 1, 10, 0, 1); // arrives at 2
        t.transmit(0, 2, 11, 1, 2); // arrives at 3
        t.transmit(1, 2, 12, 0, 3); // arrives at 2 — later seq, same round
        assert_eq!(arrivals(&mut t, 3), vec![(1, 1, 10), (2, 3, 12), (2, 2, 11)]);
    }

    /// The wheel against a plain `BTreeMap<arrival, batch>` model under
    /// every delay policy: random traffic on a small graph, rounds that
    /// mostly step by one but sometimes jump (idle fast-forwards, and gaps
    /// with wires still in flight), and a final `drain_due(u64::MAX)`.
    /// Every drain yields the model's wires in the same order, and the
    /// in-flight set and idleness agree after each round.
    #[test]
    fn ring_and_overflow_match_a_btreemap_model() {
        type Key = (Round, u64, NodeId, NodeId, u32);
        let policies = [
            LinkDelay::Unit,
            LinkDelay::Fixed { delay: 1000 },
            LinkDelay::PerLink { max: 90, seed: 5 },
            LinkDelay::Jitter { max: 3, seed: 7 },
            LinkDelay::Jitter { max: u64::MAX / 2, seed: 9 },
        ];
        let mut x: u64 = 0x853c49e6748fea9b;
        let mut rand = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        for (case, delay) in policies.iter().cycle().take(20).enumerate() {
            let mut t: Transport<u32> = Transport::new(*delay);
            let mut model: BTreeMap<Round, Vec<Key>> = BTreeMap::new();
            let mut link_last: HashMap<(NodeId, NodeId), Round> = HashMap::new();
            let (mut round, mut seq) = (0, 0u64);
            for _ in 0..400 {
                round += match rand(10) {
                    0 => 64 + rand(5000),
                    1 => 2 + rand(70),
                    _ => 1,
                };
                let mut got = Vec::new();
                t.drain_due(round, |w| got.push((w.arrival, w.seq, w.src, w.dst, w.msg)));
                let mut want = Vec::new();
                while model.first_key_value().is_some_and(|(&r, _)| r <= round) {
                    want.extend(model.pop_first().expect("nonempty").1);
                }
                assert_eq!(got, want, "case {case} ({delay:?}), drain at round {round}");
                for _ in 0..rand(12) {
                    let (src, dst) = (rand(6) as NodeId, rand(6) as NodeId);
                    seq += 1;
                    let msg = seq as u32;
                    t.transmit(src, dst, msg, round, seq);
                    let mut arrival = round + delay.delay_of(src, dst, seq);
                    if delay.varies_per_message() {
                        let last = link_last.entry((src, dst)).or_insert(0);
                        arrival = arrival.max(*last);
                        *last = arrival;
                    }
                    model.entry(arrival).or_default().push((arrival, seq, src, dst, msg));
                }
                let mut inflight: Vec<Key> =
                    t.wires().map(|w| (w.arrival, w.seq, w.src, w.dst, w.msg)).collect();
                inflight.sort_unstable();
                let want: Vec<Key> = model.values().flatten().copied().collect();
                assert_eq!(inflight, want, "case {case} ({delay:?}), in flight at round {round}");
                assert_eq!(t.is_idle(), model.is_empty());
            }
            let mut got = Vec::new();
            t.drain_due(u64::MAX, |w| got.push((w.arrival, w.seq, w.src, w.dst, w.msg)));
            let want: Vec<Key> = std::mem::take(&mut model).into_values().flatten().collect();
            assert_eq!(got, want, "case {case} ({delay:?}), final drain");
            assert!(t.is_idle());
            t.drain_due(u64::MAX, |_| panic!("nothing left in flight"));
        }
    }

    /// Steady traffic keeps only the batches of the rounds in flight:
    /// every round's arrivals are drained into the spare list and reused,
    /// so the ring never grows a slot per round of the window.
    #[test]
    fn drained_batches_are_recycled() {
        for delay in [1, 3] {
            let policy = if delay == 1 { LinkDelay::Unit } else { LinkDelay::Fixed { delay } };
            let mut t: Transport<u32> = Transport::new(policy);
            let held = |t: &Transport<u32>| {
                t.ring.iter().filter(|b| b.capacity() > 0).count() + t.spare.len()
            };
            let (mut seq, mut drained) = (0u64, 0u64);
            for round in 0..500 {
                t.drain_due(round, |w| {
                    assert_eq!(w.arrival, round);
                    drained += 1;
                });
                assert!(held(&t) as u64 <= delay + 1, "{policy:?} round {round}: {}", held(&t));
                for i in 0..1 + round % 7 {
                    seq += 1;
                    t.transmit(i as NodeId, i as NodeId + 1, seq as u32, round, seq);
                }
                assert!(held(&t) as u64 <= delay + 1, "{policy:?} round {round}: {}", held(&t));
            }
            t.drain_due(Round::MAX, |_| drained += 1);
            assert_eq!(drained, seq);
        }
    }

    #[test]
    fn jitter_clamp_preserves_link_fifo() {
        let mut t: Transport<u32> = Transport::new(LinkDelay::Jitter { max: 9, seed: 3 });
        for seq in 1..=20 {
            t.transmit(0, 1, seq as u32, seq, seq);
        }
        let mut seen = Vec::new();
        t.drain_due(Round::MAX - 1, |w| seen.push(w.msg));
        assert_eq!(seen, (1..=20).collect::<Vec<u32>>());
    }
}
