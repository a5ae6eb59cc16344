//! Reliable per-link delivery: sequence numbers, cumulative acks, and
//! timeout retransmission with capped exponential backoff.
//!
//! The artifact's UDP fabric has no delivery guarantee — §5.4's cooldown
//! counters exist precisely to keep switch buffers from overflowing,
//! because one lost `last` marker permanently deadlocks chained sync
//! (§4.4). This layer closes that hazard: each *(channel, src, dst)*
//! link runs one [`LinkSender`]/[`LinkReceiver`] pair giving
//! exactly-once, in-order delivery under any finite fault schedule.
//!
//! The protocol is deliberately simple so its timing is deterministic
//! and engine-invariant:
//!
//! * the sender assigns sequence numbers from 1 and keeps every unacked
//!   packet buffered; on timeout it retransmits the **oldest** unacked
//!   packet (head-of-line stop-and-wait recovery) and doubles the
//!   timeout, capped at [`RelConfig::backoff_cap`];
//! * acks are cumulative ("everything ≤ `seq` received"), so a single
//!   surviving ack repairs the loss of any number of earlier acks;
//! * the receiver delivers in order, buffers ahead-of-sequence arrivals
//!   in a reorder window, and counts/discards duplicates.
//!
//! Convergence: any finite fault schedule stops injecting after some
//! transmission count N; after N the first timeout-driven retransmission
//! of the head packet gets through, the cumulative ack gets through
//! (possibly via later acks), and the window drains. Progress never
//! depends on a specific packet surviving, only on *some* transmission
//! eventually surviving — which infinitely-retrying timeouts guarantee.

use std::collections::BTreeMap;

/// Retransmission tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RelConfig {
    /// Initial retransmission timeout in cycles: time from a packet's
    /// (re)transmission until the sender gives up waiting for its ack.
    /// Must exceed the round-trip (fabric latency × 2 + ack processing)
    /// or every packet retransmits spuriously.
    pub timeout: u64,
    /// Backoff cap: the doubled timeout never exceeds this.
    pub backoff_cap: u64,
}

impl RelConfig {
    /// Defaults sized for the paper topologies (switch latency 200,
    /// hyper-ring hops ≤ a few hundred cycles round-trip).
    pub const DEFAULT: RelConfig = RelConfig {
        timeout: 4_096,
        backoff_cap: 65_536,
    };

    /// Validate and normalize.
    pub fn new(timeout: u64, backoff_cap: u64) -> Self {
        assert!(timeout > 0, "timeout must be positive");
        RelConfig {
            timeout,
            backoff_cap: backoff_cap.max(timeout),
        }
    }
}

impl Default for RelConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// One unacked in-flight packet.
#[derive(Clone, Debug)]
struct Inflight<T> {
    seq: u32,
    payload: T,
    /// Cycle at which the current wait expires.
    deadline: u64,
    /// Current timeout length (doubles per retransmission).
    timeout: u64,
    /// Retransmissions so far.
    attempts: u32,
}

/// Sender half of one reliable link.
#[derive(Clone, Debug)]
pub struct LinkSender<T> {
    cfg: RelConfig,
    next_seq: u32,
    window: BTreeMap<u32, Inflight<T>>,
    /// Total retransmissions performed.
    pub retransmits: u64,
    /// Acks processed (including stale ones).
    pub acks_seen: u64,
}

impl<T: Clone> LinkSender<T> {
    /// New sender.
    pub fn new(cfg: RelConfig) -> Self {
        LinkSender {
            cfg,
            next_seq: 1,
            window: BTreeMap::new(),
            retransmits: 0,
            acks_seen: 0,
        }
    }

    /// Assign the next sequence number to a fresh payload and start its
    /// retransmission clock at `now`. Returns the assigned sequence.
    pub fn launch(&mut self, now: u64, payload: T) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window.insert(
            seq,
            Inflight {
                seq,
                payload,
                deadline: now + self.cfg.timeout,
                timeout: self.cfg.timeout,
                attempts: 0,
            },
        );
        seq
    }

    /// Process a cumulative ack: everything ≤ `seq` is delivered.
    /// Returns the number of packets retired. Progress resets the head
    /// packet's backoff to the base timeout (the link is alive again).
    pub fn on_ack(&mut self, now: u64, seq: u32) -> usize {
        self.acks_seen += 1;
        let retired: Vec<u32> = self
            .window
            .range(..=seq)
            .map(|(s, _)| *s)
            .collect();
        for s in &retired {
            self.window.remove(s);
        }
        if !retired.is_empty() {
            if let Some(head) = self.window.values_mut().next() {
                head.timeout = self.cfg.timeout;
                head.deadline = now + self.cfg.timeout;
                head.attempts = 0;
            }
        }
        retired.len()
    }

    /// If the oldest unacked packet's timeout expired at `now`, arm its
    /// retransmission: double its timeout (capped), bump its attempt
    /// count, and return a clone of the payload plus its sequence and
    /// attempt number. Head-of-line only — one retransmission per call.
    pub fn poll_retransmit(&mut self, now: u64) -> Option<(u32, T, u32)> {
        let cap = self.cfg.backoff_cap;
        let head = self.window.values_mut().next()?;
        if now < head.deadline {
            return None;
        }
        head.attempts += 1;
        head.timeout = (head.timeout * 2).min(cap);
        head.deadline = now + head.timeout;
        self.retransmits += 1;
        Some((head.seq, head.payload.clone(), head.attempts))
    }

    /// Earliest retransmission deadline among unacked packets, if any.
    /// Fast-forward and burst windows must not jump past this.
    #[inline]
    pub fn next_retx_due(&self) -> Option<u64> {
        self.window.values().next().map(|p| p.deadline)
    }

    /// True when at least one packet has been retransmitted and is still
    /// unacked (used for `retransmit` stall attribution).
    #[inline]
    pub fn retransmitting(&self) -> bool {
        self.window.values().next().is_some_and(|p| p.attempts > 0)
    }

    /// Unacked packets in flight.
    #[inline]
    pub fn inflight(&self) -> usize {
        self.window.len()
    }

    /// Current head-of-line timeout (base timeout when idle). Only tests
    /// call it: `fuzz.rs` checks the backoff, its cap and its snapshot.
    pub fn current_timeout(&self) -> u64 {
        self.window
            .values()
            .next()
            .map_or(self.cfg.timeout, |p| p.timeout)
    }
}

/// What [`LinkReceiver::accept`] decided about an arrival.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Accept<T> {
    /// In-order (possibly draining the reorder buffer): deliver these
    /// payloads to the application, then ack `cumulative`.
    Deliver {
        /// Payloads now deliverable, in sequence order.
        payloads: Vec<(u32, T)>,
        /// Highest in-order sequence received (the cumulative ack).
        cumulative: u32,
    },
    /// Ahead of sequence: buffered in the reorder window; re-ack the
    /// current cumulative point so the sender retransmits the gap.
    Buffered {
        /// Current cumulative ack to (re)send.
        cumulative: u32,
    },
    /// Already delivered: discard, but re-ack (the original ack may have
    /// been lost).
    Duplicate {
        /// Current cumulative ack to (re)send.
        cumulative: u32,
    },
}

/// Receiver half of one reliable link.
#[derive(Clone, Debug)]
pub struct LinkReceiver<T> {
    /// Next sequence expected in order.
    next_seq: u32,
    /// Ahead-of-sequence arrivals awaiting the gap fill.
    reorder: BTreeMap<u32, T>,
    /// Duplicate arrivals discarded.
    pub duplicates: u64,
    /// Packets delivered to the application.
    pub delivered: u64,
}

impl<T> LinkReceiver<T> {
    /// New receiver expecting sequence 1.
    pub fn new() -> Self {
        LinkReceiver {
            next_seq: 1,
            reorder: BTreeMap::new(),
            duplicates: 0,
            delivered: 0,
        }
    }

    /// Highest in-order sequence received so far.
    pub fn cumulative(&self) -> u32 {
        self.next_seq - 1
    }

    /// Packets parked in the reorder window. Only tests call it, to check
    /// the window drains once a gap fills.
    pub fn reordered(&self) -> usize {
        self.reorder.len()
    }

    /// Classify one arrival and drain the reorder window if it fills
    /// the gap.
    pub fn accept(&mut self, seq: u32, payload: T) -> Accept<T> {
        if seq < self.next_seq {
            self.duplicates += 1;
            return Accept::Duplicate {
                cumulative: self.cumulative(),
            };
        }
        if seq > self.next_seq {
            // Ahead of sequence; a second copy of a buffered seq is also
            // a duplicate.
            if self.reorder.insert(seq, payload).is_some() {
                self.duplicates += 1;
                return Accept::Duplicate {
                    cumulative: self.cumulative(),
                };
            }
            return Accept::Buffered {
                cumulative: self.cumulative(),
            };
        }
        // Exactly the expected sequence: deliver it plus any directly
        // following buffered packets.
        let mut payloads = vec![(seq, payload)];
        self.next_seq += 1;
        while let Some(p) = self.reorder.remove(&self.next_seq) {
            payloads.push((self.next_seq, p));
            self.next_seq += 1;
        }
        self.delivered += payloads.len() as u64;
        Accept::Deliver {
            payloads,
            cumulative: self.cumulative(),
        }
    }
}

impl<T> Default for LinkReceiver<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl fasda_ckpt::Persist for RelConfig {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        w.put_u64(self.timeout);
        w.put_u64(self.backoff_cap);
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        let timeout = r.get_u64()?;
        let backoff_cap = r.get_u64()?;
        if timeout == 0 || backoff_cap < timeout {
            return Err(r.malformed(format!(
                "invalid reliability config: timeout {timeout}, cap {backoff_cap}"
            )));
        }
        Ok(RelConfig {
            timeout,
            backoff_cap,
        })
    }
}

impl<T: fasda_ckpt::Persist> fasda_ckpt::Persist for Inflight<T> {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        w.put_u32(self.seq);
        self.payload.save(w);
        w.put_u64(self.deadline);
        w.put_u64(self.timeout);
        w.put_u32(self.attempts);
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        Ok(Inflight {
            seq: r.get_u32()?,
            payload: T::load(r)?,
            deadline: r.get_u64()?,
            timeout: r.get_u64()?,
            attempts: r.get_u32()?,
        })
    }
}

/// Checkpointing the full sender half: the retransmission window —
/// unacked payload copies, per-packet deadlines, and backoff state —
/// must survive a restore so in-flight recovery continues exactly where
/// the crashed run left it.
impl<T: fasda_ckpt::Persist> fasda_ckpt::Persist for LinkSender<T> {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        self.cfg.save(w);
        w.put_u32(self.next_seq);
        self.window.save(w);
        w.put_u64(self.retransmits);
        w.put_u64(self.acks_seen);
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        let cfg = RelConfig::load(r)?;
        let next_seq = r.get_u32()?;
        let window: BTreeMap<u32, Inflight<T>> = fasda_ckpt::Persist::load(r)?;
        for (key, inflight) in &window {
            if *key != inflight.seq || *key >= next_seq {
                return Err(r.malformed(format!(
                    "inconsistent sender window entry: key {key}, seq {}, next_seq {next_seq}",
                    inflight.seq
                )));
            }
        }
        Ok(LinkSender {
            cfg,
            next_seq,
            window,
            retransmits: r.get_u64()?,
            acks_seen: r.get_u64()?,
        })
    }
}

impl<T: fasda_ckpt::Persist> fasda_ckpt::Persist for LinkReceiver<T> {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        w.put_u32(self.next_seq);
        self.reorder.save(w);
        w.put_u64(self.duplicates);
        w.put_u64(self.delivered);
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        let next_seq = r.get_u32()?;
        if next_seq == 0 {
            return Err(r.malformed("receiver next_seq must start at 1"));
        }
        let reorder: BTreeMap<u32, T> = fasda_ckpt::Persist::load(r)?;
        if reorder.keys().next().is_some_and(|&k| k <= next_seq) {
            return Err(r.malformed("reorder window overlaps delivered prefix"));
        }
        Ok(LinkReceiver {
            next_seq,
            reorder,
            duplicates: r.get_u64()?,
            delivered: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: RelConfig = RelConfig {
        timeout: 100,
        backoff_cap: 400,
    };

    #[test]
    fn in_order_delivery_and_cumulative_ack() {
        let mut rx = LinkReceiver::new();
        match rx.accept(1, "a") {
            Accept::Deliver {
                payloads,
                cumulative,
            } => {
                assert_eq!(payloads, vec![(1, "a")]);
                assert_eq!(cumulative, 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(rx.delivered, 1);
    }

    #[test]
    fn reorder_window_drains_on_gap_fill() {
        let mut rx = LinkReceiver::new();
        assert_eq!(rx.accept(3, "c"), Accept::Buffered { cumulative: 0 });
        assert_eq!(rx.accept(2, "b"), Accept::Buffered { cumulative: 0 });
        match rx.accept(1, "a") {
            Accept::Deliver {
                payloads,
                cumulative,
            } => {
                assert_eq!(payloads, vec![(1, "a"), (2, "b"), (3, "c")]);
                assert_eq!(cumulative, 3);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(rx.reordered(), 0);
        assert_eq!(rx.delivered, 3);
    }

    #[test]
    fn duplicates_discarded_and_reacked() {
        let mut rx = LinkReceiver::new();
        rx.accept(1, "a");
        assert_eq!(rx.accept(1, "a"), Accept::Duplicate { cumulative: 1 });
        // dup of a buffered ahead-of-seq packet
        rx.accept(3, "c");
        assert_eq!(rx.accept(3, "c"), Accept::Duplicate { cumulative: 1 });
        assert_eq!(rx.duplicates, 2);
    }

    #[test]
    fn sender_retires_on_cumulative_ack() {
        let mut tx = LinkSender::new(CFG);
        assert_eq!(tx.launch(0, "a"), 1);
        assert_eq!(tx.launch(0, "b"), 2);
        assert_eq!(tx.launch(0, "c"), 3);
        assert_eq!(tx.on_ack(10, 2), 2);
        assert_eq!(tx.inflight(), 1);
        assert_eq!(tx.on_ack(11, 3), 1);
        assert_eq!(tx.inflight(), 0);
        assert_eq!(tx.next_retx_due(), None);
    }

    #[test]
    fn timeout_retransmits_head_with_backoff() {
        let mut tx = LinkSender::new(CFG);
        tx.launch(0, "a");
        tx.launch(0, "b");
        assert_eq!(tx.poll_retransmit(99), None, "not yet due");
        let (seq, payload, attempt) = tx.poll_retransmit(100).expect("due");
        assert_eq!((seq, payload, attempt), (1, "a", 1));
        assert_eq!(tx.current_timeout(), 200, "doubled");
        assert_eq!(tx.poll_retransmit(150), None, "backoff holds");
        let (_, _, attempt) = tx.poll_retransmit(300).expect("due again");
        assert_eq!(attempt, 2);
        assert_eq!(tx.current_timeout(), 400);
        // cap
        tx.poll_retransmit(700).expect("due");
        assert_eq!(tx.current_timeout(), 400, "capped");
        assert_eq!(tx.retransmits, 3);
        assert!(tx.retransmitting());
    }

    #[test]
    fn ack_progress_resets_backoff() {
        let mut tx = LinkSender::new(CFG);
        tx.launch(0, "a");
        tx.launch(0, "b");
        tx.poll_retransmit(100);
        tx.poll_retransmit(300);
        assert_eq!(tx.current_timeout(), 400);
        tx.on_ack(310, 1);
        assert_eq!(tx.current_timeout(), CFG.timeout, "head reset");
        assert!(!tx.retransmitting());
        assert_eq!(tx.next_retx_due(), Some(310 + CFG.timeout));
    }

    #[test]
    fn stale_ack_changes_nothing() {
        let mut tx = LinkSender::new(CFG);
        tx.launch(0, "a");
        tx.on_ack(5, 1);
        assert_eq!(tx.on_ack(6, 1), 0, "stale");
        assert_eq!(tx.acks_seen, 2);
    }

    /// The exactly-once property under an adversarial (finite) schedule:
    /// simulate a lossy link end-to-end and check the receiver's
    /// delivered stream.
    #[test]
    fn finite_drop_schedule_converges_to_exactly_once_in_order() {
        // Drop decisions per transmission (true = drop); finite, then
        // everything gets through.
        let schedule = [
            true, true, false, true, false, false, true, true, true, false,
        ];
        let mut tx = LinkSender::new(CFG);
        let mut rx = LinkReceiver::new();
        let mut wire: Vec<(u64, u32, &str)> = Vec::new(); // (arrival, seq, payload)
        let mut tx_count = 0usize;
        let dropped = |n: &mut usize| {
            let d = schedule.get(*n).copied().unwrap_or(false);
            *n += 1;
            d
        };
        let mut delivered: Vec<(u32, &str)> = Vec::new();
        let payloads = ["a", "b", "c", "d", "e"];
        let mut now = 0u64;
        // launch everything up front
        for p in payloads {
            let seq = tx.launch(now, p);
            if !dropped(&mut tx_count) {
                wire.push((now + 10, seq, p));
            }
        }
        // run the clock
        for _ in 0..200 {
            now += 25;
            // arrivals
            wire.retain(|&(at, seq, p)| {
                if at <= now {
                    match rx.accept(seq, p) {
                        Accept::Deliver {
                            payloads,
                            cumulative,
                        } => {
                            delivered.extend(payloads);
                            tx.on_ack(now, cumulative);
                        }
                        Accept::Buffered { cumulative } | Accept::Duplicate { cumulative } => {
                            tx.on_ack(now, cumulative);
                        }
                    }
                    false
                } else {
                    true
                }
            });
            // retransmissions (head-of-line: at most one per tick)
            if let Some((seq, p, _attempt)) = tx.poll_retransmit(now) {
                if !dropped(&mut tx_count) {
                    wire.push((now + 10, seq, p));
                }
            }
            if tx.inflight() == 0 {
                break;
            }
        }
        assert_eq!(tx.inflight(), 0, "window drained");
        assert_eq!(
            delivered,
            vec![(1, "a"), (2, "b"), (3, "c"), (4, "d"), (5, "e")],
            "exactly once, in order"
        );
    }
}
