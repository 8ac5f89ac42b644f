//! Causal event graph and critical-path extraction.
//!
//! The metrics in this crate answer "how much" — counters, histograms,
//! gauges. This module answers "*why* did this completion happen when it
//! did": while recording is on, the DES executor logs one **node** per
//! process poll and one **causal edge** per scheduling dependency —
//!
//! * `Spawn` — a process's first poll, caused by its spawner's node;
//! * `Wake` — a poll caused by a signal/channel notification, from the
//!   notifier's node;
//! * `Timer` — a poll caused by the process's own earlier delay, from its
//!   own previous node;
//! * `Import` — a poll of a process spawned to replay a cross-shard
//!   envelope, resolved to the *exporting* node on the sending shard;
//! * `ChanSend` (auxiliary) — a received channel message, from the node
//!   that sent it;
//! * `ObservedWrite` (auxiliary) — a memory load that first observed a
//!   tracked store, from the writer's node. This is what carries causality
//!   through the *polling* completion idioms (EXTOLL notification queues,
//!   IB completion queues, tag-poll loops): the poller's scheduling chain
//!   is pure self-timers, but the data it spins on was written by the NIC.
//!
//! Node ids are generation-safe: both node ids and process keys are
//! monotone counters that are never reused, so a process slot recycled by
//! the executor cannot alias an earlier process's nodes.
//!
//! A backward walk from any completion ([`critical_path`]) picks, at each
//! node, the dependency that *resolved last* — that dependency is what the
//! node was actually waiting for — producing a contiguous chain of
//! `[from, to]` intervals from the root to the completion whose lengths
//! sum exactly to the end-to-end latency. [`attribute`] then bins those
//! intervals by architectural layer using recorded spans.
//!
//! Like the [`crate::Recorder`], the log only observes — it never awaits,
//! delays or schedules — so enabling it cannot perturb simulated time, and
//! it is disabled by default at zero cost (one branch per hook).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// A node's index in its shard's log. Monotone, never reused.
pub type NodeId = u64;

/// The primary (scheduling) cause of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cause {
    /// First poll of a process; `parent` is the spawner's node, or `None`
    /// when the spawn happened outside any process (the driver).
    Spawn {
        /// Node of the spawning process at spawn time.
        parent: Option<NodeId>,
    },
    /// Poll caused by a signal/channel notification.
    Wake {
        /// Node of the notifying process.
        waker: NodeId,
    },
    /// Poll caused by the process's own timer (delay/yield).
    Timer {
        /// The process's own previous node.
        prev: NodeId,
    },
    /// First poll of a process spawned to replay a cross-shard envelope.
    Import {
        /// The shard the envelope came from.
        src_shard: u32,
        /// Envelope sequence number within the sending shard (resolves to
        /// `exports[seq]` in that shard's [`CausalDump`]).
        seq: u64,
    },
}

/// One node: one poll of one process at one simulated instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// Simulated time of the poll, picoseconds.
    pub ts: u64,
    /// The process's causal key (monotone, never reused).
    pub proc_key: u64,
    /// The scheduling edge that made this poll happen, if known.
    pub cause: Option<Cause>,
}

/// Kind of an auxiliary (data-dependency) edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuxKind {
    /// A channel message received at `dst`, sent at `src`.
    ChanSend,
    /// A memory load at `dst` that first observed a store made at `src`.
    ObservedWrite,
}

/// An auxiliary edge; both endpoints are on the same shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuxEdge {
    /// The node that produced the data.
    pub src: NodeId,
    /// The node that consumed it.
    pub dst: NodeId,
    /// What kind of dependency this is.
    pub kind: AuxKind,
    /// The consumer had already probed this address and found nothing
    /// (a failed poll), and has only resumed from its own timers since —
    /// an uninterrupted spin loop. It was genuinely waiting for the
    /// data, not picking up something that happened to be there. In the
    /// backward walk a waited edge defeats the consumer's own `Timer`
    /// chain even when an intermediate self-resumption (the load's own
    /// latency model, the loop's compare delay) carries a later
    /// timestamp than the store. A wake from anything else (a channel
    /// receive, an import) between the failed probe and the consuming
    /// load clears the marker: a process that blocked meanwhile was not
    /// spinning, and a stale probe from a previous iteration must not
    /// hijack the walk.
    pub waited: bool,
}

#[derive(Default)]
struct LogInner {
    on: Cell<bool>,
    current: Cell<Option<NodeId>>,
    next_proc: Cell<u64>,
    nodes: RefCell<Vec<Node>>,
    aux: RefCell<Vec<AuxEdge>>,
    exports: RefCell<Vec<NodeId>>,
    marks: RefCell<Vec<(String, NodeId)>>,
    names: RefCell<BTreeMap<u64, String>>,
    /// Last tracked writer per 8-byte-aligned address. Consumed by the
    /// first load that observes it, so a spin loop records one edge per
    /// arrival, not one per probe. Never iterated, so the hash map cannot
    /// introduce nondeterminism.
    stores: RefCell<HashMap<u64, NodeId>>,
    /// Per address: the process that last probed it and found no pending
    /// store (a failed poll), plus that process's wake epoch at the time.
    /// Sets `waited` on the consuming edge when the epoch still matches
    /// (no non-timer wake in between). Never iterated.
    readers: RefCell<HashMap<u64, (u64, u64)>>,
    /// Per process: bumped every time the process is scheduled by
    /// anything other than its own timer. A spin loop is a pure timer
    /// chain, so within one the epoch is constant. Never iterated.
    epochs: RefCell<HashMap<u64, u64>>,
}

/// A shared, clonable handle to one shard's causal log. Off by default.
#[derive(Clone, Default)]
pub struct CausalLog {
    inner: Rc<LogInner>,
}

impl CausalLog {
    /// A fresh log, disabled.
    pub fn new() -> Self {
        CausalLog::default()
    }

    /// Is causal recording on? Hooks gate on this; when off every hook is
    /// one branch and no allocation.
    #[inline]
    pub fn on(&self) -> bool {
        self.inner.on.get()
    }

    /// Clear everything and start recording.
    pub fn enable(&self) {
        let i = &self.inner;
        i.nodes.borrow_mut().clear();
        i.aux.borrow_mut().clear();
        i.exports.borrow_mut().clear();
        i.marks.borrow_mut().clear();
        i.names.borrow_mut().clear();
        i.stores.borrow_mut().clear();
        i.readers.borrow_mut().clear();
        i.epochs.borrow_mut().clear();
        i.current.set(None);
        i.next_proc.set(0);
        i.on.set(true);
    }

    /// The node currently executing, if any.
    #[inline]
    pub fn current(&self) -> Option<NodeId> {
        self.inner.current.get()
    }

    /// Allocate a monotone process key and register its name.
    pub fn new_proc(&self, name: &str) -> u64 {
        let key = self.inner.next_proc.get() + 1;
        self.inner.next_proc.set(key);
        self.inner.names.borrow_mut().insert(key, name.to_string());
        key
    }

    /// Record one poll of process `proc_key` at `ts` with the scheduling
    /// cause the executor attributed to it, and make it current.
    pub fn begin_node(&self, proc_key: u64, ts: u64, cause: Option<Cause>) -> NodeId {
        let mut nodes = self.inner.nodes.borrow_mut();
        let id = nodes.len() as NodeId;
        if !matches!(cause, Some(Cause::Timer { .. })) {
            *self.inner.epochs.borrow_mut().entry(proc_key).or_insert(0) += 1;
        }
        nodes.push(Node {
            ts,
            proc_key,
            cause,
        });
        self.inner.current.set(Some(id));
        id
    }

    /// The current poll is over; loads/stores after this are untracked.
    #[inline]
    pub fn end_node(&self) {
        self.inner.current.set(None);
    }

    /// Record that the current node received a channel message sent by
    /// `src`. No-op outside a node, and ignores a `src` that does not
    /// name a live node (a sender recorded before the log was re-enabled
    /// and cleared).
    pub fn chan_edge(&self, src: NodeId) {
        if (src as usize) >= self.inner.nodes.borrow().len() {
            return;
        }
        if let Some(dst) = self.current() {
            if src != dst {
                self.inner.aux.borrow_mut().push(AuxEdge {
                    src,
                    dst,
                    kind: AuxKind::ChanSend,
                    waited: false,
                });
            }
        }
    }

    /// The current node stored to `addr` (8-byte aligned). The next load
    /// of `addr` gets an [`AuxKind::ObservedWrite`] edge from this node.
    pub fn note_store(&self, addr: u64) {
        if let Some(writer) = self.current() {
            self.inner.stores.borrow_mut().insert(addr, writer);
        }
    }

    /// The current node loaded `addr`. If a tracked store is pending
    /// there, consume it and record the observation edge; otherwise the
    /// probe failed, which marks this process as *waiting* on `addr` (the
    /// eventual observation edge gets `waited = true` if the process has
    /// only resumed from its own timers since the failed probe).
    pub fn note_load(&self, addr: u64) {
        let writer = self.inner.stores.borrow_mut().remove(&addr);
        let Some(dst) = self.current() else {
            return;
        };
        let proc = self.inner.nodes.borrow()[dst as usize].proc_key;
        let epoch = self.inner.epochs.borrow().get(&proc).copied().unwrap_or(0);
        match writer {
            Some(writer) => {
                let prober = self.inner.readers.borrow_mut().remove(&addr);
                if writer != dst {
                    self.inner.aux.borrow_mut().push(AuxEdge {
                        src: writer,
                        dst,
                        kind: AuxKind::ObservedWrite,
                        waited: prober == Some((proc, epoch)),
                    });
                }
            }
            None => {
                self.inner.readers.borrow_mut().insert(addr, (proc, epoch));
            }
        }
    }

    /// Label the current node as a completion point; [`critical_path`]
    /// starts its backward walk from a mark. No-op outside a node.
    pub fn mark(&self, label: &str) {
        if let Some(node) = self.current() {
            self.inner
                .marks
                .borrow_mut()
                .push((label.to_string(), node));
        }
    }

    /// Record that the current node exported a cross-shard envelope. Export
    /// order must match the coordinator's sequence-number assignment, so
    /// `exports[seq]` on this shard resolves `Cause::Import { seq, .. }`
    /// edges on the receiving shard.
    pub fn export_current(&self) {
        if let Some(node) = self.current() {
            self.inner.exports.borrow_mut().push(node);
        }
    }

    /// Number of recorded nodes.
    pub fn node_count(&self) -> usize {
        self.inner.nodes.borrow().len()
    }

    /// The recorded node, if it exists.
    pub fn node(&self, id: NodeId) -> Option<Node> {
        self.inner.nodes.borrow().get(id as usize).cloned()
    }

    /// The registered name of a process key.
    pub fn proc_name(&self, proc_key: u64) -> Option<String> {
        self.inner.names.borrow().get(&proc_key).cloned()
    }

    /// Take the captured graph out of the log (the log is left empty and
    /// keeps its on/off state). The dump is plain data and `Send`, so
    /// sharded runs can return one per worker and [`critical_path`] can
    /// walk across them.
    pub fn dump(&self) -> CausalDump {
        let i = &self.inner;
        i.current.set(None);
        i.stores.borrow_mut().clear();
        i.readers.borrow_mut().clear();
        i.epochs.borrow_mut().clear();
        CausalDump {
            nodes: std::mem::take(&mut *i.nodes.borrow_mut()),
            aux: std::mem::take(&mut *i.aux.borrow_mut()),
            exports: std::mem::take(&mut *i.exports.borrow_mut()),
            marks: std::mem::take(&mut *i.marks.borrow_mut()),
            names: std::mem::take(&mut *i.names.borrow_mut()),
        }
    }
}

/// One shard's captured causal graph; plain data, `Send`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CausalDump {
    /// All nodes, indexed by [`NodeId`].
    pub nodes: Vec<Node>,
    /// Auxiliary (data-dependency) edges.
    pub aux: Vec<AuxEdge>,
    /// Exported nodes, indexed by envelope sequence number.
    pub exports: Vec<NodeId>,
    /// Completion labels.
    pub marks: Vec<(String, NodeId)>,
    /// Process key → name.
    pub names: BTreeMap<u64, String>,
}

/// What kind of edge closed a critical-path interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegKind {
    /// See [`Cause::Spawn`].
    Spawn,
    /// See [`Cause::Wake`].
    Wake,
    /// See [`Cause::Timer`].
    Timer,
    /// See [`Cause::Import`].
    Import,
    /// See [`AuxKind::ChanSend`].
    ChanSend,
    /// See [`AuxKind::ObservedWrite`].
    ObservedWrite,
}

/// One hop of the critical path: the interval `[from, to]` ended at node
/// `(shard, node)` via an edge of kind `kind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathSeg {
    /// Interval start (the causing node's timestamp), picoseconds.
    pub from: u64,
    /// Interval end (this node's timestamp), picoseconds.
    pub to: u64,
    /// The edge kind that closed the interval.
    pub kind: SegKind,
    /// Shard of the destination node.
    pub shard: usize,
    /// The destination node.
    pub node: NodeId,
}

/// Resolve a mark label across dumps: the marked node with the latest
/// timestamp wins (ties go to the lowest shard, deterministically).
pub fn find_mark(dumps: &[CausalDump], label: &str) -> Option<(usize, NodeId)> {
    let mut best: Option<(u64, usize, NodeId)> = None;
    for (shard, d) in dumps.iter().enumerate() {
        for (l, n) in &d.marks {
            if l == label {
                let ts = d.nodes[*n as usize].ts;
                if best.is_none_or(|(bts, _, _)| ts > bts) {
                    best = Some((ts, shard, *n));
                }
            }
        }
    }
    best.map(|(_, s, n)| (s, n))
}

/// Extract the critical path ending at the node marked `label`.
///
/// The walk moves backward. At each node it considers every in-edge —
/// the primary scheduling cause plus any auxiliary data edges — and
/// follows the one whose source resolved *last*: that dependency is what
/// the node was actually waiting for. Ties prefer the primary cause,
/// deterministically. One exception to the timestamp rule: a `Timer`
/// primary is the process's *own* self-scheduled resumption (a poll
/// loop's load latency or compare delay), so a *waited* data edge — one
/// whose consumer had already probed the address and missed
/// ([`AuxEdge::waited`]) — defeats it outright, even when the
/// intermediate self-resumption timestamps are later than the store.
/// An incidental load of data that arrived long ago (never probed
/// before) still loses to the process's own chain by timestamp.
///
/// The result is chronological and contiguous: each segment's `from`
/// equals the previous segment's `to`, so segment lengths sum exactly to
/// `marked.ts - root.ts`.
pub fn critical_path(dumps: &[CausalDump], label: &str) -> Option<Vec<PathSeg>> {
    let (mut shard, mut node) = find_mark(dumps, label)?;
    // Auxiliary in-edges per destination node (intra-shard by
    // construction).
    let mut aux_in: HashMap<(usize, NodeId), Vec<AuxEdge>> = HashMap::new();
    for (s, d) in dumps.iter().enumerate() {
        for e in &d.aux {
            aux_in.entry((s, e.dst)).or_default().push(*e);
        }
    }
    let mut segs = Vec::new();
    loop {
        let n = &dumps[shard].nodes[node as usize];
        // (src_shard, src_node, kind); primary first so ties keep it.
        let mut candidates: Vec<(usize, NodeId, SegKind)> = Vec::new();
        match n.cause {
            Some(Cause::Spawn { parent: Some(p) }) => candidates.push((shard, p, SegKind::Spawn)),
            Some(Cause::Spawn { parent: None }) | None => {}
            Some(Cause::Wake { waker }) => candidates.push((shard, waker, SegKind::Wake)),
            Some(Cause::Timer { prev }) => candidates.push((shard, prev, SegKind::Timer)),
            Some(Cause::Import { src_shard, seq }) => {
                let src = dumps[src_shard as usize].exports[seq as usize];
                candidates.push((src_shard as usize, src, SegKind::Import));
            }
        }
        let mut waited_aux = false;
        if let Some(edges) = aux_in.get(&(shard, node)) {
            for e in edges {
                let kind = match e.kind {
                    AuxKind::ChanSend => SegKind::ChanSend,
                    AuxKind::ObservedWrite => SegKind::ObservedWrite,
                };
                waited_aux |= e.waited;
                candidates.push((shard, e.src, kind));
            }
        }
        // A waited data edge means this node was spin-polling: its own
        // timer resumption is bookkeeping, not a dependency — drop it so
        // the data edge cannot lose to the poll loop's own latency model.
        if waited_aux && matches!(n.cause, Some(Cause::Timer { .. })) {
            candidates.retain(|&(_, _, k)| k != SegKind::Timer);
        }
        // Latest-resolving dependency wins; on a timestamp tie the first
        // candidate (the primary scheduling cause) is kept.
        let src_ts = |&(s, id, _): &(usize, NodeId, SegKind)| dumps[s].nodes[id as usize].ts;
        let Some(best_ts) = candidates.iter().map(src_ts).max() else {
            break;
        };
        let (src_shard, src_node, kind) = *candidates
            .iter()
            .find(|c| src_ts(c) == best_ts)
            .expect("a candidate with the maximum timestamp exists");
        let from = dumps[src_shard].nodes[src_node as usize].ts;
        debug_assert!(from <= n.ts, "causal edge from the future");
        segs.push(PathSeg {
            from,
            to: n.ts,
            kind,
            shard,
            node,
        });
        shard = src_shard;
        node = src_node;
    }
    segs.reverse();
    Some(segs)
}

/// Count the wire crossings on a critical path: the number of distinct
/// `fabric.prop` processes (the link-layer propagation process a recorded
/// run spawns per frame, on both the serial and the envelope-replay path)
/// the path runs through.
pub fn wire_crossings(dumps: &[CausalDump], path: &[PathSeg]) -> usize {
    let mut seen: Vec<(usize, u64)> = Vec::new();
    for seg in path {
        let n = &dumps[seg.shard].nodes[seg.node as usize];
        let key = (seg.shard, n.proc_key);
        if dumps[seg.shard].names.get(&n.proc_key).map(String::as_str) == Some("fabric.prop")
            && !seen.contains(&key)
        {
            seen.push(key);
        }
    }
    seen.len()
}

/// A recorded span pre-binned to an attribution layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinSpan {
    /// Attribution bin (e.g. `"gpu"`, `"pcie"`, `"extoll"`, `"link"`).
    pub bin: String,
    /// Span start, picoseconds.
    pub start: u64,
    /// Span end, picoseconds.
    pub end: u64,
}

/// The result of binning a critical path by layer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Picoseconds attributed to each bin, in `priority` order (bins with
    /// zero time included, so the table shape is fixed).
    pub layers: Vec<(String, u64)>,
    /// Picoseconds on the path not covered by any span.
    pub stall: u64,
    /// Total path time inside the clip window (= sum of layers + stall).
    pub total: u64,
}

impl Attribution {
    /// Fraction of the total attributed to named layers (1.0 for an empty
    /// window).
    pub fn named_fraction(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        (self.total - self.stall) as f64 / self.total as f64
    }
}

/// Bin the critical path's time by layer.
///
/// Each path interval (clipped to `clip`) is partitioned into elementary
/// slices at every overlapping span boundary; each slice goes to the
/// highest-priority bin (lowest index in `priority`) with a covering
/// span, or to `stall` if no span covers it. Overlapping spans from
/// different layers (a DMA inside an NIC operation) therefore resolve
/// deterministically, and the returned `total` is exactly the clipped
/// path length.
pub fn attribute(
    path: &[PathSeg],
    spans: &[BinSpan],
    priority: &[&str],
    clip: (u64, u64),
) -> Attribution {
    let rank = |bin: &str| priority.iter().position(|p| *p == bin);
    let mut layers: Vec<(String, u64)> = priority.iter().map(|p| (p.to_string(), 0)).collect();
    let mut stall = 0u64;
    let mut total = 0u64;
    for seg in path {
        let a = seg.from.max(clip.0);
        let b = seg.to.min(clip.1);
        if a >= b {
            continue;
        }
        total += b - a;
        // Elementary slice boundaries: the interval ends plus every
        // overlapping span boundary inside it.
        let mut cuts: Vec<u64> = vec![a, b];
        let overlapping: Vec<(&BinSpan, usize)> = spans
            .iter()
            .filter(|s| s.start < b && s.end > a)
            .filter_map(|s| rank(&s.bin).map(|r| (s, r)))
            .collect();
        for (s, _) in &overlapping {
            if s.start > a && s.start < b {
                cuts.push(s.start);
            }
            if s.end > a && s.end < b {
                cuts.push(s.end);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let best = overlapping
                .iter()
                .filter(|(s, _)| s.start <= lo && s.end >= hi)
                .map(|(_, r)| *r)
                .min();
            match best {
                Some(r) => layers[r].1 += hi - lo,
                None => stall += hi - lo,
            }
        }
    }
    Attribution {
        layers,
        stall,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with_chain() -> CausalLog {
        let log = CausalLog::new();
        log.enable();
        log
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = CausalLog::new();
        assert!(!log.on());
        // Hooks are gated by callers on `on()`; direct calls outside a
        // node are no-ops too.
        log.note_store(8);
        log.note_load(8);
        log.mark("x");
        assert_eq!(log.node_count(), 0);
        assert!(log.dump().marks.is_empty());
    }

    #[test]
    fn timer_chain_walks_to_root() {
        let log = log_with_chain();
        let p = log.new_proc("worker");
        let n0 = log.begin_node(p, 0, Some(Cause::Spawn { parent: None }));
        log.end_node();
        let n1 = log.begin_node(p, 100, Some(Cause::Timer { prev: n0 }));
        log.end_node();
        log.begin_node(p, 250, Some(Cause::Timer { prev: n1 }));
        log.mark("done");
        log.end_node();
        let dump = log.dump();
        let path = critical_path(&[dump], "done").unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!((path[0].from, path[0].to), (0, 100));
        assert_eq!((path[1].from, path[1].to), (100, 250));
        assert_eq!(path[1].kind, SegKind::Timer);
    }

    #[test]
    fn observed_write_beats_spin_timer() {
        let log = log_with_chain();
        let writer = log.new_proc("nic");
        let poller = log.new_proc("poller");
        // Poller spins at t=0,10,20,...; writer lands data at t=15; the
        // probe at t=20 observes it.
        let w0 = log.begin_node(writer, 0, Some(Cause::Spawn { parent: None }));
        log.end_node();
        let p0 = log.begin_node(poller, 0, Some(Cause::Spawn { parent: None }));
        log.end_node();
        let p1 = log.begin_node(poller, 10, Some(Cause::Timer { prev: p0 }));
        log.note_load(64); // probe: nothing written yet, no edge
        log.end_node();
        let w1 = log.begin_node(writer, 15, Some(Cause::Timer { prev: w0 }));
        log.note_store(64);
        log.end_node();
        log.begin_node(poller, 20, Some(Cause::Timer { prev: p1 }));
        log.note_load(64); // observes the write: edge from w1
        log.mark("observed");
        log.end_node();
        let dump = log.dump();
        let path = critical_path(std::slice::from_ref(&dump), "observed").unwrap();
        // Last hop: ObservedWrite [15, 20], then the writer's own chain
        // [0, 15] — not the poller's spin chain.
        let last = path.last().unwrap();
        assert_eq!(last.kind, SegKind::ObservedWrite);
        assert_eq!((last.from, last.to), (15, 20));
        assert_eq!(path[0].kind, SegKind::Timer);
        assert_eq!((path[0].from, path[0].to), (0, 15));
        assert_eq!(dump.nodes[w1 as usize].proc_key, 1);
    }

    #[test]
    fn waited_observed_write_beats_later_spin_timer() {
        // A probe iteration can span several causal nodes (load delay,
        // then compare delay), so the poller's immediately-previous node
        // may resolve *later* than the store it finally observes. Having
        // probed and missed earlier, the consuming load is a real wait:
        // the data edge must still win over the self-scheduled timer.
        let log = log_with_chain();
        let writer = log.new_proc("nic");
        let poller = log.new_proc("poller");
        let w0 = log.begin_node(writer, 0, Some(Cause::Spawn { parent: None }));
        log.end_node();
        let p0 = log.begin_node(poller, 0, Some(Cause::Spawn { parent: None }));
        log.note_load(64); // probe fails: records the poller as a waiter
        log.end_node();
        let w1 = log.begin_node(writer, 8, Some(Cause::Timer { prev: w0 }));
        log.note_store(64);
        log.end_node();
        let p1 = log.begin_node(poller, 10, Some(Cause::Timer { prev: p0 }));
        log.end_node();
        log.begin_node(poller, 14, Some(Cause::Timer { prev: p1 }));
        log.note_load(64); // consumes the write; timer prev ts 10 > store ts 8
        log.mark("observed");
        log.end_node();
        let dump = log.dump();
        assert!(dump.aux.iter().any(|e| e.waited && e.src == w1));
        let path = critical_path(&[dump], "observed").unwrap();
        let last = path.last().unwrap();
        assert_eq!(last.kind, SegKind::ObservedWrite);
        assert_eq!((last.from, last.to), (8, 14));
    }

    #[test]
    fn wake_between_probe_and_consume_clears_the_wait() {
        // A daemon re-reads a pointer each iteration; a read that finds
        // no pending store is a failed probe, but if the process then
        // blocks (a channel receive — a Wake) it was not spinning. The
        // stale probe must not mark the next consume as waited, or it
        // would hijack the walk away from the real scheduling chain.
        let log = log_with_chain();
        let writer = log.new_proc("peer");
        let daemon = log.new_proc("daemon");
        log.begin_node(daemon, 0, Some(Cause::Spawn { parent: None }));
        log.note_load(64); // failed probe
        log.end_node();
        let w0 = log.begin_node(writer, 5, Some(Cause::Spawn { parent: None }));
        log.note_store(64);
        log.end_node();
        let d1 = log.begin_node(daemon, 10, Some(Cause::Wake { waker: w0 }));
        log.end_node();
        log.begin_node(daemon, 20, Some(Cause::Timer { prev: d1 }));
        log.note_load(64); // consume: the Wake at t=10 cleared the probe
        log.mark("done");
        log.end_node();
        let dump = log.dump();
        assert!(dump.aux.iter().all(|e| !e.waited));
        // Timer primary (src t=10) out-resolves the store (t=5): the
        // walk keeps the scheduling chain.
        let path = critical_path(&[dump], "done").unwrap();
        assert_eq!(path.last().unwrap().kind, SegKind::Timer);
    }

    #[test]
    fn incidental_read_keeps_own_chain() {
        let log = log_with_chain();
        let writer = log.new_proc("producer");
        let reader = log.new_proc("consumer");
        // Data written at t=5, long before the reader arrives at t=100
        // via its own busy chain — the reader was not waiting.
        log.begin_node(writer, 5, Some(Cause::Spawn { parent: None }));
        log.note_store(128);
        log.end_node();
        let r0 = log.begin_node(reader, 0, Some(Cause::Spawn { parent: None }));
        log.end_node();
        let r1 = log.begin_node(reader, 90, Some(Cause::Timer { prev: r0 }));
        log.end_node();
        log.begin_node(reader, 100, Some(Cause::Timer { prev: r1 }));
        log.note_load(128);
        log.mark("done");
        log.end_node();
        let path = critical_path(&[log.dump()], "done").unwrap();
        // Own timer chain (prev at t=90) resolved later than the write
        // (t=5): follow the timer, not the data edge.
        assert_eq!(path.last().unwrap().kind, SegKind::Timer);
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].from, 0);
    }

    #[test]
    fn consume_on_first_load_records_one_edge_per_write() {
        let log = log_with_chain();
        let w = log.new_proc("w");
        let r = log.new_proc("r");
        log.begin_node(w, 0, Some(Cause::Spawn { parent: None }));
        log.note_store(8);
        log.end_node();
        let r0 = log.begin_node(r, 10, Some(Cause::Spawn { parent: None }));
        log.note_load(8);
        log.note_load(8);
        log.end_node();
        log.begin_node(r, 20, Some(Cause::Timer { prev: r0 }));
        log.note_load(8);
        log.end_node();
        assert_eq!(log.dump().aux.len(), 1);
    }

    #[test]
    fn cross_shard_import_resolves_via_exports() {
        // Shard 0 exports at t=100; shard 1's replay process imports with
        // seq 0 and delivers at t=160.
        let l0 = log_with_chain();
        let p0 = l0.new_proc("sender");
        l0.begin_node(p0, 100, Some(Cause::Spawn { parent: None }));
        l0.export_current();
        l0.end_node();
        let l1 = log_with_chain();
        let prop = l1.new_proc("fabric.prop");
        let i0 = l1.begin_node(
            prop,
            120,
            Some(Cause::Import {
                src_shard: 0,
                seq: 0,
            }),
        );
        l1.end_node();
        l1.begin_node(prop, 160, Some(Cause::Timer { prev: i0 }));
        l1.mark("delivered");
        l1.end_node();
        let dumps = [l0.dump(), l1.dump()];
        let path = critical_path(&dumps, "delivered").unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].kind, SegKind::Import);
        assert_eq!((path[0].from, path[0].to), (100, 120));
        assert_eq!(path[0].shard, 1);
        assert_eq!(wire_crossings(&dumps, &path), 1);
    }

    #[test]
    fn path_segments_are_contiguous_and_sum_to_latency() {
        let log = log_with_chain();
        let a = log.new_proc("a");
        let b = log.new_proc("b");
        let a0 = log.begin_node(a, 0, Some(Cause::Spawn { parent: None }));
        log.end_node();
        let a1 = log.begin_node(a, 40, Some(Cause::Timer { prev: a0 }));
        log.end_node();
        log.begin_node(b, 40, Some(Cause::Wake { waker: a1 }));
        log.mark("end");
        log.end_node();
        let path = critical_path(&[log.dump()], "end").unwrap();
        let mut prev_to = None;
        let mut sum = 0;
        for seg in &path {
            if let Some(p) = prev_to {
                assert_eq!(seg.from, p);
            }
            prev_to = Some(seg.to);
            sum += seg.to - seg.from;
        }
        assert_eq!(sum, 40);
        assert_eq!(path.last().unwrap().kind, SegKind::Wake);
    }

    #[test]
    fn attribute_bins_by_priority_and_reports_stall() {
        let path = [PathSeg {
            from: 0,
            to: 100,
            kind: SegKind::Timer,
            shard: 0,
            node: 0,
        }];
        let spans = [
            BinSpan {
                bin: "gpu".into(),
                start: 0,
                end: 30,
            },
            BinSpan {
                bin: "pcie".into(),
                start: 20,
                end: 60,
            },
        ];
        let attr = attribute(&path, &spans, &["gpu", "pcie"], (0, 100));
        assert_eq!(attr.total, 100);
        // gpu covers [0,30); pcie covers the rest of its span [30,60);
        // [60,100) is uncovered.
        assert_eq!(attr.layers, vec![("gpu".into(), 30), ("pcie".into(), 30)]);
        assert_eq!(attr.stall, 40);
        assert!((attr.named_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn attribute_clips_to_window() {
        let path = [PathSeg {
            from: 0,
            to: 100,
            kind: SegKind::Timer,
            shard: 0,
            node: 0,
        }];
        let attr = attribute(&path, &[], &["gpu"], (25, 75));
        assert_eq!(attr.total, 50);
        assert_eq!(attr.stall, 50);
    }

    #[test]
    fn enable_clears_previous_capture() {
        let log = log_with_chain();
        let p = log.new_proc("x");
        log.begin_node(p, 0, None);
        log.mark("m");
        log.end_node();
        log.enable();
        assert_eq!(log.node_count(), 0);
        assert!(log.dump().marks.is_empty());
    }
}
