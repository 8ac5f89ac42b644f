//! Sharded cluster builds: one simulated system spread across OS threads.
//!
//! A [`ShardPlan`] (from [`Cluster::sharded`]) partitions an `n`-node
//! system into contiguous node ranges, one [`Cluster`] subset per worker
//! thread. The only interaction between nodes on different shards is
//! fabric traffic, and the fabric has a fixed one-way cable latency — so
//! that latency is the *lookahead* of a conservative parallel DES scheme
//! (Chandy–Misra style, but with a barrier window instead of null
//! messages; see `crates/desim/src/shard.rs` for the coordinator).
//!
//! The wiring is mechanical: every fabric port owned by another shard is
//! marked remote ([`tc_link::Fabric::mark_remote`]), a tap captures frames
//! addressed to those ports at serialization-complete time with their
//! absolute delivery timestamp, and the coordinator ships them as
//! [`Outgoing`] envelopes at the next window barrier. The owning shard
//! replays each envelope with [`tc_link::Fabric::inject`], which makes
//! the same timed delivery the serial path would have (a `fabric.prop`
//! process while recording is on) — the frame lands at exactly the same
//! picosecond, so per-node traffic is *byte-identical* to a serial run
//! (verified by `tests/shard_golden.rs`).

use std::cell::RefCell;
use std::rc::Rc;

use tc_desim::{Outgoing, ShardHandle, Time, WindowStat};
use tc_extoll::RmaFrame;
use tc_ib::IbFrame;

use crate::cluster::{Backend, Cluster, ClusterConfig};

/// A cross-shard fabric frame in flight: which cable it was on plus the
/// addressing the receiving shard needs to replay it.
pub enum WireFrame {
    /// A frame on the EXTOLL fabric.
    Rma {
        /// Destination fabric port (= global node index).
        dst: usize,
        /// Source fabric port.
        src: usize,
        /// Payload bytes (for the deserialize trace span).
        bytes: u64,
        /// The frame itself.
        frame: RmaFrame,
    },
    /// A frame on the Infiniband fabric.
    Ib {
        /// Destination fabric port (= global node index).
        dst: usize,
        /// Source fabric port.
        src: usize,
        /// Payload bytes (for the deserialize trace span).
        bytes: u64,
        /// The frame itself.
        frame: IbFrame,
    },
}

/// How to split one system across worker threads. Built by
/// [`Cluster::sharded`]; [`ShardPlan::run`] executes it.
pub struct ShardPlan {
    backend: Backend,
    nodes: usize,
    shards: usize,
}

impl Cluster {
    /// Plan a sharded build of an `n`-node system: `shards` workers, each
    /// owning a contiguous range of `nodes / shards` nodes. The ring and
    /// fabric are cut at link boundaries; the cable's one-way latency is
    /// the conservative lookahead. `shards == 1` degenerates to a serial
    /// build driven through the shard machinery (useful as a check).
    pub fn sharded(backend: Backend, nodes: usize, shards: usize) -> ShardPlan {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            nodes.is_multiple_of(shards),
            "{nodes} nodes do not divide into {shards} equal shards"
        );
        ShardPlan {
            backend,
            nodes,
            shards,
        }
    }
}

impl ShardPlan {
    /// The conservative lookahead: the backend's one-way cable latency,
    /// the minimum time any cross-shard interaction needs to propagate.
    pub fn lookahead(&self) -> Time {
        match self.backend {
            Backend::Extoll => tc_link::CableConfig::extoll_galibier().latency,
            Backend::Infiniband => tc_link::CableConfig::ib_fdr_4x().latency,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total node count of the planned system.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Execute the plan: spawn one worker thread per shard, build each
    /// shard's [`ShardCluster`], and run `f` on every one concurrently.
    /// Returns each shard's result, indexed by shard. A panic on any
    /// worker poisons the others and propagates.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut ShardCluster<'_>) -> T + Sync,
    {
        let (backend, nodes, shards) = (self.backend, self.nodes, self.shards);
        let lookahead = self.lookahead();
        tc_desim::run_sharded(shards, lookahead, move |handle| {
            let mut sc = ShardCluster::build(backend, nodes, shards, handle);
            f(&mut sc)
        })
    }
}

/// One worker's view of a sharded system: a [`Cluster`] subset holding
/// this shard's nodes, plus the coordinator handle that exchanges
/// cross-shard frames at window barriers.
pub struct ShardCluster<'c> {
    /// The shard-local cluster (only the owned node range is built).
    pub cluster: Cluster,
    handle: ShardHandle<'c, WireFrame>,
    staged: Rc<RefCell<Vec<Outgoing<WireFrame>>>>,
    per_shard: usize,
}

impl<'c> ShardCluster<'c> {
    fn build(
        backend: Backend,
        nodes: usize,
        shards: usize,
        handle: ShardHandle<'c, WireFrame>,
    ) -> Self {
        let per_shard = nodes / shards;
        let first = handle.index() * per_shard;
        let cfg = match backend {
            Backend::Extoll => ClusterConfig::extoll(),
            Backend::Infiniband => ClusterConfig::infiniband(),
        };
        let cluster = Cluster::with_config_subset(ClusterConfig { nodes, ..cfg }, first, per_shard);
        let staged = Rc::new(RefCell::new(Vec::new()));
        let owned = first..first + per_shard;
        for port in (0..nodes).filter(|p| !owned.contains(p)) {
            cluster.extoll_fabric.mark_remote(port);
            cluster.ib_fabric.mark_remote(port);
        }
        // Each tap also logs a causal export: staging order here equals
        // the coordinator's drain order, which assigns envelope sequence
        // numbers — so `exports[seq]` on this shard is exactly the node
        // that produced envelope `seq` (resolved by `Cause::Import` on
        // the receiving shard).
        let tap = staged.clone();
        let tap_sim = cluster.sim.clone();
        cluster.extoll_fabric.set_remote_tap(Box::new(
            move |dst, src, deliver_at, bytes, frame| {
                tap.borrow_mut().push(Outgoing {
                    dst_shard: dst / per_shard,
                    deliver_at,
                    msg: WireFrame::Rma {
                        dst,
                        src,
                        bytes,
                        frame,
                    },
                });
                tap_sim.causal_export();
            },
        ));
        let tap = staged.clone();
        let tap_sim = cluster.sim.clone();
        cluster
            .ib_fabric
            .set_remote_tap(Box::new(move |dst, src, deliver_at, bytes, frame| {
                tap.borrow_mut().push(Outgoing {
                    dst_shard: dst / per_shard,
                    deliver_at,
                    msg: WireFrame::Ib {
                        dst,
                        src,
                        bytes,
                        frame,
                    },
                });
                tap_sim.causal_export();
            }));
        ShardCluster {
            cluster,
            handle,
            staged,
            per_shard,
        }
    }

    /// Number of shards in the run.
    pub fn shards(&self) -> usize {
        self.handle.shards()
    }

    /// The global node range this shard owns.
    pub fn owned(&self) -> std::ops::Range<usize> {
        let first = self.handle.index() * self.per_shard;
        first..first + self.per_shard
    }

    /// Control-plane all-gather (see [`ShardHandle::exchange`]): publish
    /// `value`, get back every shard's contribution indexed by shard.
    /// Every shard must call this in lockstep.
    pub fn exchange<V: Clone + Send + 'static>(&mut self, value: V) -> Vec<V> {
        self.handle.exchange(value)
    }

    /// Enable causal recording on this shard (see
    /// [`Cluster::causal_enable`]). Call on every shard in the same
    /// pre-traffic position so cross-shard `Import` edges resolve.
    pub fn causal_enable(&self) {
        self.cluster.causal_enable();
    }

    /// Run this shard's simulation to global completion, exchanging
    /// cross-shard frames at lookahead-window barriers. Returns the time
    /// of the last *real* event on this shard (window-edge idling
    /// excluded), so `max` over shards equals the serial completion time.
    pub fn run(&mut self) -> Time {
        self.run_observed(|_| {})
    }

    /// Like [`ShardCluster::run`], but reports a deterministic
    /// [`WindowStat`] per executed barrier window (bounds plus exported /
    /// imported envelope counts), for per-shard telemetry series.
    pub fn run_observed(&mut self, on_window: impl FnMut(WindowStat)) -> Time {
        let sim = self.cluster.sim.clone();
        let import_sim = sim.clone();
        let extoll = self.cluster.extoll_fabric.clone();
        let ib = self.cluster.ib_fabric.clone();
        let staged = self.staged.clone();
        self.handle.run_observed(
            &sim,
            move || staged.borrow_mut().drain(..).collect(),
            move |env| {
                // With causal recording on, the next spawn (the injected
                // `fabric.prop` replay) is caused by the exporting node on
                // the producing shard.
                import_sim.causal_stage_import(env.src_shard as u32, env.seq);
                match env.msg {
                    WireFrame::Rma {
                        dst,
                        src,
                        bytes,
                        frame,
                    } => extoll.inject(dst, src, env.deliver_at, frame, bytes),
                    WireFrame::Ib {
                        dst,
                        src,
                        bytes,
                        frame,
                    } => ib.inject(dst, src, env.deliver_at, frame, bytes),
                }
            },
            on_window,
        )
    }
}
