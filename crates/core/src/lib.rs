#![warn(missing_docs)]
//! `tc-putget` — put/get one-sided communication for thread-collaborative
//! processors, reproducing Klenk, Oden & Fröning, *Analyzing Put/Get APIs
//! for Thread-collaborative Processors* (ICPP 2014).
//!
//! The crate ties the simulated substrates together into the paper's
//! system: GPU-equipped nodes connected by EXTOLL or Infiniband (two back
//! to back in the paper, N on a switch here), with one-sided communication
//! controllable from the host CPU, from the GPU directly (GPUDirect +
//! driver patches), or through a host-assisted flag protocol.
//!
//! # Quick start
//!
//! ```
//! use tc_putget::cluster::{Backend, Cluster};
//! use tc_putget::api::{create_pair, QueueLoc};
//! use tc_putget::Transport;
//!
//! // Two nodes connected back-to-back with EXTOLL.
//! let c = Cluster::new(Backend::Extoll);
//! // A symmetric buffer pair in GPU device memory.
//! let a = c.nodes[0].gpu.alloc(4096, 256);
//! let b = c.nodes[1].gpu.alloc(4096, 256);
//! let (ep0, ep1) = create_pair(&c, a, b, 4096, QueueLoc::Host);
//! c.bus.write(a, &[7u8; 4096]);
//!
//! // GPU-controlled put from node 0 to node 1, with arrival notification.
//! let gpu = c.nodes[0].gpu.clone();
//! let cpu1 = c.nodes[1].cpu.clone();
//! c.sim.spawn("demo", async move {
//!     let t = gpu.thread();
//!     ep0.put(&t, 0, 0, 4096, true).await;
//!     ep0.quiet(&t).await.unwrap();
//!     let n = ep1.wait_arrival(&cpu1).await.unwrap();
//!     assert_eq!(n, 4096);
//! });
//! c.sim.run();
//! let mut got = vec![0u8; 4096];
//! c.bus.read(b, &mut got);
//! assert_eq!(got, vec![7u8; 4096]);
//! ```
//!
//! # Layout
//!
//! * [`cluster`] — the testbed builder (the paper's two nodes, or N).
//! * [`transport`] — the backend-agnostic transport seam: the
//!   [`transport::Transport`] trait, its EXTOLL/Infiniband
//!   implementations, and the `Backend::instantiate` factory.
//! * [`api`] — `create_pair`, the unified put/get entry point (both
//!   backends, both processors).
//! * [`collectives`] — the N-node ring all-reduce built on the one-sided
//!   API (the "GPU communication library" direction of the paper's
//!   conclusion).
//! * [`msg`] — MPI-style message passing over the transport seam: eager
//!   copies vs RDMA rendezvous, credit-based flow control, and the
//!   application patterns built on it.
//! * [`flag`] — the host-assisted GPU<->CPU flag protocol.
//! * [`mod@bench`] — drivers reproducing every figure and table of the paper.

pub mod api;
pub mod bench;
pub mod cluster;
pub mod collectives;
pub mod flag;
pub mod msg;
pub mod shard;
pub mod transport;

pub use api::{create_pair, CommError, PutGetEndpoint, QueueLoc};
pub use cluster::{Backend, Cluster, ClusterConfig, Node};
pub use msg::apps::AppKind;
pub use msg::{
    messenger_pair, messenger_pair_between, Messenger, MsgConfig, MsgDesc, RendezvousMode,
};
pub use shard::{ShardCluster, ShardPlan, WireFrame};
pub use transport::{AnyTransport, ExtollTransport, IbTransport, Transport, TransportCaps};

// Re-export the pieces users need to drive the library.
pub use tc_desim::{time, Sim};
pub use tc_gpu::{Gpu, GpuThread};
pub use tc_pcie::{CpuThread, Processor};
