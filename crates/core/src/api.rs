//! The unified put/get API — the library's public face.
//!
//! [`create_pair`] wires a symmetric buffer pair across the two nodes over
//! whichever backend the cluster was built with, and returns one connected
//! [`AnyTransport`] per side. Its [`Transport`](crate::transport::Transport)
//! methods are the paper's two fundamental operations (§II-B): *initiate a
//! transfer* (`put`, `get`) and *retrieve the communication status*
//! (`quiet`, `wait_arrival`).
//!
//! Every method takes the executing [`Processor`](tc_pcie::Processor), so
//! the same program can be driven by the host CPU or by a GPU thread — the
//! whole point of the paper's API analysis.

use tc_mem::Addr;

use crate::cluster::Cluster;
use crate::transport::AnyTransport;

pub use crate::transport::{CommError, QueueLoc};

/// One side of a connected symmetric-buffer pair: the transport itself.
pub type PutGetEndpoint = AnyTransport;

/// Create a connected transport pair between nodes 0 and 1 over
/// `cluster`'s backend.
///
/// `buf_a` / `buf_b` are the symmetric buffers (any mix of host and GPU
/// memory); `queue_loc` picks where Infiniband queue buffers live (ignored
/// for EXTOLL). Registration and connection setup are control-path
/// operations and are not timed. For other node pairs, call
/// [`Backend::instantiate`](crate::cluster::Backend::instantiate).
pub fn create_pair(
    cluster: &Cluster,
    buf_a: Addr,
    buf_b: Addr,
    buf_len: u64,
    queue_loc: QueueLoc,
) -> (AnyTransport, AnyTransport) {
    cluster
        .backend
        .instantiate(cluster, (0, buf_a), (1, buf_b), buf_len, queue_loc)
}
