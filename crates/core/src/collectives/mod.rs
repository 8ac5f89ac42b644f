//! Collective operations over [`AnyTransport`](crate::transport::AnyTransport)
//! — the beginnings of the "GPU communication library" the paper's
//! conclusion gears towards.
//!
//! Everything here is built exclusively on the public one-sided API (puts
//! plus device-memory tag polling), runs on either processor, and works
//! over both backends. The [`ring`] all-reduce runs on any number of
//! nodes; at two nodes it is the paper's back-to-back testbed.

use tc_mem::Addr;
use tc_pcie::{le, LoadKind, Processor, Step};

pub mod ring;

/// Spin until the 64-bit tag at `tag` reaches `epoch`: one load, then
/// compare, branch and pointer bookkeeping (4 instructions) per probe.
pub(crate) async fn wait_tag<P: Processor>(p: &P, tag: Addr, epoch: u64) {
    let probe = [
        Step::load(tag, LoadKind::U64),
        Step::Instr(4),
        Step::Retire(None),
    ];
    p.spin_until(&probe, |b| le(b) >= epoch).await;
}
