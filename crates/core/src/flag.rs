//! The host-assisted synchronization protocol (the paper's
//! `dev2dev-assisted` configurations).
//!
//! The GPU and a CPU proxy thread share a flag word in *host* memory that is
//! mapped into the GPU's address space: the GPU requests a communication by
//! storing to the flag (a zero-copy PCIe write), the CPU polls it, performs
//! the transfer with the host API, and stores the result state back; the GPU
//! polls the flag over PCIe to find out. Every hop of this handshake crosses
//! the PCIe bus, which is why host-assisted operation beats neither pure
//! host control nor (for EXTOLL with device-memory polling) direct GPU
//! control.

use tc_mem::Addr;
use tc_pcie::{le, LoadKind, Probe, ProbeLoad, Processor};

/// Flag protocol states.
pub const IDLE: u64 = 0;
/// GPU has requested a transfer; `arg` holds its parameter.
pub const REQUEST: u64 = 1;
/// CPU has completed the transfer (locally complete).
pub const DONE: u64 = 2;
/// CPU observed arrival of remote data.
pub const ARRIVED: u64 = 3;

/// One GPU<->CPU assist channel: a flag word and an argument word in host
/// memory.
#[derive(Debug, Clone, Copy)]
pub struct AssistChannel {
    /// The flag word (host memory, GPU-mapped).
    pub flag: Addr,
    /// A 64-bit argument mailbox written by the requester.
    pub arg: Addr,
}

impl AssistChannel {
    /// Allocate a channel from a host heap.
    pub fn new(host_heap: &tc_mem::Heap) -> Self {
        AssistChannel {
            flag: host_heap.alloc(8, 64),
            arg: host_heap.alloc(8, 64),
        }
    }

    /// Requester (GPU) side: publish `arg` and raise `state`.
    pub async fn request<P: Processor>(&self, p: &P, arg: u64, state: u64) {
        p.st_u64(self.arg, arg).await;
        p.fence().await;
        p.st_u64(self.flag, state).await;
    }

    /// Requester side: spin until the flag reaches `state`, then reset it
    /// to [`IDLE`]. Returns the argument word.
    pub async fn wait_state<P: Processor>(&self, p: &P, state: u64) -> u64 {
        let flag = [ProbeLoad {
            addr: self.flag,
            kind: LoadKind::U64,
        }];
        let probe = Probe {
            loads: &flag,
            instr: 2,
            spins: None,
        };
        p.spin_until(&probe, |b| le(b) == state).await;
        let arg = p.ld_u64(self.arg).await;
        p.st_u64(self.flag, IDLE).await;
        arg
    }

    /// Server (CPU) side: probe for `state` without blocking; returns the
    /// argument if the flag matched (flag is left untouched — the server
    /// overwrites it with its response state).
    pub async fn probe<P: Processor>(&self, p: &P, state: u64) -> Option<u64> {
        let v = p.ld_u64(self.flag).await;
        p.instr(2).await;
        if v == state {
            Some(p.ld_u64(self.arg).await)
        } else {
            None
        }
    }

    /// Server side: publish a response state (and argument).
    pub async fn respond<P: Processor>(&self, p: &P, arg: u64, state: u64) {
        p.st_u64(self.arg, arg).await;
        p.fence().await;
        p.st_u64(self.flag, state).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Backend, Cluster};

    #[test]
    fn request_response_round_trip_gpu_to_cpu() {
        let c = Cluster::new(Backend::Extoll);
        let ch = AssistChannel::new(&c.nodes[0].host_heap);
        let gpu_t = c.nodes[0].gpu.thread();
        let cpu = c.nodes[0].cpu.clone();
        let sim = c.sim.clone();
        c.sim.spawn("gpu", async move {
            ch.request(&gpu_t, 1234, REQUEST).await;
            let arg = ch.wait_state(&gpu_t, DONE).await;
            assert_eq!(arg, 5678);
        });
        c.sim.spawn("cpu-proxy", async move {
            loop {
                if let Some(arg) = ch.probe(&cpu, REQUEST).await {
                    assert_eq!(arg, 1234);
                    ch.respond(&cpu, 5678, DONE).await;
                    break;
                }
                sim.delay(tc_desim::time::ns(100)).await;
            }
        });
        c.sim.run();
        // Only the NIC engine processes (requester, tx, completer, velo_tx
        // per node) remain parked on their channels.
        assert_eq!(c.sim.live_processes(), 8);
    }

    #[test]
    fn handshake_costs_pcie_crossings_for_the_gpu() {
        let c = Cluster::new(Backend::Extoll);
        let ch = AssistChannel::new(&c.nodes[0].host_heap);
        let gpu = c.nodes[0].gpu.clone();
        let gpu_t = gpu.thread();
        let cpu = c.nodes[0].cpu.clone();
        let sim = c.sim.clone();
        c.sim.spawn("gpu", async move {
            ch.request(&gpu_t, 1, REQUEST).await;
            ch.wait_state(&gpu_t, DONE).await;
        });
        c.sim.spawn("cpu-proxy", async move {
            loop {
                if ch.probe(&cpu, REQUEST).await.is_some() {
                    ch.respond(&cpu, 0, DONE).await;
                    break;
                }
                sim.delay(tc_desim::time::ns(100)).await;
            }
        });
        c.sim.run();
        let s = c.nodes[0].gpu.counters().snapshot();
        // Request = 2 stores; wait = at least one flag read + arg read.
        assert!(s.sysmem_writes >= 3, "writes = {}", s.sysmem_writes);
        assert!(s.sysmem_reads >= 2, "reads = {}", s.sysmem_reads);
    }
}
