#![warn(missing_docs)]
//! `tc-mem` — simulated memory: sparse RAM, an address bus with MMIO
//! dispatch, bulk payloads, allocators and ring-buffer helpers.
//!
//! The workspace separates the **data plane** from the **timing plane**:
//! reads and writes through [`Bus`] move bytes instantaneously (so data
//! integrity can be tested exactly), while the *cost* of an access is charged
//! separately by the initiating model (GPU, CPU or NIC DMA engine) using the
//! `tc-pcie`/`tc-gpu` timing models. This mirrors how transaction-level
//! simulators are usually layered.
//!
//! Bulk transfers (DMA payloads, copy-engine copies) move a [`Payload`]:
//! [`Bus::snapshot`] samples it and [`Bus::write_payload`] lands it, with
//! the routing and watches of [`Bus::read`] and [`Bus::write`]. Pages
//! nobody wrote travel as zero runs, so a 64 MiB transfer of a buffer
//! whose only written page holds a marker moves one page of bytes.
//!
//! # Address map
//!
//! The whole two-node system lives in one flat 64-bit *fabric address* space;
//! [`layout`] defines the per-node windows (host DRAM, GPU DRAM, NIC BARs).

pub mod bus;
pub mod heap;
pub mod layout;
pub mod payload;
pub mod ring;
pub mod sparse;

pub use bus::{Bus, BusWatch, MmioDevice, RegionKind};
pub use heap::Heap;
pub use payload::Payload;
pub use ring::Ring;
pub use sparse::SparseMem;

/// A bus (fabric) address.
pub type Addr = u64;
