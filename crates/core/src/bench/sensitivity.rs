//! Calibration-sensitivity analysis: do the paper's qualitative orderings
//! survive large perturbations of the simulator's timing constants?
//!
//! Every absolute number in this reproduction depends on calibrated
//! parameters (PCIe round trip, GPU instruction latency, FPGA clock...).
//! The scientific claims, however, are *orderings* — host beats GPU,
//! pollOnGPU beats notifications, buffer placement barely matters. This
//! experiment re-runs the key comparisons with each headline parameter
//! halved and doubled and checks that the orderings hold, which is the
//! standard robustness argument for a simulation-backed reproduction.

use crate::cluster::ClusterConfig;

use super::pingpong::{extoll_pingpong_cfg, ib_pingpong};
use super::{ExtollMode, IbMode};

/// One perturbation of the calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// Scale the PCIe non-posted read round trip (GPU sysmem polling cost).
    PcieReadRtt(u32),
    /// Scale the GPU dependent-instruction latency.
    GpuInstr(u32),
    /// Scale the EXTOLL FPGA processing cycles.
    NicProcessing(u32),
}

impl Knob {
    /// Human-readable label (scale in percent).
    pub fn label(&self) -> String {
        match self {
            Knob::PcieReadRtt(p) => format!("PCIe read RTT x{}%", p),
            Knob::GpuInstr(p) => format!("GPU instr latency x{}%", p),
            Knob::NicProcessing(p) => format!("NIC processing x{}%", p),
        }
    }

    fn apply(&self, mut cfg: ClusterConfig) -> ClusterConfig {
        fn scale(v: u64, pct: u32) -> u64 {
            v * pct as u64 / 100
        }
        match *self {
            Knob::PcieReadRtt(p) => {
                cfg.gpu.sysmem_read_extra = scale(cfg.gpu.sysmem_read_extra, p);
            }
            Knob::GpuInstr(p) => {
                cfg.gpu.instr_cycles = scale(cfg.gpu.instr_cycles, p).max(1);
            }
            Knob::NicProcessing(p) => {
                cfg.rma.requester_cycles = scale(cfg.rma.requester_cycles, p).max(1);
                cfg.rma.completer_cycles = scale(cfg.rma.completer_cycles, p).max(1);
            }
        }
        cfg
    }
}

/// Outcome of the ordering checks under one perturbation.
#[derive(Debug, Clone)]
pub struct SensitivityResult {
    /// Which perturbation was applied.
    pub knob: String,
    /// EXTOLL: host-controlled still beats GPU-direct.
    pub extoll_host_wins: bool,
    /// EXTOLL: pollOnGPU still beats notification polling.
    pub pollongpu_wins: bool,
    /// Infiniband: host still beats GPU-driven (checked at default IB cal).
    pub ib_host_wins: bool,
}

impl SensitivityResult {
    /// True if every paper ordering held.
    pub fn all_hold(&self) -> bool {
        self.extoll_host_wins && self.pollongpu_wins && self.ib_host_wins
    }
}

/// Check the paper's orderings under one EXTOLL calibration perturbation.
pub fn check(knob: Knob, iters: u32) -> SensitivityResult {
    let cfg = knob.apply(ClusterConfig::extoll());
    let direct = extoll_pingpong_cfg(cfg.clone(), ExtollMode::Dev2DevDirect, 256, iters, 2);
    let poll = extoll_pingpong_cfg(cfg.clone(), ExtollMode::Dev2DevPollOnGpu, 256, iters, 2);
    let host = extoll_pingpong_cfg(cfg, ExtollMode::HostControlled, 256, iters, 2);
    // IB comparison runs at its own default calibration (the knobs target
    // the shared GPU model through the EXTOLL cluster; GPU knobs replay
    // identically on IB, checked once).
    let ib_gpu = ib_pingpong(IbMode::Dev2DevBufOnGpu, 256, iters.min(12), 2);
    let ib_host = ib_pingpong(IbMode::HostControlled, 256, iters.min(12), 2);
    SensitivityResult {
        knob: knob.label(),
        extoll_host_wins: host.half_rtt < direct.half_rtt,
        pollongpu_wins: poll.half_rtt < direct.half_rtt,
        ib_host_wins: ib_host.half_rtt < ib_gpu.half_rtt,
    }
}

/// The perturbations of the sweep: each headline knob at 50% and 200%.
/// Every entry is an independent sweep point (fresh clusters throughout),
/// so a job pool can evaluate them concurrently.
pub fn knobs() -> Vec<Knob> {
    let mut out = Vec::new();
    for pct in [50u32, 200] {
        out.extend([
            Knob::PcieReadRtt(pct),
            Knob::GpuInstr(pct),
            Knob::NicProcessing(pct),
        ]);
    }
    out
}

/// The perturbation sweep, serially: [`check`] for each of [`knobs`].
pub fn sweep(iters: u32) -> Vec<SensitivityResult> {
    knobs().into_iter().map(|k| check(k, iters)).collect()
}

/// Render results gathered per [`check`], in [`knobs`] order.
pub fn render(results: &[SensitivityResult]) -> String {
    let mut out =
        String::from("# extension: calibration sensitivity — do the paper's orderings survive?\n");
    out.push_str(&format!(
        "{:28} {:>18} {:>18} {:>14}\n",
        "perturbation", "EXTOLL host wins", "pollOnGPU wins", "IB host wins"
    ));
    let mut all = true;
    for r in results {
        all &= r.all_hold();
        out.push_str(&format!(
            "{:28} {:>18} {:>18} {:>14}\n",
            r.knob,
            tick(r.extoll_host_wins),
            tick(r.pollongpu_wins),
            tick(r.ib_host_wins),
        ));
    }
    out.push_str(if all {
        "All qualitative orderings hold under every 2x perturbation: the\n\
         reproduced shapes do not hinge on any single calibrated constant.\n"
    } else {
        "WARNING: at least one ordering flipped under perturbation.\n"
    });
    out
}

fn tick(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orderings_survive_halved_and_doubled_calibration() {
        for r in sweep(10) {
            assert!(r.all_hold(), "ordering flipped under {}: {r:?}", r.knob);
        }
    }

    #[test]
    fn knob_labels_are_distinct() {
        let labels: Vec<String> = [
            Knob::PcieReadRtt(50),
            Knob::GpuInstr(50),
            Knob::NicProcessing(50),
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        let mut uniq = labels.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), labels.len());
    }
}
