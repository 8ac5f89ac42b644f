//! GPU steps of the spin engine (`tc_pcie::spin`).
//!
//! [`GpuThread`]'s `Processor::spin_until` runs through the shared engine,
//! which parks unchanged probes. This module supplies what is GPU-specific:
//! each step costs and charges what `load` and `instr` do — GPU counters,
//! L2 lookups, PCIe reads with their `np_read_ps` samples and link
//! occupancy. A step is steady when its device-memory load hits the L2 or
//! its PCIe read finds the link idle. Besides the bus watches on the polled
//! bytes, the L2 watches every polled line (an eviction resumes the
//! thread), and the GPU's PCIe link is watched when a load crosses it
//! (another user of the link resumes it).

use std::rc::Rc;

use tc_desim::Time;
use tc_mem::Bus;
use tc_pcie::spin::{Op, Plan, Run, Spinner};
use tc_pcie::ProbeLoad;

use crate::thread::{GpuThread, Issued};

impl Spinner for GpuThread {
    fn bus(&self) -> &Bus {
        self.gpu().bus()
    }

    fn sends_read(&self, l: &ProbeLoad) -> bool {
        self.crosses_pcie(l.addr)
    }

    fn step(&self, plan: &Plan, op: Op, r: &mut Run) -> Time {
        let gpu = self.gpu();
        let now = gpu.sim().now();
        match op {
            Op::Issue(i) => {
                let l = &plan.loads[i].load;
                r.t0 = now;
                match self.load_issue(l.addr, l.bytes() as u64) {
                    Issued::Device { delay, hit } => {
                        r.steady &= hit;
                        delay
                    }
                    Issued::Sysmem => gpu.config().sysmem_read_extra,
                }
            }
            Op::Read(i) => {
                let ep = gpu.endpoint();
                r.steady &= ep.link().busy_until() <= now;
                r.rd = now;
                ep.read_issue(plan.loads[i].load.bytes() as u64) - now
            }
            Op::Done(i) => {
                let addr = plan.loads[i].load.addr;
                let range = plan.range(i);
                let len = range.len() as u64;
                let buf = &mut r.bytes[range];
                if plan.loads[i].sys {
                    gpu.endpoint().read_complete(r.rd, addr, buf);
                } else {
                    gpu.bus().read(addr, buf);
                }
                self.load_span(r.t0, addr, len);
                0
            }
            Op::Instr(n) => {
                self.counters().instructions.add(n);
                r.t0 = now;
                gpu.config().instr_time(n)
            }
            Op::Retire(j) => {
                self.record_exec_span(r.t0, "instr", plan.retiring(j));
                0
            }
            Op::Exit(_) | Op::Idle(_) => 0,
        }
    }

    fn charge(&self, plan: &Plan, op: Op, n: u64, last: Time) {
        let gpu = self.gpu();
        let ep = gpu.endpoint();
        match op {
            Op::Issue(i) => {
                let (l, sys) = (&plan.loads[i].load, plan.loads[i].sys);
                let len = l.bytes() as u64;
                // A parked probe's device-memory lines all hit.
                let lines = if sys { 0 } else { gpu.l2().lines(l.addr, len) };
                for (c, v) in self.issue_charges(sys, len, lines, 0) {
                    c.add(v * n);
                }
            }
            Op::Read(i) => ep.charge_skipped_reads(n, plan.loads[i].load.bytes() as u64, last),
            // A read sent on an idle link completes after `read_cost`.
            Op::Done(i) if plan.loads[i].sys => {
                let lat = ep.read_cost(plan.loads[i].load.bytes() as u64);
                ep.charge_skipped_completions(n, lat);
            }
            Op::Instr(k) => self.counters().instructions.add(k * n),
            Op::Done(_) | Op::Retire(_) | Op::Exit(_) | Op::Idle(_) => {}
        }
    }

    fn watch(&self, plan: &Plan, wake: &Rc<dyn Fn()>, unwatch: &mut Vec<Box<dyn FnOnce()>>) {
        let gpu = self.gpu();
        for l in plan.loads.iter().filter(|l| !l.sys).map(|l| &l.load) {
            let id = gpu.l2().watch(l.addr, l.bytes() as u64, wake.clone());
            let g = gpu.clone();
            unwatch.push(Box::new(move || g.l2().unwatch(id)));
        }
        if plan.loads.iter().any(|l| l.sys) {
            let link = gpu.endpoint().link().clone();
            let id = link.watch(wake.clone());
            unwatch.push(Box::new(move || link.unwatch(id)));
        }
    }
}
