//! Kernel launch, blocks and streams.
//!
//! The message-rate experiments (Figs. 2 and 5) compare posting work
//! requests from parallel **CUDA blocks** of one kernel against posting from
//! **concurrent kernels** on separate streams. This module provides both:
//! [`Gpu::launch`] starts a kernel of N blocks on a [`Stream`]; kernels on
//! one stream serialize, kernels on different streams overlap, and blocks
//! become resident subject to the device-wide residency limit.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use tc_desim::sync::Signal;

use crate::{Gpu, GpuThread};

/// A CUDA-stream analogue: kernels launched on the same stream run in
/// launch order.
pub struct Stream {
    gpu: Gpu,
    tail: RefCell<Rc<Cell<bool>>>,
    completion: Signal,
}

impl Stream {
    /// The GPU this stream belongs to.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    pub(crate) fn new(gpu: Gpu) -> Self {
        let done = Rc::new(Cell::new(true)); // empty stream: predecessor done
        Stream {
            completion: gpu.sim().signal(),
            gpu,
            tail: RefCell::new(done),
        }
    }

    /// Wait for every kernel launched on this stream so far to finish
    /// (`cudaStreamSynchronize`).
    pub async fn synchronize(&self) {
        let tail = self.tail.borrow().clone();
        self.completion.wait_until(|| tail.get()).await;
    }
}

/// Handle to one launched kernel.
pub struct KernelHandle {
    done: Rc<Cell<bool>>,
    completion: Signal,
}

impl KernelHandle {
    /// Wait for the kernel to finish.
    pub async fn wait(&self) {
        let done = self.done.clone();
        self.completion.wait_until(|| done.get()).await;
    }
}

impl Gpu {
    /// Launch a kernel of `blocks` blocks on `stream`. `body` is invoked
    /// once per block with `(block_idx, thread_ctx)`; the returned future is
    /// the block's device code. The launch itself is asynchronous (the
    /// caller continues immediately, like `kernel<<<...>>>` in CUDA); the
    /// kernel begins after the host-side launch overhead *and* after the
    /// previous kernel on the same stream has completed.
    pub fn launch<F, Fut>(
        &self,
        stream: &Stream,
        name: &str,
        blocks: usize,
        body: F,
    ) -> KernelHandle
    where
        F: Fn(usize, GpuThread) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        assert!(blocks > 0, "kernel needs at least one block");
        let done = Rc::new(Cell::new(false));
        let predecessor = std::mem::replace(&mut *stream.tail.borrow_mut(), done.clone());
        let completion = stream.completion.clone();
        let gpu = self.clone();
        let sim = self.sim().clone();
        let name = name.to_string();
        let handle = KernelHandle {
            done: done.clone(),
            completion: completion.clone(),
        };
        let launch_overhead = self.config().kernel_launch;
        self.sim().spawn(&format!("kernel.{name}"), async move {
            // Host launch overhead overlaps with the predecessor's execution.
            sim.delay(launch_overhead).await;
            let pred = predecessor.clone();
            completion.wait_until(|| pred.get()).await;
            // Execution-window baseline for the per-kernel histograms
            // (`gpu{n}.kernel.*`): counters now vs. at completion.
            let t_start = sim.now();
            let c = gpu.counters();
            let (instr_start, mem_start) = (c.instructions.get(), c.mem_accesses.get());
            let remaining = Rc::new(Cell::new(blocks));
            let body = Rc::new(body);
            // Warp spans of this launch group on their own recorder track.
            let track: Rc<str> = format!("gpu{}.{name}", gpu.node()).into();
            let name = Rc::<str>::from(name);
            for b in 0..blocks {
                let gpu2 = gpu.clone();
                let remaining = remaining.clone();
                let body = body.clone();
                let done = done.clone();
                let completion = completion.clone();
                let track = track.clone();
                let name = name.clone();
                sim.spawn(&format!("kernel.{name}.b{b}"), async move {
                    // Residency: blocks beyond the device limit wait.
                    gpu2.resident_slots().acquire().await;
                    body(b, GpuThread::on_track(gpu2.clone(), track.clone())).await;
                    gpu2.resident_slots().release();
                    remaining.set(remaining.get() - 1);
                    if remaining.get() == 0 {
                        let sim = gpu2.sim();
                        let c = gpu2.counters();
                        let instructions = c.instructions.get() - instr_start;
                        let m = gpu2.kernel_metrics();
                        m.instructions.record(instructions);
                        m.mem_accesses.record(c.mem_accesses.get() - mem_start);
                        m.duration_ps.record(sim.now() - t_start);
                        let rec = sim.recorder();
                        if rec.on() {
                            rec.span(
                                t_start,
                                sim.now(),
                                "gpu",
                                track.to_string(),
                                format!("kernel.{name}"),
                                vec![
                                    ("blocks", (blocks as u64).into()),
                                    ("instructions", instructions.into()),
                                ],
                            );
                        }
                        done.set(true);
                        completion.notify_all();
                    }
                });
            }
        });
        handle
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::test_gpu;
    use std::cell::RefCell;
    use std::rc::Rc;
    use tc_desim::time::us;

    #[test]
    fn kernel_runs_all_blocks() {
        let (sim, _bus, gpu) = test_gpu();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        let stream = gpu.stream();
        let g = gpu.clone();
        sim.spawn("host", async move {
            let k = g.launch(&stream, "k", 8, move |b, t| {
                let h = h.clone();
                async move {
                    t.instr(10).await;
                    h.borrow_mut().push(b);
                }
            });
            k.wait().await;
        });
        sim.run();
        let mut got = hits.borrow().clone();
        got.sort();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn kernel_pays_launch_overhead() {
        let (sim, _bus, gpu) = test_gpu();
        let stream = gpu.stream();
        let g = gpu.clone();
        let sim2 = sim.clone();
        sim.spawn("host", async move {
            let k = g.launch(&stream, "k", 1, |_b, _t| async {});
            k.wait().await;
            assert!(sim2.now() >= us(6));
        });
        sim.run();
        assert_eq!(sim.live_processes(), 0);
    }

    #[test]
    fn same_stream_kernels_serialize() {
        let (sim, _bus, gpu) = test_gpu();
        let stream = Rc::new(gpu.stream());
        let order = Rc::new(RefCell::new(Vec::new()));
        let g = gpu.clone();
        let o = order.clone();
        sim.spawn("host", async move {
            let o1 = o.clone();
            let k1 = g.launch(&stream, "k1", 1, move |_b, t| {
                let o1 = o1.clone();
                async move {
                    t.instr(1000).await;
                    o1.borrow_mut().push(1);
                }
            });
            let o2 = o.clone();
            let k2 = g.launch(&stream, "k2", 1, move |_b, t| {
                let o2 = o2.clone();
                async move {
                    t.instr(1).await;
                    o2.borrow_mut().push(2);
                }
            });
            k1.wait().await;
            k2.wait().await;
        });
        sim.run();
        // k2 is much shorter but must wait for k1 on the same stream.
        assert_eq!(*order.borrow(), vec![1, 2]);
    }

    #[test]
    fn different_streams_overlap() {
        let (sim, _bus, gpu) = test_gpu();
        let done_at = Rc::new(RefCell::new(Vec::new()));
        let g = gpu.clone();
        let d = done_at.clone();
        let sim2 = sim.clone();
        sim.spawn("host", async move {
            let s1 = g.stream();
            let s2 = g.stream();
            let k1 = g.launch(&s1, "a", 1, |_b, t| async move { t.instr(10_000).await });
            let k2 = g.launch(&s2, "b", 1, |_b, t| async move { t.instr(10_000).await });
            k1.wait().await;
            d.borrow_mut().push(sim2.now());
            k2.wait().await;
            d.borrow_mut().push(sim2.now());
        });
        sim.run();
        let d = done_at.borrow();
        // Fully overlapped: both finish at the same simulated time.
        assert_eq!(d[0], d[1]);
    }

    #[test]
    fn stream_synchronize_waits_for_tail() {
        let (sim, _bus, gpu) = test_gpu();
        let g = gpu.clone();
        let sim2 = sim.clone();
        sim.spawn("host", async move {
            let s = g.stream();
            s.synchronize().await; // empty stream: returns immediately
            let t0 = sim2.now();
            g.launch(&s, "k", 4, |_b, t| async move { t.instr(500).await });
            s.synchronize().await;
            assert!(sim2.now() > t0);
        });
        sim.run();
        assert_eq!(sim.live_processes(), 0);
    }

    #[test]
    fn kernel_completion_records_instruction_mix_histograms() {
        let (sim, _bus, gpu) = test_gpu();
        let stream = gpu.stream();
        let g = gpu.clone();
        sim.spawn("host", async move {
            let k = g.launch(&stream, "mix", 4, |_b, t| async move { t.instr(25).await });
            k.wait().await;
            let k2 = g.launch(&stream, "mix2", 1, |_b, t| async move { t.instr(7).await });
            k2.wait().await;
        });
        sim.run();
        let snap = sim.registry().snapshot();
        let h = snap
            .histogram("gpu0.kernel.instructions")
            .expect("histogram registered");
        assert_eq!(h.count, 2, "one sample per launch");
        assert_eq!(h.sum, 4 * 25 + 7);
        assert_eq!(h.max, 100);
        let d = snap.histogram("gpu0.kernel.duration_ps").unwrap();
        assert_eq!(d.count, 2);
        assert!(d.max > 0);
    }

    #[test]
    fn residency_limit_bounds_concurrency() {
        let (sim, _bus, gpu) = test_gpu();
        // Launch more blocks than the residency limit; all must complete.
        let limit = gpu.config().max_resident_blocks;
        let n = limit + 5;
        let count = Rc::new(std::cell::Cell::new(0usize));
        let c = count.clone();
        let g = gpu.clone();
        sim.spawn("host", async move {
            let s = g.stream();
            let k = g.launch(&s, "big", n, move |_b, t| {
                let c = c.clone();
                async move {
                    t.instr(100).await;
                    c.set(c.get() + 1);
                }
            });
            k.wait().await;
        });
        sim.run();
        assert_eq!(count.get(), n);
    }
}
