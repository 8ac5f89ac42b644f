//! Host-time spans around the benchmark's calls into each simulator layer.
//!
//! A span times only the host time spent inside `poll` of the wrapped
//! call, never the time its process sits suspended in simulated time.
//! Spans nest through a per-thread stack, so a span's self time is its
//! time minus the time of the spans polled inside it. Spans are kept in
//! memory and written out when the run ends. Tracing is off unless
//! [`start`] was called; end-to-end metrics are measured with it off.

use std::cell::RefCell;
use std::fs::File;
use std::future::{poll_fn, Future};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::pin::pin;
use std::time::Instant;

use tc_desim::Sim;
use tc_mem::Addr;
use tc_pcie::Processor;

/// The simulator layer a span's call goes into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Cluster::with_nodes` and the memory, PCIe, GPU and NIC
    /// constructors it calls.
    Cluster,
    /// Wiring: `Backend::instantiate`, `messenger_pair_between`,
    /// `build_ring`.
    Connect,
    /// `Transport` calls the benchmark makes.
    Transport,
    /// `Messenger` calls, including the transport calls they make.
    Msg,
    /// `ring_allreduce_sum_u64`.
    Collective,
    /// `Processor` calls of a `GpuThread`.
    Gpu,
    /// `Processor` calls of a `CpuThread`.
    Cpu,
    /// `Sim::run`: the event loop plus the link and NIC-engine processes,
    /// which no span wraps.
    Desim,
    /// Payload seeding and verification through the `Bus`.
    Mem,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Cluster,
        Layer::Connect,
        Layer::Transport,
        Layer::Msg,
        Layer::Collective,
        Layer::Gpu,
        Layer::Cpu,
        Layer::Desim,
        Layer::Mem,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Cluster => "cluster",
            Layer::Connect => "connect",
            Layer::Transport => "transport",
            Layer::Msg => "msg",
            Layer::Collective => "collective",
            Layer::Gpu => "gpu",
            Layer::Cpu => "cpu",
            Layer::Desim => "desim",
            Layer::Mem => "mem",
        }
    }
}

/// Accumulated self time and completed calls of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub self_ns: u64,
    pub calls: u64,
}

struct Frame {
    layer: Layer,
    name: &'static str,
    span: u64,
    parent: u64,
    op: u64,
    start_ns: u64,
    child_ns: u64,
}

struct Event {
    layer: Layer,
    name: &'static str,
    span: u64,
    parent: u64,
    op: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Chrome events kept per run: enough to follow thousands of operations
/// in Perfetto without writing hundreds of megabytes. Totals count every
/// span regardless.
const MAX_EVENTS: usize = 100_000;

/// The spans of one traced run.
pub struct Recorder {
    epoch: Instant,
    stack: Vec<Frame>,
    totals: [Totals; Layer::ALL.len()],
    events: Vec<Event>,
    dropped: u64,
    next_span: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            stack: Vec::new(),
            totals: Default::default(),
            events: Vec::new(),
            dropped: 0,
            next_span: 0,
        }
    }

    fn new_span(&mut self) -> u64 {
        self.next_span += 1;
        self.next_span
    }

    /// Open one poll interval of span `span`. Without an explicit `op`
    /// the span belongs to the operation of the span it is polled in.
    fn enter(&mut self, layer: Layer, name: &'static str, span: u64, op: Option<u64>, now: u64) {
        let (parent, outer_op) = self.stack.last().map_or((0, 0), |f| (f.span, f.op));
        self.stack.push(Frame {
            layer,
            name,
            span,
            parent,
            op: op.unwrap_or(outer_op),
            start_ns: now,
            child_ns: 0,
        });
    }

    /// Close the innermost poll interval; `done` marks the call complete.
    fn exit(&mut self, now: u64, done: bool) {
        let f = self
            .stack
            .pop()
            .expect("span exit without a matching enter");
        let dur = now.saturating_sub(f.start_ns);
        let t = &mut self.totals[f.layer as usize];
        t.self_ns += dur.saturating_sub(f.child_ns);
        t.calls += u64::from(done);
        if let Some(outer) = self.stack.last_mut() {
            outer.child_ns += dur;
        }
        if self.events.len() < MAX_EVENTS {
            self.events.push(Event {
                layer: f.layer,
                name: f.name,
                span: f.span,
                parent: f.parent,
                op: f.op,
                start_ns: f.start_ns,
                dur_ns: dur,
            });
        } else {
            self.dropped += 1;
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn totals(&self, layer: Layer) -> Totals {
        self.totals[layer as usize]
    }

    /// Write the spans as Chrome trace events, loadable in Perfetto.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        write!(
            w,
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_events\":{}}},\"traceEvents\":[",
            self.dropped
        )?;
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                w.write_all(b",\n")?;
            }
            write!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"op\":{}}}}}",
                e.name,
                e.layer.name(),
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                e.span,
                e.parent,
                e.op
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread, discarding any earlier ones.
pub fn start() {
    REC.with(|r| *r.borrow_mut() = Some(Recorder::new()));
}

/// Stop recording and hand back what was recorded.
pub fn finish() -> Option<Recorder> {
    REC.with(|r| r.borrow_mut().take())
}

fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    REC.with(|r| r.borrow_mut().as_mut().map(f))
}

/// Run `f` as one span of `layer`.
pub fn timed<R>(layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
    if with(|r| {
        let span = r.new_span();
        let now = r.now();
        r.enter(layer, name, span, None, now);
    })
    .is_none()
    {
        return f();
    }
    let out = f();
    with(|r| {
        let now = r.now();
        r.exit(now, true);
    });
    out
}

/// Await `fut` as one span of `layer`, timing only its polls. `op` tags
/// the span and everything polled inside it with an operation id.
pub async fn span<F: Future>(
    layer: Layer,
    name: &'static str,
    op: Option<u64>,
    fut: F,
) -> F::Output {
    let Some(id) = with(Recorder::new_span) else {
        return fut.await;
    };
    let mut fut = pin!(fut);
    poll_fn(|cx| {
        with(|r| {
            let now = r.now();
            r.enter(layer, name, id, op, now);
        });
        let out = fut.as_mut().poll(cx);
        with(|r| {
            let now = r.now();
            r.exit(now, out.is_ready());
        });
        out
    })
    .await
}

/// A processor whose every call is a span of `layer`.
///
/// It forwards every `Processor` method, including the defaulted
/// `ld_state`/`st_state`: `CpuThread` overrides those two, so falling
/// back to the trait defaults would change simulated time.
#[derive(Clone)]
pub struct Traced<P> {
    inner: P,
    layer: Layer,
}

impl<P> Traced<P> {
    pub fn new(inner: P, layer: Layer) -> Self {
        Traced { inner, layer }
    }
}

impl<P: Processor> Processor for Traced<P> {
    fn sim(&self) -> &Sim {
        self.inner.sim()
    }

    async fn instr(&self, n: u64) {
        span(self.layer, "instr", None, self.inner.instr(n)).await
    }

    async fn ld_u64(&self, addr: Addr) -> u64 {
        span(self.layer, "ld_u64", None, self.inner.ld_u64(addr)).await
    }

    async fn st_u64(&self, addr: Addr, v: u64) {
        span(self.layer, "st_u64", None, self.inner.st_u64(addr, v)).await
    }

    async fn ld_u32(&self, addr: Addr) -> u32 {
        span(self.layer, "ld_u32", None, self.inner.ld_u32(addr)).await
    }

    async fn st_u32(&self, addr: Addr, v: u32) {
        span(self.layer, "st_u32", None, self.inner.st_u32(addr, v)).await
    }

    async fn ld_bytes(&self, addr: Addr, buf: &mut [u8]) {
        span(self.layer, "ld_bytes", None, self.inner.ld_bytes(addr, buf)).await
    }

    async fn st_bytes(&self, addr: Addr, data: &[u8]) {
        span(
            self.layer,
            "st_bytes",
            None,
            self.inner.st_bytes(addr, data),
        )
        .await
    }

    async fn fence(&self) {
        span(self.layer, "fence", None, self.inner.fence()).await
    }

    async fn ld_state(&self, addr: Addr) -> u64 {
        span(self.layer, "ld_state", None, self.inner.ld_state(addr)).await
    }

    async fn st_state(&self, addr: Addr, v: u64) {
        span(self.layer, "st_state", None, self.inner.st_state(addr, v)).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_nested_spans() {
        let mut r = Recorder::new();
        // outer [0, 100) holds inner [10, 40), which holds leaf [20, 25).
        r.enter(Layer::Msg, "send", 1, Some(7), 0);
        r.enter(Layer::Transport, "put", 2, None, 10);
        r.enter(Layer::Gpu, "ld_u64", 3, None, 20);
        r.exit(25, true);
        r.exit(40, true);
        // A second poll of the outer span, with a child, still nests.
        r.enter(Layer::Gpu, "st_u64", 4, None, 60);
        r.exit(70, false);
        r.exit(100, true);
        assert_eq!(r.totals(Layer::Gpu).self_ns, 5 + 10);
        assert_eq!(
            r.totals(Layer::Gpu).calls,
            1,
            "an unfinished poll is not a call"
        );
        assert_eq!(r.totals(Layer::Transport).self_ns, 30 - 5);
        assert_eq!(r.totals(Layer::Msg).self_ns, 100 - 30 - 10);
        assert!(r.stack.is_empty());
        // Children inherit the op id and point at their parent.
        let leaf = r.events.iter().find(|e| e.span == 3).unwrap();
        assert_eq!((leaf.parent, leaf.op), (2, 7));
    }

    #[test]
    fn untraced_spans_record_nothing() {
        assert!(finish().is_none());
        assert_eq!(timed(Layer::Mem, "x", || 3), 3);
        assert!(finish().is_none());
    }

    #[test]
    fn timed_spans_nest_on_the_live_clock() {
        start();
        timed(Layer::Desim, "run", || {
            timed(Layer::Mem, "verify", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let r = finish().unwrap();
        assert!(r.totals(Layer::Mem).self_ns >= 2_000_000);
        assert!(r.totals(Layer::Desim).self_ns < r.totals(Layer::Mem).self_ns);
        assert_eq!(r.totals(Layer::Desim).calls, 1);
    }

    #[test]
    fn traced_processors_keep_simulated_time() {
        use tc_putget::{Backend, Cluster};
        // `ld_state` is where CpuThread departs from the trait default.
        let elapsed = |traced: bool| {
            let c = Cluster::new(Backend::Extoll);
            let cpu = c.nodes[0].cpu.clone();
            let addr = c.nodes[0].host_heap.alloc(64, 64);
            let sim = c.sim.clone();
            c.sim.spawn("t", async move {
                if traced {
                    let p = Traced::new(cpu, Layer::Cpu);
                    p.st_state(addr, 1).await;
                    p.ld_state(addr).await;
                } else {
                    cpu.st_state(addr, 1).await;
                    cpu.ld_state(addr).await;
                }
                assert!(sim.now() > 0);
            });
            c.sim.run()
        };
        start();
        let traced = elapsed(true);
        let r = finish().unwrap();
        assert_eq!(traced, elapsed(false));
        assert_eq!(r.totals(Layer::Cpu).calls, 2);
    }
}
