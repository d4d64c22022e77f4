//! Bench-side span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer is wrapped in a span taken
//! with `Instant` from outside the layer. Spans carry the operation they
//! belong to and the span that was open when they started, stay in memory
//! while an episode runs, and are summarised (and the last episode written
//! out) at the end. A span's self time is its duration minus the time of
//! its child spans; children never overlap because the benchmark runs one
//! closed-loop client on one thread.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A layer of the stack, named after the crate and module it lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The root span of one operation; its self time is benchmark glue.
    Op,
    Sql,
    EngineRules,
    LearnedServing,
    EnginePhysical,
    EngineExec,
    EngineFeedback,
    ServeGateway,
    ServeAutonomy,
    Obs,
    Watchtower,
}

/// Every layer that reports per-layer metrics, in report order.
pub const LAYERS: [Layer; 10] = [
    Layer::Sql,
    Layer::EngineRules,
    Layer::LearnedServing,
    Layer::EnginePhysical,
    Layer::EngineExec,
    Layer::EngineFeedback,
    Layer::ServeGateway,
    Layer::ServeAutonomy,
    Layer::Obs,
    Layer::Watchtower,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Sql => "sql",
            Layer::EngineRules => "engine.rules",
            Layer::LearnedServing => "learned.serving",
            Layer::EnginePhysical => "engine.physical",
            Layer::EngineExec => "engine.exec",
            Layer::EngineFeedback => "engine.feedback",
            Layer::ServeGateway => "serve.gateway",
            Layer::ServeAutonomy => "serve.autonomy",
            Layer::Obs => "obs",
            Layer::Watchtower => "watchtower",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    op: u32,
    parent: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans once armed, if enabled; otherwise every wrapper is a plain
/// call. Workloads arm the tracer when their timed phase starts, so warm-up
/// calls are not counted.
pub struct Tracer {
    enabled: bool,
    armed: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    op: Cell<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            armed: Cell::new(false),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Starts recording spans (if this tracer is enabled).
    pub fn arm(&self) {
        self.armed.set(true);
    }

    fn recording(&self) -> bool {
        self.enabled && self.armed.get()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&self, layer: Layer, start_ns: u64) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let idx = u32::try_from(spans.len()).expect("fewer than 2^32 spans per episode");
        let parent = self.open.borrow().last().copied().unwrap_or(NO_PARENT);
        spans.push(Span {
            op: self.op.get(),
            parent,
            layer,
            start_ns,
            end_ns: start_ns,
        });
        self.open.borrow_mut().push(idx);
        idx
    }

    fn exit(&self, idx: u32, end_ns: u64) {
        let popped = self.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(idx), "spans close in stack order");
        self.spans.borrow_mut()[idx as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.recording() {
            return f();
        }
        let idx = self.enter(layer, self.now_ns());
        let out = f();
        self.exit(idx, self.now_ns());
        out
    }

    /// Runs one operation as a root span and returns its wall time in
    /// microseconds. The wall time is measured the same way whether or not
    /// tracing is on.
    pub fn op<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now_ns();
        let root = self.recording().then(|| self.enter(Layer::Op, start));
        let out = f();
        let end = self.now_ns();
        if let Some(idx) = root {
            self.exit(idx, end);
            self.op.set(self.op.get() + 1);
        }
        (out, (end - start) as f64 / 1e3)
    }

    /// Folds this episode's spans into `acc` and returns them for writing.
    pub fn drain_into(&self, acc: &mut LayerAccum) -> Spans {
        let spans = std::mem::take(&mut *self.spans.borrow_mut());
        assert!(self.open.borrow().is_empty(), "every span closed");
        self.op.set(0);
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, child) in spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            if s.layer == Layer::Op {
                acc.op_wall_ns += dur;
                continue;
            }
            let self_ns = dur.saturating_sub(*child);
            let l = &mut acc.layers[s.layer.index()];
            l.self_ns += self_ns;
            l.self_call_ns.push(self_ns);
        }
        Spans(spans)
    }
}

/// One episode's spans, kept so the last traced episode can be written out.
pub struct Spans(Vec<Span>);

impl Spans {
    /// Writes the spans as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.0.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                file,
                "{{\"id\":{i},\"op\":{},\"parent\":{parent},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        file.flush()
    }
}

/// Per-layer totals across the traced episodes of one run.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    pub self_ns: u64,
    pub self_call_ns: Vec<u64>,
}

#[derive(Debug, Clone)]
pub struct LayerAccum {
    pub op_wall_ns: u64,
    pub layers: Vec<LayerTotals>,
}

impl Default for LayerAccum {
    fn default() -> Self {
        Self {
            op_wall_ns: 0,
            layers: vec![LayerTotals::default(); Layer::Watchtower.index() + 1],
        }
    }
}

impl LayerAccum {
    pub fn layer(&self, layer: Layer) -> &LayerTotals {
        &self.layers[layer.index()]
    }

    /// Share of operation wall time attributed to some layer.
    pub fn coverage(&self) -> f64 {
        let attributed: u64 = LAYERS.iter().map(|l| self.layer(*l).self_ns).sum();
        attributed as f64 / self.op_wall_ns.max(1) as f64
    }
}
