//! In-memory span tracing for the single-thread traced run.
//!
//! A span has a layer name, a start, an end, the span that caused it
//! and an event id. Spans are kept in memory (up to [`RETAIN`]) and
//! written out when the run ends; every span, retained or not, is
//! folded into per-layer totals as it closes. A layer's self time is
//! its span time minus the time of its child spans.
//!
//! Timer reads cost time of their own: the traced run is slower than
//! the untraced one, and that difference is reported as the tracing
//! overhead rather than corrected away.

use std::io::Write;
use std::time::Instant;

/// Spans kept in memory for the span file; later spans still count in
/// the totals.
pub const RETAIN: usize = 50_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    Decode,
    Ingest,
    ApplyCreated,
    ApplyUpdated,
    DbWrite,
    Triage,
    Predict,
    Scale,
    Mlp,
    Forest,
    Gnb,
    Aggregate,
}

pub const LAYERS: [Layer; 12] = [
    Layer::Decode,
    Layer::Ingest,
    Layer::ApplyCreated,
    Layer::ApplyUpdated,
    Layer::DbWrite,
    Layer::Triage,
    Layer::Predict,
    Layer::Scale,
    Layer::Mlp,
    Layer::Forest,
    Layer::Gnb,
    Layer::Aggregate,
];

impl Layer {
    /// The span name: `<module>.<function>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Decode => "ingest.decode",
            Layer::Ingest => "processor.ingest",
            Layer::ApplyCreated => "table.apply_created",
            Layer::ApplyUpdated => "table.apply_updated",
            Layer::DbWrite => "db.write",
            Layer::Triage => "triage.assess",
            Layer::Predict => "predict",
            Layer::Scale => "predict.scale",
            Layer::Mlp => "predict.mlp",
            Layer::Forest => "predict.forest",
            Layer::Gnb => "predict.gnb",
            Layer::Aggregate => "aggregate",
        }
    }
}

/// Running totals of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    /// Span time, children included, ns.
    pub incl_ns: u64,
    /// Span time minus child spans, ns.
    pub self_ns: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the retained list (`u32::MAX`: root
    /// or not retained).
    pub parent: u32,
    pub event: u32,
}

struct Open {
    start: Instant,
    child_ns: u64,
    span: u32,
}

pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    totals: [LayerTotals; LAYERS.len()],
    spans: Vec<Span>,
    retain: usize,
}

impl Tracer {
    pub fn new(retain: usize) -> Self {
        Self {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            totals: [LayerTotals::default(); LAYERS.len()],
            spans: Vec::with_capacity(retain),
            retain,
        }
    }

    #[inline]
    pub fn enter(&mut self, layer: Layer, event: u32) {
        let span = if self.spans.len() < self.retain {
            let parent = self.stack.last().map_or(u32::MAX, |o| o.span);
            self.spans.push(Span {
                layer,
                start_ns: 0,
                end_ns: 0,
                parent,
                event,
            });
            (self.spans.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.stack.push(Open {
            start: Instant::now(),
            child_ns: 0,
            span,
        });
    }

    /// Close the innermost span and charge it to `layer` (the caller may
    /// only know the layer once the call returns, e.g. created vs
    /// updated).
    #[inline]
    pub fn exit(&mut self, layer: Layer) {
        let end = Instant::now();
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let t = &mut self.totals[layer as usize];
        t.calls += 1;
        t.incl_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(span) = self.spans.get_mut(open.span as usize) {
            span.layer = layer;
            span.start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            span.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
    }

    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer as usize]
    }

    /// Write the retained spans as CSV: name, start, end, parent, event.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span,name,start_ns,end_ns,parent,event")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i},{},{},{},{parent},{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.event
            )?;
        }
        out.flush()
    }
}
