//! The direct recording backend: per-record mutation of an in-memory
//! [`Trace`], strings owned eagerly.
//!
//! This is the original recorder implementation, kept as the
//! *reference semantics* for the batched backend ([`crate::ring`]): the
//! replay-equivalence suite drives identical scenarios through both and
//! asserts byte-identical canonical JSON. It is also what
//! [`crate::Obs::recording_direct`] hands out, for callers that prefer
//! simplicity over hot-path throughput.

use crate::flight::{DecisionRecord, DeploymentKind, DeploymentRecord};
use crate::metrics::{Histogram, MetricKey};
use crate::span::{SpanId, SpanRecord};
use crate::trace::{EventRecord, Trace};
use crate::{unread, TraceCursor};

/// Direct-mutation recorder state: a live [`Trace`] plus the sequence
/// counter and open-span stack.
#[derive(Debug, Default)]
pub(crate) struct DirectRecorder {
    seq: u64,
    span_stack: Vec<SpanId>,
    trace: Trace,
}

impl DirectRecorder {
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    pub(crate) fn span_enter(&mut self, component: &str, name: &str, sim_time: f64) -> SpanId {
        let seq = self.next_seq();
        let id = SpanId(self.trace.spans.len() as u64);
        let parent = self.span_stack.last().copied();
        self.trace.spans.push(SpanRecord {
            id,
            parent,
            component: component.to_string(),
            name: name.to_string(),
            start: sim_time,
            end: sim_time,
            seq,
        });
        self.span_stack.push(id);
        id
    }

    pub(crate) fn span_exit(&mut self, id: SpanId, sim_time: f64) {
        if let Some(pos) = self.span_stack.iter().rposition(|&s| s == id) {
            self.span_stack.truncate(pos);
        }
        if let Some(span) = self.trace.spans.get_mut(id.0 as usize) {
            span.end = sim_time;
        }
    }

    pub(crate) fn event(
        &mut self,
        component: &str,
        name: &str,
        sim_time: f64,
        fields: &[(&str, &str)],
    ) {
        let seq = self.next_seq();
        let span = self.span_stack.last().copied();
        self.trace.events.push(EventRecord {
            seq,
            span,
            sim_time,
            component: component.to_string(),
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_decision(
        &mut self,
        component: &str,
        decision: &str,
        model_id: &str,
        model_version: u64,
        features_digest: u64,
        predicted: f64,
        observed: Option<f64>,
        verdict: &str,
        vetoed: bool,
        feedback_latency_ticks: u64,
        sim_time: f64,
    ) {
        let seq = self.next_seq();
        let span = self.span_stack.last().copied();
        self.trace.decisions.push(DecisionRecord {
            seq,
            span,
            sim_time,
            component: component.to_string(),
            decision: decision.to_string(),
            model_id: model_id.to_string(),
            model_version,
            features_digest,
            predicted,
            observed,
            verdict: verdict.to_string(),
            vetoed,
            feedback_latency_ticks,
        });
    }

    pub(crate) fn record_deployment(
        &mut self,
        component: &str,
        kind: DeploymentKind,
        model_id: &str,
        version: u64,
        cause: &str,
        sim_time: f64,
    ) {
        let seq = self.next_seq();
        let span = self.span_stack.last().copied();
        self.trace.deployments.push(DeploymentRecord {
            seq,
            span,
            sim_time,
            component: component.to_string(),
            kind,
            model_id: model_id.to_string(),
            version,
            cause: cause.to_string(),
        });
    }

    pub(crate) fn counter_add(
        &mut self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
        delta: u64,
    ) {
        self.trace
            .metrics
            .counter_add(MetricKey::new(component, name, labels), delta);
    }

    pub(crate) fn gauge_set(
        &mut self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        self.trace
            .metrics
            .gauge_set(MetricKey::new(component, name, labels), value);
    }

    pub(crate) fn histogram_observe(
        &mut self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
        bounds: Option<&[f64]>,
        value: f64,
    ) {
        let key = MetricKey::new(component, name, labels);
        match bounds {
            Some(b) => self.trace.metrics.histogram_observe(key, b, value),
            None => self
                .trace
                .metrics
                .histogram_observe(key, &Histogram::default_bounds(), value),
        }
    }

    pub(crate) fn last_event_json(&self) -> Option<String> {
        self.trace
            .events
            .last()
            .map(|e| serde_json::to_string(e).expect("event serialization is infallible"))
    }

    /// Clones only the records past `cursor` (clamped to each vector's
    /// length) plus the full metric registry. A default cursor yields the
    /// full snapshot.
    pub(crate) fn snapshot_since(&self, cursor: &TraceCursor) -> Trace {
        let t = &self.trace;
        Trace {
            spans: unread(&t.spans, cursor.spans).to_vec(),
            events: unread(&t.events, cursor.events).to_vec(),
            decisions: unread(&t.decisions, cursor.decisions).to_vec(),
            deployments: unread(&t.deployments, cursor.deployments).to_vec(),
            metrics: t.metrics.clone(),
        }
    }

    pub(crate) fn export_stream(&self, chunk_size: usize, sink: &mut dyn FnMut(&str)) {
        crate::export::to_json_stream(&self.trace, chunk_size, sink);
    }
}
