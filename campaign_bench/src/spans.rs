//! Reads the program's existing span events (a `MemorySink` stream) into
//! raw per-kind durations, so quantiles are exact rather than bucket bounds.

use concat_obs::Event;
use std::collections::HashMap;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finished {
    /// Span kind, e.g. `"case"`.
    pub kind: &'static str,
    /// Span label, e.g. `"append"` for a journal append.
    pub label: String,
    /// Wall time in nanoseconds.
    pub nanos: u64,
    /// Kinds of every enclosing span, innermost first.
    pub ancestors: Vec<&'static str>,
}

/// The finished spans of an event stream, plus its counter totals.
#[derive(Debug, Clone, Default)]
pub struct SpanIndex {
    /// Every finished span, in end order.
    pub spans: Vec<Finished>,
    counters: HashMap<&'static str, u64>,
    /// Events the stream held.
    pub events: usize,
}

impl SpanIndex {
    /// Indexes `events`, resolving each span's ancestry through the
    /// parent links of its start event.
    pub fn new(events: &[Event]) -> SpanIndex {
        let mut started: HashMap<u64, (&'static str, Option<u64>)> = HashMap::new();
        let mut counters: HashMap<&'static str, u64> = HashMap::new();
        for event in events {
            match event {
                Event::SpanStart {
                    kind, id, parent, ..
                } => {
                    started.insert(*id, (*kind, *parent));
                }
                Event::Counter { name, delta } => *counters.entry(name).or_default() += delta,
                _ => {}
            }
        }
        let mut spans = Vec::new();
        for event in events {
            if let Event::SpanEnd {
                kind,
                label,
                id,
                nanos,
                ..
            } = event
            {
                let mut ancestors = Vec::new();
                let mut cursor = started.get(id).and_then(|(_, parent)| *parent);
                while let Some(pid) = cursor {
                    let Some((pkind, next)) = started.get(&pid) else {
                        break;
                    };
                    ancestors.push(*pkind);
                    cursor = *next;
                }
                spans.push(Finished {
                    kind,
                    label: label.clone(),
                    nanos: *nanos,
                    ancestors,
                });
            }
        }
        SpanIndex {
            spans,
            counters,
            events: events.len(),
        }
    }

    /// Raw durations of every span of `kind`.
    pub fn nanos(&self, kind: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.nanos)
            .collect()
    }

    /// Summed duration of every span of `kind`.
    pub fn busy(&self, kind: &str) -> u64 {
        self.nanos(kind).iter().sum()
    }

    /// Number of spans of `kind`.
    pub fn count(&self, kind: &str) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }

    /// Number of spans of `kind` labelled `label`.
    pub fn count_labelled(&self, kind: &str, label: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.kind == kind && s.label == label)
            .count()
    }

    /// Summed duration of every span of `kind` labelled `label`.
    pub fn busy_labelled(&self, kind: &str, label: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind && s.label == label)
            .map(|s| s.nanos)
            .sum()
    }

    /// Number of spans of `kind` nested (at any depth) under a span of
    /// `ancestor`.
    pub fn count_under(&self, kind: &str, ancestor: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.kind == kind && s.ancestors.contains(&ancestor))
            .count()
    }

    /// Total of counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}
