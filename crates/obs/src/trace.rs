//! Structured traces: named, timed spans of one request.
//!
//! A [`Trace`] is deliberately a *flat list* rather than a tree — the query
//! engine's phases (plan, per-shard calls, source-side traversal/verify,
//! aggregate) are one level deep, and a flat list keeps cross-transport
//! comparison trivial: after [`Trace::canonicalize`], two runs of the same
//! request have the same span *structure* (names and sources) even though
//! the measured durations differ.
//!
//! A trace belongs to the response it comes back in, so it needs no id:
//! the spans a source measured reach it with that source's reply.

use std::fmt;
use std::time::Duration;

/// One timed phase of a traced request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Phase name, e.g. `plan`, `call`, `source_traversal`, `aggregate`.
    pub name: String,
    /// The data source this span was measured on/for, if any; `None` for
    /// center-side phases.
    pub source: Option<u16>,
    /// Measured duration.
    pub elapsed: Duration,
}

/// A trace: the spans recorded for one request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Recorded spans. Call [`Trace::canonicalize`] for a deterministic
    /// order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Records a span.
    pub fn push(&mut self, name: impl Into<String>, source: Option<u16>, elapsed: Duration) {
        self.spans.push(Span {
            name: name.into(),
            source,
            elapsed,
        });
    }

    /// Sorts spans by `(source, name)` — center-side spans (`source: None`)
    /// first — so span structure is identical across transports and worker
    /// counts regardless of completion order.
    pub fn canonicalize(&mut self) {
        self.spans
            .sort_by(|a, b| (a.source, &a.name).cmp(&(b.source, &b.name)));
    }

    /// The first span with the given name, if any.
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// All spans with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Sum of the durations of all spans with the given name.
    pub fn total_named(&self, name: &str) -> Duration {
        self.spans_named(name).map(|s| s.elapsed).sum()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace")?;
        for span in &self.spans {
            match span.source {
                Some(s) => writeln!(f, "  {:<20} source={s:<4} {:?}", span.name, span.elapsed)?,
                None => writeln!(f, "  {:<20} center      {:?}", span.name, span.elapsed)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_orders_center_spans_first_then_by_source_and_name() {
        let mut t = Trace::default();
        t.push("verify", Some(2), Duration::from_nanos(5));
        t.push("plan", None, Duration::from_nanos(1));
        t.push("call", Some(1), Duration::from_nanos(3));
        t.push("aggregate", None, Duration::from_nanos(2));
        t.canonicalize();
        let shape: Vec<(Option<u16>, &str)> = t
            .spans
            .iter()
            .map(|s| (s.source, s.name.as_str()))
            .collect();
        assert_eq!(
            shape,
            vec![
                (None, "aggregate"),
                (None, "plan"),
                (Some(1), "call"),
                (Some(2), "verify"),
            ]
        );
    }

    #[test]
    fn lookup_helpers_find_spans() {
        let mut t = Trace::default();
        t.push("call", Some(1), Duration::from_nanos(3));
        t.push("call", Some(2), Duration::from_nanos(4));
        assert_eq!(t.span("call").unwrap().source, Some(1));
        assert_eq!(t.spans_named("call").count(), 2);
        assert_eq!(t.total_named("call"), Duration::from_nanos(7));
        assert!(t.span("missing").is_none());
    }

    #[test]
    fn display_renders_one_line_per_span() {
        let mut t = Trace::default();
        t.push("plan", None, Duration::from_micros(2));
        t.push("call", Some(0), Duration::from_micros(5));
        let text = format!("{t}");
        assert!(text.starts_with("trace\n"));
        assert_eq!(text.lines().count(), 3);
    }
}
