//! Spans recorded by the benchmark's own code around public calls into the
//! layers.  They stay in memory during the probe and are written as JSON
//! lines when it ends; the program's own `with_trace` spans are not used.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval: a name, its bounds relative to the recorder's
/// origin, the span that was open when it started, and the probed request
/// it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans for a single-threaded probe.  `enter` nests under
/// whatever span is open; `exit` closes the innermost one.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Spans opened from now on belong to request `request`.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        // Read the clock last so bookkeeping is charged to the parent.
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[id as usize].start_ns = now;
        id
    }

    /// Closes span `id` (which must be the innermost open one) and returns
    /// its duration in nanoseconds.
    pub fn exit(&mut self, id: u32) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: name, start, end, parent, request id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover (children of a single-threaded recorder never
/// overlap, and are clipped to the parent in case a clock read straddles
/// its end).  Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| spans.get(p as usize)) {
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[parent.id as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(0, None, 0, 100),     // request
            span(1, Some(0), 10, 40),  // child a
            span(2, Some(1), 15, 25),  // grandchild: charged to a, not to request
            span(3, Some(0), 50, 90),  // child b
            span(4, Some(0), 95, 120), // straddles the parent's end: clipped to 5
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 30 - 40 - 5, 20, 10, 40, 25]
        );
    }

    #[test]
    fn recorder_nests_and_tags_spans() {
        let mut rec = Recorder::new();
        rec.set_request(7);
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        let inner_ns = rec.exit(inner);
        let sibling = rec.enter("sibling");
        rec.exit(sibling);
        let outer_ns = rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[2].parent, Some(outer));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(inner_ns <= outer_ns);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let selves = self_times_ns(spans);
        assert_eq!(
            selves[0],
            outer_ns - spans[1].duration_ns() - spans[2].duration_ns()
        );
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut rec = Recorder::new();
        let a = rec.enter("a");
        let b = rec.enter("b");
        rec.exit(b);
        rec.exit(a);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("t.trace.jsonl");
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\": null") && lines[0].contains("\"name\": \"a\""));
        assert!(lines[1].contains("\"parent\": 0") && lines[1].contains("\"name\": \"b\""));
    }
}
