//! In-memory span recorder for the traced pass. Spans are taken around
//! the benchmark's own calls into each layer; nothing inside the program
//! is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the recorder's span list; `id`
/// is shared by every span of one run or request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span list with a common time origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span to be closed by [`Recorder::close`]; children may name
    /// it as their parent meanwhile.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.ns(Instant::now());
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"index\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per span: its duration minus the part of its interval that the union
/// of its children covers (children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: (count, total ns, self ns), in name order.
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            span("run", None, 0, 100),
            span("load", Some(0), 0, 10),
            span("opt", Some(0), 20, 90),
            span("decide", Some(2), 20, 50),
            span("apply", Some(2), 50, 60),
            // Overlaps its sibling: counted once.
            span("apply", Some(2), 55, 70),
            // Sticks out of its parent: clipped.
            span("tail", Some(1), 5, 30),
        ];
        assert_eq!(self_times(&spans), vec![20, 5, 20, 30, 10, 15, 25]);
        let ledger = ledger(&spans);
        assert_eq!(ledger["apply"], (2, 25, 25));
        assert_eq!(ledger["opt"], (1, 70, 20));
        assert_eq!(ledger["run"], (1, 100, 20));
    }

    #[test]
    fn open_close_and_jsonl() {
        let mut rec = Recorder::new();
        let root = rec.open("run", 3, None);
        let t = Instant::now();
        rec.record("child", 3, Some(root), t, Instant::now());
        rec.close(root);
        let spans = rec.spans();
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[1].parent, Some(0));
        let dir = std::env::temp_dir().join(format!("asa-benchmark-spans-{}", std::process::id()));
        let path = dir.join("t.spans.jsonl");
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"index\":0,\"name\":\"run\",\"id\":3,\"parent\":null,"));
        assert!(lines[1].contains("\"parent\":0,"));
    }
}
