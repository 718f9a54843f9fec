//! Sink contract and the two built-in sinks.
//!
//! A [`Sink`] receives two kinds of traffic: streaming [`Record`]s as the
//! instrumented code emits them, and one [`FlushReport`] when the owning
//! `Obs` handle flushes. Sinks run under the `Obs` sink lock, so `record`
//! must stay cheap; anything expensive belongs in `flush`.
//!
//! Built-ins:
//! - [`JsonlSink`] — one JSON object per line, for machine consumption.
//! - [`SummarySink`] — human-readable heartbeats + phase/counter tables on
//!   stderr (stdout is reserved for bench tables).
//!
//! Tests that need the records back implement [`Sink`] on a small capture
//! type of their own.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::json::{write_json_string, Record};
use crate::metrics::{CounterSnapshot, GaugeSnapshot, HistSnapshot};
use crate::span::SpanSnapshot;

/// Aggregated state handed to every sink at flush time.
#[derive(Debug, Clone)]
pub struct FlushReport {
    /// Seconds between `Obs` creation and this flush.
    pub wall_seconds: f64,
    /// Hierarchical phase profile (top-level spans, name-sorted).
    pub spans: Vec<SpanSnapshot>,
    /// All registered counters, in registration order.
    pub counters: Vec<CounterSnapshot>,
    /// All registered gauges, in registration order.
    pub gauges: Vec<GaugeSnapshot>,
    /// All registered histograms, in registration order.
    pub hists: Vec<HistSnapshot>,
}

/// Destination for telemetry traffic. See module docs for the contract.
pub trait Sink: Send {
    /// Receives one streamed record. Called on the emitting thread under
    /// the sink lock — keep it cheap.
    fn record(&mut self, rec: &Record);
    /// Receives the end-of-run aggregate. Called once per `Obs::flush`.
    fn flush(&mut self, report: &FlushReport);
}

// ---------------------------------------------------------------------------
// JsonlSink

/// Streams records and the flush report as JSON Lines.
pub struct JsonlSink {
    writer: BufWriter<Box<dyn Write + Send>>,
    failed: bool,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("failed", &self.failed)
            .finish()
    }
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::from_writer(Box::new(file)))
    }

    /// Wraps an arbitrary writer (used by tests).
    pub fn from_writer(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            writer: BufWriter::new(writer),
            failed: false,
        }
    }

    fn write_line(&mut self, line: &str) {
        if self.failed {
            return;
        }
        if writeln!(self.writer, "{line}").is_err() {
            // Telemetry must never take the run down; report once and stop.
            eprintln!("[obs] jsonl sink write failed; disabling sink");
            self.failed = true;
        }
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, rec: &Record) {
        self.write_line(&rec.to_json());
    }

    fn flush(&mut self, report: &FlushReport) {
        for root in &report.spans {
            root.walk("", &mut |path, node| {
                let mut line = String::from("{\"kind\":\"span\",\"path\":");
                write_json_string(path, &mut line);
                let _ = write!(
                    line,
                    ",\"seconds\":{},\"count\":{}}}",
                    node.seconds, node.count
                );
                self.write_line(&line);
            });
        }
        for c in &report.counters {
            let mut line = String::from("{\"kind\":\"counter\",\"name\":");
            write_json_string(c.name, &mut line);
            let _ = write!(line, ",\"value\":{}}}", c.value);
            self.write_line(&line);
        }
        for g in &report.gauges {
            let mut line = String::from("{\"kind\":\"gauge\",\"name\":");
            write_json_string(g.name, &mut line);
            let _ = write!(line, ",\"last\":{},\"max\":{}}}", g.last, g.max);
            self.write_line(&line);
        }
        for h in &report.hists {
            let mut line = String::from("{\"kind\":\"hist\",\"name\":");
            write_json_string(h.name, &mut line);
            let _ = write!(
                line,
                ",\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.max,
                h.mean()
            );
            for (i, (lo, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "[{lo},{n}]");
            }
            line.push_str("]}");
            self.write_line(&line);
        }
        let _ = writeln!(
            &mut self.writer,
            "{{\"kind\":\"flush\",\"wall_seconds\":{}}}",
            report.wall_seconds
        );
        let _ = self.writer.flush();
    }
}

// ---------------------------------------------------------------------------
// SummarySink

/// Human-readable sink: optional per-record heartbeat lines plus a phase
/// profile and metric tables at flush, all on stderr.
#[derive(Debug)]
pub struct SummarySink {
    progress: bool,
}

impl SummarySink {
    /// `progress = true` prints one heartbeat line per streamed record;
    /// `false` stays silent until flush.
    pub fn new(progress: bool) -> Self {
        SummarySink { progress }
    }
}

impl Sink for SummarySink {
    fn record(&mut self, rec: &Record) {
        if !self.progress {
            return;
        }
        let mut line = format!("[obs] {}", rec.kind);
        for (k, v) in &rec.fields {
            let _ = write!(line, " {k}=");
            match v {
                crate::json::Value::Str(s) => {
                    let _ = write!(line, "{s}");
                }
                crate::json::Value::String(s) => {
                    let _ = write!(line, "{s}");
                }
                other => other.write_json(&mut line),
            }
        }
        eprintln!("{line}");
    }

    fn flush(&mut self, report: &FlushReport) {
        eprintln!("[obs] phase profile (wall {:.3}s):", report.wall_seconds);
        fn print_tree(nodes: &[SpanSnapshot], depth: usize, wall: f64) {
            for node in nodes {
                let pct = if wall > 0.0 {
                    100.0 * node.seconds / wall
                } else {
                    0.0
                };
                eprintln!(
                    "[obs]   {:indent$}{:<24} {:>10.3}s {:>6.1}%  x{}",
                    "",
                    node.name,
                    node.seconds,
                    pct,
                    node.count,
                    indent = depth * 2
                );
                print_tree(&node.children, depth + 1, wall);
            }
        }
        print_tree(&report.spans, 0, report.wall_seconds);
        if !report.counters.is_empty() {
            eprintln!("[obs] counters:");
            for c in &report.counters {
                eprintln!("[obs]   {:<32} {}", c.name, c.value);
            }
        }
        if !report.gauges.is_empty() {
            eprintln!("[obs] gauges:");
            for g in &report.gauges {
                eprintln!("[obs]   {:<32} last={} max={}", g.name, g.last, g.max);
            }
        }
        if !report.hists.is_empty() {
            eprintln!("[obs] histograms:");
            for h in &report.hists {
                eprintln!(
                    "[obs]   {:<32} count={} mean={:.2} max={}",
                    h.name,
                    h.count,
                    h.mean(),
                    h.max
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn rec(kind: &'static str, n: u64) -> Record {
        Record {
            kind,
            t_us: n,
            fields: vec![("n", Value::U64(n))],
        }
    }

    #[test]
    fn jsonl_writes_records_and_flush_lines() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut sink = JsonlSink::from_writer(Box::new(shared.clone()));
        sink.record(&rec("sweep", 7));
        sink.flush(&FlushReport {
            wall_seconds: 1.5,
            spans: vec![SpanSnapshot {
                name: "run",
                seconds: 1.25,
                nanos: 1_250_000_000,
                count: 1,
                children: vec![],
            }],
            counters: vec![CounterSnapshot {
                name: "hits",
                value: 3,
            }],
            gauges: vec![],
            hists: vec![],
        });
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"kind\":\"sweep\""));
        assert!(lines[1].contains("\"path\":\"run\""));
        assert!(lines[2].contains("\"value\":3"));
        assert!(lines[3].contains("\"wall_seconds\":1.5"));
    }
}
