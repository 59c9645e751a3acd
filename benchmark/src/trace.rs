//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written when the benchmark ends. The
//! tree per workload is
//!
//! ```text
//! <workload>            layer "bench"
//!   timed | traced      layer "trainer"   one per round of the traced run
//!     setup.plan        layer "sharding"
//!     setup.ring        layer "dataio"
//!     train             layer "trainer"
//!       step            layer "trainer"   one per step
//!   ladder              layer "bench"
//!     <row>             layer of the row, count = timed calls
//! ```
//!
//! Self time of a span is its duration minus the part its children cover.

use std::fmt::Write as _;
use std::io::Write as _;

use crate::Res;

/// One span: `[start_ns, end_ns)` since the process started.
pub struct Span {
    id: u32,
    parent: Option<u32>,
    name: String,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    count: u64,
}

/// In-memory span store for one workload.
pub struct Trace {
    workload: String,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose spans belong to `workload`.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            spans: Vec::new(),
        }
    }

    /// Appends a span and returns its id (ids start at 1).
    pub fn add(
        &mut self,
        parent: Option<u32>,
        name: &str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            layer,
            start_ns,
            end_ns,
            count,
        });
        id
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line, no enclosing brackets, ids shifted by
    /// `id_base` so several workloads' spans share one file.
    pub fn json_lines(&self, id_base: u32) -> Vec<String> {
        self.spans
            .iter()
            .map(|s| {
                let mut line = String::new();
                let parent = match s.parent {
                    Some(p) => (p + id_base).to_string(),
                    None => "null".to_string(),
                };
                // names are benchmark-chosen identifiers: no escaping needed
                let _ = write!(
                    line,
                    "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\
                     \"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                    s.id + id_base,
                    s.name,
                    s.layer,
                    self.workload,
                    s.start_ns,
                    s.end_ns,
                    s.count
                );
                line
            })
            .collect()
    }
}

/// Writes the traces as one JSON array.
pub fn write_file(path: &str, traces: &[Trace]) -> Res<()> {
    let mut lines = Vec::new();
    let mut base = 0u32;
    for t in traces {
        lines.extend(t.json_lines(base));
        base += t.len() as u32;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "[")?;
    writeln!(f, "{}", lines.join(",\n"))?;
    writeln!(f, "]")?;
    f.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_serialize_as_parseable_json_with_shifted_ids() {
        let mut t = Trace::new("w");
        let root = t.add(None, "w", "bench", 0, 100, 1);
        t.add(Some(root), "train", "trainer", 10, 90, 1);
        let text = format!("[{}]", t.json_lines(7).join(","));
        let json = neo_telemetry::json::parse(&text).unwrap();
        let spans = json.as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("id").unwrap().as_f64(), Some(8.0));
        assert_eq!(
            spans[0].get("parent"),
            Some(&neo_telemetry::json::Json::Null)
        );
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(8.0));
        assert_eq!(spans[1].get("layer").unwrap().as_str(), Some("trainer"));
        assert_eq!(spans[1].get("workload").unwrap().as_str(), Some("w"));
    }
}
