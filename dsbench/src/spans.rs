//! In-memory spans around calls into each layer, their line-oriented
//! export, and the self-time fold.
//!
//! A span is `name, start, end, parent, id` plus a count of the items the
//! call handled (queries submitted, outcomes polled, calls replayed). Spans
//! are kept in memory while the benchmark runs and written out at the end,
//! one per line:
//!
//! ```text
//! span <index> <parent index or -> <name> <id> <start ns> <end ns> <count>
//! ```

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `serve.step`.
    pub name: &'static str,
    /// Index of the span that caused it.
    pub parent: Option<usize>,
    /// Query or tick id the span belongs to.
    pub id: u64,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was made.
    pub end_ns: u64,
    /// Items the call handled.
    pub count: u64,
}

impl Span {
    /// Length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder; a disabled one records nothing and costs a branch.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// The handle [`Spans::open`] returns when recording is off.
const OFF: usize = usize::MAX;

impl Spans {
    /// A recorder that keeps spans when `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts a span now; returns its handle.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        if !self.on {
            return OFF;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            id,
            start_ns,
            end_ns: start_ns,
            count: 1,
        });
        self.spans.len() - 1
    }

    /// Ends a span now.
    pub fn close(&mut self, handle: usize) {
        self.close_n(handle, 1);
    }

    /// Ends a span now, recording how many items it handled.
    pub fn close_n(&mut self, handle: usize, count: u64) {
        if handle == OFF {
            return;
        }
        let end = self.ns(Instant::now());
        let span = &mut self.spans[handle];
        span.end_ns = end;
        span.count = count;
    }

    /// Records a span timed elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        (start, end): (Instant, Instant),
        count: u64,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                parent,
                id,
                start_ns,
                end_ns,
                count,
            });
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span, one per line, after `header` lines (each
    /// prefixed with `# `).
    pub fn write(&self, mut out: impl Write, header: &[String]) -> std::io::Result<()> {
        for h in header {
            writeln!(out, "# {h}")?;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "span {i} {parent} {} {} {} {} {}",
                s.name, s.id, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval its
/// direct children cover. Overlapping children count once; a child's
/// stretch outside its parent does not count.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals of a set of spans.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTotal {
    /// Span name.
    pub name: &'static str,
    /// Spans with this name.
    pub spans: u64,
    /// Items they handled.
    pub items: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Folds spans into per-name totals, in order of first appearance.
pub fn fold(spans: &[Span]) -> Vec<LayerTotal> {
    let selfs = self_times(spans);
    let mut out: Vec<LayerTotal> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        let slot = match out.iter().position(|t| t.name == s.name) {
            Some(i) => i,
            None => {
                out.push(LayerTotal {
                    name: s.name,
                    spans: 0,
                    items: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                out.len() - 1
            }
        };
        let t = &mut out[slot];
        t.spans += 1;
        t.items += s.count;
        t.total_ns += s.duration_ns();
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            parent,
            id: 0,
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 60),  // overlaps the first child
            span(Some(0), 90, 120), // runs past the parent's end
        ];
        // Covered: 10..60 and 90..100 = 60 ns.
        assert_eq!(self_times(&spans)[0], 40);
        assert_eq!(self_times(&spans)[1], 30);
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 20, 80),
            span(Some(1), 30, 50), // nested: the child's, not the root's
            span(Some(1), 40, 70), // overlaps its sibling
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 60 - 40);
        assert_eq!(selfs[2], 20);
    }

    #[test]
    fn fold_sums_by_name() {
        let mut spans = vec![span(None, 0, 10), span(None, 10, 30)];
        spans[1].count = 5;
        let t = fold(&spans);
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].spans, t[0].items, t[0].total_ns), (2, 6, 30));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(false);
        let h = s.open("a", None, 0);
        s.close_n(h, 3);
        assert!(s.spans().is_empty());
    }

    #[test]
    fn export_is_one_line_per_span() {
        let mut s = Spans::new(true);
        let root = s.open("serve.session", None, 7);
        let child = s.open("serve.step", Some(root), 3);
        s.close(child);
        s.close_n(root, 2);
        let mut buf = Vec::new();
        s.write(&mut buf, &["seed 1".to_string()]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# seed 1");
        assert!(lines[1].starts_with("span 0 - serve.session 7 "));
        assert!(lines[2].starts_with("span 1 0 serve.step 3 "));
        assert!(lines[1].ends_with(" 2"));
    }
}
