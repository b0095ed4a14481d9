//! In-memory spans recorded by the benchmark around its calls into the
//! program, and the arithmetic that turns them into per-layer busy time.
//!
//! A span has a name, an optional tag (the algorithm of a run), a parent,
//! a start and end on the host clock, and the heap allocations made
//! while it was open. Spans stay in memory until the benchmark writes
//! them out at the end.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use wadc_bench::alloc::AllocScope;
use wadc_bench::json::Json;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `core.run_loop`.
    pub name: &'static str,
    /// Algorithm key for per-run spans.
    pub tag: Option<&'static str>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Host nanoseconds since the log was created.
    pub start_ns: u64,
    /// Host nanoseconds since the log was created.
    pub end_ns: u64,
    /// Heap allocations made while the span was open (children included).
    pub allocs: u64,
}

impl Span {
    /// Host time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has been opened and must be passed back to
/// [`SpanLog::close`].
pub struct OpenSpan {
    id: usize,
    scope: AllocScope,
}

impl OpenSpan {
    /// The span's index, for use as a child's parent.
    pub fn id(&self) -> usize {
        self.id
    }
}

/// The benchmark's span store.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log with room for `capacity` spans, so that recording
    /// does not allocate inside the spans it measures.
    pub fn with_capacity(capacity: usize) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(
        &mut self,
        name: &'static str,
        tag: Option<&'static str>,
        parent: Option<usize>,
    ) -> OpenSpan {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        // Start the clock after the push, so the log's own growth is
        // charged to the parent.
        self.spans[id].start_ns = self.now_ns();
        OpenSpan {
            id,
            scope: AllocScope::begin(),
        }
    }

    /// Closes a span and returns its index.
    pub fn close(&mut self, open: OpenSpan) -> usize {
        let end_ns = self.now_ns();
        let alloc = open.scope.finish();
        let span = &mut self.spans[open.id];
        span.end_ns = end_ns;
        span.allocs = alloc.allocs;
        open.id
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        tag: Option<&'static str>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, tag, parent);
        let out = f();
        self.close(open);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj()
                .field("id", id)
                .field("name", s.name)
                .field("tag", s.tag.map_or(Json::Null, Json::from))
                .field("parent", s.parent.map_or(Json::Null, Json::from))
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .field("allocs", s.allocs);
            writeln!(out, "{}", line.to_string_compact())?;
        }
        out.flush()
    }
}

/// The spans named `name` (and tagged `tag`, when given) that lie under
/// `root`.
fn matching<'a>(
    spans: &'a [Span],
    root: usize,
    name: &'a str,
    tag: Option<&'a str>,
) -> impl Iterator<Item = &'a Span> {
    spans.iter().enumerate().filter_map(move |(i, s)| {
        let hit = s.name == name && (tag.is_none() || s.tag == tag);
        (hit && descends_from(spans, i, root)).then_some(s)
    })
}

/// Total duration of the spans named `name` (optionally only those
/// tagged `tag`) that lie under `root`.
pub fn busy_ns(spans: &[Span], root: usize, name: &str, tag: Option<&str>) -> u64 {
    matching(spans, root, name, tag)
        .map(Span::duration_ns)
        .sum()
}

/// Total allocations of the spans named `name` (optionally tagged `tag`)
/// under `root`, and how many such spans there were.
pub fn allocs(spans: &[Span], root: usize, name: &str, tag: Option<&str>) -> (u64, usize) {
    matching(spans, root, name, tag).fold((0, 0), |(a, n), s| (a + s.allocs, n + 1))
}

fn descends_from(spans: &[Span], mut id: usize, root: usize) -> bool {
    loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    }
}

/// How a root span's wall time splits over named layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Accounting {
    /// The root span's duration.
    pub wall_ns: u64,
    /// Busy time per layer name, in the order asked for.
    pub busy: Vec<(&'static str, u64)>,
    /// `wall_ns` minus the layers' total: time no layer span covers.
    pub unaccounted_ns: i64,
}

impl Accounting {
    /// Splits `root`'s wall time over `layers`, which must be disjoint
    /// spans (none nested in another) for the sum to mean anything.
    pub fn of(spans: &[Span], root: usize, layers: &[&'static str]) -> Accounting {
        let busy: Vec<(&'static str, u64)> = layers
            .iter()
            .map(|&name| (name, busy_ns(spans, root, name, None)))
            .collect();
        let wall_ns = spans[root].duration_ns();
        let covered: u64 = busy.iter().map(|(_, ns)| ns).sum();
        Accounting {
            wall_ns,
            busy,
            unaccounted_ns: wall_ns as i64 - covered as i64,
        }
    }

    /// `unaccounted_ns` as a share of the wall time.
    pub fn unaccounted_share(&self) -> f64 {
        self.unaccounted_ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Whether the layers cover the wall time to within `tolerance` (a
    /// share of the wall time) in either direction.
    pub fn balances(&self, tolerance: f64) -> bool {
        self.unaccounted_share().abs() <= tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            tag: None,
            parent,
            start_ns,
            end_ns,
            allocs: 1,
        }
    }

    /// root 0..100 holds setup 0..30 (synth 0..20, pool 20..29) and two
    /// runs 40..60 and 65..95.
    fn tree() -> Vec<Span> {
        vec![
            span("bench.traced", None, 0, 100),
            span("bench.setup", Some(0), 0, 30),
            span("trace.synth", Some(1), 0, 20),
            span("trace.pool", Some(1), 20, 29),
            span("core.run_loop", Some(0), 40, 60),
            span("core.run_loop", Some(0), 65, 95),
        ]
    }

    #[test]
    fn layer_busy_times_sum_and_leave_the_gaps_unaccounted() {
        let s = tree();
        assert_eq!(busy_ns(&s, 0, "core.run_loop", None), 50);
        assert_eq!(busy_ns(&s, 1, "core.run_loop", None), 0);
        assert_eq!(allocs(&s, 0, "core.run_loop", None), (2, 2));
        let acc = Accounting::of(&s, 0, &["trace.synth", "trace.pool", "core.run_loop"]);
        assert_eq!(acc.wall_ns, 100);
        assert_eq!(acc.unaccounted_ns, 100 - 20 - 9 - 50);
        assert!((acc.unaccounted_share() - 0.21).abs() < 1e-12);
        assert!(acc.balances(0.21) && !acc.balances(0.2));
    }

    #[test]
    fn tags_select_runs_of_one_algorithm() {
        let mut s = tree();
        s[4].tag = Some("global");
        s[5].tag = Some("local");
        assert_eq!(busy_ns(&s, 0, "core.run_loop", Some("global")), 20);
        assert_eq!(busy_ns(&s, 0, "core.run_loop", Some("local")), 30);
    }

    #[test]
    fn recorded_spans_nest_in_time() {
        let mut log = SpanLog::with_capacity(4);
        let root = log.open("bench.traced", None, None);
        let v = log.within("core.world_build", Some("global"), Some(root.id()), || {
            (0..1000u64).sum::<u64>()
        });
        assert_eq!(v, 499_500);
        let root = log.close(root);
        let s = log.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(root));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let acc = Accounting::of(s, root, &["core.world_build"]);
        assert!(acc.unaccounted_ns >= 0);
    }
}
