//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Nothing inside the program is instrumented: a span brackets one call
//! the benchmark makes (`prepare_index`, `select`, `run_batch`, ...), so
//! a layer's time here is the time of the calls into it. Spans live in
//! memory and are written out when the run ends. A disabled tracer
//! records nothing and costs one branch per call, so the untraced and
//! traced passes run the same code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// The benchmark's single clock read. Timings feed reported metrics
/// only; selections never see them.
pub fn now() -> Instant {
    // audit:allow(d-wall-clock, "benchmark timer: elapsed feeds reported metrics, never selections")
    Instant::now()
}

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Index of the query within the workload's mix, for spans that
    /// belong to one query.
    pub query: Option<usize>,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the name's prefix before the first
    /// `.`, or `bench` for the benchmark's own structural spans.
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "bench",
        }
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: now(),
            state: RefCell::default(),
        }
    }

    fn ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` (a no-op wrapper when off).
    pub fn span<T>(&self, name: &'static str, query: Option<usize>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = {
            let mut st = self.state.borrow_mut();
            let parent = st.open.last().copied();
            let id = st.spans.len();
            st.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                query,
            });
            st.open.push(id);
            id
        };
        // Read the clock after the bookkeeping so it is charged to the
        // parent, not to the call being measured.
        let start = self.ns();
        let out = f();
        let end = self.ns();
        let mut st = self.state.borrow_mut();
        assert_eq!(st.open.pop(), Some(id), "spans close in LIFO order");
        st.spans[id].start_ns = start;
        st.spans[id].end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        assert!(
            self.state.borrow().open.is_empty(),
            "every span is closed before the spans are read"
        );
        self.state.borrow().spans.clone()
    }
}

/// Wall nanoseconds of each span minus the sum of its children's walls.
/// Children never overlap each other (one caller thread), so that sum is
/// the part they cover.
pub fn self_ns(spans: &[Span]) -> Vec<i128> {
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.wall_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= i128::from(s.wall_ns());
        }
    }
    own
}

/// Self time summed per layer over span `root` and its descendants, in
/// seconds.
pub fn self_seconds_by_layer(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let own = self_ns(spans);
    let mut inside = vec![false; spans.len()];
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // A span opens after its parent, so one forward pass marks the
        // whole subtree.
        inside[i] = i == root || s.parent.is_some_and(|p| inside[p]);
        if inside[i] {
            *out.entry(s.layer()).or_insert(0.0) += own[i] as f64 * 1e-9;
        }
    }
    out
}

/// Total wall seconds of every span called `name`.
pub fn wall_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.wall_ns() as f64 * 1e-9)
}

/// The structural checks every trace must pass: each child lies inside
/// its parent's interval, and the children's walls sum to at most the
/// parent's wall (no self time is negative). One caller thread, a
/// monotonic clock and [`Tracer::span`]'s LIFO assert make both hold by
/// construction today; the check stays so that a tracer that records
/// spans from several threads cannot break them silently. Returns one
/// message per violation.
pub fn check(spans: &[Span]) -> Vec<String> {
    let mut bad = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            bad.push(format!("span {i} `{}` ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if p >= i || s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                bad.push(format!(
                    "span {i} `{}` is not nested in its parent `{}`",
                    s.name, parent.name
                ));
            }
        }
    }
    for (i, own) in self_ns(spans).into_iter().enumerate() {
        if own < 0 {
            bad.push(format!(
                "span {i} `{}`: children cover more than its wall ({own} ns self)",
                spans[i].name
            ));
        }
    }
    bad
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"query\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.query)
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}
