//! Spans recorded by the traced replay: name, start, end, parent and the
//! op they belong to. They are kept in memory and summarised (or written
//! out) when the replay ends. The replay is single-threaded, so a span's
//! children never overlap and self time is duration minus the children's.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The operation this span was recorded under.
    pub op: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: RefCell::new(State { spans: Vec::new(), open: Vec::new(), op: 0 }),
        }
    }

    /// Spans recorded from now on belong to operation `op`.
    pub fn set_op(&self, op: usize) {
        self.state.borrow_mut().op = op;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let name = name.to_owned();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let id = {
            let mut st = self.state.borrow_mut();
            let id = st.spans.len();
            let (parent, op) = (st.open.last().copied(), st.op);
            st.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
            st.open.push(id);
            id
        };
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.state.borrow_mut();
        st.spans[id].end_ns = end_ns;
        st.open.pop();
        out
    }

    /// Take over the spans another process recorded for the current op:
    /// parent links are re-based, and times are shifted so that its last
    /// span ends now.
    pub fn absorb(&self, spans: Vec<Span>) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.state.borrow_mut();
        let (base, op) = (st.spans.len(), st.op);
        let shift = now.saturating_sub(spans.iter().map(|s| s.end_ns).max().unwrap_or(0));
        st.spans.extend(spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            op,
            ..s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }
}

/// Self time of every span: its duration minus the interval its children
/// cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Check behind `--self-test`.
pub fn self_test() -> Result<(), String> {
    let spans = vec![
        Span { name: "op".into(), start_ns: 0, end_ns: 100, parent: None, op: 0 },
        Span { name: "exec".into(), start_ns: 10, end_ns: 90, parent: Some(0), op: 0 },
        Span { name: "read".into(), start_ns: 20, end_ns: 30, parent: Some(1), op: 0 },
        Span { name: "decode".into(), start_ns: 30, end_ns: 70, parent: Some(1), op: 0 },
    ];
    if self_times_ns(&spans) != [20, 30, 10, 40] {
        return Err("self time is duration minus the children's".into());
    }
    let tracer = Tracer::new();
    tracer.set_op(3);
    tracer.span("outer", || tracer.span("inner", || ()));
    let got = tracer.spans();
    tracer.set_op(4);
    tracer.absorb(got.clone());
    let got = tracer.spans();
    let absorbed = got.len() == 4 && got[3].parent == Some(2) && got[2].op == 4 && got[3].op == 4;
    if !absorbed {
        return Err("absorbed spans keep their nesting under the current op".into());
    }
    let nested = got.len() == 4
        && got[1].parent == Some(0)
        && got[0].parent.is_none()
        && got[..2].iter().all(|s| s.op == 3)
        && got[0].start_ns <= got[1].start_ns
        && got[1].end_ns <= got[0].end_ns;
    if !nested {
        return Err("nested spans record their parent and op".into());
    }
    Ok(())
}
