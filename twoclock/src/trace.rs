//! In-memory span recorder with Chrome trace-event export.
//!
//! Spans are opened only by the benchmark, around calls into the crates'
//! public functions; nothing inside the program is instrumented. A
//! disabled tracer records nothing, so untraced passes pay one branch per
//! span site.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One closed span. Times are microseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Which pass of the workload the span belongs to.
    pub run: u32,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

/// Shared recorder; clone the `Rc` into closures that need to open spans.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let now = self.tracer.now_us();
            let mut st = self.tracer.state.borrow_mut();
            if let Some(s) = st.spans.get_mut(id) {
                s.end_us = now;
            }
            if st.open.last() == Some(&id) {
                st.open.pop();
            }
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Rc<Tracer> {
        Rc::new(Tracer {
            enabled,
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        })
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Tag the spans opened from now on with pass `run`.
    pub fn set_run(&self, run: u32) {
        self.state.borrow_mut().run = run;
    }

    /// Open a span that closes when the guard drops. Spans must nest.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: None,
            };
        }
        let start_us = self.now_us();
        let mut st = self.state.borrow_mut();
        let id = st.spans.len();
        let span = Span {
            name,
            start_us,
            end_us: start_us,
            parent: st.open.last().copied(),
            run: st.run,
        };
        st.spans.push(span);
        st.open.push(id);
        Guard {
            tracer: self,
            id: Some(id),
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Chrome trace-event JSON (opens in Perfetto and `chrome://tracing`).
    pub fn chrome_json(&self) -> String {
        let st = self.state.borrow();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in st.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.run
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Duration of span `id` minus the time its direct children cover.
pub fn self_time_s(spans: &[Span], id: usize) -> f64 {
    let Some(s) = spans.get(id) else {
        return 0.0;
    };
    let children: f64 = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(Span::dur_s)
        .sum();
    s.dur_s() - children
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer");
            {
                let _a = t.span("child");
            }
            {
                let _b = t.span("child");
            }
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = self_time_s(&spans, 0);
        let kids = spans[1].dur_s() + spans[2].dur_s();
        assert!((own + kids - spans[0].dur_s()).abs() < 1e-12);
        assert!(t
            .chrome_json()
            .starts_with("{\"traceEvents\":[{\"name\":\"outer\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _g = t.span("x");
        }
        assert!(t.spans().is_empty());
    }
}
