//! The discrete-event engine: an ordered queue of scheduled closures plus
//! the glue that turns [`FlowNet`] rate changes into completion events.
//!
//! Flow completions are driven by a *single* outstanding prediction event,
//! a `FlowTick` at the earliest completion under the current rates
//! (epoch-guarded against staleness). When it fires, every flow that has
//! drained completes and the next prediction is scheduled. This keeps the
//! queue O(1) in the number of active flows — important for experiments
//! with thousands of concurrent transfers.
//!
//! Changes to the flow set are *coalesced*: `start_flow` and a tick that
//! completes flows do not recompute rates themselves. Each reserves the
//! tick's queue sequence number (`seq`) at the point where it changed the
//! flow set and marks the net dirty; [`Sim::step`] flushes before it pops
//! the next event, so an event that starts ten flows costs one rate
//! recompute and schedules one tick. The tick carries the *last* `seq`
//! reserved, so it orders among equal-time events exactly where a tick
//! scheduled at the last change would have. Ties at one instant therefore
//! still run FIFO: a zero-byte flow started before a `sim.at(sim.now(), ..)`
//! completes before that call.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::cost::CostModel;
use crate::fault::FaultInjector;
use crate::flow::{FlowId, FlowNet, ResourceId};
use crate::time::SimTime;

type Callback = Box<dyn FnOnce(&mut Sim)>;

/// Heap key: earliest time first, FIFO among equal times.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: SimTime,
    seq: u64,
}

enum EventKind {
    /// Run an arbitrary closure.
    Call(Callback),
    /// The earliest predicted flow completion, valid only if `epoch` is
    /// current.
    FlowTick { epoch: u64 },
}

/// The simulator: virtual clock, event queue, flow network and cost model.
///
/// ```
/// use simnet::{Sim, SimTime};
/// let mut sim = Sim::new();
/// let r = sim.net.add_resource("disk", 100.0);
/// sim.start_flow(vec![r], 1000.0, |sim| {
///     assert_eq!(sim.now(), SimTime(10.0));
/// });
/// sim.run();
/// assert_eq!(sim.now(), SimTime(10.0));
/// ```
pub struct Sim {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<(Key, usize)>>,
    events: HashMap<usize, EventKind>,
    next_event: usize,
    /// The shared-resource flow model.
    pub net: FlowNet,
    /// Calibrated virtual costs for compute phases.
    pub cost: CostModel,
    /// Deterministic fault injection (empty plan by default).
    pub faults: FaultInjector,
    flow_callbacks: HashMap<FlowId, Callback>,
    events_processed: u64,
    /// The flow set changed since the last rate recompute: the tick it owes
    /// has this reserved `seq` and lands at least `min_dt` after now.
    pending_tick: Option<PendingTick>,
}

struct PendingTick {
    seq: u64,
    min_dt: f64,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    pub fn new() -> Self {
        Self::with_cost(CostModel::default())
    }

    pub fn with_cost(cost: CostModel) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            events: HashMap::new(),
            next_event: 0,
            net: FlowNet::new(),
            cost,
            faults: FaultInjector::default(),
            flow_callbacks: HashMap::new(),
            events_processed: 0,
            pending_tick: None,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far (for diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        self.seq += 1;
        self.push_seq(time, self.seq, kind);
    }

    /// Queue `kind` under an already reserved `seq`.
    fn push_seq(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        assert!(time.is_valid(), "scheduling at invalid time {time:?}");
        debug_assert!(time >= self.now, "scheduling into the past");
        let id = self.next_event;
        self.next_event += 1;
        self.events.insert(id, kind);
        self.queue.push(Reverse((Key { time, seq }, id)));
    }

    /// Schedule `cb` to run at absolute time `t` (must be ≥ now).
    pub fn at(&mut self, t: SimTime, cb: impl FnOnce(&mut Sim) + 'static) {
        self.push(t.max(self.now), EventKind::Call(Box::new(cb)));
    }

    /// Schedule `cb` to run `dt` seconds from now.
    pub fn after(&mut self, dt: f64, cb: impl FnOnce(&mut Sim) + 'static) {
        assert!(dt >= 0.0 && dt.is_finite(), "invalid delay {dt}");
        self.at(SimTime(self.now.0 + dt), cb);
    }

    /// Start a transfer of `bytes` along `path`; `done` runs when the last
    /// byte arrives. Returns the flow id (useful for diagnostics only —
    /// flows cannot be cancelled).
    pub fn start_flow(
        &mut self,
        path: Vec<ResourceId>,
        bytes: f64,
        done: impl FnOnce(&mut Sim) + 'static,
    ) -> FlowId {
        self.net.advance_to(self.now);
        let id = self.net.admit(path, bytes);
        self.flow_callbacks.insert(id, Box::new(done));
        self.mark_dirty(0.0);
        id
    }

    /// Record that the flow set changed: reserve the tick's `seq` here, so
    /// the tick keeps this place among equal-time events, and require it to
    /// land at least `min_dt` from now (a positive `min_dt` guarantees
    /// forward progress after rounding slivers). A later change in the same
    /// event supersedes both.
    fn mark_dirty(&mut self, min_dt: f64) {
        self.seq += 1;
        self.pending_tick = Some(PendingTick {
            seq: self.seq,
            min_dt,
        });
    }

    /// Recompute fair-share rates if the flow set changed, and schedule one
    /// prediction event at the earliest completion under the new epoch.
    fn flush_tick(&mut self) {
        let Some(PendingTick { seq, min_dt }) = self.pending_tick.take() else {
            return;
        };
        let min_eta = self.net.recompute_rates();
        if min_eta.is_finite() {
            let t = SimTime(self.net.last_update().0 + min_eta)
                .max(self.now)
                .max(SimTime(self.now.0 + min_dt));
            let epoch = self.net.epoch;
            self.push_seq(t, seq, EventKind::FlowTick { epoch });
        }
        // All-infinite (zero-rate) flows re-enter consideration on the next
        // admit; a drained queue with active flows is caught by `run`.
    }

    fn on_flow_tick(&mut self, epoch: u64) {
        if epoch != self.net.epoch {
            return; // superseded by a later recomputation
        }
        self.net.advance_to(self.now);
        let finished = self.net.take_finished();
        if finished.is_empty() {
            // Floating-point rounding left a sliver of bytes; predict again
            // from the current remainder, at least one nanosecond ahead so
            // virtual time always advances (livelock guard).
            self.mark_dirty(1e-9);
            return;
        }
        let mut callbacks = Vec::with_capacity(finished.len());
        for id in finished {
            callbacks.push(
                self.flow_callbacks
                    .remove(&id)
                    // scilint::allow(p-expect, reason = "sim-state invariant: every flow registers its callback at start_flow; a miss means corrupt event state and must stop the run, not drop a completion")
                    .expect("completion callback present"),
            );
        }
        self.mark_dirty(0.0);
        for cb in callbacks {
            cb(self);
        }
    }

    /// Process one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.flush_tick();
        let Some(Reverse((key, id))) = self.queue.pop() else {
            return false;
        };
        let kind = self
            .events
            .remove(&id)
            // scilint::allow(p-expect, reason = "event-loop invariant: every queued id has exactly one payload; a miss means corrupt sim state and must stop the run, not skip an event")
            .expect("event payload present for queued id");
        debug_assert!(key.time >= self.now);
        self.now = key.time;
        self.events_processed += 1;
        match kind {
            EventKind::Call(cb) => cb(self),
            EventKind::FlowTick { epoch } => self.on_flow_tick(epoch),
        }
        true
    }

    /// Run until no events remain. Returns the final virtual time.
    ///
    /// Panics if flows remain active when the queue drains (that means some
    /// flow was permanently starved — a modelling bug in the caller).
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        assert_eq!(
            self.net.n_active_flows(),
            0,
            "simulation drained with {} flows still active",
            self.net.n_active_flows()
        );
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for &t in &[3.0, 1.0, 2.0] {
            let log = log.clone();
            sim.at(SimTime(t), move |_| log.borrow_mut().push(t));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_run_fifo() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let log = log.clone();
            sim.at(SimTime(1.0), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_scheduling() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = log.clone();
        sim.after(1.0, move |sim| {
            l2.borrow_mut().push(sim.now().secs());
            let l3 = l2.clone();
            sim.after(2.0, move |sim| l3.borrow_mut().push(sim.now().secs()));
        });
        let end = sim.run();
        assert_eq!(*log.borrow(), vec![1.0, 3.0]);
        assert_eq!(end, SimTime(3.0));
    }

    #[test]
    fn flow_completion_time_is_exact() {
        let mut sim = Sim::new();
        let r = sim.net.add_resource("disk", 250.0);
        let done = Rc::new(RefCell::new(None));
        let d = done.clone();
        sim.start_flow(vec![r], 1000.0, move |sim| {
            *d.borrow_mut() = Some(sim.now());
        });
        sim.run();
        assert_eq!(*done.borrow(), Some(SimTime(4.0)));
    }

    #[test]
    fn competing_flows_serialize_fairly() {
        // Two equal flows on one pipe: both finish at 2x the solo time.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 100.0);
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let times = times.clone();
            sim.start_flow(vec![r], 500.0, move |sim| {
                times.borrow_mut().push(sim.now().secs());
            });
        }
        sim.run();
        let t = times.borrow();
        assert!((t[0] - 10.0).abs() < 1e-9, "{t:?}");
        assert!((t[1] - 10.0).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn staggered_flows_speed_up_after_departure() {
        // Flow A: 1000B alone on 100B/s. Flow B of 300B arrives at t=2.
        // t in [0,2): A at 100 → 800 left. t in [2, ...): both at 50.
        // B finishes at 2 + 300/50 = 8, A then has 800-300=500 left at 100 B/s
        // → finishes at 8 + 5 = 13.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 100.0);
        let t_a = Rc::new(RefCell::new(0.0));
        let t_b = Rc::new(RefCell::new(0.0));
        let ta = t_a.clone();
        sim.start_flow(vec![r], 1000.0, move |sim| {
            *ta.borrow_mut() = sim.now().secs();
        });
        let tb = t_b.clone();
        sim.after(2.0, move |sim| {
            sim.start_flow(vec![r], 300.0, move |sim| {
                *tb.borrow_mut() = sim.now().secs();
            });
        });
        sim.run();
        assert!((*t_b.borrow() - 8.0).abs() < 1e-9, "B at {}", t_b.borrow());
        assert!((*t_a.borrow() - 13.0).abs() < 1e-9, "A at {}", t_a.borrow());
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 100.0);
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        sim.start_flow(vec![r], 0.0, move |sim| {
            assert_eq!(sim.now(), SimTime::ZERO);
            *f.borrow_mut() = true;
        });
        sim.run();
        assert!(*fired.borrow());
    }

    #[test]
    fn simultaneous_completions_all_fire() {
        // Many equal flows on one link finish at the same instant; one tick
        // must complete all of them.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 100.0);
        let count = Rc::new(RefCell::new(0));
        for _ in 0..10 {
            let count = count.clone();
            sim.start_flow(vec![r], 100.0, move |_| {
                *count.borrow_mut() += 1;
            });
        }
        let end = sim.run();
        assert_eq!(*count.borrow(), 10);
        assert!((end.secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn many_flows_deterministic() {
        let run = || {
            let mut sim = Sim::new();
            let r = sim.net.add_resource("link", 1e6);
            let total = Rc::new(RefCell::new(0.0));
            for i in 0..100 {
                let total = total.clone();
                let delay = (i % 7) as f64 * 0.1;
                sim.after(delay, move |sim| {
                    sim.start_flow(vec![r], 1e4 * (1.0 + i as f64), move |sim| {
                        *total.borrow_mut() += sim.now().secs();
                    });
                });
            }
            sim.run();
            let v = *total.borrow();
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn one_callback_starting_many_flows_schedules_one_tick() {
        // Ten admissions in one event coalesce into one recompute and one
        // tick, which completes all ten: the Call plus that tick.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 100.0);
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        sim.at(SimTime::ZERO, move |sim| {
            for _ in 0..10 {
                let c = c.clone();
                sim.start_flow(vec![r], 100.0, move |_| *c.borrow_mut() += 1);
            }
        });
        let end = sim.run();
        assert_eq!(*count.borrow(), 10);
        assert_eq!(end, SimTime(10.0));
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn zero_byte_flow_completes_before_later_call_at_same_instant() {
        // The tick's seq is reserved at start_flow, before the Call is
        // queued, so FIFO among equal times still puts the completion first.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 100.0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        sim.after(1.0, move |sim| {
            let l1 = l.clone();
            sim.start_flow(vec![r], 0.0, move |sim| {
                l1.borrow_mut().push(("flow", sim.now().secs()));
            });
            let l2 = l.clone();
            sim.at(sim.now(), move |sim| {
                l2.borrow_mut().push(("call", sim.now().secs()));
            });
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![("flow", 1.0), ("call", 1.0)]);
    }

    #[test]
    fn sliver_tick_still_advances_time() {
        // A current tick that finds no drained flow (a rounding sliver)
        // reschedules at least 1 ns ahead, even when the sliver's own ETA
        // is shorter, so virtual time cannot stall.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 1e6);
        let done = Rc::new(RefCell::new(None));
        let d = done.clone();
        // 1e-5 B at 1e6 B/s: ETA 1e-11 s, above both completion thresholds.
        sim.start_flow(vec![r], 1e-5, move |sim| *d.borrow_mut() = Some(sim.now()));
        sim.flush_tick();
        sim.on_flow_tick(sim.net.epoch);
        assert_eq!(sim.net.n_active_flows(), 1);
        sim.run();
        assert_eq!(*done.borrow(), Some(SimTime(1e-9)));
    }

    #[test]
    fn queue_stays_small_under_flow_churn() {
        // The single-tick design must not accumulate stale events.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 1e6);
        for i in 0..500 {
            let delay = i as f64 * 0.001;
            sim.after(delay, move |sim| {
                sim.start_flow(vec![r], 1e3, |_| {});
            });
        }
        sim.run();
        // Events: 500 Calls + ticks; far fewer than the O(F^2) of a
        // reschedule-everything design (which would be ~125k).
        assert!(
            sim.events_processed() < 5_000,
            "event churn too high: {}",
            sim.events_processed()
        );
    }
}
