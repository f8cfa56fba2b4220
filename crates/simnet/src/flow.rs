//! Flow-level network/storage model with max–min fair bandwidth sharing.
//!
//! Every shared pipe in the simulated cluster — a disk, a NIC transmit or
//! receive side, the core switch fabric — is a [`Resource`] with a fixed
//! capacity in bytes/second. A transfer is a [`Flow`]: a number of bytes
//! pushed along a *path* (an ordered set of resources). At any instant the
//! rate of each active flow is the **max–min fair allocation**: capacity is
//! divided by progressive filling, so a flow gets the fair share of its most
//! contended resource and unused capacity is redistributed to the others.
//!
//! The allocation is recomputed after the flow set changes (the classic
//! "fluid" approximation of TCP sharing used by flow-level simulators such
//! as SimGrid); [`crate::Sim`] does it at most once per event, however many
//! flows the event starts or finishes. Between recomputations every flow
//! progresses linearly at its assigned rate, so completion times are exact.

use crate::time::SimTime;

/// Index of a [`Resource`] inside a [`FlowNet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub u32);

/// Identifier of an active flow. Never reused within one simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlowId(pub u64);

/// A capacity-limited pipe (disk, NIC side, switch fabric, ...).
#[derive(Clone, Debug)]
pub struct Resource {
    /// Human-readable name, used in traces and error messages.
    pub name: String,
    /// Capacity in bytes per second. `f64::INFINITY` means uncontended.
    pub capacity: f64,
    /// Stream-interference coefficient (rotating disks): with `n`
    /// concurrent flows the effective capacity is
    /// `capacity / (1 + thrash * (n - 1))` — interleaved streams cost head
    /// movement. 0 for NICs/switches (default).
    pub thrash: f64,
}

#[derive(Debug)]
struct FlowState {
    id: FlowId,
    path: Vec<ResourceId>,
    /// Bytes still to transfer as of `FlowNet::last_update`.
    remaining: f64,
    /// Current max–min fair rate in bytes/second.
    rate: f64,
}

/// The set of resources plus all currently active flows.
///
/// `FlowNet` is pure bookkeeping: it knows *rates* and *remaining bytes* but
/// not the event queue. The [`crate::Sim`] engine drives it, translating rate
/// changes into (re)scheduled completion events.
#[derive(Debug, Default)]
pub struct FlowNet {
    resources: Vec<Resource>,
    flows: Vec<FlowState>,
    next_flow: u64,
    /// Bumped on every rate recomputation; stale completion events compare
    /// their recorded epoch against this and no-op if it moved on.
    pub(crate) epoch: u64,
    last_update: SimTime,
    /// Total bytes ever admitted, for reporting.
    pub bytes_admitted: f64,
    scratch: Scratch,
}

/// Working buffers of [`FlowNet::recompute_rates`], kept between calls so a
/// recompute allocates nothing once they have grown.
#[derive(Debug, Default)]
struct Scratch {
    /// Unfrozen path entries per resource.
    users: Vec<u32>,
    /// Residual (stream-interference adjusted) capacity per resource.
    cap: Vec<f64>,
    /// Resource `r`'s members are `members[start[r]..start[r + 1]]`.
    start: Vec<u32>,
    /// Flow indices per resource, in admission order; a flow whose path
    /// names a resource twice is listed twice.
    members: Vec<u32>,
    /// Per flow: rate already fixed this recompute.
    frozen: Vec<bool>,
}

impl Scratch {
    /// Reset every buffer for `flows` over `resources`.
    fn build(&mut self, resources: &[Resource], flows: &[FlowState]) {
        self.users.clear();
        self.users.resize(resources.len(), 0);
        for r in flows.iter().flat_map(|f| &f.path) {
            if let Some(u) = self.users.get_mut(r.0 as usize) {
                *u += 1;
            }
        }
        // Disk stream-interference: effective capacity shrinks with the
        // number of concurrent streams (head thrashing on HDDs).
        self.cap.clear();
        self.cap
            .extend(resources.iter().zip(&self.users).map(|(r, &u)| {
                if r.thrash > 0.0 && u > 1 {
                    // Elevator scheduling bounds the worst case: cap the
                    // interference degradation at 3x.
                    r.capacity / (1.0 + r.thrash * (u - 1) as f64).min(3.0)
                } else {
                    r.capacity
                }
            }));
        // `start[r]` begins as the end of `r`'s segment; filling backwards
        // from the last flow walks it down to the segment's start and
        // leaves each segment in admission order.
        self.start.clear();
        let mut end = 0u32;
        for &u in &self.users {
            end += u;
            self.start.push(end);
        }
        self.start.push(end);
        self.members.clear();
        self.members.resize(end as usize, 0);
        for (fi, f) in flows.iter().enumerate().rev() {
            for r in &f.path {
                if let Some(pos) = self.start.get_mut(r.0 as usize) {
                    *pos -= 1;
                    if let Some(m) = self.members.get_mut(*pos as usize) {
                        *m = fi as u32;
                    }
                }
            }
        }
        self.frozen.clear();
        self.frozen.resize(flows.len(), false);
    }
}

/// Predicted time for `remaining` bytes to drain at `rate`.
fn flow_eta(remaining: f64, rate: f64) -> f64 {
    if remaining <= 1e-6 {
        0.0
    } else if rate == 0.0 {
        f64::INFINITY
    } else {
        remaining / rate
    }
}

impl FlowNet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a resource and return its id.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        self.add_resource_thrash(name, capacity, 0.0)
    }

    /// Register a resource with a stream-interference coefficient (HDDs).
    pub fn add_resource_thrash(
        &mut self,
        name: impl Into<String>,
        capacity: f64,
        thrash: f64,
    ) -> ResourceId {
        assert!(capacity > 0.0, "resource capacity must be positive");
        assert!(
            (0.0..=10.0).contains(&thrash),
            "implausible thrash {thrash}"
        );
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(Resource {
            name: name.into(),
            capacity,
            thrash,
        });
        id
    }

    /// Look up a resource.
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.0 as usize]
    }

    /// Number of registered resources.
    pub fn n_resources(&self) -> usize {
        self.resources.len()
    }

    /// Number of currently active flows.
    pub fn n_active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Advance all flow progress to time `now` using current rates.
    /// Must be called before any add/remove at time `now`.
    pub(crate) fn advance_to(&mut self, now: SimTime) {
        let dt = now - self.last_update;
        debug_assert!(dt >= -1e-9, "time went backwards: {dt}");
        if dt > 0.0 {
            for f in &mut self.flows {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.last_update = now;
    }

    /// Admit a flow of `bytes` along `path`. Caller must `advance_to(now)`
    /// first and recompute rates afterwards.
    pub(crate) fn admit(&mut self, path: Vec<ResourceId>, bytes: f64) -> FlowId {
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "invalid flow size {bytes}"
        );
        for r in &path {
            assert!(
                (r.0 as usize) < self.resources.len(),
                "unknown resource {r:?}"
            );
        }
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        self.bytes_admitted += bytes;
        self.flows.push(FlowState {
            id,
            path,
            remaining: bytes,
            rate: 0.0,
        });
        id
    }

    /// Remove and return every flow whose remaining bytes have drained
    /// (call after [`Self::advance_to`]). Order is deterministic (admission
    /// order).
    pub(crate) fn take_finished(&mut self) -> Vec<FlowId> {
        // A flow is done when its remainder is negligible OR when it could
        // not drain within one representable step of virtual time (the
        // remainder is below rate x ulp(now) — scheduling a tick for it
        // would land on the same instant and livelock).
        let t = self.last_update.secs().abs().max(1.0);
        let ulp = t * f64::EPSILON * 4.0;
        let mut out = Vec::new();
        self.flows.retain(|f| {
            let done = f.remaining <= 1e-6 || f.remaining <= f.rate * ulp;
            if done {
                out.push(f.id);
            }
            !done
        });
        out
    }

    /// Remaining bytes of a flow, if still active.
    pub fn remaining(&self, id: FlowId) -> Option<f64> {
        self.flows.iter().find(|f| f.id == id).map(|f| f.remaining)
    }

    /// Current rate of a flow, if still active.
    pub fn rate(&self, id: FlowId) -> Option<f64> {
        self.flows.iter().find(|f| f.id == id).map(|f| f.rate)
    }

    /// Recompute all flow rates by progressive filling (max–min fairness)
    /// and bump the epoch. Returns the earliest predicted completion time
    /// of any active flow as an offset from `last_update`
    /// (`remaining / rate`), or infinity when nothing can finish.
    ///
    /// Each filling round freezes the members of the current bottleneck,
    /// found through per-resource member lists (CSR, admission order) kept
    /// in [`Scratch`]; a round never looks at flows off the bottleneck.
    pub(crate) fn recompute_rates(&mut self) -> f64 {
        self.epoch += 1;
        let nf = self.flows.len();
        if nf == 0 {
            return f64::INFINITY;
        }
        let s = &mut self.scratch;
        s.build(&self.resources, &self.flows);
        let mut unfrozen = nf;
        while unfrozen > 0 {
            // Find bottleneck: resource with the smallest fair share; the
            // lowest index wins ties.
            let mut best: Option<(usize, f64)> = None;
            for (ri, (&c, &u)) in s.cap.iter().zip(&s.users).enumerate() {
                if u == 0 || !c.is_finite() {
                    continue;
                }
                let share = c / u as f64;
                match best {
                    Some((_, b)) if b <= share => {}
                    _ => best = Some((ri, share)),
                }
            }
            let Some((bottleneck, share)) = best else {
                // All remaining flows pass only through infinite resources.
                for (f, &frozen) in self.flows.iter_mut().zip(&s.frozen) {
                    if !frozen {
                        f.rate = f64::INFINITY;
                    }
                }
                break;
            };
            // Freeze every unfrozen member of the bottleneck at `share`,
            // in admission order: the same flows, order and subtractions
            // as scanning every flow's path, so the rates are bit-identical.
            let (lo, hi) = (s.start[bottleneck], s.start[bottleneck + 1]);
            for &fi in &s.members[lo as usize..hi as usize] {
                let fi = fi as usize;
                if s.frozen[fi] {
                    continue; // frozen earlier, or a repeated path entry
                }
                s.frozen[fi] = true;
                unfrozen -= 1;
                let f = &mut self.flows[fi];
                f.rate = share;
                for r in &f.path {
                    let ri = r.0 as usize;
                    if s.cap[ri].is_finite() {
                        s.cap[ri] = (s.cap[ri] - share).max(0.0);
                    }
                    s.users[ri] -= 1;
                }
            }
            debug_assert_eq!(s.users[bottleneck], 0);
        }

        let mut min_eta = f64::INFINITY;
        for f in &mut self.flows {
            if f.rate.is_infinite() {
                // Uncontended path (e.g. loopback): transfers instantly.
                // Zero the remainder here — progress accounting advances by
                // rate x elapsed-time, which is NaN/undefined for an
                // infinite rate over zero time.
                f.remaining = 0.0;
            }
            let eta = flow_eta(f.remaining, f.rate);
            if eta < min_eta {
                min_eta = eta;
            }
        }
        min_eta
    }

    pub(crate) fn last_update(&self) -> SimTime {
        self.last_update
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain progressive-filling solver: every round scans every
    /// unfrozen flow's path for the bottleneck. Returns each flow's rate
    /// and the minimum ETA, without touching `n`.
    fn oracle(n: &FlowNet) -> (Vec<f64>, f64) {
        let nf = n.flows.len();
        let nr = n.resources.len();
        let mut users: Vec<u32> = vec![0; nr];
        for f in &n.flows {
            for r in &f.path {
                users[r.0 as usize] += 1;
            }
        }
        let mut cap: Vec<f64> = n
            .resources
            .iter()
            .zip(&users)
            .map(|(r, &u)| {
                if r.thrash > 0.0 && u > 1 {
                    r.capacity / (1.0 + r.thrash * (u - 1) as f64).min(3.0)
                } else {
                    r.capacity
                }
            })
            .collect();
        let mut frozen = vec![false; nf];
        let mut rates = vec![0.0f64; nf];
        let mut remaining_flows = nf;
        while remaining_flows > 0 {
            let mut best: Option<(usize, f64)> = None;
            for (ri, (&c, &u)) in cap.iter().zip(users.iter()).enumerate() {
                if u == 0 || !c.is_finite() {
                    continue;
                }
                let share = c / u as f64;
                match best {
                    Some((_, s)) if s <= share => {}
                    _ => best = Some((ri, share)),
                }
            }
            let Some((bottleneck, share)) = best else {
                for fi in 0..nf {
                    if !frozen[fi] {
                        rates[fi] = f64::INFINITY;
                    }
                }
                break;
            };
            for fi in 0..nf {
                if frozen[fi] {
                    continue;
                }
                if n.flows[fi].path.iter().any(|r| r.0 as usize == bottleneck) {
                    frozen[fi] = true;
                    rates[fi] = share;
                    remaining_flows -= 1;
                    for r in &n.flows[fi].path {
                        let ri = r.0 as usize;
                        if cap[ri].is_finite() {
                            cap[ri] = (cap[ri] - share).max(0.0);
                        }
                        users[ri] -= 1;
                    }
                }
            }
        }
        let min_eta = n
            .flows
            .iter()
            .zip(&rates)
            .map(|(f, &rate)| {
                let remaining = if rate.is_infinite() { 0.0 } else { f.remaining };
                flow_eta(remaining, rate)
            })
            .fold(f64::INFINITY, |m, e| if e < m { e } else { m });
        (rates, min_eta)
    }

    #[test]
    fn solver_matches_oracle_bit_for_bit() {
        for seed in 0..200u64 {
            let mut rng = scirng::Rng::seed_from_u64(0x5eed_f10a ^ seed);
            let mut n = FlowNet::new();
            let nr = 1 + rng.below(12);
            for i in 0..nr {
                // Capacities from a small set make equal fair shares (and
                // so bottleneck ties) common.
                let capacity = match rng.below(6) {
                    0 => f64::INFINITY,
                    1 => rng.range_f64(1.0, 1e9),
                    k => 1e8 * (k * k) as f64 / 3.0,
                };
                // Thrash disks, some with the 3x degradation cap in reach.
                let thrash = match rng.below(3) {
                    0 => rng.range_f64(0.0, 2.0),
                    _ => 0.0,
                };
                n.add_resource_thrash(format!("r{i}"), capacity, thrash);
            }
            let mut now = 0.0;
            for round in 0..8 {
                for _ in 0..rng.below(40) {
                    // Paths of 0-4 entries; a resource may repeat.
                    let path: Vec<ResourceId> = (0..rng.below(5))
                        .map(|_| ResourceId(rng.below(nr) as u32))
                        .collect();
                    let bytes = match rng.below(5) {
                        0 => 0.0,
                        _ => rng.range_f64(1.0, 1e10),
                    };
                    n.admit(path, bytes);
                }
                let (want_rates, want_eta) = oracle(&n);
                let eta = n.recompute_rates();
                let rates: Vec<f64> = n.flows.iter().map(|f| f.rate).collect();
                let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&rates), bits(&want_rates), "seed {seed} round {round}");
                assert_eq!(
                    eta.to_bits(),
                    want_eta.to_bits(),
                    "seed {seed} round {round}"
                );
                if eta.is_finite() {
                    now += eta * rng.range_f64(0.5, 1.5);
                    n.advance_to(SimTime(now));
                    n.take_finished();
                }
            }
        }
    }

    fn net_with(caps: &[f64]) -> FlowNet {
        let mut n = FlowNet::new();
        for (i, &c) in caps.iter().enumerate() {
            n.add_resource(format!("r{i}"), c);
        }
        n
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut n = net_with(&[100.0]);
        let f = n.admit(vec![ResourceId(0)], 1000.0);
        let eta = n.recompute_rates();
        assert_eq!(n.rate(f), Some(100.0));
        assert!((eta - 10.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut n = net_with(&[100.0]);
        let a = n.admit(vec![ResourceId(0)], 1000.0);
        let b = n.admit(vec![ResourceId(0)], 500.0);
        n.recompute_rates();
        assert_eq!(n.rate(a), Some(50.0));
        assert_eq!(n.rate(b), Some(50.0));
    }

    #[test]
    fn bottleneck_redistribution() {
        // Flow A uses r0 (cap 100) only; flow B uses r0 and r1 (cap 10).
        // B is bottlenecked at 10 by r1, A should get the leftover 90.
        let mut n = net_with(&[100.0, 10.0]);
        let a = n.admit(vec![ResourceId(0)], 1e6);
        let b = n.admit(vec![ResourceId(0), ResourceId(1)], 1e6);
        n.recompute_rates();
        assert!((n.rate(b).unwrap() - 10.0).abs() < 1e-9);
        assert!((n.rate(a).unwrap() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn progress_advances_with_time() {
        let mut n = net_with(&[100.0]);
        let f = n.admit(vec![ResourceId(0)], 1000.0);
        n.recompute_rates();
        n.advance_to(SimTime(4.0));
        assert!((n.remaining(f).unwrap() - 600.0).abs() < 1e-9);
        n.advance_to(SimTime(10.0));
        assert_eq!(n.remaining(f), Some(0.0));
    }

    #[test]
    fn removal_frees_capacity() {
        let mut n = net_with(&[100.0]);
        let a = n.admit(vec![ResourceId(0)], 1000.0);
        let b = n.admit(vec![ResourceId(0)], 100.0);
        n.recompute_rates();
        assert_eq!(n.rate(a), Some(50.0));
        n.advance_to(SimTime(2.0)); // b drains: 50 B/s x 2 s
        assert_eq!(n.take_finished(), vec![b]);
        assert_eq!(n.rate(b), None);
        n.recompute_rates();
        assert_eq!(n.rate(a), Some(100.0));
        assert!(n.take_finished().is_empty());
    }

    #[test]
    fn infinite_resources_never_bottleneck() {
        let mut n = FlowNet::new();
        let inf = n.add_resource("inf", f64::INFINITY);
        let cap = n.add_resource("cap", 50.0);
        let f = n.admit(vec![inf, cap], 100.0);
        n.recompute_rates();
        assert_eq!(n.rate(f), Some(50.0));
    }

    #[test]
    fn thrash_degrades_with_stream_count_and_caps() {
        let mut n = FlowNet::new();
        let d = n.add_resource_thrash("hdd", 100.0, 0.5);
        // 1 stream: full capacity.
        let f = n.admit(vec![d], 1e6);
        n.recompute_rates();
        assert_eq!(n.rate(f), Some(100.0));
        // 3 streams: 100 / (1 + 0.5*2) = 50 total → ~16.7 each.
        n.admit(vec![d], 1e6);
        n.admit(vec![d], 1e6);
        n.recompute_rates();
        assert!((n.rate(f).unwrap() - 50.0 / 3.0).abs() < 1e-9);
        // Many streams: degradation capped at 3x → 33.3 total.
        for _ in 0..20 {
            n.admit(vec![d], 1e6);
        }
        n.recompute_rates();
        let total: f64 = 23.0 * n.rate(f).unwrap();
        assert!((total - 100.0 / 3.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn take_finished_returns_only_drained_flows() {
        let mut n = net_with(&[100.0]);
        let a = n.admit(vec![ResourceId(0)], 100.0);
        let b = n.admit(vec![ResourceId(0)], 500.0);
        n.recompute_rates();
        n.advance_to(SimTime(2.0)); // each got 50 B/s x 2s = 100
        let done = n.take_finished();
        assert_eq!(done, vec![a]);
        assert!(n.remaining(b).unwrap() > 0.0);
        assert_eq!(n.n_active_flows(), 1);
    }

    #[test]
    fn rates_conserve_capacity() {
        // Sum of rates through any resource never exceeds its capacity.
        let mut n = net_with(&[100.0, 60.0, 30.0]);
        let paths: Vec<Vec<ResourceId>> = vec![
            vec![ResourceId(0)],
            vec![ResourceId(0), ResourceId(1)],
            vec![ResourceId(1), ResourceId(2)],
            vec![ResourceId(0), ResourceId(2)],
            vec![ResourceId(2)],
        ];
        for p in paths {
            n.admit(p, 1e9);
        }
        n.recompute_rates();
        for ri in 0..3 {
            let total: f64 = n
                .flows
                .iter()
                .filter(|f| f.path.iter().any(|r| r.0 as usize == ri))
                .map(|f| f.rate)
                .sum();
            assert!(
                total <= n.resources[ri].capacity + 1e-6,
                "resource {ri} oversubscribed: {total}"
            );
        }
        // Max-min property: every flow is bottlenecked somewhere (its rate
        // cannot be increased without exceeding some capacity).
        for (fi, f) in n.flows.iter().enumerate() {
            let bottled = f.path.iter().any(|r| {
                let ri = r.0 as usize;
                let total: f64 = n
                    .flows
                    .iter()
                    .filter(|g| g.path.iter().any(|x| x.0 as usize == ri))
                    .map(|g| g.rate)
                    .sum();
                total >= n.resources[ri].capacity - 1e-6
            });
            assert!(bottled, "flow {fi} is not bottlenecked anywhere");
        }
    }
}
