//! Property-based tests of the discrete-event engine and the measurement types.

use p2plab_sim::{Cdf, EventId, EventQueue, SimDuration, SimTime, Simulation, Summary, TimeSeries};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A trivially-correct reference queue: an ordered map keyed on `(time, seq)`, popped from
/// its first key. The timer wheel must be observation-equivalent to it under any interleaving
/// of schedules, cancellations and pops.
#[derive(Default)]
struct ModelQueue {
    entries: BTreeMap<(SimTime, u64), usize>, // (time, seq) -> payload
    /// Scheduled time of every seq ever pushed (seqs are dense from 0).
    times: Vec<SimTime>,
}

impl ModelQueue {
    fn push(&mut self, time: SimTime, payload: usize) -> u64 {
        let seq = self.times.len() as u64;
        self.times.push(time);
        self.entries.insert((time, seq), payload);
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let time = self.times[seq as usize];
        self.entries.remove(&(time, seq)).is_some()
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let ((t, _), p) = self.entries.pop_first()?;
        Some((t, p))
    }
}

/// One step of a random queue workload.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule at the given (raw-nanosecond) time.
    Push(u64),
    /// Cancel the i-th still-uncancelled, unpopped id (modulo the live count).
    Cancel(usize),
    /// Pop the next due event.
    Pop,
}

/// Weighted op generator (the vendored proptest stub has no `prop_oneof!`). Push times mix
/// sub-tick deltas, mid-range delays and beyond-horizon outliers so every wheel path (ready
/// buffer, each level, overflow heap) is exercised.
struct QueueOpStrategy;

impl Strategy for QueueOpStrategy {
    type Value = QueueOp;
    fn sample(&self, rng: &mut proptest::TestRng) -> QueueOp {
        use rand::Rng;
        match rng.gen_range(0u32..17) {
            0..=4 => QueueOp::Push(rng.gen_range(0u64..2_000)),
            5..=9 => QueueOp::Push(rng.gen_range(0u64..10_000_000_000)),
            10 => QueueOp::Push(rng.gen_range(0u64..u64::MAX)),
            11 | 12 => QueueOp::Cancel(rng.gen_range(0usize..64)),
            _ => QueueOp::Pop,
        }
    }
}

/// One step of a lattice-burst workload: pushes cluster on a few shared instants, as periodic
/// rounds over fixed link delays do.
#[derive(Debug, Clone)]
enum BurstOp {
    /// Push `count` entries at the `ahead`-th lattice point at or after the model's clock,
    /// each offset by up to `jitter` ns (0 = identical times), latest-first if `descending`.
    Burst {
        ahead: u64,
        count: usize,
        jitter: u64,
        descending: bool,
    },
    /// Cancel `count` ids from position `from` on, counted over every id ever pushed (popped
    /// and already-cancelled ids must fail to cancel in both queues).
    Cancel { from: usize, count: usize },
    /// Pop up to `count` events.
    Pop(usize),
}

/// Lattice periods: one wheel tick (bursts land in the ready heap or level 0), 5 ms (76 ticks
/// ahead: level 1, reaching the ready heap through a level-1 cascade) and 1 s (level 2).
const LATTICE_PERIODS_NS: [u64; 3] = [65_536, 5_000_000, 1_000_000_000];

struct BurstOpStrategy;

impl Strategy for BurstOpStrategy {
    type Value = BurstOp;
    fn sample(&self, rng: &mut proptest::TestRng) -> BurstOp {
        use rand::Rng;
        match rng.gen_range(0u32..10) {
            0..=4 => BurstOp::Burst {
                ahead: rng.gen_range(0u64..3),
                // Mostly tens to hundreds, sometimes thousands, of entries in one burst.
                count: match rng.gen_range(0u32..8) {
                    0 => rng.gen_range(1_000usize..3_000),
                    1..=3 => rng.gen_range(100usize..1_000),
                    _ => rng.gen_range(1usize..100),
                },
                jitter: [0, 0, 1_000, 60_000, 200_000][rng.gen_range(0usize..5)],
                descending: rng.gen_range(0u32..2) == 0,
            },
            5 | 6 => BurstOp::Cancel {
                from: rng.gen_range(0usize..100_000),
                count: rng.gen_range(1usize..200),
            },
            _ => BurstOp::Pop(rng.gen_range(1usize..2_000)),
        }
    }
}

proptest! {
    /// Whatever the insertion order, events pop in non-decreasing time order, and equal times
    /// pop in insertion order.
    #[test]
    fn queue_pops_in_time_then_insertion_order(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, _, payload)) = q.pop() {
            popped.push((t, payload));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "ties must preserve insertion order");
            }
        }
    }

    /// The timer wheel is observation-equivalent to the reference model queue: any random
    /// interleaving of schedules, cancellations and pops yields the same sequence of
    /// `(time, payload)` observations and the same cancellation outcomes.
    #[test]
    fn wheel_is_observation_equivalent_to_reference_heap(
        ops in prop::collection::vec(QueueOpStrategy, 1..400),
    ) {
        let mut wheel: EventQueue<usize> = EventQueue::new();
        let mut model = ModelQueue::default();
        // Live ids in scheduling order, kept aligned between the two queues.
        let mut live: Vec<(EventId, u64)> = Vec::new();
        let mut payload = 0usize;
        for op in &ops {
            match op {
                QueueOp::Push(t) => {
                    let time = SimTime::from_nanos(*t);
                    let id = wheel.push(time, payload);
                    let seq = model.push(time, payload);
                    live.push((id, seq));
                    payload += 1;
                }
                QueueOp::Cancel(i) => {
                    if !live.is_empty() {
                        let (id, seq) = live.remove(i % live.len());
                        prop_assert_eq!(wheel.cancel(id), model.cancel(seq));
                        // A second cancel of the same id must be a no-op.
                        prop_assert!(!wheel.cancel(id));
                    }
                }
                QueueOp::Pop => {
                    let got = wheel.pop().map(|(t, _, p)| (t, p));
                    let want = model.pop();
                    prop_assert_eq!(got, want);
                    if let Some((_, p)) = got {
                        live.retain(|&(_, seq)| {
                            // The model's seq equals the payload's scheduling index here.
                            seq != p as u64
                        });
                    }
                }
            }
            prop_assert_eq!(wheel.len(), model.entries.len());
        }
        // Drain both queues; the tails must agree too.
        loop {
            let got = wheel.pop().map(|(t, _, p)| (t, p));
            let want = model.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    /// Lattice bursts — up to thousands of entries on a handful of instants, identical or
    /// sub-tick apart, pushed directly into the current tick or arriving through level-1 and
    /// level-2 cascades, interleaved with cancels and pops — leave the wheel
    /// observation-equivalent to the reference model queue.
    #[test]
    fn lattice_bursts_match_the_reference_queue(
        period_index in 0usize..3,
        phase in 0u64..65_536,
        ops in prop::collection::vec(BurstOpStrategy, 1..40),
    ) {
        let period = LATTICE_PERIODS_NS[period_index];
        let mut wheel: EventQueue<usize> = EventQueue::new();
        let mut model = ModelQueue::default();
        // Wheel ids indexed by model seq (= payload).
        let mut ids: Vec<EventId> = Vec::new();
        let mut now = 0u64;
        let check_pop = |wheel: &mut EventQueue<usize>, model: &mut ModelQueue, now: &mut u64| {
            let got = wheel.pop().map(|(t, _, p)| (t, p));
            prop_assert_eq!(got, model.pop());
            if let Some((t, _)) = got {
                *now = t.as_nanos();
            }
            got.is_some()
        };
        for op in &ops {
            match *op {
                BurstOp::Burst { ahead, count, jitter, descending } => {
                    // First lattice point at or after the clock, then `ahead` periods on.
                    let k = now.saturating_sub(phase).div_ceil(period) + ahead;
                    let instant = phase + k * period;
                    for i in 0..count as u64 {
                        let rank = if descending { count as u64 - 1 - i } else { i };
                        let offset = rank * jitter / count as u64;
                        let time = SimTime::from_nanos(instant + offset);
                        let payload = ids.len();
                        ids.push(wheel.push(time, payload));
                        prop_assert_eq!(model.push(time, payload), payload as u64);
                    }
                }
                BurstOp::Cancel { from, count } => {
                    if !ids.is_empty() {
                        for seq in (from..from + count).map(|i| i % ids.len()) {
                            prop_assert_eq!(wheel.cancel(ids[seq]), model.cancel(seq as u64));
                        }
                    }
                }
                BurstOp::Pop(count) => {
                    for _ in 0..count {
                        if !check_pop(&mut wheel, &mut model, &mut now) {
                            break;
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.len(), model.entries.len());
        }
        while check_pop(&mut wheel, &mut model, &mut now) {}
        prop_assert!(wheel.is_empty());
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn queue_cancellation_removes_exactly_the_cancelled(
        times in prop::collection::vec(0u64..1_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times.iter().enumerate().map(|(i, &t)| (i, q.push(SimTime::from_micros(t), i))).collect();
        let mut cancelled = std::collections::BTreeSet::new();
        for (i, id) in &ids {
            if *cancel_mask.get(*i % cancel_mask.len()).unwrap_or(&false) {
                q.cancel(*id);
                cancelled.insert(*i);
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        while let Some((_, _, payload)) = q.pop() {
            seen.insert(payload);
        }
        prop_assert_eq!(seen.len() + cancelled.len(), times.len());
        prop_assert!(seen.is_disjoint(&cancelled));
    }

    /// Same-instant FIFO survives cancellation: events at one instant run in scheduling order
    /// even when an arbitrary subset of that instant's events is cancelled first.
    #[test]
    fn same_instant_fifo_survives_cancellation(
        cancel_mask in prop::collection::vec(any::<bool>(), 20..21),
    ) {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        let ids: Vec<_> = (0..cancel_mask.len()).map(|i| q.push(t, i)).collect();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i] {
                q.cancel(*id);
            }
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        let expected: Vec<usize> = (0..cancel_mask.len()).filter(|&i| !cancel_mask[i]).collect();
        prop_assert_eq!(popped, expected, "survivors must run in scheduling order");
    }

    /// The simulation clock never goes backwards, no matter how events are scheduled.
    #[test]
    fn simulation_time_is_monotonic(delays in prop::collection::vec(0u64..5_000_000u64, 1..100)) {
        let mut sim: Simulation<Vec<SimTime>> = Simulation::new(Vec::new(), 1);
        for &d in &delays {
            sim.schedule_in(SimDuration::from_nanos(d), move |sim| {
                let now = sim.now();
                sim.world_mut().push(now);
                // Nested event with another arbitrary delay.
                sim.schedule_in(SimDuration::from_nanos(d / 2 + 1), move |sim| {
                    let now = sim.now();
                    sim.world_mut().push(now);
                });
            });
        }
        sim.run();
        let observed = sim.world();
        prop_assert_eq!(observed.len(), delays.len() * 2);
        for w in observed.windows(2) {
            prop_assert!(w[0] <= w[1], "time went backwards: {} then {}", w[0], w[1]);
        }
    }

    /// Time arithmetic: (t + d) - t == d for any representable values.
    #[test]
    fn time_addition_roundtrips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t0 = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((t0 + dur) - t0, dur);
        prop_assert!(t0 + dur >= t0);
    }

    /// Transmission delay is monotone in size and antitone in bandwidth.
    #[test]
    fn transmission_delay_monotonicity(bytes in 1u64..10_000_000, bps in 1u64..10_000_000_000) {
        let d = SimDuration::transmission(bytes, bps);
        prop_assert!(d >= SimDuration::transmission(bytes / 2, bps));
        prop_assert!(d >= SimDuration::transmission(bytes, bps * 2));
        prop_assert!(d > SimDuration::ZERO);
    }

    /// A CDF built from any sample set is a valid distribution function: monotone, 0 below the
    /// minimum, 1 at and above the maximum, and quantiles are actual samples.
    #[test]
    fn cdf_is_a_distribution_function(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = Cdf::from_samples(samples.clone());
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(cdf.fraction_at(min - 1.0), 0.0);
        prop_assert_eq!(cdf.fraction_at(max), 1.0);
        let mut last = 0.0;
        for q in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let x = cdf.quantile(q).unwrap();
            prop_assert!(samples.contains(&x));
            let f = cdf.fraction_at(x);
            prop_assert!(f >= last - 1e-12);
            last = f;
        }
    }

    /// Summary statistics are internally consistent.
    #[test]
    fn summary_is_consistent(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&samples).unwrap();
        prop_assert_eq!(s.count, samples.len());
        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert!(s.std_dev <= (s.max - s.min) + 1e-9);
    }

    /// Step interpolation of a time series always returns either the default or one of the
    /// recorded values, and `time_to_reach` is consistent with the samples.
    #[test]
    fn time_series_step_interpolation(values in prop::collection::vec(0f64..100.0, 1..50)) {
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut ts = TimeSeries::new();
        for (i, v) in sorted.iter().enumerate() {
            ts.push(SimTime::from_secs(i as u64 + 1), *v);
        }
        prop_assert_eq!(ts.value_at(SimTime::ZERO, -1.0), -1.0);
        for (i, v) in sorted.iter().enumerate() {
            prop_assert_eq!(ts.value_at(SimTime::from_secs(i as u64 + 1), -1.0), *v);
        }
        if let Some(t) = ts.time_to_reach(sorted[sorted.len() - 1]) {
            prop_assert!(t <= SimTime::from_secs(sorted.len() as u64));
        }
    }
}
