//! Request-event extraction for the latency-sensitive workloads.
//!
//! "DaCapo times every event: frame renders for jme and client requests for
//! the other eight latency-sensitive workloads. As the workload progresses,
//! DaCapo stores event start and end times in an array." (§4.4)
//!
//! The simulation reproduces that measurement exactly: each worker thread
//! consumes a pre-determined sequence of requests back to back; a request's
//! end time is the wall time at which the worker's cumulative progress
//! reaches the request's cumulative service demand, read off the run's
//! [`ProgressTrace`]. Stop-the-world pauses, barrier slowdowns and pacing
//! stalls therefore stretch exactly the requests they overlap — several
//! short pauses and one long pause produce the different latency signatures
//! Cheng and Blelloch's figure illustrates (Figure 2).

use crate::progress::ProgressTrace;
use crate::spec::RequestProfile;
use crate::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One timed event: a request (or frame) with its observed start and end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RequestEvent {
    /// When the worker began serving the request.
    pub start: SimTime,
    /// When the request completed.
    pub end: SimTime,
}

impl RequestEvent {
    /// The event's simple latency (end − start).
    pub fn latency(&self) -> crate::time::SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Extract the per-request events of a run.
///
/// `trace` is the run's progress trace; `profile` the workload's request
/// structure; `seed` makes the pre-determined request demands deterministic;
/// `total_worker_progress` bounds each worker's demand so the request set
/// exactly covers the run's useful work.
///
/// Returns events sorted by start time. Returns an empty vector if the
/// trace is empty.
///
/// # Examples
///
/// ```
/// use chopin_runtime::progress::ProgressTrace;
/// use chopin_runtime::requests::extract_events;
/// use chopin_runtime::spec::RequestProfile;
/// use chopin_runtime::time::SimTime;
///
/// let mut trace = ProgressTrace::new();
/// trace.push(SimTime::from_nanos(0), SimTime::from_nanos(1000), 1.0);
/// let profile = RequestProfile { count: 10, workers: 2, dispersion: 0.0 };
/// let events = extract_events(&trace, &profile, 42);
/// assert_eq!(events.len(), 10);
/// // Uniform demands on an even-rate trace: each request takes 1/5 of the
/// // worker's 1000ns span.
/// assert_eq!(events[0].latency().as_nanos(), 200);
/// ```
pub fn extract_events(
    trace: &ProgressTrace,
    profile: &RequestProfile,
    seed: u64,
) -> Vec<RequestEvent> {
    let total = trace.total_worker_progress();
    if total <= 0.0 || trace.segments().is_empty() {
        return Vec::new();
    }
    let workers = profile.workers.max(1);
    let base = profile.count / workers;
    let extra = profile.count % workers;

    let mut events = Vec::with_capacity(profile.count as usize);
    for w in 0..workers {
        let count = base + u32::from(w < extra);
        if count == 0 {
            continue;
        }
        // Pre-determined demands: log-normal weights normalised so the
        // worker's requests exactly exhaust its progress budget.
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(w as u64 + 1)));
        let mut weights = Vec::with_capacity(count as usize);
        let mut sum = 0.0;
        for _ in 0..count {
            let w = if profile.dispersion > 0.0 {
                // Box–Muller from two uniforms.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen::<f64>();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (profile.dispersion * z).exp()
            } else {
                1.0
            };
            weights.push(w);
            sum += w;
        }

        let mut cursor = trace.cursor();
        let mut cumulative = 0.0;
        let mut start = trace.segments()[0].start;
        for weight in weights {
            cumulative += weight / sum * total;
            // Clamp the final boundary to the trace's total progress to
            // absorb floating-point drift.
            let target = cumulative.min(total);
            // The trace is non-empty here (segments()[0] above); if the
            // cursor still cannot place the boundary, degrade to a
            // zero-length request rather than panicking.
            let end = cursor
                .time_at_progress(target)
                .or_else(|| trace.end_time())
                .unwrap_or(start);
            events.push(RequestEvent { start, end });
            start = end;
        }
    }
    events.sort();
    events
}

/// Replay the same pre-determined request set **open-loop**: request
/// arrivals are fixed at uniform intervals across the run (the externally
/// defined start times of a real service, §4.4), and each worker serves
/// its queue FIFO at the rate the progress trace dictates.
///
/// The returned latency of each event is `completion − scheduled arrival`,
/// which includes genuine queueing delay — the quantity Metered Latency
/// approximates after the fact. Comparing the two validates the metered
/// model (see `tests/open_loop_validation.rs`).
///
/// Returns events sorted by (scheduled) start time; empty for an empty
/// trace.
pub fn replay_open_loop(
    trace: &ProgressTrace,
    profile: &RequestProfile,
    seed: u64,
) -> Vec<RequestEvent> {
    replay_open_loop_at(trace, profile, seed, 1.0)
}

/// Like [`replay_open_loop`], with the offered load scaled by `load`
/// (1.0 = the closed-loop system's exact throughput, i.e. a server at
/// 100 % utilisation; values below 1 shrink every service demand, modelling
/// a service with headroom).
///
/// # Panics
///
/// Panics if `load` is not in `(0, 1]`.
pub fn replay_open_loop_at(
    trace: &ProgressTrace,
    profile: &RequestProfile,
    seed: u64,
    load: f64,
) -> Vec<RequestEvent> {
    assert!(load > 0.0 && load <= 1.0, "load must lie in (0, 1]");
    let total = trace.total_worker_progress();
    let Some(end_time) = trace.end_time() else {
        return Vec::new();
    };
    if total <= 0.0 {
        return Vec::new();
    }
    let t0 = trace.segments()[0].start;
    let span = end_time.saturating_since(t0).as_nanos() as f64;
    let workers = profile.workers.max(1);
    let base = profile.count / workers;
    let extra = profile.count % workers;

    let mut events = Vec::with_capacity(profile.count as usize);
    for w in 0..workers {
        let count = base + u32::from(w < extra);
        if count == 0 {
            continue;
        }
        // Identical demands to the closed-loop extraction (same seeding).
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(w as u64 + 1)));
        let mut weights = Vec::with_capacity(count as usize);
        let mut sum = 0.0;
        for _ in 0..count {
            let weight = if profile.dispersion > 0.0 {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen::<f64>();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (profile.dispersion * z).exp()
            } else {
                1.0
            };
            weights.push(weight);
            sum += weight;
        }

        // Uniform arrivals across the run; FIFO service on this worker.
        let mut server_free_progress = 0.0;
        for (k, weight) in weights.iter().enumerate() {
            let arrival = t0
                + crate::time::SimDuration::from_nanos(
                    (span * k as f64 / count as f64).round() as u64
                );
            let demand = weight / sum * total * load;
            // Service starts when both the request has arrived and the
            // worker has finished everything before it.
            let start_progress = trace.progress_at_time(arrival).max(server_free_progress);
            let finish_progress = (start_progress + demand).min(total);
            let end = trace.time_at_progress(finish_progress).unwrap_or(end_time);
            server_free_progress = finish_progress;
            events.push(RequestEvent {
                start: arrival,
                end: end.max(arrival),
            });
        }
    }
    events.sort();
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn flat_trace(len_ns: u64, rate: f64) -> ProgressTrace {
        let mut t = ProgressTrace::new();
        t.push(SimTime::ZERO, SimTime::from_nanos(len_ns), rate);
        t
    }

    #[test]
    fn empty_trace_yields_no_events() {
        let t = ProgressTrace::new();
        let p = RequestProfile {
            count: 5,
            workers: 1,
            dispersion: 0.0,
        };
        assert!(extract_events(&t, &p, 1).is_empty());
    }

    #[test]
    fn request_count_is_exact_even_when_unevenly_divisible() {
        let t = flat_trace(1_000_000, 1.0);
        let p = RequestProfile {
            count: 103,
            workers: 8,
            dispersion: 0.3,
        };
        assert_eq!(extract_events(&t, &p, 7).len(), 103);
    }

    #[test]
    fn uniform_requests_on_flat_trace_have_equal_latency() {
        let t = flat_trace(1000, 1.0);
        let p = RequestProfile {
            count: 4,
            workers: 1,
            dispersion: 0.0,
        };
        let events = extract_events(&t, &p, 1);
        for e in &events {
            assert_eq!(e.latency().as_nanos(), 250);
        }
        // Back-to-back: each start is the previous end.
        for w in events.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn pause_stretches_the_overlapping_request() {
        let mut t = ProgressTrace::new();
        t.push(SimTime::from_nanos(0), SimTime::from_nanos(400), 1.0);
        t.push(SimTime::from_nanos(400), SimTime::from_nanos(900), 0.0); // 500ns pause
        t.push(SimTime::from_nanos(900), SimTime::from_nanos(1500), 1.0);
        let p = RequestProfile {
            count: 4,
            workers: 1,
            dispersion: 0.0,
        };
        // Total progress 1000; each request needs 250.
        let events = extract_events(&t, &p, 1);
        let latencies: Vec<u64> = events.iter().map(|e| e.latency().as_nanos()).collect();
        assert_eq!(
            latencies,
            vec![250, 750, 250, 250],
            "second request eats the pause"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let t = flat_trace(1_000_000, 2.0);
        let p = RequestProfile {
            count: 50,
            workers: 4,
            dispersion: 0.5,
        };
        assert_eq!(extract_events(&t, &p, 9), extract_events(&t, &p, 9));
        assert_ne!(extract_events(&t, &p, 9), extract_events(&t, &p, 10));
    }

    #[test]
    fn events_are_sorted_by_start() {
        let t = flat_trace(1_000_000, 1.0);
        let p = RequestProfile {
            count: 64,
            workers: 7,
            dispersion: 0.8,
        };
        let events = extract_events(&t, &p, 3);
        assert!(events.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn open_loop_replay_matches_closed_loop_on_an_idle_system() {
        // With uniform demands and a constant-rate trace sized so the
        // system is underloaded, queueing never happens: every request's
        // latency is just its service time.
        let mut t = ProgressTrace::new();
        t.push(SimTime::ZERO, SimTime::from_nanos(1_000_000), 1.0);
        let p = RequestProfile {
            count: 100,
            workers: 1,
            dispersion: 0.0,
        };
        let events = replay_open_loop(&t, &p, 3);
        assert_eq!(events.len(), 100);
        // Demand per request = total/100 = 10_000ns at rate 1.0; arrivals
        // are 10_000ns apart, so the server is exactly saturated and each
        // event takes ~its service time.
        for e in &events {
            let lat = e.latency().as_nanos();
            assert!((9_000..=12_000).contains(&lat), "{lat}");
        }
    }

    #[test]
    fn open_loop_queueing_amplifies_a_pause() {
        // A pause mid-run delays every queued arrival behind it.
        let mut t = ProgressTrace::new();
        t.push(SimTime::ZERO, SimTime::from_nanos(500_000), 1.0);
        t.push(
            SimTime::from_nanos(500_000),
            SimTime::from_nanos(700_000),
            0.0,
        );
        t.push(
            SimTime::from_nanos(700_000),
            SimTime::from_nanos(1_200_000),
            1.0,
        );
        let p = RequestProfile {
            count: 100,
            workers: 1,
            dispersion: 0.0,
        };
        let events = replay_open_loop(&t, &p, 3);
        let worst = events.iter().map(|e| e.latency().as_nanos()).max().unwrap();
        assert!(
            worst >= 190_000,
            "an arrival at the pause start waits out the whole pause: {worst}"
        );
        // Events long before the pause are unaffected.
        let first = events.first().unwrap().latency().as_nanos();
        assert!(first < 20_000, "{first}");
    }

    #[test]
    fn open_loop_is_deterministic_and_sorted() {
        let mut t = ProgressTrace::new();
        t.push(SimTime::ZERO, SimTime::from_nanos(1_000_000), 2.0);
        let p = RequestProfile {
            count: 64,
            workers: 4,
            dispersion: 0.7,
        };
        let a = replay_open_loop(&t, &p, 11);
        let b = replay_open_loop(&t, &p, 11);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(a.iter().all(|e| e.start <= e.end));
    }

    proptest! {
        #[test]
        fn prop_events_cover_trace_and_never_overlap_per_worker(
            count in 1u32..80,
            workers in 1u32..6,
            dispersion in 0.0f64..1.0,
            seed in 0u64..100,
        ) {
            let t = flat_trace(10_000_000, 1.5);
            let p = RequestProfile { count, workers, dispersion };
            let events = extract_events(&t, &p, seed);
            prop_assert_eq!(events.len(), count as usize);
            let end = t.end_time().unwrap();
            for e in &events {
                prop_assert!(e.start <= e.end);
                prop_assert!(e.end <= end + SimDuration::from_nanos(2));
            }
        }
    }
}
