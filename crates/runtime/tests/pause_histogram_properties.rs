//! Property tests for [`Telemetry::pause_histogram`]: over arbitrary
//! sequences of stepped pauses and replayed periods, the histogram's
//! count, sum and maximum are exact, and so are the telemetry aggregates
//! that read it.

use chopin_runtime::collector::CollectionKind;
use chopin_runtime::telemetry::{PauseRecord, Telemetry};
use chopin_runtime::time::{SimDuration, SimTime};
use proptest::collection::vec;
use proptest::prelude::*;

fn kind_for(tag: usize) -> CollectionKind {
    match tag % 4 {
        0 => CollectionKind::Young,
        1 => CollectionKind::Full,
        2 => CollectionKind::Concurrent,
        _ => CollectionKind::Degenerate,
    }
}

/// One replayed period: its pauses' wall nanoseconds and how often it
/// replays.
type Replay = (Vec<u64>, u64);

/// Build a telemetry from stepped pauses and replayed periods, in the
/// engine's recording order.
fn telemetry_of(pauses: &[u64], replays: &[Replay]) -> Telemetry {
    let mut t = Telemetry::new();
    let mut now = 0u64;
    for (i, &ns) in pauses.iter().enumerate() {
        t.record_pause(PauseRecord {
            start: SimTime::from_nanos(now),
            duration: SimDuration::from_nanos(ns),
            gc_cpu_ns: ns as f64,
            kind: kind_for(i),
        });
        now += ns + 1;
    }
    for (period, k) in replays {
        let period: Vec<_> = period
            .iter()
            .enumerate()
            .map(|(i, &ns)| (kind_for(i), SimDuration::from_nanos(ns)))
            .collect();
        t.record_replayed_pauses(&period, *k, 0.0);
    }
    t
}

/// Every pause as (wall nanoseconds, occurrences, kind).
fn every_pause<'a>(
    pauses: &'a [u64],
    replays: &'a [Replay],
) -> impl Iterator<Item = (u64, u64, CollectionKind)> + 'a {
    let stepped = pauses
        .iter()
        .enumerate()
        .map(|(i, &ns)| (ns, 1, kind_for(i)));
    let replayed = replays.iter().flat_map(|(period, k)| {
        period
            .iter()
            .enumerate()
            .map(move |(i, &ns)| (ns, *k, kind_for(i)))
    });
    stepped.chain(replayed)
}

fn arb_replays(max: usize) -> impl Strategy<Value = Vec<Replay>> {
    vec((vec(1u64..100_000_000, 1..32), 1u64..10_000), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_histogram_count_and_sum_are_exact(
        pauses in vec(1u64..100_000_000, 0..64),
        replays in arb_replays(8),
    ) {
        let t = telemetry_of(&pauses, &replays);
        let h = t.pause_histogram();
        let count: u64 = every_pause(&pauses, &replays).map(|(_, n, _)| n).sum();
        let sum: u128 = every_pause(&pauses, &replays)
            .map(|(ns, n, _)| u128::from(ns) * u128::from(n))
            .sum();
        let degenerate: u64 = every_pause(&pauses, &replays)
            .filter(|&(_, _, kind)| kind == CollectionKind::Degenerate)
            .map(|(_, n, _)| n)
            .sum();
        prop_assert_eq!(h.count(), count);
        prop_assert_eq!(h.sum(), sum);
        prop_assert_eq!(u128::from(t.total_pause_wall().as_nanos()), sum);
        prop_assert_eq!(t.degenerate_count, degenerate);
        prop_assert_eq!(t.pauses.len(), pauses.len(), "replays keep no record");
    }

    #[test]
    fn prop_histogram_max_is_the_true_max(
        pauses in vec(1u64..100_000_000, 0..64),
        replays in arb_replays(8),
    ) {
        let t = telemetry_of(&pauses, &replays);
        let true_max = every_pause(&pauses, &replays).map(|(ns, _, _)| ns).max();
        prop_assert_eq!(t.pause_histogram().max(), true_max.unwrap_or(0));
        prop_assert_eq!(t.max_pause(), true_max.map(SimDuration::from_nanos));
    }

    #[test]
    fn prop_quantiles_are_monotone_and_within_range(
        pauses in vec(1u64..100_000_000, 1..64),
        replays in arb_replays(4),
    ) {
        let t = telemetry_of(&pauses, &replays);
        let h = t.pause_histogram();
        let (p50, p90, p99, p999) = (h.p50(), h.p90(), h.p99(), h.p999());
        prop_assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        prop_assert!(p999 <= h.max());
        prop_assert!(p50 >= 1, "positive inputs yield positive quantiles");
    }
}
