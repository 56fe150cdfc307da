//! Property tests for [`Telemetry::pause_histogram`]: the log-bucketed
//! histogram's exact side-channels (count, sum, max) must agree with the
//! telemetry's own aggregates over arbitrary pause sequences, including
//! the batched pauses produced by the engine's fast-forward path.

use chopin_runtime::collector::CollectionKind;
use chopin_runtime::telemetry::{PauseRecord, Telemetry};
use chopin_runtime::time::{SimDuration, SimTime};
use proptest::collection::vec;
use proptest::prelude::*;

fn kind_for(tag: u64) -> CollectionKind {
    match tag % 4 {
        0 => CollectionKind::Young,
        1 => CollectionKind::Full,
        2 => CollectionKind::Concurrent,
        _ => CollectionKind::Degenerate,
    }
}

/// Build a telemetry from (individual pause ns) and (batch count, each ns)
/// sequences, mimicking the engine's recording order.
fn telemetry_of(pauses: &[u64], batches: &[(u64, u64)]) -> Telemetry {
    let mut t = Telemetry::new();
    let mut now = 0u64;
    for (i, &ns) in pauses.iter().enumerate() {
        t.record_pause(PauseRecord {
            start: SimTime::from_nanos(now),
            duration: SimDuration::from_nanos(ns),
            gc_cpu_ns: ns as f64,
            kind: kind_for(i as u64),
        });
        now += ns + 1;
    }
    for &(count, each) in batches {
        t.record_batched_pauses(
            count,
            SimDuration::from_nanos(each) * count,
            each as f64 * count as f64,
        );
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_histogram_count_and_sum_are_exact(
        pauses in vec(1u64..100_000_000, 0..64),
        batches in vec((1u64..10_000, 1u64..100_000_000), 0..8),
    ) {
        let t = telemetry_of(&pauses, &batches);
        let h = t.pause_histogram();
        let batch_count: u64 = batches.iter().map(|&(c, _)| c).sum();
        prop_assert_eq!(h.count(), pauses.len() as u64 + batch_count);
        prop_assert_eq!(h.count(), t.pauses.len() as u64 + t.batched_pause_count);
        prop_assert_eq!(h.sum(), u128::from(t.total_pause_wall().as_nanos()));
    }

    #[test]
    fn prop_histogram_max_brackets_the_true_max(
        pauses in vec(1u64..100_000_000, 1..64),
        batches in vec((1u64..10_000, 1u64..100_000_000), 0..8),
    ) {
        let t = telemetry_of(&pauses, &batches);
        let h = t.pause_histogram();
        let true_max = pauses
            .iter()
            .copied()
            .chain(batches.iter().map(|&(_, each)| each))
            .max()
            .unwrap_or(0);
        // Batched pauses enter at their aggregate mean, which never
        // exceeds the largest batch duration; individual maxima are exact.
        prop_assert!(h.max() <= true_max);
        let individual_max = t.max_pause().map(SimDuration::as_nanos).unwrap_or(0);
        prop_assert!(h.max() >= individual_max);
        if batches.is_empty() {
            prop_assert_eq!(h.max(), true_max);
        }
    }

    #[test]
    fn prop_quantiles_are_monotone_and_within_range(
        pauses in vec(1u64..100_000_000, 1..64),
        batches in vec((1u64..10_000, 1u64..100_000_000), 0..4),
    ) {
        let t = telemetry_of(&pauses, &batches);
        let h = t.pause_histogram();
        let (p50, p90, p99, p999) = (h.p50(), h.p90(), h.p99(), h.p999());
        prop_assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        prop_assert!(p999 <= h.max());
        prop_assert!(p50 >= 1, "positive inputs yield positive quantiles");
    }
}
