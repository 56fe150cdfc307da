//! The simulation engine: a deterministic, variable-step event loop that
//! runs one iteration of a workload on the simulated runtime.
//!
//! The engine advances a virtual clock in slices bounded by the next
//! "interesting" event — a GC trigger, a concurrent-cycle completion, heap
//! exhaustion, or the end of the workload's useful work. Within a slice all
//! rates are constant, so heap occupancy, mutator progress and CPU
//! accounting integrate exactly. Given identical inputs the engine produces
//! bit-identical results.
//!
//! # The execution model
//!
//! * Mutator threads share the workload's total useful work. Their combined
//!   CPU draw is the workload's effective parallelism, capped by the
//!   hardware threads left over by concurrent GC.
//! * Barriers tax useful progress: a collector with an 8 % barrier tax
//!   forces the mutator to burn ~8 % more CPU for the same work. This cost
//!   is *not* recorded as GC time — it is woven into the mutator, exactly
//!   the attribution problem the LBO methodology exists to expose (§4.5).
//! * Stop-the-world collections advance the clock with all mutators frozen.
//! * Concurrent cycles run on dedicated GC threads; if allocation threatens
//!   to exhaust the heap before the cycle finishes, collectors with a
//!   throttling policy (Shenandoah, ZGC) slow or stall the mutator —
//!   lusearch's pathology in Figure 5(c,d).
//! * When a heap is so small that tens of thousands of collections would
//!   occur, the engine batches them: once the loop's own measurements show
//!   a steady state (two consecutive periods of collections taking the same
//!   simulated time), it replays whole periods by multiplying the last
//!   period's deltas, so the totals are those the stepwise loop would reach
//!   and only individual pause records, heap samples and progress-trace
//!   detail are merged.

use crate::collector::costs::ExhaustionPolicy;
use crate::collector::cycle::{plan_cycle, CollectionRequest, CycleInput, CycleOutcome};
use crate::collector::{CollectionKind, CollectorModel};
use crate::config::RunConfig;
use crate::heap::HeapState;
use crate::progress::ProgressTrace;
use crate::result::{RunError, RunResult};
use crate::spec::MutatorSpec;
use crate::telemetry::{FaultInterval, PauseRecord, Telemetry, ThrottleInterval};
use crate::time::{SimDuration, SimTime};
use chopin_faults::{FaultClock, FaultPlan, FaultSample, NoFaults, ScheduledFaults};
use chopin_obs::FaultKind as ObsFaultKind;
use chopin_obs::{Event, NoopObserver, Observer, PauseKind, TriggerReason};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Minimum free-space fraction a collection must leave for the run to be
/// considered viable; repeated violations are reported as out-of-memory.
const FUTILE_FREE_FRACTION: f64 = 0.03;

/// Consecutive futile collections before declaring out-of-memory.
const MAX_FUTILE: u32 = 4;

/// Hard cap on engine slices; beyond this the run is declared thrashing.
const MAX_SLICES: u64 = 20_000_000;

/// Individual pause records kept before falling back to aggregate counters.
const PAUSE_RECORD_CAP: usize = 200_000;

/// If more than this many collections would occur in a run, steady-state
/// periods of collections are replayed in batches.
const BATCH_THRESHOLD_CYCLES: f64 = 60_000.0;

/// Maximum collections folded into one batch step.
const BATCH_MAX: u64 = 10_000;

/// Floor on the mutator throttle factor while a concurrent collector is
/// pacing allocation (a fully stopped mutator cannot restart the clock).
const THROTTLE_FLOOR: f64 = 0.02;

/// Clock gain of Core Performance Boost relative to the fixed base clock
/// (§6.1.3's frequency-scaling experiment). A fully CPU-bound workload
/// (freq sensitivity 1.0) speeds up by this much; memory-bound workloads
/// see proportionally less — reproducing the PFS statistic's spread.
const BOOST_CLOCK_GAIN: f64 = 0.20;

/// Run one iteration of `spec` under `config`.
///
/// # Errors
///
/// * [`RunError::InvalidConfig`] if the configuration fails validation.
/// * [`RunError::OutOfMemory`] if the live set cannot fit or collections
///   become futile.
/// * [`RunError::GcThrash`] if the simulation's safety bounds trip.
///
/// # Examples
///
/// ```
/// use chopin_runtime::engine::run;
/// use chopin_runtime::spec::MutatorSpec;
/// use chopin_runtime::config::RunConfig;
/// use chopin_runtime::collector::CollectorKind;
/// use chopin_runtime::time::SimDuration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = MutatorSpec::builder("demo")
///     .threads(4)
///     .total_work(SimDuration::from_millis(50))
///     .total_allocation(256 << 20)
///     .live_range(8 << 20, 16 << 20)
///     .build()?;
/// let result = run(&spec, &RunConfig::new(64 << 20, CollectorKind::G1))?;
/// assert!(result.telemetry().gc_count > 0, "a 256MB churn needs GC");
/// # Ok(())
/// # }
/// ```
pub fn run(spec: &MutatorSpec, config: &RunConfig) -> Result<RunResult, RunError> {
    run_with_observer(spec, config, &mut NoopObserver)
}

/// Run one iteration of `spec` under `config`, delivering every engine
/// transition to `observer` as a [`chopin_obs::Event`].
///
/// The engine is monomorphised over the observer type, so [`run`] (which
/// passes [`NoopObserver`]) compiles the hooks away entirely. Observers
/// are passive: the result is bit-identical whatever observer is attached
/// (the `observer_determinism` integration test asserts this).
///
/// # Errors
///
/// Same as [`run`].
///
/// # Examples
///
/// ```
/// use chopin_obs::EventRecorder;
/// use chopin_runtime::engine::run_with_observer;
/// use chopin_runtime::spec::MutatorSpec;
/// use chopin_runtime::config::RunConfig;
/// use chopin_runtime::collector::CollectorKind;
/// use chopin_runtime::time::SimDuration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = MutatorSpec::builder("demo")
///     .threads(4)
///     .total_work(SimDuration::from_millis(50))
///     .total_allocation(256 << 20)
///     .live_range(8 << 20, 16 << 20)
///     .build()?;
/// let mut rec = EventRecorder::new();
/// let result = run_with_observer(&spec, &RunConfig::new(64 << 20, CollectorKind::G1), &mut rec)?;
/// assert!(result.telemetry().gc_count > 0);
/// assert!(rec.events().any(|e| e.type_label() == "pause_begin"));
/// # Ok(())
/// # }
/// ```
pub fn run_with_observer<O: Observer>(
    spec: &MutatorSpec,
    config: &RunConfig,
    observer: &mut O,
) -> Result<RunResult, RunError> {
    run_with_observer_and_faults(spec, config, observer, NoFaults)
}

/// Run one iteration of `spec` under `config` with the fault windows of
/// `plan` injected at their scheduled simulated times.
///
/// Fault-injected runs are exactly as deterministic as clean ones: the
/// plan is pure data and the engine transitions windows at exact simulated
/// times, so the same plan yields bit-identical results. The plan should
/// already be validated ([`FaultPlan::validate`]); malformed windows are
/// simply never active.
///
/// # Errors
///
/// Same as [`run`] — note that a harsh enough plan can legitimately drive
/// a run into [`RunError::OutOfMemory`] or [`RunError::GcThrash`]; that is
/// the point of injecting faults.
///
/// # Examples
///
/// ```
/// use chopin_faults::{FaultKind, FaultPlan};
/// use chopin_runtime::engine::{run, run_with_faults};
/// use chopin_runtime::spec::MutatorSpec;
/// use chopin_runtime::config::RunConfig;
/// use chopin_runtime::collector::CollectorKind;
/// use chopin_runtime::time::SimDuration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = MutatorSpec::builder("demo")
///     .threads(4)
///     .total_work(SimDuration::from_millis(50))
///     .total_allocation(256 << 20)
///     .live_range(8 << 20, 16 << 20)
///     .build()?;
/// let config = RunConfig::new(64 << 20, CollectorKind::G1).with_noise(0.0);
/// let clean = run(&spec, &config)?;
/// let plan = FaultPlan::new(7).with_window(
///     1_000_000,
///     20_000_000,
///     FaultKind::AllocSpike { factor: 3.0 },
/// );
/// let faulted = run_with_faults(&spec, &config, &plan)?;
/// assert!(faulted.telemetry().faults_injected > 0);
/// assert!(faulted.telemetry().gc_count > clean.telemetry().gc_count);
/// # Ok(())
/// # }
/// ```
pub fn run_with_faults(
    spec: &MutatorSpec,
    config: &RunConfig,
    plan: &FaultPlan,
) -> Result<RunResult, RunError> {
    run_with_observer_and_faults(spec, config, &mut NoopObserver, ScheduledFaults::new(plan))
}

/// Run one iteration of `spec` under `config` with both an observer and a
/// fault clock attached — the fully general entry point that [`run`],
/// [`run_with_observer`] and [`run_with_faults`] specialise.
///
/// The engine is monomorphised over both hooks. [`NoFaults`] samples
/// [`FaultSample::IDENTITY`], under which every faulted expression equals
/// the clean one, and advertises `NOOP = true`, which compiles away the
/// fault bookkeeping. A live clock never batches, so a plan whose windows
/// are never reached runs the stepwise loop and agrees with the clean run
/// (asserted by the `fault_determinism` and `batch_differential`
/// integration tests).
///
/// # Errors
///
/// Same as [`run_with_faults`].
pub fn run_with_observer_and_faults<O: Observer, F: FaultClock>(
    spec: &MutatorSpec,
    config: &RunConfig,
    observer: &mut O,
    faults: F,
) -> Result<RunResult, RunError> {
    let config = config
        .clone()
        .validated()
        .map_err(|e| RunError::InvalidConfig(e.to_string()))?;
    Engine::new(spec, &config, observer, faults).run()
}

/// The observer-side pause kind for a collection.
fn pause_kind(kind: CollectionKind) -> PauseKind {
    match kind {
        CollectionKind::Young => PauseKind::Young,
        CollectionKind::Full => PauseKind::Full,
        CollectionKind::Concurrent => PauseKind::ConcurrentMark,
        CollectionKind::Degenerate => PauseKind::Degenerate,
    }
}

/// The observer-side trigger reason for a collection request.
fn trigger_reason(request: CollectionRequest) -> TriggerReason {
    match request {
        CollectionRequest::Normal => TriggerReason::OccupancyThreshold,
        CollectionRequest::Degenerate => TriggerReason::Exhaustion,
        CollectionRequest::Full => TriggerReason::PeriodicFull,
    }
}

/// A concurrent cycle in flight (Shenandoah/ZGC).
#[derive(Debug, Clone, Copy)]
struct ActiveCycle {
    work_remaining: f64,
    live_after: f64,
    alloc_at_trigger: f64,
}

/// The running totals of the stepwise loop at one period boundary. The
/// difference of two snapshots is what one period added, and a batch
/// replays whole periods by adding multiples of it.
#[derive(Debug, Clone, Copy)]
struct Totals {
    wall: SimDuration,
    progress: f64,
    mutator_cpu_ns: f64,
    gc_stw_cpu_ns: f64,
    gc_concurrent_cpu_ns: f64,
    heap_byte_seconds: f64,
    pause_wall: SimDuration,
    pauses: u64,
    gc_count: u64,
    allocated: f64,
    throttled_wall: SimDuration,
    backlog: f64,
}

impl Totals {
    /// What the loop added between `earlier` and `self`.
    fn since(&self, earlier: &Totals) -> Totals {
        Totals {
            wall: self.wall - earlier.wall,
            progress: self.progress - earlier.progress,
            mutator_cpu_ns: self.mutator_cpu_ns - earlier.mutator_cpu_ns,
            gc_stw_cpu_ns: self.gc_stw_cpu_ns - earlier.gc_stw_cpu_ns,
            gc_concurrent_cpu_ns: self.gc_concurrent_cpu_ns - earlier.gc_concurrent_cpu_ns,
            heap_byte_seconds: self.heap_byte_seconds - earlier.heap_byte_seconds,
            pause_wall: self.pause_wall - earlier.pause_wall,
            pauses: self.pauses - earlier.pauses,
            gc_count: self.gc_count - earlier.gc_count,
            allocated: self.allocated - earlier.allocated,
            throttled_wall: self.throttled_wall - earlier.throttled_wall,
            backlog: self.backlog - earlier.backlog,
        }
    }
}

struct Engine<'a, O: Observer, F: FaultClock> {
    spec: &'a MutatorSpec,
    config: RunConfig,
    model: CollectorModel,
    obs: &'a mut O,
    faults: F,

    now: SimTime,
    progress: f64,
    total_work: f64,
    alloc_intensity: f64,
    heap: HeapState,
    telemetry: Telemetry,
    trace: ProgressTrace,

    /// Effective per-thread speed of mutator execution after the machine's
    /// sensitivity switches (boost/slow-memory/reduced-LLC) are applied
    /// through the workload's sensitivities.
    mutator_speed: f64,
    /// Effective per-thread speed of collector work (collection is
    /// memory-bound, so the DRAM profile affects it; cache restriction and
    /// boost matter less).
    gc_speed: f64,

    cycle: Option<ActiveCycle>,
    /// Concurrent work with no reclamation side effect (G1 marking).
    backlog: f64,
    cycles_since_full: u32,
    futile_streak: u32,
    slices: u64,
    /// Whether this run batches steady-state periods.
    batching: bool,
    /// Running total of stop-the-world pause wall time.
    pause_wall: SimDuration,
    /// The totals at the last period boundary.
    boundary: Option<Totals>,
    /// What the last period past the build ramp added to the totals.
    last_period: Option<Totals>,
    /// Open pacing interval: (onset time, harshest throttle so far).
    throttle_open: Option<(SimTime, f64)>,
    /// The fault sample taken at the top of the current slice (IDENTITY
    /// when the fault clock is [`NoFaults`]).
    fault_now: FaultSample,
    /// Open fault intervals: (onset time, harshest magnitude so far),
    /// indexed by fault-kind bit position.
    open_faults: [Option<(SimTime, f64)>; 5],
}

impl<'a, O: Observer, F: FaultClock> Engine<'a, O, F> {
    fn new(spec: &'a MutatorSpec, config: &RunConfig, obs: &'a mut O, faults: F) -> Self {
        let model = config
            .collector_model_override()
            .cloned()
            .unwrap_or_else(|| config.collector().model());
        let mut rng = SmallRng::seed_from_u64(config.seed() ^ fxhash(spec.name()));
        // Irwin–Hall approximation of a standard normal for invocation noise.
        let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
        let noise_factor = (1.0 + config.noise() * z).max(0.5);

        // The compiler configuration scales the whole run's CPU demand by
        // the workload's published sensitivity (PCC for -Xcomp, PIN for
        // -Xint); the tiered default is the baseline.
        let compiler_factor = match config.compiler_mode() {
            crate::config::CompilerMode::Tiered => 1.0,
            crate::config::CompilerMode::ForcedC2 => 1.0 + spec.forced_c2_cost(),
            crate::config::CompilerMode::InterpreterOnly => 1.0 + spec.interpreter_cost(),
        };
        let total_work = spec.total_work().as_nanos() as f64
            * config.work_scale()
            * noise_factor
            * compiler_factor;
        let alloc_intensity = spec.total_allocation() as f64 / total_work;
        let inflation = if config.compressed_oops() {
            1.0
        } else {
            spec.uncompressed_inflation()
        };
        let heap = HeapState::new(config.heap_bytes() as f64, inflation);

        // Estimate total collections to decide whether to fast-forward
        // through thrash regimes.
        let live_peak_heap = spec.live_peak() as f64 * inflation;
        let alloc_total_heap = spec.total_allocation() as f64 * inflation;
        let est_headroom = (heap.capacity() * model.trigger_occupancy - live_peak_heap).max(1.0);
        let est_cycles = alloc_total_heap / est_headroom;

        let machine = config.machine();
        let mut mutator_speed = machine.speed_factor();
        if machine.frequency_boost() {
            mutator_speed *= 1.0 + BOOST_CLOCK_GAIN * spec.freq_sensitivity();
        }
        if machine.slow_memory() {
            mutator_speed /= 1.0 + spec.memory_sensitivity();
        }
        if machine.reduced_llc() {
            mutator_speed /= (1.0 + spec.llc_sensitivity()).max(0.5);
        }
        let mut gc_speed = machine.speed_factor();
        if machine.frequency_boost() {
            gc_speed *= 1.0 + BOOST_CLOCK_GAIN * 0.5;
        }
        if machine.slow_memory() {
            gc_speed /= 1.3;
        }

        Engine {
            spec,
            config: config.clone(),
            model,
            obs,
            faults,
            now: SimTime::ZERO,
            progress: 0.0,
            total_work,
            alloc_intensity,
            heap,
            telemetry: Telemetry::new(),
            trace: ProgressTrace::new(),
            mutator_speed,
            gc_speed,
            cycle: None,
            backlog: 0.0,
            cycles_since_full: 0,
            futile_streak: 0,
            slices: 0,
            // Fault windows break the periodicity a batch replays, so
            // batching only arms on the no-fault path.
            batching: est_cycles > BATCH_THRESHOLD_CYCLES && F::NOOP,
            pause_wall: SimDuration::ZERO,
            boundary: None,
            last_period: None,
            throttle_open: None,
            fault_now: FaultSample::IDENTITY,
            open_faults: [None; 5],
        }
    }

    /// The per-kind magnitude an event/interval reports for `kind` under
    /// the combined sample `fs`.
    fn fault_magnitude(kind: ObsFaultKind, fs: &FaultSample) -> f64 {
        match kind {
            ObsFaultKind::AllocSpike => fs.alloc_factor,
            ObsFaultKind::HeapSqueeze => fs.capacity_factor,
            ObsFaultKind::GcSlowdown => 1.0 / fs.gc_speed_factor,
            ObsFaultKind::StallStorm => fs.throttle_cap,
            ObsFaultKind::ForceDegenerate => 1.0,
        }
    }

    /// Open, extend or close per-kind fault intervals against the slice's
    /// sample, emitting onset/clear events and recording telemetry. Driven
    /// purely by the sampled fault state, so fault-injected runs stay
    /// deterministic. Only called when the fault clock is live.
    fn note_faults(&mut self, fs: &FaultSample) {
        for kind in ObsFaultKind::ALL {
            let i = kind.index();
            let active = fs.active_mask & (1u8 << i) != 0;
            match (self.open_faults[i], active) {
                (None, true) => {
                    let magnitude = Self::fault_magnitude(kind, fs);
                    self.obs.record(Event::FaultOnset {
                        at: self.now.as_nanos(),
                        kind,
                        magnitude,
                    });
                    self.open_faults[i] = Some((self.now, magnitude));
                }
                (Some((start, harshest)), true) => {
                    let magnitude = Self::fault_magnitude(kind, fs);
                    // Harsher = larger for spikes/slowdowns, smaller for
                    // the capacity and throttle caps.
                    let harsher = match kind {
                        ObsFaultKind::AllocSpike | ObsFaultKind::GcSlowdown => {
                            harshest.max(magnitude)
                        }
                        ObsFaultKind::HeapSqueeze | ObsFaultKind::StallStorm => {
                            harshest.min(magnitude)
                        }
                        ObsFaultKind::ForceDegenerate => 1.0,
                    };
                    self.open_faults[i] = Some((start, harsher));
                }
                (Some(open), false) => self.close_fault_interval(kind, open),
                (None, false) => {}
            }
        }
    }

    /// Close one fault interval: emit the clear event and record the
    /// telemetry interval with the harshest magnitude seen.
    fn close_fault_interval(&mut self, kind: ObsFaultKind, (start, harshest): (SimTime, f64)) {
        self.open_faults[kind.index()] = None;
        self.obs.record(Event::FaultClear {
            at: self.now.as_nanos(),
            kind,
        });
        let fault_kind = match kind {
            ObsFaultKind::AllocSpike => chopin_faults::FaultKind::AllocSpike { factor: harshest },
            ObsFaultKind::HeapSqueeze => chopin_faults::FaultKind::HeapSqueeze {
                fraction: 1.0 - harshest,
            },
            ObsFaultKind::GcSlowdown => chopin_faults::FaultKind::GcSlowdown { factor: harshest },
            ObsFaultKind::StallStorm => chopin_faults::FaultKind::StallStorm { throttle: harshest },
            ObsFaultKind::ForceDegenerate => chopin_faults::FaultKind::ForceDegenerate,
        };
        self.telemetry.record_fault_interval(FaultInterval {
            start,
            duration: self.now.saturating_since(start),
            kind: fault_kind,
        });
    }

    /// Close every fault interval still open (the run ended inside a
    /// window).
    fn close_all_fault_intervals(&mut self) {
        if F::NOOP {
            return;
        }
        for kind in ObsFaultKind::ALL {
            if let Some(open) = self.open_faults[kind.index()] {
                self.close_fault_interval(kind, open);
            }
        }
    }

    /// Record a pacing transition: opens/extends/closes the current
    /// throttle interval and emits the onset/release events. Driven purely
    /// by engine state, so the recorded intervals are observer-independent.
    fn note_throttle(&mut self, throttle: f64) {
        let throttled = throttle < 1.0;
        match &mut self.throttle_open {
            None if throttled => {
                self.obs.record(Event::ThrottleOnset {
                    at: self.now.as_nanos(),
                    throttle,
                });
                self.throttle_open = Some((self.now, throttle));
            }
            Some((_, min)) if throttled => *min = min.min(throttle),
            Some(_) => self.close_throttle_interval(),
            None => {}
        }
    }

    /// Close any open pacing interval at the current time.
    fn close_throttle_interval(&mut self) {
        if let Some((start, min_throttle)) = self.throttle_open.take() {
            self.obs.record(Event::ThrottleRelease {
                at: self.now.as_nanos(),
            });
            self.telemetry.record_throttle_interval(ThrottleInterval {
                start,
                duration: self.now.saturating_since(start),
                min_throttle,
            });
        }
    }

    /// Emit the out-of-memory event and build the error (every OOM exit
    /// goes through here so observers always see the declaration).
    fn declare_oom(&mut self) -> RunError {
        self.obs.record(Event::OomDeclared {
            at: self.now.as_nanos(),
            live_bytes: self.live_heap(self.progress),
            capacity_bytes: self.heap.capacity(),
        });
        self.oom()
    }

    /// The mutator-throughput fraction lost to GC barriers. Barriers are
    /// CPU instructions, so their wall-clock bite scales with how
    /// CPU-bound the workload is: kernel time sees no barriers, and a
    /// workload insensitive to CPU frequency (jme's GPU-bound rendering,
    /// kafka's kernel-dominated I/O) hides most of the remaining tax
    /// behind its non-CPU critical path.
    fn effective_barrier_tax(&self) -> f64 {
        let cpu_boundness = 0.3 + 0.7 * self.spec.freq_sensitivity();
        self.model.barrier_tax * (1.0 - self.spec.kernel_fraction()) * cpu_boundness
    }

    fn live_heap(&self, progress: f64) -> f64 {
        self.spec.live_at(progress) * self.heap.inflation()
    }

    fn oom(&self) -> RunError {
        RunError::OutOfMemory {
            at: self.now,
            live_bytes: self.live_heap(self.progress),
            capacity: self.heap.capacity(),
        }
    }

    fn run(mut self) -> Result<RunResult, RunError> {
        // The live floor occupies the heap before the iteration starts.
        let live0 = self.live_heap(0.0);
        if live0 >= self.heap.capacity() * (1.0 - FUTILE_FREE_FRACTION) {
            return Err(self.declare_oom());
        }
        self.heap.reclaim_to(live0);

        let hw = self.config.machine().hardware_threads() as f64;
        let speed = self.mutator_speed;
        let gc_speed = self.gc_speed;
        let eff_cpus = self
            .spec
            .effective_cpus()
            .min(hw)
            .min(self.spec.threads() as f64);
        let tax = self.effective_barrier_tax();
        let threads = self.spec.threads() as f64;
        let inflation = self.heap.inflation();
        let conc_threads = self.model.concurrent_thread_count(hw as u32) as f64;
        let trigger_point = self.heap.capacity() * self.model.trigger_occupancy;
        let capacity = self.heap.capacity();
        let eps_work = 1.0;

        while self.progress < self.total_work - eps_work {
            self.slices += 1;
            if self.slices > MAX_SLICES {
                return Err(RunError::GcThrash {
                    at: self.now,
                    gc_count: self.telemetry.gc_count,
                });
            }

            // --- Sample the fault plane -----------------------------------
            // Outside every window the sample is `FaultSample::IDENTITY`:
            // each factor is 1.0 and no boundary is pending, so every
            // expression below equals its clean form bit for bit.
            let fs = self.faults.sample(self.now.as_nanos());
            if !F::NOOP {
                self.note_faults(&fs);
                self.fault_now = fs;
            }
            let alloc_intensity_eff = self.alloc_intensity * fs.alloc_factor;
            let gc_speed_eff = gc_speed * fs.gc_speed_factor;
            let capacity_eff = capacity * fs.capacity_factor;
            let trigger_point_eff = trigger_point * fs.capacity_factor;
            let free_eff = (capacity_eff - self.heap.occupied()).max(0.0);

            // --- Rates for this slice -------------------------------------
            let gc_active = self.cycle.is_some() || self.backlog > 0.0;
            let gc_cpus = if gc_active { conc_threads } else { 0.0 };
            let avail = (hw - gc_cpus).max(1.0);
            let m_cpus = eff_cpus.min(avail);
            let unthrottled_progress_rate = m_cpus * speed * (1.0 - tax);
            let unthrottled_alloc_heap_rate =
                unthrottled_progress_rate * alloc_intensity_eff * inflation;
            let gc_rate = gc_cpus * gc_speed_eff * self.model.gc_parallel_efficiency;

            // Shenandoah/ZGC pacing: slow the mutator so allocation fits in
            // the remaining headroom until the cycle completes.
            let mut throttle = 1.0;
            if let Some(cycle) = &self.cycle {
                if self.model.exhaustion == ExhaustionPolicy::ThrottleAllocation && gc_rate > 0.0 {
                    let remaining_wall = cycle.work_remaining / gc_rate;
                    let projected = unthrottled_alloc_heap_rate * remaining_wall;
                    let free = free_eff;
                    if projected > free * 0.9 {
                        throttle = ((free * 0.9) / projected).clamp(THROTTLE_FLOOR, 1.0);
                        if free < capacity_eff * 0.002 {
                            // Hard allocation stall.
                            throttle = 0.0;
                        }
                    }
                }
            }
            // A stall storm caps the throttle for the window's span. With a
            // boundary ahead the slice is bounded there, so even a full
            // stall rides through and the clock keeps advancing; with none
            // (defensive — an active window always schedules its close) the
            // floor prevents an infinite stall.
            let cap = if fs.next_change_ns == u64::MAX {
                fs.throttle_cap.max(THROTTLE_FLOOR)
            } else {
                fs.throttle_cap
            };
            throttle = throttle.min(cap);

            let progress_rate = unthrottled_progress_rate * throttle;
            let alloc_heap_rate = unthrottled_alloc_heap_rate * throttle;
            let cpu_burn_rate = m_cpus * throttle;
            self.note_throttle(throttle);

            // --- Time to each candidate event -----------------------------
            let mut dt = if progress_rate > 0.0 {
                (self.total_work - self.progress) / progress_rate
            } else {
                f64::INFINITY
            };
            let mut fire_trigger = false;
            let mut fire_completion = false;

            // GC trigger (only when no cycle is already running).
            if self.cycle.is_none() && alloc_heap_rate > 0.0 {
                let to_trigger =
                    (trigger_point_eff - self.heap.occupied()).max(0.0) / alloc_heap_rate;
                if to_trigger <= dt {
                    dt = to_trigger;
                    fire_trigger = true;
                }
            }

            // Concurrent cycle completion / backlog drain.
            if gc_rate > 0.0 {
                let outstanding =
                    self.cycle.as_ref().map(|c| c.work_remaining).unwrap_or(0.0) + self.backlog;
                let to_done = outstanding / gc_rate;
                if to_done < dt {
                    dt = to_done;
                    fire_trigger = false;
                    fire_completion = true;
                }
            }

            // Re-evaluate throttling at the capacity boundary, and bound the
            // slice while a cycle is in flight so pacing stays responsive.
            if self.cycle.is_some() {
                if alloc_heap_rate > 0.0 {
                    let to_full = free_eff / alloc_heap_rate;
                    if to_full < dt {
                        dt = to_full;
                        fire_trigger = false;
                        fire_completion = false;
                    }
                }
                let cap = 2e6; // 2ms responsiveness bound
                if dt > cap {
                    dt = cap;
                    fire_trigger = false;
                    fire_completion = false;
                }
            }

            // Bound the slice at the next fault boundary so windows open
            // and close at exact simulated times (this is what keeps
            // fault-injected runs deterministic, and what lets a hard
            // stall storm ride through to its scheduled end).
            if fs.next_change_ns != u64::MAX {
                let to_boundary = (fs.next_change_ns - self.now.as_nanos()) as f64;
                if to_boundary < dt {
                    dt = to_boundary;
                    fire_trigger = false;
                    fire_completion = false;
                }
            }

            if !dt.is_finite() {
                // No progress and no pending GC work: the mutator is stalled
                // forever (should be unreachable — a stall implies an active
                // cycle, which bounds dt above).
                return Err(RunError::GcThrash {
                    at: self.now,
                    gc_count: self.telemetry.gc_count,
                });
            }

            // --- Integrate the slice --------------------------------------
            let dt_ns = dt.max(0.0);
            let end = self.now + SimDuration::from_nanos(dt_ns.ceil() as u64);
            let span = (end - self.now).as_nanos() as f64;
            if span > 0.0 {
                self.obs.record(Event::SliceBegin {
                    at: self.now.as_nanos(),
                });
                self.progress += progress_rate * span;
                // Trapezoidal area under the occupancy curve (occupancy
                // grows linearly within a slice).
                let occ0 = self.heap.occupied();
                self.heap
                    .allocate(progress_rate * span * alloc_intensity_eff);
                let occ1 = self.heap.occupied();
                self.telemetry.heap_byte_seconds += (occ0 + occ1) / 2.0 * span / 1e9;
                self.telemetry.mutator_cpu_ns += cpu_burn_rate * span;
                if throttle < 1.0 {
                    self.telemetry.throttled_wall +=
                        SimDuration::from_nanos((span * (1.0 - throttle)).round() as u64);
                }
                // Drain concurrent GC work.
                let gc_done = gc_rate * span;
                self.telemetry.gc_concurrent_cpu_ns += gc_cpus * span;
                let mut remaining = gc_done;
                if let Some(cycle) = &mut self.cycle {
                    let used = remaining.min(cycle.work_remaining);
                    cycle.work_remaining -= used;
                    remaining -= used;
                }
                self.backlog = (self.backlog - remaining).max(0.0);
                self.trace.push(self.now, end, progress_rate / threads);
                self.now = end;
                self.obs.record(Event::SliceEnd {
                    at: end.as_nanos(),
                    progress_rate,
                    throttle,
                });
            }

            // --- Handle events --------------------------------------------
            if fire_completion {
                if let Some(cycle) = self.cycle.take() {
                    if cycle.work_remaining <= 1.0 {
                        self.complete_concurrent_cycle(cycle)?;
                    } else {
                        // Completion actually belonged to backlog; keep cycle.
                        self.cycle = Some(cycle);
                    }
                }
            }

            if fire_trigger && self.cycle.is_none() {
                self.handle_trigger(hw, gc_speed_eff, capacity_eff)?;
            }
        }

        // The run ends mid-interval if pacing was still engaged, and
        // inside fault windows if the plan outlives the work.
        self.close_throttle_interval();
        self.close_all_fault_intervals();

        Ok(RunResult::new(
            self.spec.name().to_string(),
            self.config.clone(),
            self.now - SimTime::ZERO,
            self.telemetry,
            self.trace,
        ))
    }

    /// Plan and execute the collection that fires when occupancy reaches
    /// the trigger point.
    fn handle_trigger(&mut self, hw: f64, speed: f64, capacity: f64) -> Result<(), RunError> {
        if self.model.exhaustion == ExhaustionPolicy::Fail {
            // The Epsilon collector never reclaims: exhaustion is fatal.
            return Err(self.declare_oom());
        }
        // `capacity` is the fault-effective capacity (identical to the real
        // capacity when no squeeze is active).
        let free = (capacity - self.heap.occupied()).max(0.0);
        let mut request = match self.model.full_gc_period {
            Some(period) => {
                // Degenerate if concurrent marking has fallen far behind.
                let degenerate = self.model.exhaustion == ExhaustionPolicy::DegenerateFull
                    && self.backlog > 0.0
                    && free < capacity * 0.02;
                if degenerate {
                    CollectionRequest::Degenerate
                } else if self.cycles_since_full + 1 >= period {
                    CollectionRequest::Full
                } else {
                    CollectionRequest::Normal
                }
            }
            None => CollectionRequest::Normal,
        };
        // An active forced-degenerate fault turns ordinary collections into
        // degenerate STW fallbacks for every collector.
        if self.fault_now.force_degenerate && request == CollectionRequest::Normal {
            request = CollectionRequest::Degenerate;
        }
        self.obs.record(Event::GcTrigger {
            at: self.now.as_nanos(),
            reason: trigger_reason(request),
            occupied_bytes: self.heap.occupied(),
            capacity_bytes: capacity,
        });

        let input = CycleInput {
            live_bytes: self.live_heap(self.progress),
            allocated_since_gc: self.heap.allocated_since_gc(),
            survival_fraction: self.spec.survival_fraction(),
            mean_object_size: self.spec.mean_object_size() as f64,
            hardware_threads: hw as u32,
            machine_speed: speed,
        };
        let outcome = plan_cycle(&self.model, &input, request);

        if request == CollectionRequest::Normal {
            self.cycles_since_full += 1;
        } else {
            self.cycles_since_full = 0;
        }

        match outcome.kind {
            CollectionKind::Concurrent => {
                // Small STW pause (init/final mark), then the cycle runs.
                self.apply_pause(&outcome);
                self.obs.record(Event::ConcurrentBegin {
                    at: self.now.as_nanos(),
                    work_cpu_ns: outcome.concurrent_work_cpu_ns,
                });
                self.cycle = Some(ActiveCycle {
                    work_remaining: outcome.concurrent_work_cpu_ns,
                    live_after: outcome.live_after,
                    alloc_at_trigger: self.heap.total_allocated(),
                });
                Ok(())
            }
            _ => {
                // Stop-the-world collection: pause, reclaim, maybe batch. A
                // period ends with each full collection, or with every
                // reclaim of a collector without periodic full collections.
                self.apply_pause(&outcome);
                self.backlog += outcome.concurrent_work_cpu_ns;
                self.finish_reclaim(outcome.live_after)?;
                if self.batching
                    && (self.model.full_gc_period.is_none() || outcome.kind == CollectionKind::Full)
                {
                    self.end_period();
                }
                Ok(())
            }
        }
    }

    /// Advance the clock through a stop-the-world pause.
    fn apply_pause(&mut self, outcome: &CycleOutcome) {
        let start = self.now;
        let end = self.now + outcome.stw_wall;
        let kind = pause_kind(outcome.kind);
        self.obs.record(Event::PauseBegin {
            at: start.as_nanos(),
            kind,
        });
        self.trace.push(start, end, 0.0);
        self.telemetry.heap_byte_seconds +=
            self.heap.occupied() * outcome.stw_wall.as_nanos() as f64 / 1e9;
        self.now = end;
        self.pause_wall += outcome.stw_wall;
        self.obs.record(Event::PauseEnd {
            at: end.as_nanos(),
            kind,
            gc_cpu_ns: outcome.stw_work_cpu_ns,
        });
        if self.telemetry.pauses.len() < PAUSE_RECORD_CAP {
            self.telemetry.record_pause(PauseRecord {
                start,
                duration: outcome.stw_wall,
                gc_cpu_ns: outcome.stw_work_cpu_ns,
                kind: outcome.kind,
            });
        } else {
            self.telemetry
                .record_batched_pauses(1, outcome.stw_wall, outcome.stw_work_cpu_ns);
        }
    }

    /// Reclaim and run the futility / OOM bookkeeping.
    ///
    /// A collection is futile when it leaves no usable allocation room —
    /// measured against the collector's *trigger point*, not raw capacity:
    /// if occupancy after collection already sits at the trigger, the next
    /// collection fires immediately and the mutator can never run (a GC
    /// storm, which on a real JVM surfaces as an OutOfMemoryError with
    /// "GC overhead limit exceeded").
    fn finish_reclaim(&mut self, live_after: f64) -> Result<(), RunError> {
        self.heap.reclaim_to(live_after);
        self.telemetry
            .record_heap_sample(self.now, self.heap.occupied());
        // Futility is judged against the fault-effective capacity: a heap
        // squeeze shrinks the room a collection must clear, which is how
        // the squeeze reaches the futile-streak and OOM paths.
        let capacity = self.heap.capacity() * self.fault_now.capacity_factor;
        let trigger_point = capacity * self.model.trigger_occupancy;
        let room_to_trigger = trigger_point - self.heap.occupied();
        let free = (capacity - self.heap.occupied()).max(0.0);
        let futile = free < capacity * FUTILE_FREE_FRACTION
            || room_to_trigger < capacity * (FUTILE_FREE_FRACTION / 2.0);
        if futile {
            self.futile_streak += 1;
            self.obs.record(Event::FutileCollection {
                at: self.now.as_nanos(),
                streak: self.futile_streak,
            });
            if self.futile_streak >= MAX_FUTILE {
                return Err(self.declare_oom());
            }
        } else {
            self.futile_streak = 0;
        }
        Ok(())
    }

    /// Finish a Shenandoah/ZGC concurrent cycle: reclaim, leaving the
    /// allocation that happened during the cycle as floating garbage.
    fn complete_concurrent_cycle(&mut self, cycle: ActiveCycle) -> Result<(), RunError> {
        let floated = (self.heap.total_allocated() - cycle.alloc_at_trigger).max(0.0);
        self.obs.record(Event::ConcurrentEnd {
            at: self.now.as_nanos(),
            floated_bytes: floated,
        });
        self.finish_reclaim(cycle.live_after + floated)
    }

    /// The loop's running totals, as a period boundary snapshots them.
    fn totals(&self) -> Totals {
        let t = &self.telemetry;
        Totals {
            wall: self.now - SimTime::ZERO,
            progress: self.progress,
            mutator_cpu_ns: t.mutator_cpu_ns,
            gc_stw_cpu_ns: t.gc_stw_cpu_ns,
            gc_concurrent_cpu_ns: t.gc_concurrent_cpu_ns,
            heap_byte_seconds: t.heap_byte_seconds,
            pause_wall: self.pause_wall,
            pauses: t.pauses.len() as u64 + t.batched_pause_count,
            gc_count: t.gc_count,
            allocated: self.heap.total_allocated(),
            throttled_wall: t.throttled_wall,
            backlog: self.backlog,
        }
    }

    /// Close a period and, once the loop has reached its steady state,
    /// replay whole periods instead of stepping through them.
    ///
    /// The steady state is measured, not assumed: two consecutive periods
    /// past the build ramp (where the live set stops growing) took the same
    /// simulated time, and the backlog is not shrinking. Each period then
    /// starts from the same heap state, so the loop repeats it.
    fn end_period(&mut self) {
        let now = self.totals();
        let Some(start) = self.boundary.replace(now) else {
            return;
        };
        let ramp_end = self.spec.build_fraction() * self.spec.total_work().as_nanos() as f64;
        if start.progress < ramp_end {
            return;
        }
        let period = now.since(&start);
        let steady = self
            .last_period
            .is_some_and(|last| last.wall == period.wall && period.backlog >= 0.0);
        self.last_period = Some(period);
        if steady {
            self.replay(&period);
        }
    }

    /// Advance `k` whole periods at once by `k` times `period`'s deltas,
    /// keeping time and pause wall in integer nanoseconds. At most
    /// [`BATCH_MAX`] collections fold into one batch, and the final period
    /// is left to the stepwise loop, which ends the run where it would
    /// have ended anyway.
    fn replay(&mut self, period: &Totals) {
        let periods_left = ((self.total_work - self.progress) / period.progress) as u64;
        let k = periods_left
            .saturating_sub(1)
            .min(BATCH_MAX / period.gc_count);
        if k == 0 {
            return;
        }
        let kf = k as f64;
        let start = self.now;
        let end = start + period.wall * k;
        let progress = period.progress * kf;
        let worker_rate = progress / (end - start).as_nanos() as f64 / self.spec.threads() as f64;
        self.trace.push(start, end, worker_rate);
        self.obs.record(Event::BatchFastForward {
            at: start.as_nanos(),
            end: end.as_nanos(),
            cycles: period.gc_count * k,
            pause_wall_each_ns: (period.pause_wall / period.pauses).as_nanos(),
        });
        self.now = end;
        self.progress += progress;
        self.pause_wall += period.pause_wall * k;
        self.backlog += period.backlog * kf;
        self.heap.record_reclaimed(period.allocated * kf);
        let t = &mut self.telemetry;
        t.mutator_cpu_ns += period.mutator_cpu_ns * kf;
        t.gc_concurrent_cpu_ns += period.gc_concurrent_cpu_ns * kf;
        t.heap_byte_seconds += period.heap_byte_seconds * kf;
        t.throttled_wall += period.throttled_wall * k;
        t.gc_count += period.gc_count * k;
        t.record_batched_pauses(
            period.pauses * k,
            period.pause_wall * k,
            period.gc_stw_cpu_ns * kf,
        );
        self.boundary = Some(self.totals());
    }
}

/// Tiny deterministic string hash (FxHash-style) for seeding.
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectorKind;

    fn spec(alloc_mb: u64, live_mb: u64) -> MutatorSpec {
        MutatorSpec::builder("engine-test")
            .threads(8)
            .parallel_efficiency(0.5)
            .total_work(SimDuration::from_millis(200))
            .total_allocation(alloc_mb << 20)
            .live_range((live_mb / 2) << 20, live_mb << 20)
            .build_fraction(0.1)
            .survival_fraction(0.05)
            .build()
            .unwrap()
    }

    fn cfg(heap_mb: u64, collector: CollectorKind) -> RunConfig {
        RunConfig::new(heap_mb << 20, collector).with_noise(0.0)
    }

    #[test]
    fn run_is_deterministic() {
        let s = spec(512, 16);
        let a = run(&s, &cfg(64, CollectorKind::G1)).unwrap();
        let b = run(&s, &cfg(64, CollectorKind::G1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ_slightly() {
        let s = spec(512, 16);
        let base = cfg(64, CollectorKind::G1).with_noise(0.01);
        let a = run(&s, &base.clone().with_seed(1)).unwrap();
        let b = run(&s, &base.with_seed(2)).unwrap();
        assert_ne!(a.wall_time(), b.wall_time());
        let ratio = a.wall_time().as_secs_f64() / b.wall_time().as_secs_f64();
        assert!((0.8..1.25).contains(&ratio), "noise is small: {ratio}");
    }

    #[test]
    fn no_allocation_means_no_gc() {
        let s = MutatorSpec::builder("idle")
            .total_work(SimDuration::from_millis(10))
            .total_allocation(1024)
            .live_range(1 << 20, 1 << 20)
            .build()
            .unwrap();
        let r = run(&s, &cfg(64, CollectorKind::G1)).unwrap();
        assert_eq!(r.telemetry().gc_count, 0);
        assert!(r.telemetry().pauses.is_empty());
    }

    #[test]
    fn smaller_heap_means_more_gc_and_more_time() {
        let s = spec(1024, 16);
        let small = run(&s, &cfg(24, CollectorKind::Parallel)).unwrap();
        let large = run(&s, &cfg(128, CollectorKind::Parallel)).unwrap();
        assert!(small.telemetry().gc_count > large.telemetry().gc_count);
        assert!(small.wall_time() > large.wall_time());
        assert!(small.task_clock() > large.task_clock());
    }

    #[test]
    fn live_set_larger_than_heap_is_oom() {
        let s = spec(128, 100);
        let err = run(&s, &cfg(64, CollectorKind::G1)).unwrap_err();
        assert!(matches!(err, RunError::OutOfMemory { .. }), "{err:?}");
    }

    #[test]
    fn zgc_needs_more_heap_than_compressed_collectors() {
        // live peak 40MB compressed; ZGC inflates by 1.35 → ~54MB; a 52MB
        // heap fits G1 but not ZGC.
        let s = spec(256, 40);
        assert!(run(&s, &cfg(52, CollectorKind::G1)).is_ok());
        assert!(run(&s, &cfg(52, CollectorKind::Zgc)).is_err());
        assert!(run(&s, &cfg(96, CollectorKind::Zgc)).is_ok());
    }

    #[test]
    fn serial_has_longest_pauses_parallel_shorter() {
        let s = spec(1024, 32);
        let serial = run(&s, &cfg(96, CollectorKind::Serial)).unwrap();
        let parallel = run(&s, &cfg(96, CollectorKind::Parallel)).unwrap();
        assert!(
            serial.telemetry().max_pause().unwrap() > parallel.telemetry().max_pause().unwrap()
        );
    }

    #[test]
    fn concurrent_collectors_have_tiny_pauses_but_more_cpu() {
        let s = spec(1024, 32);
        let parallel = run(&s, &cfg(128, CollectorKind::Parallel)).unwrap();
        let zgc = run(&s, &cfg(128, CollectorKind::Zgc)).unwrap();
        assert!(
            zgc.telemetry().max_pause().unwrap() < parallel.telemetry().max_pause().unwrap(),
            "concurrent collector pauses are short"
        );
        assert!(
            zgc.task_clock() > parallel.task_clock(),
            "but total CPU is higher: {} vs {}",
            zgc.task_clock(),
            parallel.task_clock()
        );
        assert!(zgc.telemetry().gc_concurrent_cpu_ns > 0.0);
    }

    #[test]
    fn wall_time_at_least_sum_of_parts() {
        let s = spec(512, 16);
        let r = run(&s, &cfg(48, CollectorKind::G1)).unwrap();
        let pause = r.telemetry().total_pause_wall();
        assert!(r.wall_time() > pause, "wall includes mutator time");
        // Task clock ≥ wall × 1 cpu is not guaranteed, but mutator cpu must
        // be close to useful work (within barrier tax).
        assert!(r.telemetry().mutator_cpu_ns > 0.0);
    }

    #[test]
    fn progress_trace_covers_wall_time() {
        let s = spec(512, 16);
        let r = run(&s, &cfg(64, CollectorKind::Serial)).unwrap();
        assert_eq!(
            r.progress().end_time().unwrap().as_nanos(),
            r.wall_time().as_nanos()
        );
    }

    #[test]
    fn heap_trace_is_time_ordered_and_bounded() {
        let s = spec(2048, 16);
        let r = run(&s, &cfg(40, CollectorKind::G1)).unwrap();
        let trace = &r.telemetry().heap_trace;
        assert!(!trace.is_empty());
        assert!(trace.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(trace.len() <= crate::telemetry::HEAP_TRACE_CAP);
        assert!(trace
            .iter()
            .all(|s| s.occupied_bytes <= (40u64 << 20) as f64));
    }

    #[test]
    fn shenandoah_throttles_high_allocation_workloads() {
        // High allocation rate, many threads: Shenandoah must pace.
        let s = MutatorSpec::builder("hot-alloc")
            .threads(32)
            .parallel_efficiency(0.4)
            .total_work(SimDuration::from_millis(400))
            .total_allocation(16 << 30)
            .live_range(8 << 20, 12 << 20)
            .survival_fraction(0.02)
            .build()
            .unwrap();
        let shen = run(&s, &cfg(48, CollectorKind::Shenandoah)).unwrap();
        assert!(
            shen.telemetry().throttled_wall > SimDuration::ZERO,
            "pacing must engage"
        );
        let parallel = run(&s, &cfg(48, CollectorKind::Parallel)).unwrap();
        assert!(
            shen.wall_time() > parallel.wall_time(),
            "throttling costs wall time: shen {} vs parallel {}",
            shen.wall_time(),
            parallel.wall_time()
        );
    }

    #[test]
    fn idle_cores_absorb_concurrent_gc() {
        // Few mutator threads on a 32-thread machine: concurrent GC uses
        // idle cores, so ZGC's wall time stays close to Parallel's while its
        // task clock is much higher (the cassandra effect, Figure 5).
        let s = MutatorSpec::builder("low-parallel")
            .threads(4)
            .parallel_efficiency(0.8)
            .total_work(SimDuration::from_millis(200))
            .total_allocation(256 << 20)
            .live_range(32 << 20, 48 << 20)
            .survival_fraction(0.05)
            .build()
            .unwrap();
        let par = run(&s, &cfg(256, CollectorKind::Parallel)).unwrap();
        let zgc = run(&s, &cfg(256, CollectorKind::Zgc)).unwrap();
        let wall_ratio = zgc.wall_time().as_secs_f64() / par.wall_time().as_secs_f64();
        let cpu_ratio = zgc.task_clock().as_secs_f64() / par.task_clock().as_secs_f64();
        assert!(
            cpu_ratio > wall_ratio,
            "cpu {cpu_ratio} vs wall {wall_ratio}"
        );
        assert!(wall_ratio < 1.6, "wall stays comparable: {wall_ratio}");
    }
}

#[cfg(test)]
mod sensitivity_tests {
    use super::*;
    use crate::collector::CollectorKind;
    use crate::config::CompilerMode;
    use crate::machine::MachineConfig;

    fn spec() -> MutatorSpec {
        MutatorSpec::builder("sens")
            .threads(4)
            .parallel_efficiency(0.5)
            .total_work(SimDuration::from_millis(100))
            .total_allocation(128 << 20)
            .live_range(8 << 20, 16 << 20)
            .freq_sensitivity(1.0)
            .memory_sensitivity(0.25)
            .llc_sensitivity(0.10)
            .forced_c2_cost(0.5)
            .interpreter_cost(2.0)
            .build()
            .unwrap()
    }

    fn wall(machine: MachineConfig, mode: CompilerMode) -> f64 {
        let cfg = RunConfig::new(96 << 20, CollectorKind::G1)
            .with_machine(machine)
            .with_compiler_mode(mode)
            .with_noise(0.0);
        run(&spec(), &cfg).unwrap().wall_time().as_secs_f64()
    }

    #[test]
    fn frequency_boost_speeds_up_a_cpu_bound_workload() {
        let base = wall(MachineConfig::default(), CompilerMode::Tiered);
        let boosted = wall(
            MachineConfig::default().with_frequency_boost(true),
            CompilerMode::Tiered,
        );
        let speedup = base / boosted - 1.0;
        assert!(
            (speedup - 0.20).abs() < 0.03,
            "full sensitivity realises the full boost: {speedup:.3}"
        );
    }

    #[test]
    fn slow_memory_slows_by_the_workload_sensitivity() {
        let base = wall(MachineConfig::default(), CompilerMode::Tiered);
        let slow = wall(
            MachineConfig::default().with_slow_memory(true),
            CompilerMode::Tiered,
        );
        let slowdown = slow / base - 1.0;
        assert!((slowdown - 0.25).abs() < 0.05, "{slowdown:.3}");
    }

    #[test]
    fn reduced_llc_slows_by_the_workload_sensitivity() {
        let base = wall(MachineConfig::default(), CompilerMode::Tiered);
        let small = wall(
            MachineConfig::default().with_reduced_llc(true),
            CompilerMode::Tiered,
        );
        let slowdown = small / base - 1.0;
        assert!((slowdown - 0.10).abs() < 0.04, "{slowdown:.3}");
    }

    #[test]
    fn compiler_modes_scale_work_by_published_costs() {
        let tiered = wall(MachineConfig::default(), CompilerMode::Tiered);
        let c2 = wall(MachineConfig::default(), CompilerMode::ForcedC2);
        let interp = wall(MachineConfig::default(), CompilerMode::InterpreterOnly);
        assert!((c2 / tiered - 1.5).abs() < 0.1, "{}", c2 / tiered);
        assert!((interp / tiered - 3.0).abs() < 0.2, "{}", interp / tiered);
    }

    #[test]
    fn interpreter_mode_multiplies_gc_pressure_duration_not_allocation() {
        // Slower code allocates the same bytes, so GC count is unchanged
        // while wall time stretches.
        let cfg = RunConfig::new(48 << 20, CollectorKind::Parallel).with_noise(0.0);
        let tiered = run(&spec(), &cfg).unwrap();
        let interp = run(
            &spec(),
            &cfg.clone()
                .with_compiler_mode(CompilerMode::InterpreterOnly),
        )
        .unwrap();
        assert_eq!(
            tiered.telemetry().gc_count,
            interp.telemetry().gc_count,
            "allocation volume is mode-independent"
        );
        assert!(interp.wall_time() > tiered.wall_time() * 2);
    }
}
