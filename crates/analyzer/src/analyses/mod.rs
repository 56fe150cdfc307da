//! The static analyses that run over a compiled [`PlanIR`]:
//!
//! * [`heap`] — interval analysis of heap sizes against per-benchmark
//!   minimum heaps and pointer-compression inflation (R801, R802).
//! * [`warmup`] — methodology and warmup/steady-state sufficiency
//!   (R803, R804, R805).
//! * [`faults`] — fault-window reachability against the run's estimated
//!   simulated horizon (R806, R807).
//! * [`cost`] — a cost model bounding sweep time against the supervisor's
//!   deadlines and journalling posture (R808, R809).
//! * [`sandbox`] — process-isolation configuration: heartbeat-vs-deadline
//!   coherence and hard-fault backend requirements (R902, R903).
//! * [`fleet`] — coordinator/worker sharding configuration: worker count
//!   vs the cell matrix, lease deadlines vs the cost model, and
//!   hard-fault/fleet isolation conflicts (R1201, R1202, R1203).
//!
//! [`PlanIR`]: crate::PlanIR

pub mod cost;
pub mod faults;
pub mod fleet;
pub mod heap;
pub mod sandbox;
pub mod warmup;
