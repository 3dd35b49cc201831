//! Deterministic, seeded fault injection for the storage layer.
//!
//! A [`FaultPlan`] describes *which* faults to inject — per-mille rates for
//! transient read errors and torn writes, an optional `CrashAt` kill switch —
//! and every machine's charge lane executes its plan on each charged
//! transfer. A machine built without a plan runs [`FaultPlan::new`]`(0)`,
//! which injects nothing and returns before any roll. Every decision is a
//! pure function of `(plan seed, transfer ordinal, direction, attempt
//! number)`, so the same plan over the same run yields an identical fault
//! trace, identical retry counts, and an identical crash point: chaos tests
//! are exactly reproducible.

use crate::storage::{RetryPolicy, StorageError, TransferDir};

/// What kind of fault fired at one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A read returned garbage and was retried (and eventually succeeded).
    TransientRead,
    /// A write tore mid-block and was retried (and eventually succeeded).
    TornWrite,
    /// Retries were exhausted: the fault became permanent.
    Permanent,
    /// The `CrashAt` kill switch fired.
    Crash,
}

impl FaultKind {
    /// Stable lower-case label, used by the fault-trace JSON records.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TransientRead => "transient_read",
            FaultKind::TornWrite => "torn_write",
            FaultKind::Permanent => "permanent",
            FaultKind::Crash => "crash",
        }
    }
}

/// One recorded fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Ordinal (0-based count of charged transfers) at which the fault fired.
    pub io: u64,
    /// What happened.
    pub kind: FaultKind,
    /// How many attempts failed (0 for a crash).
    pub failed_attempts: u32,
}

/// A deterministic, seeded fault plan.
///
/// The default plan (any seed, zero rates, no crash point) injects nothing;
/// use the builder methods to turn individual fault classes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Per-mille probability that one read attempt fails transiently.
    pub read_fault_per_mille: u32,
    /// Per-mille probability that one write attempt tears.
    pub torn_write_per_mille: u32,
    /// Kill switch: crash when the transfer ordinal reaches this value.
    pub crash_at: Option<u64>,
    /// Retry policy bounding how many failed attempts are absorbed.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// A plan with the given seed and nothing enabled.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            read_fault_per_mille: 0,
            torn_write_per_mille: 0,
            crash_at: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Enables transient read faults at `per_mille` ‰ per attempt.
    #[must_use]
    pub fn with_read_faults(mut self, per_mille: u32) -> Self {
        assert!(per_mille <= 1000, "a probability cannot exceed 1000‰");
        self.read_fault_per_mille = per_mille;
        self
    }

    /// Enables torn writes at `per_mille` ‰ per attempt.
    #[must_use]
    pub fn with_torn_writes(mut self, per_mille: u32) -> Self {
        assert!(per_mille <= 1000, "a probability cannot exceed 1000‰");
        self.torn_write_per_mille = per_mille;
        self
    }

    /// Arms the kill switch: the machine panics (with a [`CrashPoint`]
    /// payload) when the charged-transfer count reaches `io`.
    #[must_use]
    pub fn with_crash_at(mut self, io: u64) -> Self {
        self.crash_at = Some(io);
        self
    }

    /// Overrides the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// The panic payload carried by a simulated crash.
///
/// A crash is not an error value an algorithm could handle — it is the
/// simulation of the process dying mid-run — so [`crate::Machine`] raises it
/// as `std::panic::panic_any(CrashPoint { .. })`. A chaos harness catches the
/// unwind with `std::panic::catch_unwind`, downcasts to `CrashPoint`, and
/// resumes from the last checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Ordinal of the transfer at which the crash fired.
    pub io: u64,
}

/// Installs a process-wide panic hook that keeps the [`CrashPoint`] panics a
/// chaos harness raises on purpose off stderr.
///
/// The hook is safe to share between harnesses in one process:
/// * it is installed once, guarded by a [`std::sync::Once`], so repeated
///   calls never stack hooks;
/// * it swallows only panics whose payload is a [`CrashPoint`];
/// * it passes every other panic to the hook that was installed before it,
///   so real failures stay loud.
///
/// The hook only decides what is printed: a swallowed crash still unwinds
/// and is caught by the harness's `catch_unwind`.
pub fn silence_simulated_crash_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashPoint>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Retry cost absorbed by one ultimately-successful transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RetryCost {
    /// Failed attempts before the transfer succeeded.
    pub failed_attempts: u32,
    /// Simulated backoff work charged for those failures.
    pub backoff_work: u64,
}

/// The charge lane's gate: executes a [`FaultPlan`] on each charged
/// transfer and records every injected fault in a trace.
pub(crate) struct FaultyStorage {
    plan: FaultPlan,
    trace: Vec<FaultEvent>,
}

impl FaultyStorage {
    /// Creates a gate executing `plan`.
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            // emlint: allow(unleased, reason = "fault-trace bookkeeping, one entry per injected fault, not a data buffer")
            trace: Vec::new(),
        }
    }

    /// Deterministic per-attempt roll in `[0, 1000)` for transfer `io`,
    /// direction `dir`, attempt `attempt`.
    fn roll(&self, io: u64, dir: TransferDir, attempt: u32) -> u32 {
        let dir_tag: u64 = match dir {
            TransferDir::Read => 0x52,
            TransferDir::Write => 0x57,
        };
        let mut x = self
            .plan
            .seed
            .wrapping_add(io.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(dir_tag.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(u64::from(attempt).wrapping_mul(0x94D0_49BB_1331_11EB));
        // splitmix64 finaliser: decorrelates consecutive ordinals.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        u32::try_from(x % 1000).expect("x % 1000 fits in u32")
    }

    /// Attempts the transfer with ordinal `io` in direction `dir`: `Ok`
    /// carries the retry cost absorbed (zero for a clean transfer), `Err` is
    /// a permanent fault the caller must surface or convert into a crash.
    pub(crate) fn transfer(
        &mut self,
        dir: TransferDir,
        io: u64,
    ) -> Result<RetryCost, StorageError> {
        if let Some(crash_at) = self.plan.crash_at {
            if io >= crash_at {
                self.trace.push(FaultEvent {
                    io,
                    kind: FaultKind::Crash,
                    failed_attempts: 0,
                });
                return Err(StorageError::Crashed { io });
            }
        }
        let rate = match dir {
            TransferDir::Read => self.plan.read_fault_per_mille,
            TransferDir::Write => self.plan.torn_write_per_mille,
        };
        if rate == 0 {
            return Ok(RetryCost::default());
        }
        let max = self.plan.retry.max_attempts;
        let mut failures = 0u32;
        while failures < max && self.roll(io, dir, failures) < rate {
            failures += 1;
        }
        if failures == max {
            self.trace.push(FaultEvent {
                io,
                kind: FaultKind::Permanent,
                failed_attempts: failures,
            });
            return Err(match dir {
                TransferDir::Read => StorageError::ReadFailed { io, attempts: max },
                TransferDir::Write => StorageError::TornWrite { io, attempts: max },
            });
        }
        if failures > 0 {
            self.trace.push(FaultEvent {
                io,
                kind: match dir {
                    TransferDir::Read => FaultKind::TransientRead,
                    TransferDir::Write => FaultKind::TornWrite,
                },
                failed_attempts: failures,
            });
        }
        Ok(RetryCost {
            failed_attempts: failures,
            backoff_work: self.plan.retry.backoff_cost(failures),
        })
    }

    /// The fault events recorded so far.
    pub(crate) fn trace(&self) -> &[FaultEvent] {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_schedule(plan: FaultPlan, transfers: u64) -> (Vec<FaultEvent>, u64, u64) {
        let mut s = FaultyStorage::new(plan);
        let (mut retries, mut backoff) = (0u64, 0u64);
        for io in 0..transfers {
            let dir = if io % 2 == 0 {
                TransferDir::Read
            } else {
                TransferDir::Write
            };
            if let Ok(cost) = s.transfer(dir, io) {
                retries += u64::from(cost.failed_attempts);
                backoff += cost.backoff_work;
            }
        }
        (s.trace().to_vec(), retries, backoff)
    }

    #[test]
    fn zero_rate_plan_injects_nothing() {
        let (trace, retries, backoff) = run_schedule(FaultPlan::new(42), 5_000);
        assert!(trace.is_empty());
        assert_eq!(retries, 0);
        assert_eq!(backoff, 0);
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let plan = FaultPlan::new(7).with_read_faults(120).with_torn_writes(80);
        let a = run_schedule(plan, 10_000);
        let b = run_schedule(plan, 10_000);
        assert_eq!(a, b, "same seed, same run → same trace and costs");
        assert!(
            !a.0.is_empty(),
            "a 12%/8% schedule over 10k transfers fires"
        );
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = run_schedule(FaultPlan::new(1).with_read_faults(100), 10_000);
        let b = run_schedule(FaultPlan::new(2).with_read_faults(100), 10_000);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn crash_fires_exactly_at_the_armed_ordinal() {
        let mut s = FaultyStorage::new(FaultPlan::new(0).with_crash_at(3));
        for io in 0..3 {
            assert!(s.transfer(TransferDir::Read, io).is_ok());
        }
        assert_eq!(
            s.transfer(TransferDir::Write, 3),
            Err(StorageError::Crashed { io: 3 })
        );
        assert_eq!(s.trace().last().unwrap().kind, FaultKind::Crash);
    }

    #[test]
    fn retry_exhaustion_becomes_a_permanent_error() {
        // With a 100% failure rate every attempt fails, so the very first
        // transfer must exhaust its retries and surface permanently.
        let plan = FaultPlan::new(9)
            .with_read_faults(1000)
            .with_retry(RetryPolicy::new(3, 4));
        let mut s = FaultyStorage::new(plan);
        assert_eq!(
            s.transfer(TransferDir::Read, 0),
            Err(StorageError::ReadFailed { io: 0, attempts: 3 })
        );
        assert_eq!(s.trace()[0].kind, FaultKind::Permanent);
        // Writes are unaffected: the plan tears no writes.
        assert!(s.transfer(TransferDir::Write, 1).is_ok());
    }

    #[test]
    fn transient_faults_carry_exponential_backoff() {
        let plan = FaultPlan::new(3)
            .with_read_faults(500)
            .with_retry(RetryPolicy::new(8, 2));
        let mut s = FaultyStorage::new(plan);
        let mut seen_multi = false;
        for io in 0..2_000 {
            if let Ok(cost) = s.transfer(TransferDir::Read, io) {
                assert_eq!(
                    cost.backoff_work,
                    plan.retry.backoff_cost(cost.failed_attempts)
                );
                if cost.failed_attempts >= 2 {
                    seen_multi = true;
                }
            }
        }
        assert!(seen_multi, "a 50% rate must produce multi-failure streaks");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::TransientRead.label(), "transient_read");
        assert_eq!(FaultKind::TornWrite.label(), "torn_write");
        assert_eq!(FaultKind::Permanent.label(), "permanent");
        assert_eq!(FaultKind::Crash.label(), "crash");
    }
}
