//! Deterministic schedule-chaos injector for the interleave harness.
//!
//! `neo-xtask interleave` arms this module with a seed, then runs the
//! overlapped trainer. Code on the comm-lane boundaries calls
//! [`yield_point`] with a site id; armed, the injector hashes
//! `(seed, per-thread call counter, site)` with SplitMix64 and — on a
//! fixed fraction of calls — yields the time slice or sleeps a bounded
//! pseudo-random number of microseconds. That perturbs which thread wins
//! each race without changing any computed value, so a schedule that
//! only *happens* to produce bitwise-identical results gets shaken out.
//!
//! Determinism contract: decisions depend only on the seed, the site id,
//! and how many yield points *this thread* has crossed. Thread identity
//! is positional (the trainer spawns the same worker/lane topology every
//! run), so a failing seed replays the same decision sequence per
//! thread. Disarmed (the default, and always in production paths), every
//! call is two relaxed atomic loads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Yield-point site ids. Spread across the comm-lane hand-off so
/// perturbations hit both sides of every queue/rendezvous edge.
pub mod site {
    /// Caller thread, just before shipping a job to the comm lane.
    pub const POST: u32 = 1;
    /// Comm-lane thread, after dequeuing a job and before running it.
    pub const LANE_ENTER: u32 = 2;
    /// Comm-lane thread, after running a job and before sending the result.
    pub const LANE_EXIT: u32 = 3;
    /// Caller thread, on entry to `CommHandle::wait`.
    pub const WAIT: u32 = 4;
}

static ARMED: AtomicBool = AtomicBool::new(false);
static SEED: AtomicU64 = AtomicU64::new(0);

static STALL_ARMED: AtomicBool = AtomicBool::new(false);
static STALL_SEED: AtomicU64 = AtomicU64::new(0);
static STALL_WORLD: AtomicU64 = AtomicU64::new(0);
static STALL_MS: AtomicU64 = AtomicU64::new(0);
static STALL_DONE: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Yield points this thread has crossed while armed.
    static COUNTER: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Positional tag of this thread (the comm lane's rank), set at lane
    /// spawn so the stall injector can target one lane deterministically.
    static TAG: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// Arms the injector with `seed`. Affects the whole process; the
/// interleave harness runs one perturbed schedule per process run.
pub fn arm(seed: u64) {
    SEED.store(seed, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms the injector; subsequent [`yield_point`] calls are no-ops.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Whether the injector is currently armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Tag the calling thread with its positional identity (the comm lane's
/// rank). Lanes call this once at spawn; [`stall_point`] only fires on the
/// thread whose tag matches the seeded target.
pub fn set_thread_tag(tag: u64) {
    TAG.with(|t| t.set(tag));
}

/// The lane rank a stall armed with `seed` will hit in a `world`-lane
/// topology. Exposed so tests can assert against the victim the injector
/// will actually pick.
pub fn stall_target(seed: u64, world: u64) -> u64 {
    if world == 0 {
        0
    } else {
        splitmix64(seed) % world
    }
}

/// Arm a one-shot comm-lane stall: the first [`stall_point`] crossed by
/// the thread tagged [`stall_target`]`(seed, world)` sleeps `stall_ms`
/// milliseconds, then the injector self-disarms. Deterministic per seed;
/// used to provoke a detectable stall for the monitor's watchdog.
pub fn arm_stall(seed: u64, world: u64, stall_ms: u64) {
    STALL_SEED.store(seed, Ordering::Relaxed);
    STALL_WORLD.store(world, Ordering::Relaxed);
    STALL_MS.store(stall_ms, Ordering::Relaxed);
    STALL_DONE.store(false, Ordering::Relaxed);
    STALL_ARMED.store(true, Ordering::Relaxed);
}

/// Disarm the stall injector (pending or already-fired).
pub fn disarm_stall() {
    STALL_ARMED.store(false, Ordering::Relaxed);
}

/// A stall opportunity on a tagged thread. Disarmed (the default): two
/// relaxed loads, no clock, no sleep. Armed: if this thread's tag matches
/// the seeded target and the stall has not fired yet, sleep the configured
/// duration exactly once.
pub fn stall_point() {
    if !STALL_ARMED.load(Ordering::Relaxed) {
        return;
    }
    let world = STALL_WORLD.load(Ordering::Relaxed);
    let target = stall_target(STALL_SEED.load(Ordering::Relaxed), world);
    if TAG.with(|t| t.get()) != target {
        return;
    }
    if STALL_DONE.swap(true, Ordering::Relaxed) {
        return; // one-shot: only the first crossing stalls
    }
    std::thread::sleep(Duration::from_millis(STALL_MS.load(Ordering::Relaxed)));
}

/// SplitMix64 finalizer — the same mixer the proptest shim's `TestRng`
/// uses, good enough to decorrelate (seed, counter, site) triples.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A perturbation opportunity. Disarmed: no-op. Armed: deterministically
/// (per seed, thread position, and `site`) does nothing, yields the time
/// slice, or sleeps 20–200 µs.
pub fn yield_point(site: u32) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let n = COUNTER.with(|c| {
        let n = c.get();
        c.set(n + 1);
        n
    });
    let seed = SEED.load(Ordering::Relaxed);
    let h = splitmix64(seed ^ n.wrapping_mul(0x0100_0000_01B3) ^ ((site as u64) << 56));
    match h % 8 {
        // ~2/8 of calls: give up the slice so a racing thread can win.
        0 | 1 => std::thread::yield_now(),
        // ~1/8 of calls: a real stall, long enough to reorder queue
        // hand-offs even when the other thread needs a syscall to wake.
        2 => std::thread::sleep(Duration::from_micros(20 + (h >> 32) % 180)),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_stream_is_deterministic() {
        // The decision stream is a pure function of (seed, counter, site):
        // two fresh threads with the same seed see identical hashes.
        let decisions = |seed: u64| -> Vec<u64> {
            (0..64)
                .map(|n: u64| {
                    splitmix64(
                        seed ^ n.wrapping_mul(0x0100_0000_01B3) ^ ((site::WAIT as u64) << 56),
                    ) % 8
                })
                .collect()
        };
        assert_eq!(decisions(7), decisions(7));
        assert_ne!(decisions(7), decisions(8), "seeds must differ");
    }

    #[test]
    fn stall_fires_once_on_the_target_tag_only() {
        let seed = 11u64;
        let world = 4u64;
        let victim = stall_target(seed, world);
        assert!(victim < world);
        assert_eq!(victim, stall_target(seed, world), "deterministic");

        arm_stall(seed, world, 1);
        // untagged thread (tag u64::MAX) never matches a real lane target
        stall_point();
        assert!(
            !STALL_DONE.load(Ordering::Relaxed),
            "non-target thread must not consume the one-shot stall"
        );
        set_thread_tag(victim);
        #[expect(
            clippy::disallowed_methods,
            reason = "the test times the injected stall"
        )]
        let t0 = std::time::Instant::now();
        stall_point();
        assert!(t0.elapsed() >= Duration::from_millis(1));
        assert!(STALL_DONE.load(Ordering::Relaxed));
        // second crossing is a no-op (one-shot)
        stall_point();
        disarm_stall();
        stall_point(); // disarmed: no-op
        set_thread_tag(u64::MAX);
    }

    #[test]
    fn stall_target_handles_zero_world() {
        assert_eq!(stall_target(7, 0), 0);
    }

    #[test]
    fn arm_disarm_round_trip() {
        // the only test that touches the process-global ARMED flag
        assert!(!is_armed());
        yield_point(site::POST); // disarmed: must not panic or stall

        arm(42);
        assert!(is_armed());
        for s in [site::POST, site::LANE_ENTER, site::LANE_EXIT, site::WAIT] {
            yield_point(s);
        }
        disarm();
        assert!(!is_armed());
    }
}
