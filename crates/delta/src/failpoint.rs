//! Zero-dependency fault injection for the persistence paths.
//!
//! Every write, fsync, and rename in the crash-safe state pipeline calls
//! [`hit`] with a stable dotted name before (or, for torn-write points,
//! instead of completing) the real syscall. With nothing armed, a hit is
//! one mutex-free atomic load — cheap enough to leave in release builds.
//! Armed, the Nth pass through a named point returns an injected
//! [`io::Error`], which the caller propagates exactly like a real
//! failure: the write sequence aborts at that syscall boundary, leaving
//! the on-disk state precisely as a crash there would.
//!
//! Arming happens two ways:
//!
//! * **Programmatic** — [`arm`] / [`arm_panic`] / [`disarm_all`] from
//!   tests (see the crash-torture suite in `tests/crash.rs`).
//! * **Environment** — `SPAMMASS_FAILPOINTS="a.b=0;c.d=2"` parsed by
//!   [`arm_from_env`], so a CI script can crash a real CLI process at a
//!   chosen point without recompiling. The value is how many passes
//!   survive before the trigger (0 = fail on first hit); prefix it with
//!   `panic:` (`a.b=panic:0`) for a panic instead of an error.
//!
//! A triggered point normally returns an injected [`io::Error`]; armed
//! in **panic mode** it panics instead, modeling a hard process death
//! rather than a failed syscall. Either way the trip is emitted as an
//! `obs` failpoint event immediately before it fires, so (with the live
//! plane on) a crash dump's last events name the site that killed the run.
//!
//! The registry also supports **recording**: while enabled, every name
//! passed to [`hit`] is appended (in order, with repeats) to a trace the
//! torture test replays, so "kill the sequence at every failpoint" never
//! goes stale when a new write is added to the pipeline.
//!
//! All state is process-global and the armed points are shared across
//! threads; tests that arm points serialize themselves (the crash
//! torture runs inside one `#[test]`).

use spammass_obs as obs;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Fast check: is any point armed or recording on? Lets [`hit`] skip the
/// mutex entirely in the (overwhelmingly common) disarmed case.
static ACTIVE: AtomicBool = AtomicBool::new(false);

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

/// What a triggered failpoint does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Return an injected [`io::Error`] (a failed syscall).
    Error,
    /// Panic (a hard process death mid-sequence).
    Panic,
}

#[derive(Debug, Clone, Copy)]
struct Armed {
    /// Passes left before the trigger fires.
    passes: u64,
    action: Action,
}

#[derive(Default)]
struct Registry {
    /// Armed points by name.
    armed: BTreeMap<String, Armed>,
    /// Whether hits are being traced.
    recording: bool,
    /// The ordered trace of hit names (with repeats) while recording.
    trace: Vec<String>,
}

fn with_registry<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let registry = guard.get_or_insert_with(Registry::default);
    let out = f(registry);
    ACTIVE.store(!registry.armed.is_empty() || registry.recording, Ordering::Release);
    out
}

/// The error kind used for injected faults. Deliberately not a transient
/// kind, so the `io.retry` helper never papers over an injected crash.
pub const INJECTED_KIND: io::ErrorKind = io::ErrorKind::Other;

/// Marker in injected error messages; lets tests and logs distinguish
/// injected faults from real ones.
pub const INJECTED_MARK: &str = "injected fault";

/// Arms `name`: the `after`-th subsequent [`hit`] (0-based) returns an
/// error. Re-arming an armed point resets its countdown.
pub fn arm(name: &str, after: u64) {
    with_registry(|r| {
        r.armed.insert(name.to_string(), Armed { passes: after, action: Action::Error });
    });
}

/// Arms `name` in panic mode: the `after`-th subsequent [`hit`] panics
/// instead of returning an error, modeling a hard crash (and exercising
/// the panic hook / flight-recorder dump path end to end).
pub fn arm_panic(name: &str, after: u64) {
    with_registry(|r| {
        r.armed.insert(name.to_string(), Armed { passes: after, action: Action::Panic });
    });
}

/// Disarms every point and stops recording; the registry returns to its
/// zero-cost state.
pub fn disarm_all() {
    with_registry(|r| {
        r.armed.clear();
        r.recording = false;
        r.trace.clear();
    });
}

/// Starts recording hit names (clearing any previous trace).
pub fn start_recording() {
    with_registry(|r| {
        r.recording = true;
        r.trace.clear();
    });
}

/// Stops recording and returns the ordered trace of hits since
/// [`start_recording`], repeats included.
pub fn stop_recording() -> Vec<String> {
    with_registry(|r| {
        r.recording = false;
        std::mem::take(&mut r.trace)
    })
}

/// Parses `SPAMMASS_FAILPOINTS` (`name=passes` pairs separated by `;` or
/// `,`; a `panic:` prefix on the pass count arms panic mode, e.g.
/// `a.b=panic:0`) and arms each entry. Unset or empty is a no-op;
/// malformed entries are reported as errors so a typo'd CI script fails
/// loudly instead of silently testing nothing.
pub fn arm_from_env() -> Result<usize, String> {
    let Ok(spec) = std::env::var("SPAMMASS_FAILPOINTS") else {
        return Ok(0);
    };
    let mut count = 0;
    for entry in spec.split([';', ',']).map(str::trim).filter(|e| !e.is_empty()) {
        let (name, value) = entry
            .split_once('=')
            .ok_or_else(|| format!("failpoint entry {entry:?} is not name=passes"))?;
        let value = value.trim();
        let (panic_mode, passes) = match value.strip_prefix("panic:") {
            Some(rest) => (true, rest.trim()),
            None => (false, value),
        };
        let passes: u64 =
            passes.parse().map_err(|_| format!("failpoint {name:?}: bad pass count {value:?}"))?;
        if panic_mode {
            arm_panic(name.trim(), passes);
        } else {
            arm(name.trim(), passes);
        }
        count += 1;
    }
    Ok(count)
}

/// Passes through (or trips) the failpoint `name`.
///
/// When the point is armed and its countdown has reached zero it trips:
/// error mode returns `Err` with an [`INJECTED_KIND`] error, panic mode
/// panics. The point disarms itself on trigger (one crash per arming),
/// and the trip is emitted as an `obs` failpoint event — outside the
/// registry lock, so the panic hook can use the registry freely.
/// Records the hit when recording.
pub fn hit(name: &str) -> io::Result<()> {
    if !ACTIVE.load(Ordering::Acquire) {
        return Ok(());
    }
    let tripped = with_registry(|r| {
        if r.recording {
            r.trace.push(name.to_string());
        }
        match r.armed.get_mut(name) {
            None => None,
            Some(armed) if armed.passes > 0 => {
                armed.passes -= 1;
                None
            }
            Some(armed) => {
                let action = armed.action;
                r.armed.remove(name);
                Some(action)
            }
        }
    });
    match tripped {
        None => Ok(()),
        Some(action) => {
            let label = match action {
                Action::Error => "error",
                Action::Panic => "panic",
            };
            obs::failpoint(name, label);
            match action {
                Action::Error => Err(io::Error::other(format!("{INJECTED_MARK} at {name}"))),
                Action::Panic => panic!("{INJECTED_MARK} panic at {name}"),
            }
        }
    }
}

/// Whether `error` was produced by a triggered failpoint.
pub fn is_injected(error: &io::Error) -> bool {
    error.kind() == INJECTED_KIND && error.to_string().contains(INJECTED_MARK)
}

/// Serializes unit tests (across modules of this crate) that arm or
/// disarm the process-global registry, so parallel test execution
/// cannot interleave one test's `arm` with another's `disarm_all`.
#[cfg(test)]
pub(crate) static TEST_SERIAL: Mutex<()> = Mutex::new(());

/// Locks [`TEST_SERIAL`], recovering from a poisoned lock (a failed
/// test must not cascade into every later failpoint test).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        test_lock()
    }

    #[test]
    fn disarmed_points_pass() {
        let _g = lock();
        disarm_all();
        assert!(hit("fp.test.nothing").is_ok());
    }

    #[test]
    fn armed_point_fires_on_nth_pass_then_disarms() {
        let _g = lock();
        disarm_all();
        arm("fp.test.nth", 2);
        assert!(hit("fp.test.nth").is_ok());
        assert!(hit("fp.test.nth").is_ok());
        let err = hit("fp.test.nth").unwrap_err();
        assert!(is_injected(&err), "{err}");
        assert!(!spammass_graph::retry::is_transient(&err), "injected faults must not be retried");
        // One crash per arming.
        assert!(hit("fp.test.nth").is_ok());
        disarm_all();
    }

    #[test]
    fn recording_captures_ordered_trace() {
        let _g = lock();
        disarm_all();
        start_recording();
        hit("fp.test.a").unwrap();
        hit("fp.test.b").unwrap();
        hit("fp.test.a").unwrap();
        let trace = stop_recording();
        assert_eq!(trace, vec!["fp.test.a", "fp.test.b", "fp.test.a"]);
        // Recording stopped: nothing accumulates.
        hit("fp.test.c").unwrap();
        assert!(stop_recording().is_empty());
        disarm_all();
    }

    #[test]
    fn panic_mode_panics_with_the_mark_then_disarms() {
        let _g = lock();
        disarm_all();
        arm_panic("fp.test.panic", 1);
        assert!(hit("fp.test.panic").is_ok());
        let payload = std::panic::catch_unwind(|| {
            let _ = hit("fp.test.panic");
        })
        .unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("panic carries a String");
        assert!(msg.contains(INJECTED_MARK), "{msg}");
        assert!(msg.contains("fp.test.panic"), "{msg}");
        // One crash per arming, same as error mode.
        assert!(hit("fp.test.panic").is_ok());
        disarm_all();
    }

    #[test]
    fn env_arming_parses_panic_mode() {
        let _g = lock();
        disarm_all();
        std::env::set_var("SPAMMASS_FAILPOINTS", "fp.env.p=panic:1");
        assert_eq!(arm_from_env().unwrap(), 1);
        assert!(hit("fp.env.p").is_ok());
        assert!(std::panic::catch_unwind(|| {
            let _ = hit("fp.env.p");
        })
        .is_err());
        std::env::set_var("SPAMMASS_FAILPOINTS", "fp.env.p=panic:x");
        assert!(arm_from_env().is_err());
        std::env::remove_var("SPAMMASS_FAILPOINTS");
        disarm_all();
    }

    #[test]
    fn env_arming_parses_and_rejects() {
        let _g = lock();
        disarm_all();
        // No env var set in the test environment: a no-op.
        std::env::remove_var("SPAMMASS_FAILPOINTS");
        assert_eq!(arm_from_env().unwrap(), 0);
        std::env::set_var("SPAMMASS_FAILPOINTS", "fp.env.a=0; fp.env.b=3");
        assert_eq!(arm_from_env().unwrap(), 2);
        assert!(hit("fp.env.a").is_err());
        assert!(hit("fp.env.b").is_ok());
        std::env::set_var("SPAMMASS_FAILPOINTS", "garbage");
        assert!(arm_from_env().is_err());
        std::env::set_var("SPAMMASS_FAILPOINTS", "fp=NaN");
        assert!(arm_from_env().is_err());
        std::env::remove_var("SPAMMASS_FAILPOINTS");
        disarm_all();
    }
}
