//! Bounded retry-with-backoff for transient I/O errors.
//!
//! Syscalls interrupted by a signal (`EINTR`) or hitting a transient
//! resource stall (`EAGAIN`/`EWOULDBLOCK`) are not corruption and not a
//! durable failure — the correct response is to try again, a bounded
//! number of times, with a short growing pause. This module centralizes
//! that policy so every filesystem touch in the pipeline (graph-image
//! mapping, state-directory persistence) recovers from the same
//! transients the same way, and every retry is visible as an `io.retry`
//! counter increment.
//!
//! Anything that is *not* transient — `ENOENT`, permission errors,
//! injected faults from the failpoint harness — is returned on the first
//! attempt, untouched.

use spammass_obs as obs;
use std::io;
use std::time::Duration;

/// Maximum attempts per operation (1 initial try + `MAX_ATTEMPTS - 1`
/// retries).
pub const MAX_ATTEMPTS: u32 = 4;

/// First backoff pause; doubles per retry (1ms, 2ms, 4ms).
const FIRST_BACKOFF: Duration = Duration::from_millis(1);

/// Whether `error` is worth retrying: the kinds that clear on their own.
pub fn is_transient(error: &io::Error) -> bool {
    matches!(error.kind(), io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock)
}

/// Runs `op`, retrying transient failures up to [`MAX_ATTEMPTS`] total
/// tries with doubling backoff. `label` names the call site in the
/// `io.retry` counter events (the counter itself is shared so dashboards
/// can alert on any retry activity at all).
pub fn retry_io<T>(label: &str, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut backoff = FIRST_BACKOFF;
    let mut attempt = 1;
    loop {
        match op() {
            Err(e) if is_transient(&e) && attempt < MAX_ATTEMPTS => {
                obs::counter(obs::names::IO_RETRY, 1.0);
                obs::event(
                    "io.retry",
                    vec![
                        ("label".to_string(), obs::Json::str(label)),
                        ("attempt".to_string(), obs::Json::uint(attempt as u64)),
                        ("error".to_string(), obs::Json::str(e.to_string())),
                    ],
                );
                std::thread::sleep(backoff);
                backoff *= 2;
                attempt += 1;
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flaky(failures: usize, kind: io::ErrorKind) -> impl FnMut() -> io::Result<u32> {
        let mut left = failures;
        move || {
            if left > 0 {
                left -= 1;
                Err(io::Error::new(kind, "transient"))
            } else {
                Ok(7)
            }
        }
    }

    #[test]
    fn succeeds_after_transient_failures() {
        assert_eq!(retry_io("test", flaky(2, io::ErrorKind::Interrupted)).unwrap(), 7);
        assert_eq!(retry_io("test", flaky(3, io::ErrorKind::WouldBlock)).unwrap(), 7);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let err =
            retry_io("test", flaky(MAX_ATTEMPTS as usize, io::ErrorKind::Interrupted)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
    }

    #[test]
    fn non_transient_errors_fail_fast() {
        let mut calls = 0;
        let err = retry_io("test", || -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::NotFound, "gone"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(calls, 1, "non-transient errors must not be retried");
    }

    #[test]
    fn retries_are_counted() {
        let collector = obs::Collector::builder().build();
        {
            let _g = collector.install();
            let _ = retry_io("counted", flaky(1, io::ErrorKind::Interrupted));
        }
        let metrics = collector.metrics_snapshot();
        let retry = metrics.iter().find(|(n, _)| n == "io.retry").expect("io.retry counter");
        assert_eq!(retry.1, obs::Metric::Counter(1.0));
    }
}
