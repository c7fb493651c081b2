//! The load generator: one thread, one keep-alive connection at a time.
//!
//! Open loop: request `i` is due at `i / rate` regardless of how the
//! server is doing; latency runs from the **due** time, so a stall is
//! charged to every request it delays, and the generator reports how late
//! it sent. Closed loop (in `serve.rs`): a bounded number of requests in
//! flight, the next leaving when an answer is in — the saturation
//! throughput of one client.

use crate::util::{ctx, Res};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A keep-alive HTTP/1.1 client on one connection. Blocking by default —
/// what a sidecar or scraper would use; after [`Client::spin`] reads poll
/// the socket instead of sleeping, so the client's core never idles.
pub struct Client {
    stream: TcpStream,
    request: String,
    buf: Vec<u8>,
    /// Bytes at the front of `buf` that belong to the answer handed out
    /// last; dropped on the next receive.
    consumed: usize,
}

/// How long a spinning read waits before giving the server up for dead.
const PATIENCE: Duration = Duration::from_secs(30);

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Res<Client> {
        let stream = ctx("connect to the daemon", TcpStream::connect(addr))?;
        ctx("set TCP_NODELAY", stream.set_nodelay(true))?;
        ctx("set read timeout", stream.set_read_timeout(Some(PATIENCE)))?;
        Ok(Client { stream, request: String::new(), buf: Vec::new(), consumed: 0 })
    }

    /// Switches to non-blocking reads that spin.
    pub fn spin(&mut self) -> Res<()> {
        ctx("set non-blocking", self.stream.set_nonblocking(true))
    }

    /// Writes one GET without waiting for its answer, so a second request
    /// can be in flight while the first is served.
    pub fn send(&mut self, path: &str) -> std::io::Result<()> {
        self.request.clear();
        self.request.push_str("GET ");
        self.request.push_str(path);
        self.request.push_str(" HTTP/1.1\r\nHost: bench\r\n\r\n");
        let mut rest = self.request.as_bytes();
        let started = Instant::now();
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(bad("connection closed while sending")),
                Ok(n) => rest = &rest[n..],
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        && started.elapsed() < PATIENCE =>
                {
                    std::hint::spin_loop()
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads more bytes into `buf`, spinning on a non-blocking socket.
    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let started = Instant::now();
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(bad("connection closed inside an answer")),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        && started.elapsed() < PATIENCE =>
                {
                    std::hint::spin_loop()
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Receives the next answer in order; the body is valid until the next
    /// call.
    pub fn recv(&mut self) -> std::io::Result<(u16, &[u8])> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        let head_end = loop {
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let head =
            std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("header is not UTF-8"))?;
        let mut lines = head.lines();
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status line"))?;
        let length: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, value)| value.trim().parse().ok())
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        self.consumed = head_end + length;
        Ok((status, &self.buf[head_end..self.consumed]))
    }

    /// One request, one answer.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, &[u8])> {
        self.send(path)?;
        self.recv()
    }
}

/// Time source of the open loop; a fake one drives the scheduler tests.
pub trait Clock {
    fn now_ns(&mut self) -> u64;
    /// Returns once `now_ns() >= t_ns`.
    fn wait_until(&mut self, t_ns: u64);
}

pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    pub fn start() -> RealClock {
        RealClock { epoch: Instant::now() }
    }

    pub fn instant(&self, t_ns: u64) -> Instant {
        self.epoch + Duration::from_nanos(t_ns)
    }

    pub fn ns_at(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }
}

impl Clock for RealClock {
    fn now_ns(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, t_ns: u64) {
        // Sleep through long gaps, then spin: a sleep alone overshoots by
        // tens of microseconds, which at 8000 req/s is most of a period.
        const SPIN_NS: u64 = 300_000;
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return;
            }
            if t_ns - now > 2 * SPIN_NS {
                std::thread::sleep(Duration::from_nanos(t_ns - now - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// What the open loop saw, one entry per request.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Completion minus **due** time, µs; `+inf` for a failed request.
    pub latency_us: Vec<f64>,
    /// Send minus due time, µs: how late the generator ran.
    pub late_us: Vec<f64>,
    /// Most requests that were due but unsent at any send.
    pub backlog_max: u64,
    pub failed: u64,
    pub elapsed_s: f64,
}

/// Sends `n` requests on the schedule `due(i) = i / rate`. `op(clock, i,
/// due_ns)` performs request `i` and returns when its answer was complete
/// (the caller may go on to check it), or `None` if it failed.
pub fn open_loop<C: Clock>(
    clock: &mut C,
    n: usize,
    rate: f64,
    mut op: impl FnMut(&mut C, usize, u64) -> Option<u64>,
) -> OpenLoop {
    let period_ns = 1e9 / rate;
    let mut out = OpenLoop {
        latency_us: Vec::with_capacity(n),
        late_us: Vec::with_capacity(n),
        ..OpenLoop::default()
    };
    let start = clock.now_ns();
    for i in 0..n {
        let due = start + (i as f64 * period_ns) as u64;
        clock.wait_until(due);
        let sent = clock.now_ns();
        let done = op(clock, i, due);
        out.late_us.push((sent - due) as f64 / 1e3);
        out.backlog_max = out.backlog_max.max(((sent - due) as f64 / period_ns) as u64);
        match done {
            Some(done) => out.latency_us.push((done - due) as f64 / 1e3),
            None => {
                out.failed += 1;
                out.latency_us.push(f64::INFINITY);
            }
        }
    }
    out.elapsed_s = (clock.now_ns() - start) as f64 / 1e9;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to.
    struct Fake(u64);

    impl Clock for Fake {
        fn now_ns(&mut self) -> u64 {
            self.0
        }
        fn wait_until(&mut self, t_ns: u64) {
            self.0 = self.0.max(t_ns);
        }
    }

    #[test]
    fn on_time_requests_are_charged_their_service_time() {
        // 1000 req/s, 200 µs of service: never late, latency = service.
        let run = open_loop(&mut Fake(5_000), 10, 1_000.0, |c, _, _| {
            c.0 += 200_000;
            Some(c.0)
        });
        assert_eq!(run.latency_us, vec![200.0; 10]);
        assert_eq!(run.late_us, vec![0.0; 10]);
        assert_eq!((run.backlog_max, run.failed), (0, 0));
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        // Period 1 ms; request 0 stalls for 3.5 ms, the rest take 100 µs.
        let run = open_loop(&mut Fake(0), 6, 1_000.0, |c, i, _| {
            c.0 += if i == 0 { 3_500_000 } else { 100_000 };
            Some(c.0)
        });
        // Request 1 was due at 1 ms, sent at 3.5 ms, done at 3.6 ms.
        assert_eq!(run.late_us[1], 2_500.0);
        assert_eq!(run.latency_us[1], 2_600.0);
        // Requests 1..=3 were all due when request 1 finally went out.
        assert_eq!(run.backlog_max, 2);
        // The generator catches up: request 4 (due 4 ms) is on time again.
        assert_eq!(run.late_us[4], 0.0);
        assert_eq!(run.latency_us[4], 100.0);
        assert_eq!(run.elapsed_s, 0.0051);
    }

    #[test]
    fn a_failed_request_is_beyond_any_limit() {
        let run = open_loop(&mut Fake(0), 4, 1_000.0, |c, i, _| {
            c.0 += 10_000;
            (i != 2).then_some(c.0)
        });
        assert_eq!(run.failed, 1);
        assert!(run.latency_us[2].is_infinite());
        assert_eq!(crate::util::percentile(&run.latency_us, 1.0), f64::INFINITY);
    }
}
