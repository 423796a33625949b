//! Open-loop NDJSON load generator.
//!
//! Requests are sent on a fixed schedule whatever the server does, and
//! every latency is counted from the request's *due* time, so a server
//! stall is charged to every request that came due during it. How late
//! the generator itself ran (send time − due time) is recorded per
//! request; a run whose generator fell behind is invalid.
//!
//! One thread per connection. Each thread multiplexes its socket's
//! reads and the send schedule with `ppoll(2)`, whose nanosecond
//! timeout keeps the generator on time without spinning.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::sys;

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Due time, from the start of the phase.
    pub due: Duration,
    /// The request line, without the trailing newline. Its id must be
    /// `<anything>-<index into the plan>`.
    pub line: String,
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// When its last byte was written, from the start of the phase.
    pub sent: Option<Duration>,
    /// When its response arrived, from the start of the phase.
    pub recv: Option<Duration>,
    pub response: Option<String>,
}

impl Observed {
    /// Latency from the due time, if answered.
    pub fn latency(&self, p: &Planned) -> Option<Duration> {
        self.recv.map(|r| r.saturating_sub(p.due))
    }

    /// How late the generator sent it, if sent.
    pub fn lateness(&self, p: &Planned) -> Option<Duration> {
        self.sent.map(|s| s.saturating_sub(p.due))
    }
}

/// Plan index carried in a response line's id (`{"id":"<x>-<i>",...`).
fn response_index(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\":\"")?;
    let id = &rest[..rest.find('"')?];
    id.rsplit_once('-')?.1.parse().ok()
}

/// One connection's observations by plan index.
type Part = io::Result<Vec<(usize, Observed)>>;

/// Drives one connection through its share of the plan.
fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    mine: Vec<usize>,
    start: Instant,
    grace: Duration,
) -> Part {
    sys::precise_timers();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let fd = stream.as_raw_fd();
    let mut obs: Vec<Observed> = vec![Observed::default(); plan.len()];
    let mut next = 0; // next entry of `mine` to send
    let mut wbuf: Vec<u8> = Vec::new();
    let mut written = 0usize; // bytes of wbuf already written
    let mut queued_ends: Vec<(usize, usize)> = Vec::new(); // (plan index, end offset in wbuf)
    let mut rbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut answered = 0usize;
    let last_due = mine.last().map_or(Duration::ZERO, |&i| plan[i].due);
    loop {
        let now = start.elapsed();
        while next < mine.len() && plan[mine[next]].due <= now {
            let i = mine[next];
            wbuf.extend_from_slice(plan[i].line.as_bytes());
            wbuf.push(b'\n');
            queued_ends.push((i, wbuf.len()));
            next += 1;
        }
        if written < wbuf.len() {
            match stream.write(&wbuf[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            let t = start.elapsed();
            let done = queued_ends.partition_point(|&(_, end)| end <= written);
            for &(i, _) in &queued_ends[..done] {
                obs[i].sent = Some(t);
            }
            queued_ends.drain(..done);
            if written == wbuf.len() {
                wbuf.clear();
                written = 0;
                queued_ends.clear();
            }
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let t = start.elapsed();
        let mut from = 0;
        while let Some(nl) = rbuf[from..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&rbuf[from..from + nl]).into_owned();
            from += nl + 1;
            match response_index(&line) {
                Some(i) if i < plan.len() && obs[i].recv.is_none() => {
                    obs[i].recv = Some(t);
                    obs[i].response = Some(line);
                    answered += 1;
                }
                _ => {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        format!("unmatched response: {line:.120}"),
                    ))
                }
            }
        }
        rbuf.drain(..from);
        if answered == mine.len() {
            break;
        }
        let now = start.elapsed();
        if next == mine.len() && written == wbuf.len() && now >= last_due + grace {
            break;
        }
        let until = if next < mine.len() {
            plan[mine[next]].due
        } else {
            last_due + grace
        };
        let events = if written < wbuf.len() {
            sys::POLLIN | sys::POLLOUT
        } else {
            sys::POLLIN
        };
        sys::wait(fd, events, until.saturating_sub(now));
    }
    Ok(mine
        .into_iter()
        .map(|i| (i, std::mem::take(&mut obs[i])))
        .collect())
}

/// Runs `plan` open-loop over `conns` connections (request `i` goes on
/// connection `i % conns`), waiting up to `grace` after the last due
/// time for stragglers. Returns one observation per planned request.
pub fn run(
    addr: SocketAddr,
    plan: &[Planned],
    conns: usize,
    grace: Duration,
) -> io::Result<Vec<Observed>> {
    let conns = conns.max(1);
    // Connections open before the schedule starts, so connect time is
    // not charged to the first requests.
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Part> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<usize> = (c..plan.len()).step_by(conns).collect();
                s.spawn(move || drive(addr, plan, mine, start, grace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut out = vec![Observed::default(); plan.len()];
    for r in results {
        for (i, o) in r? {
            out[i] = o;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A stub server that answers each line at once, except that it
    /// stalls for `stall` before reading request `stall_at`.
    fn stub(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let h = std::thread::spawn(move || {
            let (sock, _) = listener.accept().expect("accept");
            let mut out = sock.try_clone().expect("clone");
            for (seen, line) in BufReader::new(sock).lines().enumerate() {
                let Ok(line) = line else { break };
                if seen == stall_at {
                    std::thread::sleep(stall);
                }
                let id = line.split('"').nth(3).unwrap_or_default().to_string();
                if writeln!(out, "{{\"id\":\"{id}\",\"ok\":true}}").is_err() {
                    break;
                }
            }
        });
        (addr, h)
    }

    fn plan(n: usize, gap: Duration) -> Vec<Planned> {
        (0..n)
            .map(|i| Planned {
                due: gap * i as u32,
                line: format!("{{\"id\":\"t-{i}\",\"kind\":\"hdc\"}}"),
            })
            .collect()
    }

    #[test]
    fn response_ids_map_back_to_plan_indices() {
        assert_eq!(
            response_index("{\"id\":\"fixed-42\",\"ok\":true}"),
            Some(42)
        );
        assert_eq!(response_index("{\"ok\":true}"), None);
    }

    #[test]
    fn a_server_stall_is_charged_to_every_later_request() {
        let gap = Duration::from_millis(5);
        let stall = Duration::from_millis(200);
        let stall_at = 10;
        let (addr, h) = stub(stall_at, stall);
        let p = plan(80, gap);
        let obs = run(addr, &p, 1, Duration::from_secs(2)).expect("run");
        h.join().expect("stub");
        // The stall starts when request `stall_at` reaches the server,
        // no earlier than its due time, and lasts `stall`.
        let stall_end = p[stall_at].due + stall;
        for (i, (pl, o)) in p.iter().zip(&obs).enumerate() {
            let lat = o.latency(pl).expect("every request is answered");
            if i >= stall_at && pl.due < stall_end {
                // Requests due during the stall wait out the rest of it,
                // even though the generator sent them on time.
                assert!(
                    lat + Duration::from_millis(1) >= stall_end - pl.due,
                    "request {i}: latency {lat:?} misses the stall"
                );
                assert!(o.lateness(pl).expect("sent") < Duration::from_millis(50));
            }
        }
        // The requests right after the stall began carry most of it.
        let first = obs[stall_at + 1]
            .latency(&p[stall_at + 1])
            .expect("answered");
        assert!(first >= stall - gap * 2, "{first:?}");
        // Once the stall has passed, latency recovers.
        let last = obs[79].latency(&p[79]).expect("answered");
        assert!(last < Duration::from_millis(50), "{last:?}");
    }
}
