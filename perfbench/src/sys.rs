//! The few Linux calls the standard library does not offer.

use std::os::raw::{c_int, c_long, c_ulong};
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;

const PR_SET_TIMERSLACK: c_int = 29;

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn clock_getcpuclockid(pid: c_int, clock: *mut c_int) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> c_int;
}

/// Waits until `fd` is ready for `events` or `timeout` passes; the
/// nanosecond timeout keeps a sleeping load generator on schedule.
pub fn wait(fd: c_int, events: i16, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `pfd` and `ts` are live, properly laid out `struct pollfd`
    // and `struct timespec` values for the duration of the call, nfds is
    // 1 to match the single pollfd, and a null sigmask leaves the
    // signal mask unchanged. An error (EINTR) just ends the wait early.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Sets this thread's timer slack to 1 ns (default 50 µs), so timed
/// waits end on time.
pub fn precise_timers() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

/// A CPU time clock: of a whole process (every thread, exited ones
/// included) or of one thread. On a KVM guest with steal accounting (the `steal` field of
/// `/proc/stat` moves), time the host gave to other tenants is not
/// counted, so a reading measures the work done rather than how busy
/// the host was.
#[derive(Clone, Copy)]
pub struct CpuClock(c_int);

impl CpuClock {
    /// This process's clock.
    pub fn own() -> CpuClock {
        CpuClock(CLOCK_PROCESS_CPUTIME_ID)
    }

    /// The calling thread's clock.
    pub fn thread() -> CpuClock {
        CpuClock(CLOCK_THREAD_CPUTIME_ID)
    }

    /// The clock of process `pid` (a child of this one).
    pub fn of(pid: u32) -> std::io::Result<CpuClock> {
        let mut clock: c_int = 0;
        // SAFETY: `clock` is a live c_int the call writes the clock id to.
        let rc = unsafe { clock_getcpuclockid(pid as c_int, &mut clock) };
        if rc != 0 {
            return Err(std::io::Error::from_raw_os_error(rc));
        }
        Ok(CpuClock(clock))
    }

    /// CPU seconds used so far; NaN once the process is gone.
    pub fn secs(self) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live `struct timespec` the call writes to.
        if unsafe { clock_gettime(self.0, &mut ts) } != 0 {
            return f64::NAN;
        }
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

/// Host steal time so far, in clock ticks summed over CPUs: the time
/// the hypervisor ran something else while this machine's vCPUs had
/// work (the `steal` field of `/proc/stat`). 0 where unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Words of a CPU mask: 1024 CPUs, as glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the mask is a live buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and the threads and processes it
/// starts from now on, to `cpus`.
pub fn set_cpus(cpus: &[usize]) -> std::io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: the mask is a live buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// Where the benchmark runs: its own threads on one CPU, the
/// `xlda-serve` daemon on another (the same one when only one is
/// allowed). Unmeasured work and the open-loop load generator may use
/// every CPU ([`on_all_cpus`]); the solo client runs on the daemon's.
///
/// Two threads of one process running truly in parallel change each
/// other's CPU cost (up to 50% on `dse_sweep` on a 2-vCPU KVM guest),
/// and on a shared host how often they overlap depends on what the host
/// runs besides. Confined to one CPU each, a process's CPU time does not
/// depend on how its threads happen to be co-scheduled.
#[derive(Debug)]
pub struct Placement {
    pub client: usize,
    pub daemon: usize,
    /// Every CPU allowed at start, for work that is not measured.
    pub all: Vec<usize>,
}

/// The placement, from the CPUs allowed when first asked.
pub fn placement() -> &'static Placement {
    static P: std::sync::OnceLock<Placement> = std::sync::OnceLock::new();
    P.get_or_init(|| {
        let all = allowed_cpus();
        Placement {
            client: all.first().copied().unwrap_or(0),
            daemon: all.last().copied().unwrap_or(0),
            all,
        }
    })
}

/// Runs `f` with the calling thread (and the threads and processes it
/// starts) confined to `cpus`, then restores its mask. Best effort: where
/// the kernel refuses a mask, `f` runs where the thread already was,
/// which leaves the figures less steady but still correct.
pub fn on_cpus<T>(cpus: &[usize], f: impl FnOnce() -> T) -> T {
    let home = allowed_cpus();
    let _ = set_cpus(cpus);
    let out = f();
    let _ = set_cpus(&home);
    out
}

/// [`on_cpus`] on every CPU allowed at start, for work that is not
/// measured or that must not fall behind (building inputs, checking
/// outputs, the open-loop load generator).
pub fn on_all_cpus<T>(f: impl FnOnce() -> T) -> T {
    on_cpus(&placement().all, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_counts_this_process_work() {
        let c = CpuClock::own();
        let t0 = c.secs();
        let mut x = 0u64;
        while c.secs() - t0 < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(c.secs() - t0 >= 0.01);
        let child = CpuClock::of(std::process::id()).expect("own pid clock");
        assert!(child.secs() >= t0);
    }

    #[test]
    fn cpu_mask_round_trips() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        let t = std::thread::spawn(move || {
            set_cpus(&cpus[..1]).expect("narrow");
            let narrowed = allowed_cpus();
            set_cpus(&cpus).expect("widen");
            (narrowed, allowed_cpus())
        });
        let (narrowed, widened) = t.join().expect("thread");
        assert_eq!(narrowed, vec![allowed_cpus()[0]]);
        assert_eq!(widened, allowed_cpus());
    }
}
