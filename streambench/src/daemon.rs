//! The daemon under test as a child process, and what `/proc` says
//! about it and about the host.
//!
//! `dstamped` serves until its stdin closes, so a [`Daemon`] owns the
//! write end of that pipe: shutting down closes it and waits, and a
//! daemon that does not exit in time is killed. `Drop` does the same, so
//! a panicking or failing run never leaves a daemon behind to skew the
//! next run's CPU figures. Even if this process is killed outright, the
//! kernel closes the pipe and the daemon exits on its own.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Parses one `listener asN: ADDR` line of the daemon's stdout.
pub fn parse_listener_line(line: &str) -> Option<(u16, SocketAddr)> {
    let rest = line.trim().strip_prefix("listener as")?;
    let (index, addr) = rest.split_once(':')?;
    Some((index.parse().ok()?, addr.trim().parse().ok()?))
}

#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addrs: Vec<SocketAddr>,
}

impl Daemon {
    /// Starts `program args` and waits up to `timeout` for it to print
    /// the listener address of each of its `spaces` address spaces.
    pub fn spawn(
        program: &Path,
        args: &[&str],
        spaces: usize,
        timeout: Duration,
    ) -> Result<Daemon, String> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdin,
            addrs: Vec::new(),
        };
        // Read the address lines off the main thread so a silent daemon
        // cannot hang the run; killing the child ends the reader.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut found = 0;
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(entry) = parse_listener_line(&line) {
                    found += 1;
                    if tx.send(entry).is_err() || found == spaces {
                        break;
                    }
                }
            }
        });
        let deadline = Instant::now() + timeout;
        let mut addrs: Vec<Option<SocketAddr>> = vec![None; spaces];
        let mut result = Ok(());
        while addrs.iter().any(Option::is_none) {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok((i, addr)) => match addrs.get_mut(usize::from(i)) {
                    Some(slot) => *slot = Some(addr),
                    None => {
                        result = Err(format!("daemon printed a listener for as{i}"));
                        break;
                    }
                },
                Err(_) => {
                    result = Err(format!(
                        "daemon printed {} of {spaces} listener addresses within {timeout:?}",
                        addrs.iter().flatten().count()
                    ));
                    break;
                }
            }
        }
        if result.is_err() {
            daemon.kill();
        }
        reader.join().map_err(|_| "listener reader panicked")?;
        result?;
        daemon.addrs = addrs.into_iter().flatten().collect();
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn addr(&self, space: usize) -> SocketAddr {
        self.addrs[space]
    }

    /// Closes stdin: the daemon starts shutting down.
    pub fn close_stdin(&mut self) {
        self.stdin = None;
    }

    /// Closes stdin and waits up to `grace` for a clean exit, then kills.
    /// Errs if the daemon had to be killed or exited unsuccessfully.
    pub fn shutdown(mut self, grace: Duration) -> Result<ExitStatus, String> {
        self.close_stdin();
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(status),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    self.kill();
                    return Err(format!("daemon did not exit within {grace:?}; killed"));
                }
            }
        }
    }

    fn kill(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.stdin = None;
            let deadline = Instant::now() + Duration::from_secs(2);
            while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            self.kill();
        }
    }
}

/// True while `pid` exists and is not a zombie.
pub fn is_running(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            s.rsplit_once(')')
                .map(|(_, rest)| !rest.trim_start().starts_with('Z'))
        })
        .unwrap_or(false)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU time of the whole process `pid` in ns, threads
/// that have already exited included: the process CPU clock, which the
/// kernel keeps at ns resolution where `/proc/<pid>/stat` counts 10 ms
/// ticks.
pub fn cpu_ns(pid: u32) -> Option<u64> {
    let pid = i32::try_from(pid).ok()?;
    let mut clock = 0;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: both out-pointers are valid for the duration of the call.
    let ok =
        unsafe { clock_getcpuclockid(pid, &mut clock) == 0 && clock_gettime(clock, &mut ts) == 0 };
    ok.then(|| ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

/// Voluntary plus involuntary context switches of every child process
/// this process has reaped, all of each child's threads included. Read
/// it before and after reaping a child to get that child's count.
pub fn reaped_children_ctx_switches() -> u64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `usage` has the kernel's `struct rusage` layout.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return 0;
    }
    // ru_nvcsw and ru_nivcsw.
    (usage.longs[12] + usage.longs[13]) as u64
}

fn status_kb(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn rss_peak_mib(pid: u32) -> Option<f64> {
    Some(status_kb(&format!("/proc/{pid}/status"), "VmHWM")? as f64 / 1024.0)
}

pub fn threads(pid: u32) -> Option<u64> {
    status_kb(&format!("/proc/{pid}/status"), "Threads")
}

/// Host CPU time split from `/proc/stat`: (steal, total) ticks.
pub fn host_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of host CPU time stolen by the hypervisor since `before`.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 * 100.0 / total as f64
}

/// `nproc`, kernel and CPU model of this machine.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':').map(|x| x.1))
        .unwrap_or("unknown")
        .trim()
        .to_owned();
    format!("nproc={nproc} kernel={} cpu=\"{cpu}\"", kernel.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listener_lines_parse() {
        assert_eq!(
            parse_listener_line("listener as1: 127.0.0.1:4000\n"),
            Some((1, "127.0.0.1:4000".parse().unwrap()))
        );
        assert_eq!(parse_listener_line("[0.1s info daemon] listener"), None);
        assert_eq!(parse_listener_line("listener asX: 127.0.0.1:1"), None);
    }

    /// `sh` stand-ins for the daemon: print the listener lines, then
    /// either serve until stdin closes (as `dstamped` does) or ignore it.
    fn fake(ignores_stdin: bool) -> Result<Daemon, String> {
        let script = format!(
            "echo 'listener as0: 127.0.0.1:1'; echo 'listener as1: 127.0.0.1:2'; {}",
            if ignores_stdin {
                "trap '' TERM; exec sleep 600"
            } else {
                "exec cat >/dev/null"
            }
        );
        Daemon::spawn(
            Path::new("sh"),
            &["-c", &script],
            2,
            Duration::from_secs(10),
        )
    }

    #[test]
    fn shutdown_reaps_a_daemon_that_exits_on_stdin_close() {
        let d = fake(false).unwrap();
        assert_eq!(d.addr(1), "127.0.0.1:2".parse().unwrap());
        let pid = d.pid();
        assert!(is_running(pid));
        let switches = reaped_children_ctx_switches();
        assert!(d.shutdown(Duration::from_secs(5)).is_ok());
        assert!(!is_running(pid));
        // The reaped child's context switches are now counted.
        assert!(reaped_children_ctx_switches() > switches);
    }

    #[test]
    fn a_daemon_that_ignores_stdin_is_killed() {
        let d = fake(true).unwrap();
        let pid = d.pid();
        assert!(d.shutdown(Duration::from_millis(100)).is_err());
        assert!(!is_running(pid));
    }

    #[test]
    fn a_panicking_run_leaves_no_daemon_behind() {
        let d = fake(true).unwrap();
        let pid = d.pid();
        let r = std::panic::catch_unwind(move || {
            let _held = d;
            panic!("run failed mid-way");
        });
        assert!(r.is_err());
        assert!(!is_running(pid));
    }

    #[test]
    fn a_silent_daemon_times_out_and_is_reaped() {
        let err = Daemon::spawn(
            Path::new("sh"),
            &["-c", "echo 'listener as0: 127.0.0.1:1'; exec sleep 600"],
            2,
            Duration::from_millis(200),
        )
        .unwrap_err();
        assert!(err.contains("1 of 2"), "{err}");
    }

    #[test]
    fn cpu_time_of_exited_threads_is_kept() {
        let pid = std::process::id();
        let start = cpu_ns(pid).unwrap();
        let seen = std::thread::spawn(move || loop {
            let now = cpu_ns(pid).unwrap();
            if now - start >= 30_000_000 {
                break now;
            }
        })
        .join()
        .unwrap();
        assert!(cpu_ns(pid).unwrap() >= seen);
    }

    #[test]
    fn proc_readers_see_this_process() {
        let pid = std::process::id();
        assert!(cpu_ns(pid).unwrap() > 0);
        assert!(rss_peak_mib(pid).unwrap() > 0.0);
        assert!(threads(pid).unwrap() >= 1);
        let (steal, total) = host_steal();
        assert!(total > 0 && steal <= total);
        assert!(fingerprint().starts_with("nproc="));
    }
}
