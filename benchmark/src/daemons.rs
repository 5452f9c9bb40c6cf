//! The programs under test, as child processes: spawn the release
//! `serve` / `router` binaries on `--port 0`, learn the address from the
//! ready line, read their CPU and memory from `/proc`, and make sure no
//! child outlives the harness on any exit path.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};

/// Kernel clock ticks per second in `/proc/<pid>/stat` and `/proc/stat`
/// (`USER_HZ`, 100 on every Linux ABI).
pub const TICKS_PER_SECOND: u64 = 100;

/// Set by SIGINT / SIGTERM; every loop of the harness polls it and
/// unwinds, so the [`Daemon`] guards run.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal arrived.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

extern "C" fn on_signal(_signum: i32) {
    INTERRUPTED.store(true, Ordering::Relaxed);
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in a CPU mask: room for 1 024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 names the
    // calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
    if !ok {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// CPU time (user + system) the calling thread has consumed so far, in
/// µs, from the scheduler's own nanosecond accounting.
pub fn thread_cpu_us() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut time = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `time` is a live, correctly laid out timespec for the call.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) } != 0 {
        return 0;
    }
    time.seconds as u64 * 1_000_000 + time.nanoseconds as u64 / 1_000
}

/// Clock ticks the hypervisor ran something else while this guest had
/// work for all its CPUs together (`steal`, the eighth figure of the
/// `cpu` line of `/proc/stat`): when this moves, the box took the CPU
/// away and no timing of that stretch means anything.
pub fn stolen_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| parse_stolen_ticks(&stat))
        .unwrap_or(0)
}

/// The `steal` figure of a `/proc/stat` body.
pub fn parse_stolen_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|line| line.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Restrict thread `tid` (0 = the calling thread) — and whatever it
/// spawns from now on — to `cpus`. Returns whether the kernel accepted it.
fn set_affinity(tid: i32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` outlives the call and `cpusetsize` is its size.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins the calling thread to one CPU until dropped, then restores the
/// CPUs it was allowed before. Threads and processes started meanwhile
/// inherit the pin — that is how the generator threads and the daemons
/// end up on the benchmark's CPU.
#[derive(Debug)]
pub struct Pinned {
    restore: Vec<usize>,
}

impl Pinned {
    /// Pin to `cpu`, or say that the kernel refused: figures taken
    /// unpinned would not compare with pinned ones.
    pub fn to(cpu: usize) -> Result<Pinned, String> {
        let restore = allowed_cpus();
        if !set_affinity(0, &[cpu]) {
            return Err(format!("sched_setaffinity to CPU {cpu} refused"));
        }
        Ok(Pinned { restore })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set_affinity(0, &self.restore);
    }
}

/// Turn SIGINT and SIGTERM into a flag instead of an instant death that
/// would orphan the daemons.
pub fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C library's (std links it); the handler
    // only stores to an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Where the daemon binaries live: beside the harness binary (all three
/// come out of one `cargo build` into one target directory).
pub fn binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.parent().map(|dir| dir.join(name)).unwrap_or_default();
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found — build with benchmark/run.sh",
            path.display()
        ))
    }
}

/// One running daemon. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    /// `serve-0`, `router`, …
    pub label: String,
}

impl Daemon {
    /// Spawn `binary args…`, wait for its one ready line
    /// (`… listening on http://ADDR (…)`) and parse the address. stderr
    /// goes to `<log_dir>/<label>.log`.
    pub fn spawn(
        binary: &Path,
        args: &[String],
        label: &str,
        log_dir: &Path,
    ) -> Result<Daemon, String> {
        let log = std::fs::File::create(log_dir.join(format!("{label}.log")))
            .map_err(|e| format!("{label}: log file: {e}"))?;
        let mut child = Command::new(binary)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("{label}: spawn {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        // A daemon that fails to boot closes stdout, so this cannot hang.
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .split("http://")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|addr| addr.parse::<SocketAddr>().ok()),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                addr,
                label: label.to_string(),
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "{label}: no ready line (got {line:?}); see {label}.log"
                ))
            }
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Let every thread of the daemon run on `cpus` (it inherited the
    /// harness's pin when it was spawned).
    pub fn allow_cpus(&self, cpus: &[usize]) -> Result<(), String> {
        let tasks = format!("/proc/{}/task", self.pid());
        let threads = std::fs::read_dir(&tasks).map_err(|e| format!("{tasks}: {e}"))?;
        for thread in threads.flatten() {
            let tid = thread.file_name().to_string_lossy().parse::<i32>();
            if !tid.is_ok_and(|tid| set_affinity(tid, cpus)) {
                return Err(format!("{}: sched_setaffinity refused", self.label));
            }
        }
        Ok(())
    }

    /// CPU time (user + system, all threads) consumed so far, in µs.
    pub fn cpu_us(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .ok()
            .and_then(|stat| parse_stat_ticks(&stat))
            .map_or(0, |ticks| ticks * (1_000_000 / TICKS_PER_SECOND))
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kb(&self) -> u64 {
        self.status_kb("VmHWM:")
    }

    /// Current resident set (`VmRSS`) in KiB.
    pub fn rss_kb(&self) -> u64 {
        self.status_kb("VmRSS:")
    }

    fn status_kb(&self, field: &str) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .ok()
            .and_then(|status| parse_status_kb(&status, field))
            .unwrap_or(0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // The daemons hold no state worth a graceful drain.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name may
/// hold spaces and parentheses, so fields are counted after the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name come: state ppid pgrp session tty tpgid flags
    // minflt cminflt majflt cmajflt utime stime …
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The KiB figure of one `/proc/<pid>/status` field.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (ser ve) x) S 1 4242 4242 0 -1 4194560 917 0 0 0 \
                    731 52 0 0 20 0 3 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(731 + 52));
        assert_eq!(parse_stat_ticks("garbage"), None);
    }

    #[test]
    fn pinning_narrows_and_restores_the_allowed_cpus() {
        let before = allowed_cpus();
        assert!(!before.is_empty());
        let last = *before.last().expect("non-empty");
        {
            let _pinned = Pinned::to(last).expect("an allowed CPU can be pinned to");
            assert_eq!(allowed_cpus(), [last]);
            // A thread started while pinned inherits the pin.
            let inherited = std::thread::spawn(allowed_cpus).join().expect("thread");
            assert_eq!(inherited, [last]);
        }
        assert_eq!(allowed_cpus(), before);
        assert!(Pinned::to(MASK_WORDS * 64).is_err(), "no such CPU");
        assert_eq!(allowed_cpus(), before);
    }

    #[test]
    fn stolen_ticks_are_the_eighth_figure_of_the_cpu_line() {
        let stat = "cpu  3874950 0 894165 4148076 12378 0 298727 58489 0 0\n\
                    cpu0 1528885 0 388693 2556193 7755 0 136732 26212 0 0\nctxt 2221593190\n";
        assert_eq!(parse_stolen_ticks(stat), Some(58489));
        assert_eq!(parse_stolen_ticks("intr 1 2 3"), None);
    }

    #[test]
    fn status_field_is_read_in_kib() {
        let status = "Name:\tserve\nVmPeak:\t  300000 kB\nVmHWM:\t   81234 kB\nVmRSS:\t 80000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(81234));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }
}
