//! What the benchmark reads from `/proc`: process CPU time and memory, the
//! load average, and the host description recorded with every run.

use std::fs;
use std::process::{Command, Stdio};
use std::sync::OnceLock;

/// Kernel clock ticks per second behind `/proc/<pid>/stat`'s `utime` and
/// `stime`. `USER_HZ` is 100 on every Linux architecture; std has no
/// `sysconf` to ask.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds consumed so far by process `pid`, over all of
/// its threads.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields are counted after its
    // closing parenthesis. utime and stime are fields 14 and 15 overall.
    let after = stat.rsplit_once(')')?.1;
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_SEC)
}

fn status_kb(pid: &str, key: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of process `pid` (`VmHWM`), MiB.
pub fn rss_peak_mb(pid: u32) -> Option<f64> {
    status_kb(&pid.to_string(), "VmHWM:").map(|kb| kb / 1024.0)
}

/// Current resident set of process `pid` (`VmRSS`), KiB.
pub fn rss_kb(pid: u32) -> Option<f64> {
    status_kb(&pid.to_string(), "VmRSS:")
}

/// Seconds the hypervisor has run something else while a CPU of this guest
/// had work to do (`steal` of `/proc/stat`), over all CPUs since boot.
pub fn steal_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let total = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = total.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / CLOCK_TICKS_PER_SEC)
}

/// The 1-minute load average.
pub fn load_average() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Logical CPUs available to this process when it first asked, which is
/// before [`pin_to_one_cpu`] narrows them.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The CPUs this process may run on, as `/proc` lists them (`0-1`, `3`).
fn allowed_cpus() -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

/// Confines this process — and with it every thread and server child it
/// starts later — to the highest-numbered CPU it may use, with `taskset`
/// (std has no call for it). Returns that CPU.
///
/// On the reference box two threads are not two cores: the guest's
/// scheduler leaves woken threads on one CPU for stretches and spreads them
/// in others, and a wake-up that crosses CPUs costs a trip through the
/// hypervisor, so the same request takes 8 or 12 ms by where its threads
/// happened to land. On one CPU none of that varies.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    nproc();
    let allowed = allowed_cpus().ok_or("cannot read Cpus_allowed_list")?;
    let cpu: usize = allowed
        .rsplit([',', '-'])
        .next()
        .and_then(|last| last.parse().ok())
        .ok_or_else(|| format!("cannot parse Cpus_allowed_list {allowed:?}"))?;
    let status = Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if !status.success() || allowed_cpus().as_deref() != Some(cpu.to_string().as_str()) {
        return Err(format!("taskset -cp {cpu} did not take effect"));
    }
    Ok(cpu)
}

/// One line describing the host: CPU count and model, kernel, load.
pub fn host_line() -> String {
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown cpu".to_owned());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown kernel".to_owned());
    let load = load_average().map_or_else(|| "?".to_owned(), |l| format!("{l:.2}"));
    format!(
        "nproc={} cpu=\"{model}\" kernel={kernel} loadavg1={load}",
        nproc()
    )
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
