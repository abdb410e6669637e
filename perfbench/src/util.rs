//! Small shared pieces: a seeded generator, latency samples, process resource readings, run
//! metadata and uniquely named work directories.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// SplitMix64: the benchmark's own input generator.  The program under test never sees the
/// seed, only the requests generated from it.
#[derive(Clone)]
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64, stream: u64) -> Self {
        Gen(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Latency samples in microseconds.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// Nearest-rank percentile (`q` in 0..=1); `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        Some(v[rank - 1])
    }
}

/// Latency samples of a timed window, each stamped with when it completed (seconds from the
/// window's start), so the window can be cut into one-second slices.
#[derive(Default, Clone)]
pub struct Timeline {
    pub at: Vec<f64>,
    pub us: Samples,
}

impl Timeline {
    pub fn push(&mut self, at: Duration, d: Duration) {
        self.at.push(at.as_secs_f64());
        self.us.push(d);
    }

    pub fn len(&self) -> usize {
        self.at.len()
    }

    pub fn extend(&mut self, other: Timeline) {
        self.at.extend(other.at);
        self.us.extend(other.us);
    }

    /// The samples of each whole one-second slice of a `seconds`-long window.
    pub fn slices(&self, seconds: u64) -> Vec<Samples> {
        let mut slices = vec![Samples::default(); seconds as usize];
        for (at, us) in self.at.iter().zip(&self.us.0) {
            if let Some(slice) = slices.get_mut(*at as usize) {
                slice.0.push(*us);
            }
        }
        slices
    }

    /// Median over the one-second slices of the slice's `q`-percentile: a burst of host noise
    /// that hits a few slices does not move it.
    pub fn percentile(&self, q: f64, seconds: u64) -> Option<f64> {
        let per: Vec<f64> = self.slices(seconds).iter().filter_map(|s| s.percentile(q)).collect();
        (!per.is_empty()).then(|| median(&per))
    }

    /// Median over the one-second slices of the samples completed per second.
    pub fn rate(&self, seconds: u64) -> f64 {
        median(&self.slices(seconds).iter().map(|s| s.len() as f64).collect::<Vec<_>>())
    }
}

/// Median of a non-empty list (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_us(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields on 64-bit
    // Linux); the call writes only into it.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

/// Process CPU time (user + system, all threads, including ended ones), in microseconds, at
/// nanosecond resolution (`/proc/self/stat` only has 10 ms ticks).
pub fn cpu_time_us() -> f64 {
    clock_us(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in microseconds.
pub fn thread_cpu_time_us() -> f64 {
    clock_us(CLOCK_THREAD_CPUTIME_ID)
}

/// What one set-up cost: process CPU seconds and wall seconds.
pub struct SetupCost {
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Runs a set-up and returns its cost with its result.
pub fn set_up<R>(f: impl FnOnce() -> R) -> (SetupCost, R) {
    let (cpu0, start) = (cpu_time_us(), Instant::now());
    let r = f();
    let wall_s = start.elapsed().as_secs_f64();
    (SetupCost { cpu_s: (cpu_time_us() - cpu0) / 1e6, wall_s }, r)
}

/// Sets `setup_s` (median CPU seconds) and `setup_wall_s` (median wall seconds) from the
/// set-ups of a run, and notes every one of them.
pub fn report_setups(out: &mut crate::report::Outcome, setups: &[SetupCost]) {
    let cpu: Vec<f64> = setups.iter().map(|s| s.cpu_s).collect();
    let wall: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
    out.set("setup_s", median(&cpu));
    out.set("setup_wall_s", median(&wall));
    let show = |v: &[f64]| v.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(", ");
    out.note(format!("{} set-ups: CPU [{}] s, wall [{}] s", setups.len(), show(&cpu), show(&wall)));
}

/// The running CPU time of one benchmark-only thread, which that thread publishes so that
/// `Monitor` leaves it out of the program's CPU time.
#[derive(Clone, Default)]
pub struct BenchThread(Arc<AtomicU64>);

impl BenchThread {
    /// Publishes the calling thread's CPU time so far; call it from that one thread only.
    pub fn publish(&self) {
        self.0.store(thread_cpu_time_us().to_bits(), Ordering::Relaxed);
    }

    /// The CPU time last published, in microseconds.
    pub fn cpu_us(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Watches the measured window from its own thread: the program's CPU time at every whole
/// second since `start`, and the resident set every 100 ms.  The program's CPU time is the
/// process's minus that of the benchmark's own threads: the monitor itself and the thread
/// given to `start`, if any.
pub struct Monitor {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<(Vec<f64>, f64)>,
}

impl Monitor {
    pub fn start(start: Instant, bench_thread: Option<BenchThread>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let program_cpu = || {
                let others = bench_thread.as_ref().map_or(0.0, BenchThread::cpu_us);
                cpu_time_us() - thread_cpu_time_us() - others
            };
            let mut marks = vec![program_cpu()];
            let mut peak = rss_mb();
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                peak = peak.max(rss_mb());
                if start.elapsed() >= Duration::from_secs(marks.len() as u64) {
                    marks.push(program_cpu());
                }
            }
            (marks.windows(2).map(|w| w[1] - w[0]).collect(), peak)
        });
        Monitor { stop, thread }
    }

    /// Stops the watch: the program's CPU time per whole second, and the peak resident set in
    /// MiB.
    pub fn finish(self) -> (Vec<f64>, f64) {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("monitor thread")
    }
}

/// Median over the one-second slices of CPU time per completed op.
pub fn cpu_per_op(cpu: &[f64], ops: &Timeline) -> f64 {
    let slices = ops.slices(cpu.len() as u64);
    let per: Vec<f64> = cpu
        .iter()
        .zip(&slices)
        .filter(|(_, s)| s.len() > 0)
        .map(|(c, s)| c / s.len() as f64)
        .collect();
    median(&per)
}

/// Resident set size of this process (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Root of every directory the benchmark writes: `.bench_work` under the working directory
/// (the checkout root when run as documented).
pub fn work_root() -> PathBuf {
    std::env::current_dir().expect("working directory").join(".bench_work")
}

/// A durable directory with a name no other process or thread can pick — process id, a
/// process-wide counter and the clock — removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::SeqCst);
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos()).unwrap_or(0);
        let path = work_root().join(format!("{tag}-{}-{n}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create work directory");
        WorkDir { path }
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// The filesystem type of the mount holding `path` (fsync cost depends on it).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut parts = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fstype)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t).unwrap_or_else(|| "unknown".to_string())
}

/// The commit the checkout was made from: `.git/HEAD` resolved by hand (the benchmark spawns
/// no git process), or `"unknown"` where `.git` is not a directory.
pub fn commit_hash() -> String {
    let from_git = || -> Option<String> {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(r) => {
                let loose = std::fs::read_to_string(Path::new(".git").join(r)).ok();
                let packed = || {
                    std::fs::read_to_string(".git/packed-refs")
                        .ok()?
                        .lines()
                        .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
                };
                loose.map(|s| s.trim().to_string()).or_else(packed)
            }
            None => Some(head.to_string()),
        }
    };
    from_git().unwrap_or_else(|| "unknown".to_string())
}

/// UTC date and time of the run, `YYYY-MM-DDTHH:MM:SSZ`.
pub fn utc_now() -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z", rem / 3600, (rem % 3600) / 60, rem % 60)
}
