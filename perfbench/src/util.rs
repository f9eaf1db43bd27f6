//! Small shared helpers: quantiles, digests, the machine block, memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples;
/// `f64::INFINITY` samples (missed requests) sort last. Empty → NaN.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if v[hi].is_infinite() {
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// FNV-1a 64: the output digest (stable across platforms and runs).
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Order-free splitmix64 mix of a root seed and an index: per-request
/// seeds that do not depend on how many requests ran before.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of this process (all threads, live and exited), seconds.
/// On a shared VM this excludes time the host gave to other guests
/// (steal), which wall time cannot.
pub fn cpu_time() -> f64 {
    clock(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time of the calling thread, seconds.
pub fn thread_cpu_time() -> f64 {
    clock(3) // CLOCK_THREAD_CPUTIME_ID
}

fn clock(id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout the
    // call expects on 64-bit Linux, and the clock id is a constant the
    // kernel defines; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks are always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A typical per-thread reading of [`reference_cpu_ms`] on the 2-vCPU
/// machine the bounds were set on (6–9 ms as the host's speed moved).
/// CPU figures are scaled to it.
pub const REFERENCE_NOMINAL_MS: f64 = 7.5;

/// One thread's pass of the reference kernel: a binary heap of pending
/// keys (the shape of an event queue) and scattered updates over 256 KB.
/// The host moves the CPU time of identical work by up to 2x within
/// seconds (how busy the vCPUs' sibling hyperthreads are); the kernel is
/// the harness's own code, so its time follows that and nothing the
/// program does.
fn reference_pass(t: u64) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut x = mix(t, 1);
    let mut heap: BinaryHeap<Reverse<u64>> = (0..4096)
        .map(|i| {
            x = mix(x, i);
            Reverse(x % 1_000_000)
        })
        .collect();
    let mut mem = vec![0u64; 1 << 15];
    let mut acc = 0.0f64;
    for i in 0..100_000 {
        let Reverse(k) = heap.pop().expect("the heap never empties");
        x = mix(x, i);
        heap.push(Reverse(k + x % 1000));
        let j = (x as usize) & (mem.len() - 1);
        mem[j] = mem[j].wrapping_add(k);
        acc += (k as f64).sqrt();
    }
    std::hint::black_box((acc, mem[0]));
}

/// CPU ms per thread of the reference kernel run on `threads` threads at
/// once (process CPU time, so only while nothing else runs).
pub fn reference_cpu_ms(threads: usize) -> f64 {
    let c = cpu_time();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || reference_pass(t as u64));
        }
    });
    (cpu_time() - c) * 1e3 / threads as f64
}

/// CPU ms of one pass of the reference kernel on the calling thread
/// (thread CPU time, so other threads may run meanwhile).
pub fn reference_thread_ms() -> f64 {
    let c = thread_cpu_time();
    reference_pass(0);
    (thread_cpu_time() - c) * 1e3
}

/// Factor that turns CPU time measured next to a reference reading of
/// `ref_ms` into CPU time on a host where the kernel reads nominal:
/// below 1 when the host ran slow.
pub fn host_factor(ref_ms: f64) -> f64 {
    REFERENCE_NOMINAL_MS / ref_ms
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The system allocator, counting live heap bytes and their peak.
/// RSS alone moves by 10–20% run to run with how threads land on
/// malloc arenas; the live-heap peak is what the program's code sets.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters are statistics only (Relaxed) and do
// not affect what memory is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            let live = LIVE.fetch_add(new_size, Ordering::Relaxed) + new_size;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
}

/// Peak live heap of this process so far, in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// The machine a result was measured on. Results from different machines are
/// never compared (see `compare`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    pub cores: usize,
    pub cpu: String,
    pub rustc: String,
    pub kernel: String,
}

impl Machine {
    pub fn detect() -> Machine {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find_map(|l| {
                l.strip_prefix("model name")
                    .and_then(|r| r.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
        Machine {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc,
            kernel,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"kernel\": \"{}\"}}",
            self.cores,
            esc(&self.cpu),
            esc(&self.rustc),
            esc(&self.kernel)
        )
    }

    /// `key=value` lines, the form saved result files carry.
    pub fn to_lines(&self) -> String {
        format!(
            "machine.cores={}\nmachine.cpu={}\nmachine.rustc={}\nmachine.kernel={}\n",
            self.cores, self.cpu, self.rustc, self.kernel
        )
    }
}

/// Minimal JSON string escape (benchmark-generated text only).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a metric value with every digit (no rounding).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no infinities; a missed limit reads as a huge time.
        "1e300".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_python_inclusive_method() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[1.0, f64::INFINITY], 1.0).is_infinite());
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::new();
        a.bytes(b"ab");
        let mut b = Digest::new();
        b.bytes(b"ba");
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::new();
        c.bytes(b"ab");
        assert_eq!(a.hex(), c.hex());
    }
}
