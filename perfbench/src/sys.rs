//! Process-level measurements: peak resident memory, a fixed CPU
//! calibration loop, and the choice of CPU for single-threaded work.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

extern "C" {
    /// glibc: returns the allocator's free memory to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Resets this process's `VmHWM` to its current resident set (writing `5`
/// to `/proc/self/clear_refs`), so that the next [`peak_rss_mb`] reads the
/// peak since now. Returns whether the reset took effect.
///
/// The allocator's free memory is returned to the system first: otherwise
/// the pages one hungry trajectory left behind stay resident, and every
/// later round's peak would read at least that much.
pub fn reset_peak_rss() -> bool {
    // SAFETY: `malloc_trim` only releases free allocator memory; it takes
    // no pointer and is safe to call at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// ChaCha8 blocks per calibration pass (about ten milliseconds).
const CALIBRATION_BLOCKS: u32 = 1 << 17;

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// Nanoseconds per 64-bit word of a fixed-key ChaCha8 keystream: the
/// fastest of five passes.
///
/// The block function is this crate's own, not the vendored generator the
/// engines draw from, so no change to the program can move it: timed at the
/// start and end of every run, it shows a change in machine speed between
/// runs without comparing two engines.
pub fn chacha8_ns() -> f64 {
    (0..5).map(|_| chacha8_pass(CALIBRATION_BLOCKS)).fold(f64::INFINITY, f64::min)
}

/// One calibration pass over `blocks` blocks: ns per word.
fn chacha8_pass(blocks: u32) -> f64 {
    let mut acc = 0u32;
    let started = Instant::now();
    for counter in 0..blocks {
        let mut state: [u32; 16] = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            1,
            2,
            3,
            4,
            5,
            6,
            7,
            8,
            counter,
            0,
            0,
            0,
        ];
        let initial = state;
        for _ in 0..4 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, init) in state.iter().zip(initial.iter()) {
            acc ^= word.wrapping_add(*init);
        }
        black_box(&state);
    }
    black_box(acc);
    started.elapsed().as_nanos() as f64 / (f64::from(blocks) * 8.0)
}

/// Words of a Linux `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    /// glibc: the calling thread's CPU affinity mask (`pid` 0).
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    /// glibc: sets the calling thread's CPU affinity mask (`pid` 0).
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on; empty where that cannot be read.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer of the size passed.
    let read = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if read != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Restricts the calling thread to `cpus`; returns whether that took effect.
fn pin(cpus: &[usize]) -> bool {
    let mut mask = [0u64; CPU_SET_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// ChaCha8 blocks of one probe pass (about a quarter of a millisecond).
const PROBE_BLOCKS: u32 = 1 << 12;

/// The shortest time between two probes: an operation that starts sooner
/// after the last probe runs where that probe put it.
const PROBE_EVERY: Duration = Duration::from_millis(25);

/// Keeps a single-threaded workload on the fastest CPU it may use.
///
/// On a shared host each virtual CPU's speed changes with the other
/// tenants' load, and at any moment one of two can run the same loop a
/// third slower than the other: a thread the scheduler happens to leave on
/// the slow one measures the neighbours, not the program. Before an
/// operation [`FastCpu::pick`] times a short calibration pass on every
/// allowed CPU and pins the thread to the fastest. Only the choice of CPU
/// changes: every figure is still the operation's own wall time.
pub struct FastCpu {
    /// The CPUs to choose from; empty when there is no choice to make.
    cpus: Vec<usize>,
    probed: Option<Instant>,
}

impl FastCpu {
    /// A picker over the calling thread's allowed CPUs.
    pub fn new() -> Self {
        let cpus = allowed_cpus();
        FastCpu { cpus: if cpus.len() > 1 { cpus } else { Vec::new() }, probed: None }
    }

    /// [`FastCpu::pick`], unless the last probe was less than
    /// [`PROBE_EVERY`] ago.
    pub fn pick_if_stale(&mut self) {
        if self.probed.is_none_or(|at| at.elapsed() >= PROBE_EVERY) {
            self.pick();
        }
    }

    /// Pins the calling thread to the CPU that runs a probe pass fastest.
    pub fn pick(&mut self) {
        if self.cpus.is_empty() {
            return;
        }
        let mut best = (f64::INFINITY, None);
        for &cpu in &self.cpus {
            if !pin(&[cpu]) {
                // The host refuses affinity changes: leave the thread free.
                pin(&self.cpus);
                self.cpus.clear();
                return;
            }
            let ns = chacha8_pass(PROBE_BLOCKS).min(chacha8_pass(PROBE_BLOCKS));
            if ns < best.0 {
                best = (ns, Some(cpu));
            }
        }
        if let (_, Some(cpu)) = best {
            pin(&[cpu]);
        }
        self.probed = Some(Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `pick` leaves the calling thread on exactly one of the CPUs it was
    /// allowed before, and leaves a single-CPU thread as it was.
    #[test]
    fn pick_pins_the_thread_to_one_allowed_cpu() {
        let before = allowed_cpus();
        FastCpu::new().pick();
        let after = allowed_cpus();
        if before.len() > 1 {
            assert_eq!(after.len(), 1, "pinned to {after:?}");
            assert!(before.contains(&after[0]));
        } else {
            assert_eq!(after, before);
        }
    }
}
