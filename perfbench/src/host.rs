//! CPU time: what this process used, and what the hypervisor took from
//! the machine while a phase ran.
//!
//! The end-to-end figures are CPU time, not wall time. On a shared virtual
//! host the other guests' load comes in spells of minutes, during which the
//! hypervisor takes the virtual CPUs away (steal time). Wall-clock
//! throughput then falls to a third or a quarter. A paravirtualised guest
//! kernel does not charge stolen time to the task that was running, so the
//! process's CPU time per request moves far less; it still rises a little
//! (up to 15% at 13% steal), so only windows with little steal count.
//!
//! With nothing stolen, CPU time still drifts with the other guests' load:
//! `stream_delta10` read 66–107 µs per frame in one set of ten runs. The
//! host probe, run next to each measured phase, drifts with it
//! (correlation 0.8 across 30 processes), and the program's CPU time over
//! the probe's spread half as much.

use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between two readings of the clocks.
const PERIOD: Duration = Duration::from_millis(10);
/// Largest share of the CPU time the host may steal during a window for
/// the window to count as clean.
const CLEAN: f64 = 0.05;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux's id of the clock that counts the CPU time of every thread of the
/// process, live or ended.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU time, user plus system, this process has used across all its
/// threads (the per-region threads that have already ended included), in
/// seconds, to the nanosecond.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Entries of the host probe's lookup table (16 MiB).
const PROBE_TABLE: usize = 4 << 20;

/// Groups of probe units, and units per group (about 25 ms).
const PROBE_GROUPS: usize = 12;
const PROBE_UNITS: usize = 100;

/// CPU time of one unit of the host probe, µs: the median over the clean
/// groups (see `least_stolen`) of `PROBE_GROUPS` groups of `PROBE_UNITS`
/// units, on a machine of `cpus` CPUs. A unit is a two-thread scoped region
/// in which each thread runs a multiply-add sweep over a 64 KiB block and
/// 2048 dependent reads of a 16 MiB table: thread start and exit,
/// arithmetic and cache misses, the kinds of cost a served batch pays, in
/// code the program does not own. The probe reads the host's speed at the
/// time, so the program's CPU time can be expressed relative to it. Its
/// thread starts wait on the other CPU, so its CPU time, like the
/// program's, rises with steal; hence the same choice of clean samples.
pub fn probe_us(cpus: usize) -> f64 {
    let table: Vec<u32> =
        (0..PROBE_TABLE as u32).map(|i| i.wrapping_mul(2_654_435_761) >> 10).collect();
    let block: Vec<f32> = (0..16_384).map(|i| (i % 97) as f32 * 0.01).collect();
    let unit = || {
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|k| {
                    let (table, block) = (&table, &block);
                    s.spawn(move || {
                        let mut acc = [0f32; 8];
                        for (i, v) in block.iter().enumerate() {
                            acc[i % 8] = acc[i % 8].mul_add(0.999, *v);
                        }
                        let mut at = k;
                        for _ in 0..2048 {
                            at = (table[at] as usize + at) % PROBE_TABLE;
                        }
                        acc.iter().sum::<f32>() as usize + at
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("probe thread")).sum::<usize>()
        })
    };
    let groups: Vec<(f64, f64)> = (0..PROBE_GROUPS)
        .map(|_| {
            let start = Reading::now();
            for _ in 0..PROBE_UNITS {
                std::hint::black_box(unit());
            }
            let end = Reading::now();
            let secs = (end.at - start.at).as_secs_f64();
            let steal = steal_share(Some(start.steal), Some(end.steal), secs, cpus);
            ((end.cpu_s - start.cpu_s) * 1e6 / PROBE_UNITS as f64, steal)
        })
        .collect();
    let mut clean = least_stolen(&groups);
    clean.sort_by(f64::total_cmp);
    clean[clean.len() / 2]
}

/// Steal time of all CPUs so far, in USER_HZ ticks (100 per second), from
/// the aggregate `cpu` line of `/proc/stat`; `None` where it is not there.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    steal_of(stat.lines().next()?)
}

/// The eighth value of a `/proc/stat` `cpu` line.
fn steal_of(line: &str) -> Option<u64> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    fields.nth(7)?.parse().ok()
}

/// Share of `cpus` CPUs' time over `secs` seconds that the host stole,
/// from two `steal_ticks` readings; 0 without them.
pub fn steal_share(before: Option<u64>, after: Option<u64>, secs: f64, cpus: usize) -> f64 {
    let stolen = after.zip(before).map_or(0, |(a, b)| a.saturating_sub(b));
    stolen as f64 / 100.0 / (secs * cpus as f64).max(1e-9)
}

/// One reading of the clocks: when, the process's CPU time (s) and the
/// machine's steal time (ticks).
#[derive(Clone, Copy)]
pub struct Reading {
    pub at: Instant,
    pub cpu_s: f64,
    pub steal: u64,
}

impl Reading {
    fn now() -> Reading {
        Reading { at: Instant::now(), cpu_s: process_cpu_s(), steal: steal_ticks().unwrap_or(0) }
    }
}

/// Readings of the process's CPU clock and the machine's steal counter,
/// taken on a thread of their own.
pub struct CpuLog {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<Reading>>,
}

impl CpuLog {
    pub fn start() -> CpuLog {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let first = Reading::now();
        let handle = std::thread::spawn(move || {
            let mut log = vec![first];
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                log.push(Reading::now());
            }
            log.push(Reading::now());
            log
        });
        CpuLog { stop, handle }
    }

    pub fn finish(self) -> Vec<Reading> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("CPU clock sampler")
    }
}

/// Over `[from, to)`, from the readings nearest around its two ends: the
/// CPU-seconds the process used per wall second, and the share of `cpus`
/// CPUs' time the host stole; `None` without readings around both ends.
pub fn rates(log: &[Reading], from: Instant, to: Instant, cpus: usize) -> Option<(f64, f64)> {
    let before = log.iter().rev().find(|r| r.at <= from)?;
    let after = log.iter().find(|r| r.at >= to)?;
    let secs = (after.at - before.at).as_secs_f64().max(1e-9);
    let steal = steal_share(Some(before.steal), Some(after.steal), secs, cpus);
    Some(((after.cpu_s - before.cpu_s) / secs, steal))
}

/// The samples taken while the host stole at most `CLEAN` of the CPU
/// time, given as (sample, steal share); when fewer than a quarter of them
/// are clean, the quarter with the least steal. Which samples count rests
/// on the host's own counter, never on the measured value, so a program
/// that is costlier in some share of its samples is costlier in that share
/// of the chosen ones.
pub fn least_stolen<T: Copy>(samples: &[(T, f64)]) -> Vec<T> {
    let clean: Vec<T> = samples.iter().filter(|(_, s)| *s <= CLEAN).map(|(t, _)| *t).collect();
    let quarter = samples.len().div_ceil(4);
    if clean.len() >= quarter {
        return clean;
    }
    let mut ranked = samples.to_vec();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    ranked.into_iter().take(quarter).map(|(t, _)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_value() {
        assert_eq!(steal_of("cpu  2150268 0 1006718 4540248 362 0 1177 487488 0 0"), Some(487488));
        assert_eq!(steal_of("cpu0 1 2 3 4 5 6 7 8 9 10"), None);
        assert_eq!(steal_of("cpu 1 2 3"), None);
        // 20 ticks = 0.2 s stolen over 0.2 s of two CPUs.
        assert_eq!(steal_share(Some(10), Some(30), 0.2, 2), 0.5);
        assert_eq!(steal_share(None, Some(30), 0.2, 2), 0.0);
    }

    #[test]
    fn process_cpu_clock_counts_ended_threads() {
        let before = process_cpu_s();
        let spin = || {
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(30) {
                std::hint::spin_loop();
            }
        };
        std::thread::spawn(spin).join().expect("spinner");
        let used = process_cpu_s() - before;
        // Stolen time is not charged, so allow the host to take half.
        assert!(used >= 0.015, "only {used} s counted");
    }

    #[test]
    fn rates_span_the_readings_around_a_window() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let log = [(0, 1.0, 10), (100, 1.1, 10), (200, 1.3, 30)]
            .map(|(ms, cpu_s, steal)| Reading { at: at(ms), cpu_s, steal });
        let close = |a: (f64, f64), b: (f64, f64)| (a.0 - b.0).abs() + (a.1 - b.1).abs() < 1e-9;
        assert!(close(rates(&log, at(0), at(100), 2).unwrap(), (1.0, 0.0)));
        // 0.3 CPU-s and 20 ticks (0.2 s) stolen over 0.2 s of two CPUs.
        assert!(close(rates(&log, at(50), at(150), 2).unwrap(), (1.5, 0.5)));
        assert!(rates(&log, at(150), at(250), 2).is_none());
    }

    #[test]
    fn least_stolen_prefers_clean_samples() {
        let mixed = [(1, 0.0), (2, 0.5), (3, 0.02), (4, 0.3)];
        assert_eq!(least_stolen(&mixed), vec![1, 3]);
        // Too few clean samples: the least-stolen quarter, clean or not.
        let busy: Vec<(usize, f64)> = (0..8).map(|i| (i, 0.9 - i as f64 * 0.1)).collect();
        assert_eq!(least_stolen(&busy), vec![7, 6]);
    }
}
