//! Host-speed calibration. The machine the benchmark runs on is a few
//! vCPUs of a shared host whose speed swings by a third or more within
//! seconds (other tenants, frequency changes), and CPU time swings with
//! wall time. A probe — a fixed CPU kernel that shares no code with the
//! repository — is timed in the gap before and after every repetition.
//! The end-to-end times are then reported at the probe's nominal speed:
//! `measured × nominal probe time ÷ probe time around the repetition`.
//! A change to the program moves the repetition and not the probe, so it
//! shows in full; a change of host speed moves both and cancels.

use crate::host;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the probe's pointer-chasing table: 256 KiB of `u32`, which
/// stays in the private caches. Of the kernels tried beside the `suite`
/// repetitions (this walk over 256 KiB to 8 MiB tables, a register-only
/// integer mix, independent read chains over 1 and 16 MiB), this one
/// tracked the repetitions' wall time best; the 8 MiB walk swings with
/// the shared last-level cache far more than the simulator does.
const TABLE_LEN: usize = 1 << 16;

/// Chase steps each probe thread makes (about 40 ms on the reference
/// machine).
const STEPS: usize = 6_000_000;

/// The probe's wall time at nominal speed, seconds: its median on the
/// 2-vCPU Intel Xeon virtual machine the benchmark's bounds were set on,
/// with two threads. Normalised figures are seconds on that machine.
pub const NOMINAL_WALL_S: f64 = 0.038;

/// The probe's CPU time (both threads together) at nominal speed, seconds.
pub const NOMINAL_CPU_S: f64 = 0.072;

/// One probe measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Wall time of the probe, seconds.
    pub wall_s: f64,
    /// CPU time of the probe over all its threads, seconds.
    pub cpu_s: f64,
}

impl Reading {
    /// The mean of two readings: the probe before and after a repetition.
    pub fn mean(self, other: Reading) -> Reading {
        Reading {
            wall_s: (self.wall_s + other.wall_s) / 2.0,
            cpu_s: (self.cpu_s + other.cpu_s) / 2.0,
        }
    }

    /// How much slower than nominal the host ran, by wall time.
    pub fn wall_slowdown(self) -> f64 {
        self.wall_s / NOMINAL_WALL_S
    }

    /// How much slower than nominal the host ran, by CPU time.
    pub fn cpu_slowdown(self) -> f64 {
        self.cpu_s / NOMINAL_CPU_S
    }
}

/// The probe kernel and its table.
pub struct Probe {
    table: Vec<u32>,
    threads: usize,
}

impl Probe {
    /// Builds the table (one cycle through every entry, by Sattolo's
    /// shuffle) for a probe on `threads` threads.
    pub fn new(threads: usize) -> Probe {
        let mut table: Vec<u32> = (0..TABLE_LEN as u32).collect();
        let mut state = 0x5eed_u64;
        for i in (1..TABLE_LEN).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = ((state >> 33) as usize) % i;
            table.swap(i, j);
        }
        Probe {
            table,
            threads: threads.max(1),
        }
    }

    /// One thread's share: a dependent walk through the table with
    /// data-dependent branches and integer mixing at every step.
    fn chase(&self, start: usize) -> u64 {
        let mut at = start;
        let mut acc = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..STEPS {
            at = self.table[at] as usize;
            acc = acc.rotate_left(7) ^ at as u64;
            if acc & 3 == 0 {
                acc = acc.wrapping_mul(0xff51_afd7_ed55_8ccd);
            } else {
                acc = acc.wrapping_add(acc >> 11);
            }
        }
        acc
    }

    /// Runs the kernel once on every thread at the same time.
    pub fn measure(&self) -> Reading {
        let cpu_before = host::self_cpu();
        let began = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..self.threads {
                scope.spawn(move || black_box(self.chase(black_box(t * 4099))));
            }
        });
        let wall_s = began.elapsed().as_secs_f64();
        let cpu_s = (host::self_cpu() - cpu_before).as_secs_f64();
        Reading { wall_s, cpu_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle() {
        let probe = Probe::new(1);
        let (mut at, mut steps) = (0usize, 0usize);
        loop {
            at = probe.table[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, TABLE_LEN);
    }

    #[test]
    fn slowdown_is_relative_to_nominal() {
        let reading = Reading {
            wall_s: NOMINAL_WALL_S * 1.5,
            cpu_s: NOMINAL_CPU_S * 2.0,
        };
        assert!((reading.wall_slowdown() - 1.5).abs() < 1e-12);
        assert!((reading.cpu_slowdown() - 2.0).abs() < 1e-12);
        let mean = reading.mean(Reading {
            wall_s: NOMINAL_WALL_S * 0.5,
            cpu_s: NOMINAL_CPU_S,
        });
        assert!((mean.wall_slowdown() - 1.0).abs() < 1e-12);
    }
}
