//! Host time on a reference clock.
//!
//! On a shared host the speed of a vCPU drifts with what its neighbours
//! run: the same pass took 0.28 s in one minute and 0.43 s two minutes
//! later, for minutes at a time, so no statistic over one run's passes
//! repeats from run to run. A fixed, standard-library-only reference
//! kernel (sorting, hash-table inserts, float maths, formatting: the kinds
//! of work the program does) slows with it, if not always by the same
//! factor. Each timed interval is therefore rescaled by the reference
//! kernel's time measured just before it, to seconds of a host on which
//! the kernel takes [`NOMINAL_S`]. The kernel is the benchmark's own code,
//! so a change to the program moves the interval and not the kernel.

use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on an uncontended 2-vCPU Xeon host, the
/// speed every reported host time is rescaled to.
pub const NOMINAL_S: f64 = 0.008;

/// One timed interval and the reference kernel's time just before it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub wall_s: f64,
    pub ref_s: f64,
}

impl Sample {
    /// `wall_s` at the nominal host speed.
    pub fn scaled_s(self) -> f64 {
        self.wall_s * NOMINAL_S / self.ref_s
    }
}

/// The reference kernel and its buffers. The buffers are allocated once,
/// before the workload runs, so the kernel's time does not depend on the
/// state the program leaves the heap in.
pub struct Kernel {
    source: Vec<u32>,
    sorted: Vec<u32>,
    table: Vec<u64>,
    text: String,
}

/// Slots of the kernel's hash table (a power of two).
const TABLE_SLOTS: usize = 1 << 16;

impl Kernel {
    pub fn new() -> Kernel {
        Kernel {
            source: (0..200_000u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            sorted: Vec::with_capacity(200_000),
            table: vec![0; TABLE_SLOTS],
            text: String::with_capacity(1 << 20),
        }
    }

    /// Wall time of one run of the kernel.
    pub fn time_s(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.run());
        t.elapsed().as_secs_f64()
    }

    /// Runs the kernel, then `f`, and times both.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        let ref_s = self.time_s();
        let t = Instant::now();
        let out = f();
        let wall_s = t.elapsed().as_secs_f64();
        (out, Sample { wall_s, ref_s })
    }

    /// Fixed work, about 8 ms on the nominal host, with no allocation.
    /// Returns a checksum so that nothing is optimised away.
    fn run(&mut self) -> u64 {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.source);
        self.sorted.sort_unstable();
        self.table.fill(0);
        let mask = TABLE_SLOTS - 1;
        for i in 1..=40_000u64 {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut slot = (key >> 48) as usize & mask;
            while self.table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = key;
        }
        let mut f = 0f32;
        for i in 0..400_000 {
            f += (black_box(i as f32) * 0.001).sin().sqrt().abs();
        }
        self.text.clear();
        for i in 0..20_000 {
            // Writing to a `String` cannot fail.
            let _ = write!(self.text, "{i},{f:.2};");
        }
        u64::from(self.sorted[7]) ^ self.table[7] ^ self.text.len() as u64 ^ u64::from(f.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work_and_scales_time() {
        let mut k = Kernel::new();
        assert_eq!(k.run(), k.run());
        assert!(k.time_s() > 0.0);
        let s = Sample {
            wall_s: 2.0,
            ref_s: 2.0 * NOMINAL_S,
        };
        assert!((s.scaled_s() - 1.0).abs() < 1e-12);
        let (v, s) = k.timed(|| 7);
        assert_eq!(v, 7);
        assert!(s.wall_s >= 0.0 && s.ref_s > 0.0);
    }
}
