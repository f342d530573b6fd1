//! Host-speed calibration: a fixed reference loop that shares no code
//! with the system under test.
//!
//! On a shared host the same work drifts by tens of percent between
//! minutes, mostly with the memory latency that neighbours impose.
//! Timing this loop — random loads and stores over a table far larger
//! than the private caches — between the measured operations gives the
//! host's current speed, and every end-to-end time is reported at the
//! reference speed: multiplied by [`NOMINAL_MS`] over the loop's
//! lower-quartile time in the run. A change to the system moves the
//! result; a busier neighbour slows both sides of the ratio.

use crate::host;
use crate::stats::{percentile, sorted};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Words of the loop's table: 32 MiB, beyond any private cache.
const WORDS: usize = 1 << 23;
/// Resident size of the table, which memory readings leave out.
pub const TABLE_MIB: f64 = (WORDS * 4) as f64 / (1 << 20) as f64;
/// Steps of one chunk.
const STEPS: u64 = 500_000;
/// The time one chunk is defined to take at the reference speed (about
/// its time on an unloaded 2.1 GHz Xeon core, so that reported times
/// read close to wall times on such a host).
pub const NOMINAL_MS: f64 = 4.0;
/// A chunk runs at most this often.
const CADENCE: Duration = Duration::from_millis(250);

/// The reference loop's state and the chunk times measured so far.
pub struct Calibrator {
    table: Vec<u32>,
    chunks_ms: Vec<f64>,
    last: Option<Instant>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            table: (0..WORDS as u32).collect(),
            chunks_ms: Vec::new(),
            last: None,
        }
    }
}

impl Calibrator {
    /// Times one chunk when the last one is at least [`CADENCE`] old.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= CADENCE) {
            let ms = self.chunk_ms();
            self.chunks_ms.push(ms);
            self.last = Some(Instant::now());
        }
    }

    /// One chunk: pseudo-random loads, stores and mixes of table words.
    /// Returns its wall time in milliseconds.
    fn chunk_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut acc: u64 = 0;
        let table = black_box(&mut self.table);
        for _ in 0..STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let idx = (x >> 33) as usize & (WORDS - 1);
            match x >> 62 {
                0 => acc = acc.wrapping_add(u64::from(table[idx])),
                1 => table[idx] = acc as u32,
                2 => acc ^= x >> 17,
                _ => acc = acc.rotate_left(7),
            }
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// The factor that converts this run's wall times to the reference
    /// speed: [`NOMINAL_MS`] over the chunks' lower quartile, the loop's
    /// time when neighbours leave it alone.
    pub fn scale(&self) -> f64 {
        NOMINAL_MS / percentile(&sorted(&self.chunks_ms), 25.0)
    }

    /// How the scale was obtained, for metric notes.
    pub fn note(&self) -> String {
        format!(
            "x {:.4} to reference speed ({} calibration chunks)",
            self.scale(),
            self.chunks_ms.len()
        )
    }
}

/// Peak resident memory of this process (`VmHWM`) in MiB, without the
/// calibration table, which is resident from the first set-up on.
pub fn peak_rss_mib() -> f64 {
    host::peak_rss_mib() - TABLE_MIB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_respect_the_cadence_and_scale_is_positive() {
        let mut c = Calibrator::default();
        c.tick();
        c.tick();
        assert_eq!(c.chunks_ms.len(), 1, "the second tick is too soon");
        assert!(c.scale() > 0.0 && c.scale().is_finite());
    }
}
