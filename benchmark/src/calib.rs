//! Host-speed probe: fixed work that no crate under test takes part in,
//! timed before, between and after the slices of a measured phase.
//!
//! The 2-vCPU VM the bounds were fixed on shares its host: for minutes
//! at a time the same binary runs 15–30% slower, hitting thread spawns
//! and cross-core wakeups hardest. The probe times the three things the
//! serving path is made of — integer work over a table, a thread spawn,
//! a condvar round trip — so host-time metrics can be divided by how
//! slow the host was while they were measured.

use crate::stats::median;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

const CHUNKS: usize = 41;
const STEPS: usize = 1 << 20;

/// Typical probe readings on that VM (Intel Xeon, 2.1 GHz): a factor of
/// 1 means a host that fast.
const REFERENCE: [f64; 3] = [2.25, 25.5, 10.2];

/// Medians of three probes: milliseconds of a compute chunk, microseconds
/// to spawn and join a thread, microseconds of a condvar round trip
/// between two threads.
pub fn probe() -> [f64; 3] {
    [compute_ms(), spawn_us(), wake_us()]
}

/// How much slower than the reference the host was between two probes:
/// the geometric mean of every reading over its reference.
pub fn factor(before: &[f64; 3], after: &[f64; 3]) -> f64 {
    let log: f64 = before
        .iter()
        .chain(after)
        .zip(REFERENCE.iter().cycle())
        .map(|(v, r)| (v / r).ln())
        .sum();
    (log / 6.0).exp()
}

fn compute_ms() -> f64 {
    let mut table = vec![1u64; 1 << 17];
    median(
        &(0..CHUNKS)
            .map(|c| {
                let t0 = Instant::now();
                std::hint::black_box(walk(&mut table, c as u64));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<f64>>(),
    )
}

fn spawn_us() -> f64 {
    median(
        &(0..CHUNKS)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..20 {
                    std::thread::scope(|s| {
                        s.spawn(|| std::hint::black_box(1));
                    });
                }
                t0.elapsed().as_secs_f64() * 1e6 / 20.0
            })
            .collect::<Vec<f64>>(),
    )
}

fn wake_us() -> f64 {
    median(
        &(0..CHUNKS)
            .map(|_| {
                let turn = (Mutex::new(0u32), Condvar::new());
                let rounds = 100;
                let t0 = Instant::now();
                std::thread::scope(|s| {
                    for parity in 0..2 {
                        let turn = &turn;
                        s.spawn(move || {
                            let (m, cv) = turn;
                            let mut g = m.lock().expect("probe lock");
                            while *g < 2 * rounds {
                                if *g % 2 == parity {
                                    *g += 1;
                                    cv.notify_all();
                                } else {
                                    g = cv.wait(g).expect("probe lock");
                                }
                            }
                        });
                    }
                });
                t0.elapsed().as_secs_f64() * 1e6 / rounds as f64
            })
            .collect::<Vec<f64>>(),
    )
}

/// A xorshift-driven read-modify-write walk over `table`.
fn walk(table: &mut [u64], seed: u64) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ seed;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        acc = acc.wrapping_add(table[i]);
        table[i] = acc;
    }
    acc
}
