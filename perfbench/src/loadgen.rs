//! Open-loop load generation from one process.
//!
//! Requests are due on a fixed schedule (Poisson arrivals drawn from the
//! seed). `threads` senders pull the next due request in order, wait
//! until it is due, and send it, so at most `threads` requests are in
//! flight. Latency is timed from the due time, not the send time: a stall
//! that makes the senders late is charged to every request it delays, and
//! the lateness itself is reported.

use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request as the generator saw it; times in seconds from the start
/// of the schedule.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Index into the schedule.
    pub idx: usize,
    /// When the request was due.
    pub due_s: f64,
    /// When a sender actually started it.
    pub sent_s: f64,
    /// When its response was complete.
    pub done_s: f64,
    /// Whether the response was accepted.
    pub ok: bool,
}

impl Sample {
    /// Latency charged to the request: response completion minus due time.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }

    /// How late the generator started the request.
    pub fn late_ms(&self) -> f64 {
        (self.sent_s - self.due_s) * 1e3
    }
}

/// Due times of `n` Poisson arrivals at `rate` per second.
pub fn poisson_schedule(n: usize, rate: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / rate;
            t
        })
        .collect()
}

/// Send every request of `due_s` from `threads` sender threads; `send(i)`
/// performs request `i` and says whether it succeeded. Samples come back
/// in schedule order.
pub fn open_loop(
    due_s: &[f64],
    threads: usize,
    send: impl Fn(usize) -> bool + Sync,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(due_s.len()));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&due) = due_s.get(idx) else { break };
                    let now = t0.elapsed().as_secs_f64();
                    if due > now {
                        std::thread::sleep(Duration::from_secs_f64(due - now));
                    }
                    let sent_s = t0.elapsed().as_secs_f64();
                    let ok = send(idx);
                    mine.push(Sample {
                        idx,
                        due_s: due,
                        sent_s,
                        done_s: t0.elapsed().as_secs_f64(),
                        ok,
                    });
                }
                out.lock()
                    .expect("no sender panics while holding the sample lock")
                    .extend(mine);
            });
        }
    });
    let mut samples = out.into_inner().expect("sender threads have joined");
    samples.sort_by_key(|s| s.idx);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use rand::SeedableRng;

    #[test]
    fn schedule_is_seeded_and_has_the_rate() {
        let a = poisson_schedule(4000, 200.0, &mut StdRng::seed_from_u64(5));
        let b = poisson_schedule(4000, 200.0, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 200.0).abs() < 20.0, "rate {rate}");
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        // One sender, a request due every 2 ms, and request 5 stalls for
        // 60 ms: the ~30 requests due during the stall go out late, and
        // their latency from the due time includes the wait.
        let due: Vec<f64> = (0..60).map(|i| 0.002 * i as f64).collect();
        let samples = open_loop(&due, 1, |i| {
            if i == 5 {
                std::thread::sleep(Duration::from_millis(60));
            }
            true
        });
        assert_eq!(samples.len(), 60);
        assert!(samples.iter().all(|s| s.ok && s.sent_s >= s.due_s - 1e-9));
        // Request 6 was due 2 ms after the stall began: it left at least
        // 55 ms late and its latency counts that wait.
        assert!(samples[6].late_ms() > 55.0, "late {}", samples[6].late_ms());
        assert!(samples[6].latency_ms() >= samples[6].late_ms());
        // Send-time latency would hide it: the request itself was instant.
        assert!((samples[6].done_s - samples[6].sent_s) * 1e3 < 5.0);
        let late: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
        assert!(percentile(&late, 99.0).unwrap() > 50.0);
        // Requests before the stall were on time.
        assert!(samples[..5].iter().all(|s| s.late_ms() < 20.0));
    }
}
