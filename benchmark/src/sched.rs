//! The open-loop send schedule.
//!
//! Due times are fixed before the phase starts — `start + offset +
//! i × interval` — and never move. A reply that arrives late does not
//! push later sends back: the generator sends the overdue batches
//! immediately, and every batch is timed **from its due time**, so the
//! queueing delay a stall imposes on later requests is counted
//! (the coordinated-omission guard).

use std::time::{Duration, Instant};

/// How close to the due time the generator stops sleeping and spins.
const SPIN_NS: u64 = 100_000;

/// A fixed-rate schedule in nanoseconds relative to the phase start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Gap between consecutive due times.
    pub interval_ns: u64,
    /// Due time of send 0 (staggers the connections).
    pub offset_ns: u64,
}

impl Schedule {
    /// A schedule of `per_second` sends per second, first send due at
    /// `offset_ns`.
    pub fn at_rate(per_second: f64, offset_ns: u64) -> Schedule {
        assert!(per_second > 0.0, "open-loop rate must be positive");
        Schedule {
            interval_ns: (1e9 / per_second).round() as u64,
            offset_ns,
        }
    }

    /// When send `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.offset_ns + i * self.interval_ns
    }
}

/// Block until `due_ns` after `start`: sleep while far, spin the last
/// [`SPIN_NS`]. Returns the instant reached, in ns since `start` —
/// already past `due_ns` when the generator is running late.
pub fn wait_until(start: Instant, due_ns: u64) -> u64 {
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return now;
        }
        let remaining = due_ns - now;
        if remaining > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(remaining - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the schedule the way `wait_until` does — a send leaves at
    /// its due time, or at once if the generator only comes free later —
    /// with a scripted service time per send. Returns `(send_ns,
    /// latency_from_due_ns)` per send.
    fn simulate(s: Schedule, service_ns: &[u64]) -> Vec<(u64, u64)> {
        let mut free = 0u64;
        service_ns
            .iter()
            .enumerate()
            .map(|(i, service)| {
                let send = s.due_ns(i as u64).max(free);
                free = send + service;
                (send, free - s.due_ns(i as u64))
            })
            .collect()
    }

    #[test]
    fn due_times_are_exact_multiples() {
        let s = Schedule::at_rate(400.0, 1_250_000);
        assert_eq!(s.interval_ns, 2_500_000);
        assert_eq!(s.due_ns(0), 1_250_000);
        assert_eq!(s.due_ns(7), 1_250_000 + 7 * 2_500_000);
        // On-time generator: every send leaves exactly when due.
        for (i, (send, lat)) in simulate(s, &[100_000; 8]).into_iter().enumerate() {
            assert_eq!(send, s.due_ns(i as u64));
            assert_eq!(lat, 100_000);
        }
    }

    #[test]
    fn a_stall_never_moves_later_due_times() {
        let s = Schedule::at_rate(1000.0, 0); // 1 ms apart
                                              // Send 1 stalls for 3.5 ms; the others take 0.1 ms.
        let service = [100_000, 3_500_000, 100_000, 100_000, 100_000, 100_000];
        let runs = simulate(s, &service);
        // Overdue sends go out back to back the moment the stall ends —
        // they are not re-spaced an interval apart …
        assert_eq!(runs[2].0, 4_500_000);
        assert_eq!(runs[3].0, 4_600_000);
        assert_eq!(runs[4].0, 4_700_000);
        // … and each is charged the wait since its *original* due time.
        assert_eq!(runs[2].1, 4_600_000 - 2_000_000);
        assert_eq!(runs[3].1, 4_700_000 - 3_000_000);
        assert_eq!(runs[4].1, 4_800_000 - 4_000_000);
        // Once caught up the schedule is back on its original grid.
        assert_eq!(runs[5].0, 5_000_000);
        assert_eq!(runs[5].1, 100_000);
        // A closed-loop timer would have reported 0.1 ms for all of them.
        assert!(runs[2].1 > 20 * service[2]);
    }

    #[test]
    fn wait_until_returns_immediately_when_late() {
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let reached = wait_until(start, 1_000_000);
        assert!(reached >= 2_000_000);
        let due = reached + 300_000;
        assert!(wait_until(start, due) >= due);
    }
}
