//! Order statistics, closed-loop rates, and `/proc` parsers.
//!
//! Everything here is pure (no clocks, no I/O) so the rules the
//! benchmark's numbers rest on are unit-tested: which percentile a
//! sample can support, which stretches of a closed-loop slice count, and
//! how the kernel's accounting files are read.

/// A timing percentile is reported only when at least this many samples
/// lie beyond it; below that the "percentile" is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of an unsorted sample (mean of the middle pair when even).
/// `None` on an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values.to_vec());
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Can a sample of `n` support percentile `p` (0 < p < 1) under the
/// [`MIN_BEYOND`] rule?
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// Nearest-rank position (1-based) of percentile `p` in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted sample, or `None` when
/// the sample cannot support it under the [`MIN_BEYOND`] rule.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    supports(sorted.len(), p).then(|| nearest_rank(sorted, p))?
}

/// Nearest-rank percentile with no support rule (`None` only when the
/// sample is empty) — for `--quick` runs, whose report flags the value
/// as unsupported.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// Sort a latency sample ascending (latencies are finite by construction).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// One reading of the clocks, taken by the main thread while a
/// closed-loop slice runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// Nanoseconds since the run started.
    pub at_ns: u64,
    /// Ops completed so far in the slice, both connections together.
    pub ops: u64,
    /// Process `utime + stime` so far, clock ticks.
    pub cpu_ticks: u64,
}

/// The stretch of a closed-loop slice between two readings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Length, ns.
    pub len_ns: u64,
    /// Ops completed in it.
    pub ops: u64,
    /// Process CPU spent in it, clock ticks.
    pub cpu_ticks: u64,
}

impl Interval {
    fn between(from: &Reading, to: &Reading) -> Interval {
        Interval {
            len_ns: to.at_ns - from.at_ns,
            ops: to.ops - from.ops,
            cpu_ticks: to.cpu_ticks - from.cpu_ticks,
        }
    }
}

/// The part of a closed-loop slice in which *every* connection was still
/// issuing: from the first reading to the last one taken no later than
/// `active_until_ns`, the moment the first connection drained. The tail
/// one connection runs alone is left out. A slice that drained before its
/// second reading (`--quick`) counts as a whole. `None` without readings.
pub fn active_part(readings: &[Reading], active_until_ns: u64) -> Option<Interval> {
    let (first, rest) = readings.split_first()?;
    let end = rest
        .iter()
        .rev()
        .find(|r| r.at_ns <= active_until_ns)
        .or(rest.last())?;
    Some(Interval::between(first, end))
}

/// Closed-loop rates.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Rates {
    /// Completed ops per second.
    pub ops_per_s: f64,
    /// Process CPU microseconds per completed op.
    pub cpu_us_per_op: f64,
}

/// Closed-loop throughput and CPU per op: each round's active part gives
/// one value of each (its ops over its seconds, its CPU ticks over its
/// ops), and the **median over rounds** is reported. Within a round every
/// request counts once, so a program that slows down as its tables age is
/// measured over the same requests in every run; across rounds the median
/// keeps a round the box stalled in out of the result. `None` when no
/// round completed anything.
pub fn median_rates(rounds: &[Interval], tick_us: f64) -> Option<Rates> {
    let done: Vec<&Interval> = rounds
        .iter()
        .filter(|r| r.ops > 0 && r.len_ns > 0)
        .collect();
    let over =
        |value: fn(&Interval) -> f64| median(&done.iter().map(|r| value(r)).collect::<Vec<_>>());
    Some(Rates {
        ops_per_s: over(|r| r.ops as f64 / (r.len_ns as f64 / 1e9))?,
        cpu_us_per_op: over(|r| r.cpu_ticks as f64 / r.ops as f64)? * tick_us,
    })
}

/// Guest-wide hypervisor steal in clock ticks from the text of
/// `/proc/stat`: the eighth number of the aggregate `cpu` line.
pub fn parse_proc_stat_steal(stat: &str) -> Option<u64> {
    stat.lines()
        .find_map(|l| l.strip_prefix("cpu "))?
        .split_ascii_whitespace()
        .nth(7)?
        .parse()
        .ok()
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_proc_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the comm field: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method) — what the acceptance rule for run-to-run
/// spread is defined on. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values.to_vec());
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    Some(out)
}

/// Relative run-to-run spread: interquartile distance over the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sample = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // p99 of 1000 samples leaves exactly 10 beyond: supported.
        assert_eq!(percentile(&sample(1000), 0.99), Some(990.0));
        // One sample fewer leaves 9 beyond: refused, not approximated.
        assert_eq!(percentile(&sample(999), 0.99), None);
        // The median needs 20 samples.
        assert_eq!(percentile(&sample(20), 0.5), Some(10.0));
        assert_eq!(percentile(&sample(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert!(supports(100, 0.9) && !supports(99, 0.9));
    }

    #[test]
    fn closed_loop_rates_exclude_the_partial_tail_and_take_the_median_round() {
        let reading = |at_ms: u64, ops: u64, cpu_ticks: u64| Reading {
            at_ns: at_ms * 1_000_000,
            ops,
            cpu_ticks,
        };
        // A reading every 50 ms. The first connection drained at 170 ms:
        // the stretch ending at 200 ms ran partly on one connection.
        let readings = [
            reading(0, 0, 100),
            reading(50, 1000, 108),
            reading(100, 1400, 117),
            reading(150, 2600, 127),
            reading(200, 2900, 131),
        ];
        let active = active_part(&readings, 170_000_000).unwrap();
        assert_eq!(
            active,
            Interval {
                len_ns: 150_000_000,
                ops: 2600,
                cpu_ticks: 27
            }
        );
        // A slice that drained before its second reading counts whole.
        let whole = active_part(&readings[..2], 40_000_000).unwrap();
        assert_eq!((whole.len_ns, whole.ops), (50_000_000, 1000));
        assert_eq!(active_part(&[], 0), None);

        // Three rounds, the middle one stalled: the median round counts.
        let round = |ms: u64, ops: u64, cpu_ticks: u64| Interval {
            len_ns: ms * 1_000_000,
            ops,
            cpu_ticks,
        };
        let rounds = [
            round(100, 2000, 20),
            round(400, 2000, 36),
            round(125, 2000, 18),
        ];
        let got = median_rates(&rounds, 10_000.0).unwrap();
        assert_eq!(got.ops_per_s, 2000.0 / 0.125);
        assert_eq!(got.cpu_us_per_op, 20.0 * 10_000.0 / 2000.0);
        // A round that completed nothing has no rate and is left out.
        assert_eq!(median_rates(&[round(100, 0, 3)], 10_000.0), None);
        assert_eq!(median_rates(&[], 10_000.0), None);
    }

    #[test]
    fn proc_stat_parser_survives_hostile_comm() {
        let stat = "4242 (data case) ) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    123 45 0 0 20 0 9 0 1000 2000 300 18446744073709551615";
        assert_eq!(parse_proc_stat_ticks(stat), Some(168));
        assert_eq!(parse_proc_stat_ticks("no parens here"), None);
        assert_eq!(parse_proc_stat_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_parser_reads_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn proc_stat_steal_is_the_eighth_field_of_the_aggregate_line() {
        let stat = "cpu  813540 0 223768 2022379 11397 0 30975 30064 0 0\n\
                    cpu0 354476 0 105476 1066572 7217 0 15239 15510 0 0\n";
        assert_eq!(parse_proc_stat_steal(stat), Some(30064));
        assert_eq!(parse_proc_stat_steal("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_proc_stat_steal("cpu  1 2 3\n"), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(relative_spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
