//! GDPR-annotated records and the Mall dataset generator.
//!
//! "We enriched the data records in GDPRBench with the Mall dataset from
//! \[51\] comprising simulated data generated from personal devices in a
//! shopping complex. Each record consists of a personal data-id and the
//! recorded date and time generated using the SmartBench simulator \[35\]."
//! (paper §4.2). The generator below synthesises exactly that shape:
//! device readings (device, person, zone, timestamp) serialized into a
//! fixed-size payload.

use datacase_core::purpose::{well_known as wk, PurposeId};
use datacase_sim::rng::SplitMix64;
use datacase_sim::time::Ts;

/// The GDPR metadata GDPRBench attaches to every record.
#[derive(Clone, Debug, PartialEq)]
pub struct GdprMetadata {
    /// The data-subject's id.
    pub subject: u32,
    /// Collection purpose.
    pub purpose: PurposeId,
    /// Retention deadline (the compliance-erase `t_f`).
    pub ttl: Ts,
    /// Where the record came from (device id).
    pub origin_device: u32,
    /// Whether the subject objects to third-party sharing.
    pub objects_to_sharing: bool,
}

/// One simulated personal-device reading in the shopping complex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MallReading {
    /// The sensing device.
    pub device: u32,
    /// The person observed (data-subject).
    pub person: u32,
    /// Zone within the mall.
    pub zone: u16,
    /// Observation timestamp.
    pub at: Ts,
}

impl MallReading {
    /// Serialize into a fixed-size payload (padded to `size` bytes).
    /// The rendering embeds a per-person marker (`person=<id>`) that the
    /// forensic scanner can use as a needle.
    pub fn to_payload(&self, size: usize) -> Vec<u8> {
        let mut s = format!(
            "dev={:06} person={:06} zone={:03} ts={:012};",
            self.device,
            self.person,
            self.zone,
            self.at.0 / 1_000_000
        )
        .into_bytes();
        if s.len() < size {
            s.resize(size, b'.');
        }
        s
    }
}

/// Seeded generator of Mall readings and their GDPR metadata.
#[derive(Debug)]
pub struct MallGenerator {
    rng: SplitMix64,
    devices: u32,
    people: u32,
    zones: u16,
    payload_size: usize,
    clock_step: u64,
    now: u64,
}

impl MallGenerator {
    /// A generator over `people` subjects and `devices` sensors.
    pub fn new(seed: u64, people: u32, devices: u32) -> MallGenerator {
        assert!(people > 0 && devices > 0);
        MallGenerator {
            rng: SplitMix64::new(seed),
            devices,
            people,
            zones: 64,
            payload_size: 100,
            clock_step: 1_000_000, // 1ms of simulated time between readings
            now: 0,
        }
    }

    /// Override the payload size (default 100 bytes).
    pub fn with_payload_size(mut self, size: usize) -> MallGenerator {
        self.payload_size = size;
        self
    }

    /// Number of distinct subjects.
    pub fn people(&self) -> u32 {
        self.people
    }

    /// Next reading.
    pub fn reading(&mut self) -> MallReading {
        self.now += self.clock_step;
        MallReading {
            device: self.rng.next_below(self.devices as u64) as u32,
            person: self.rng.next_below(self.people as u64) as u32,
            zone: self.rng.next_below(self.zones as u64) as u16,
            at: Ts(self.now),
        }
    }

    /// Next reading plus its GDPR metadata (purpose drawn from the
    /// smart-space purposes, TTL a few simulated days out).
    pub fn record(&mut self) -> (MallReading, GdprMetadata, Vec<u8>) {
        let reading = self.reading();
        let purpose = match self.rng.next_below(4) {
            0 => wk::billing(),
            1 => wk::analytics(),
            2 => wk::advertising(),
            _ => wk::smart_space(),
        };
        let ttl_days = 30 + self.rng.next_below(365 - 30);
        let meta = GdprMetadata {
            subject: reading.person,
            purpose,
            ttl: reading.at + datacase_sim::time::Dur::from_secs(ttl_days * 24 * 3600),
            origin_device: reading.device,
            objects_to_sharing: self.rng.next_below(100) < 30,
        };
        let payload = reading.to_payload(self.payload_size);
        (reading, meta, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_fixed_size_and_contains_needle() {
        let r = MallReading {
            device: 3,
            person: 42,
            zone: 7,
            at: Ts::from_secs(100),
        };
        let p = r.to_payload(100);
        assert_eq!(p.len(), 100);
        let needle = b"person=000042";
        assert!(p.windows(needle.len()).any(|w| w == needle));
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = MallGenerator::new(7, 100, 10);
        let mut b = MallGenerator::new(7, 100, 10);
        for _ in 0..50 {
            assert_eq!(a.reading(), b.reading());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = MallGenerator::new(1, 100, 10);
        let mut b = MallGenerator::new(2, 100, 10);
        let ra: Vec<MallReading> = (0..10).map(|_| a.reading()).collect();
        let rb: Vec<MallReading> = (0..10).map(|_| b.reading()).collect();
        assert_ne!(ra, rb);
    }

    #[test]
    fn metadata_is_plausible() {
        let mut g = MallGenerator::new(3, 50, 5);
        for _ in 0..100 {
            let (reading, meta, payload) = g.record();
            assert!(meta.subject < 50);
            assert!(meta.origin_device < 5);
            assert!(meta.ttl > reading.at);
            assert_eq!(payload.len(), 100);
        }
    }

    #[test]
    fn timestamps_increase() {
        let mut g = MallGenerator::new(3, 50, 5);
        let a = g.reading().at;
        let b = g.reading().at;
        assert!(b > a);
    }
}
