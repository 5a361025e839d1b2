//! The three serving workloads: venue mix, request shape, rate ladder and
//! latency limit. BENCHMARK.json repeats each workload's reason and rates.

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// CSI packets per AP report.
    pub packets: usize,
    /// Venues requests go to, hottest first.
    pub venues: Vec<u64>,
    /// Zipf exponent of the venue mix over `venues` (0 = uniform).
    pub zipf_s: f64,
    /// Fleet venue ids onboarded at set-up (venue 0 is always resident).
    pub onboard: Vec<u64>,
    /// Session ids per venue; 0 means stateless requests.
    pub sessions_per_venue: u64,
    /// Share of the onboarded venues' cache bytes the venue budget keeps
    /// resident; `None` means no budget.
    pub resident_share: Option<f64>,
    /// Admin frames (onboard, retire, alternating) per second during the
    /// open-loop rungs.
    pub admin_hz: f64,
    /// Distinct requests in the seeded input pool, replayed cyclically.
    pub pool: usize,
    /// Ascending open-loop rates, requests per second.
    pub ladder: &'static [f64],
    /// Index into `ladder` of the light rate.
    pub light: usize,
    /// Index into `ladder` of the heavy rate.
    pub heavy: usize,
    /// p99 latency limit of a passing rung, milliseconds.
    pub limit_ms: f64,
    /// Requests kept outstanding in the saturating goodput phase.
    pub window: usize,
}

impl Workload {
    pub fn light_rps(&self) -> f64 {
        self.ladder[self.light]
    }

    pub fn heavy_rps(&self) -> f64 {
        self.ladder[self.heavy]
    }
}

/// Fleet venue ids onboarded at set-up of the fleet workloads.
fn fleet(n: u64) -> Vec<u64> {
    (1..=n).collect()
}

pub fn by_name(name: &str) -> Option<Workload> {
    let w = match name {
        // Venue 0 (Lab) only, 32 packets per AP: ~93 KB request frames, so
        // decode and PDP extraction are nearly all of the work.
        "lab-dense" => Workload {
            name: "lab-dense",
            packets: 32,
            venues: vec![0],
            zipf_s: 0.0,
            onboard: Vec::new(),
            sessions_per_venue: 0,
            resident_share: None,
            admin_hz: 0.0,
            pool: 480,
            ladder: &[
                500.0, 1000.0, 1500.0, 1750.0, 2000.0, 2250.0, 2500.0, 2800.0, 3150.0, 3500.0,
                3950.0, 4400.0, 4950.0, 5550.0, 6200.0, 6950.0, 7800.0,
            ],
            light: 0,
            heavy: 1,
            limit_ms: 50.0,
            window: 256,
        },
        // The resident venue plus 100 fleet venues, zipf(1), 2 packets per
        // AP, every request in a venue-pinned session: the LP is the
        // largest layer, and sessions and registry reads run every time.
        "fleet-sessions" => Workload {
            name: "fleet-sessions",
            packets: 2,
            venues: (0..=100).collect(),
            zipf_s: 1.0,
            onboard: fleet(100),
            sessions_per_venue: 4,
            resident_share: None,
            admin_hz: 0.0,
            pool: 4096,
            ladder: &[
                1200.0, 3000.0, 4000.0, 5000.0, 5600.0, 6000.0, 6300.0, 6650.0, 7050.0, 7450.0,
                7900.0, 8350.0, 8850.0, 9900.0, 11100.0, 12400.0, 13900.0,
            ],
            light: 0,
            heavy: 1,
            limit_ms: 50.0,
            window: 512,
        },
        // 300 fleet venues, uniform, stateless, a budget that keeps about a
        // quarter resident, and admin frames on the request connections:
        // the registry's write side (eviction, rebuild, publish) runs next
        // to its reads.
        "fleet-churn" => Workload {
            name: "fleet-churn",
            packets: 2,
            venues: fleet(300),
            zipf_s: 0.0,
            onboard: fleet(300),
            sessions_per_venue: 0,
            resident_share: Some(0.25),
            admin_hz: 20.0,
            pool: 4800,
            ladder: &[
                400.0, 700.0, 1000.0, 1150.0, 1300.0, 1425.0, 1550.0, 1700.0, 1850.0, 2025.0,
                2200.0, 2400.0, 2600.0, 2850.0, 3100.0, 3700.0, 4400.0, 5200.0, 6200.0, 7400.0,
            ],
            light: 0,
            heavy: 1,
            limit_ms: 50.0,
            window: 512,
        },
        _ => return None,
    };
    Some(w)
}

pub const NAMES: [&str; 3] = ["lab-dense", "fleet-sessions", "fleet-churn"];
