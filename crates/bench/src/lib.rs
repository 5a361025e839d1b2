//! Shared harness utilities for the figure-reproduction binaries.
//!
//! Each `repro_*` binary regenerates one figure of the NomLoc paper as a
//! plain-text table/series on stdout; this module holds the formatting and
//! the campaign presets shared across them so every figure is produced from
//! the same parameterization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nomloc_core::experiment::{Campaign, Deployment};
use nomloc_core::scenario::Venue;
use nomloc_dsp::stats::Ecdf;

/// Packets per AP site used by all figure campaigns (the paper collects
/// "thousands of packages at each site"; 60 medians out the same).
pub const PACKETS: usize = 60;

/// Independent trials per test site.
pub const TRIALS: usize = 8;

/// Markov-chain steps per nomadic round (enough to visit all four sites
/// with high probability).
pub const NOMADIC_STEPS: usize = 8;

/// Base RNG seed for all figures (override with the `NOMLOC_SEED`
/// environment variable to check seed-robustness of the trends).
pub const SEED: u64 = 2014;

/// The seed in effect: `NOMLOC_SEED` if set and parseable, else [`SEED`].
pub fn seed() -> u64 {
    std::env::var("NOMLOC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEED)
}

/// The standard campaign used in the figures, before per-figure tweaks.
pub fn standard_campaign(venue: Venue, deployment: Deployment) -> Campaign {
    Campaign::new(venue, deployment)
        .packets_per_site(PACKETS)
        .trials_per_site(TRIALS)
        .seed(seed())
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Prints an `(x, y)` series as two aligned columns.
pub fn print_series(x_label: &str, y_label: &str, series: &[(f64, f64)]) {
    println!("{x_label:>12}  {y_label:>12}");
    for (x, y) in series {
        println!("{x:>12.4}  {y:>12.4}");
    }
}

/// Prints a CDF as the `(error, probability)` staircase the paper plots.
pub fn print_cdf(label: &str, cdf: &Ecdf) {
    println!("--- CDF: {label} (n = {}) ---", cdf.len());
    print_series("error_m", "cdf", &cdf.series());
    println!(
        "mean = {:.2} m, median = {:.2} m, 90th = {:.2} m",
        cdf.mean(),
        cdf.quantile(0.5),
        cdf.quantile(0.9)
    );
}

/// Prints a labelled scalar row.
pub fn print_row(label: &str, value: f64) {
    println!("{label:<40} {value:>10.4}");
}

/// Whether quick-bench mode is on (`NOMLOC_BENCH_QUICK` set): the
/// criterion shim clamps its sampling budget and the paired min-of-rounds
/// loops shrink their round counts accordingly.
pub fn quick_mode() -> bool {
    std::env::var_os("NOMLOC_BENCH_QUICK").is_some()
}

/// `rounds` normally, a tenth of it (at least 10) under
/// [`quick_mode`].
pub fn rounds(rounds: usize) -> usize {
    if quick_mode() {
        (rounds / 10).max(10)
    } else {
        rounds
    }
}

/// Venue-shaped LP inputs for the `lp_scaling` bench.
pub mod lpcmp {
    use nomloc_geometry::{HalfPlane, Point, Polygon};
    use nomloc_lp::center;
    use nomloc_lp::relax::WeightedConstraint;

    /// Builds the constraint set a venue with `n_sites` AP sites would
    /// generate: all pairwise bisectors around a ring, plus the bounding
    /// box as high-weight constraints. Returns the constraints, the number
    /// of bisector (candidate) constraints, and the bounds.
    pub fn constraint_set(n_sites: usize) -> (Vec<WeightedConstraint>, usize, Polygon) {
        let bounds = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(20.0, 20.0));
        let sites: Vec<Point> = (0..n_sites)
            .map(|i| {
                let a = i as f64 / n_sites as f64 * std::f64::consts::TAU;
                Point::new(10.0 + 8.0 * a.cos(), 10.0 + 8.0 * a.sin())
            })
            .collect();
        let object = Point::new(6.0, 9.0);
        let mut cs = Vec::new();
        for i in 0..sites.len() {
            for j in (i + 1)..sites.len() {
                let (near, far) = if object.distance_sq(sites[i]) <= object.distance_sq(sites[j]) {
                    (sites[i], sites[j])
                } else {
                    (sites[j], sites[i])
                };
                cs.push(WeightedConstraint::new(
                    HalfPlane::closer_to(near, far),
                    0.8,
                ));
            }
        }
        let candidates = cs.len();
        for h in center::polygon_halfplanes(&bounds) {
            cs.push(WeightedConstraint::new(h, 1000.0));
        }
        (cs, candidates, bounds)
    }
}

/// Synthetic serving workloads for the `serving_throughput` bench.
pub mod serving {
    use nomloc_core::proximity::{ApSite, PdpReading};
    use nomloc_core::scenario::Venue;

    /// Deterministic synthetic PDP requests over the venue's static APs:
    /// the reading magnitudes vary per request via a splitmix stream, so
    /// every request solves a slightly different LP.
    pub fn requests_for(venue: &Venue, n: usize) -> Vec<Vec<PdpReading>> {
        let aps = venue.static_deployment();
        let mut z = 0x2014_u64;
        (0..n)
            .map(|_| {
                aps.iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                        let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
                        PdpReading::new(ApSite::fixed(i + 1, p), 1e-7 + 1e-5 * frac)
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomloc_core::experiment::Deployment;

    #[test]
    fn standard_campaign_constructs() {
        let c = standard_campaign(Venue::lab(), Deployment::Static);
        assert_eq!(c.venue().name, "Lab");
    }

    #[test]
    fn printers_do_not_panic() {
        header("test");
        print_series("x", "y", &[(1.0, 2.0)]);
        print_row("row", 1.0);
        let cdf = Ecdf::new(vec![1.0, 2.0]).unwrap();
        print_cdf("test", &cdf);
    }
}
