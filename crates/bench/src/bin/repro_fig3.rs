//! Reproduces Fig. 3: channel response delay profiles for LOS and NLOS
//! transmissions.
//!
//! The paper shows two CIR amplitude-vs-delay plots: under LOS the first
//! arriving energy is the strongest; under NLOS the early (direct) energy is
//! suppressed and a later reflection dominates. We print both profiles for
//! one Lab link with and without an obstructing metal rack in the way.

use nomloc_bench::{header, print_series};
use nomloc_core::pdp::PdpEstimator;
use nomloc_geometry::{Point, Polygon};
use nomloc_rfsim::{Environment, FloorPlan, Material, RadioConfig, SubcarrierGrid};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn profile_series(env: &Environment, tx: Point, rx: Point, seed: u64) -> Vec<(f64, f64)> {
    let grid = SubcarrierGrid::intel5300();
    let mut rng = StdRng::seed_from_u64(seed);
    let snap = env.sample_csi(tx, rx, &grid, &mut rng);
    let profile = PdpEstimator::new().delay_profile(&snap);
    profile
        .powers()
        .iter()
        .enumerate()
        .take_while(|(i, _)| (*i as f64) * profile.tap_spacing() <= 1.5e-6)
        .map(|(i, &p)| (i as f64 * profile.tap_spacing() * 1e6, p.sqrt()))
        .collect()
}

fn main() {
    let boundary = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(12.0, 8.0));
    let tx = Point::new(2.0, 4.0);
    let rx = Point::new(10.0, 4.0);

    let los_env = Environment::new(
        FloorPlan::builder(boundary.clone()).build(),
        RadioConfig::default(),
    );
    let nlos_env = Environment::new(
        FloorPlan::builder(boundary)
            .rect_obstacle(Point::new(5.6, 3.2), Point::new(6.4, 4.8), Material::METAL)
            .build(),
        RadioConfig::default(),
    );

    header("Fig. 3 — Channel response delay profile, LOS");
    print_series(
        "delay_us",
        "amplitude",
        &profile_series(&los_env, tx, rx, 3),
    );

    header("Fig. 3 — Channel response delay profile, NLOS");
    print_series(
        "delay_us",
        "amplitude",
        &profile_series(&nlos_env, tx, rx, 3),
    );

    // Quantify the dichotomy the figure illustrates.
    let grid = SubcarrierGrid::intel5300();
    let mut rng = StdRng::seed_from_u64(3);
    let est = PdpEstimator::new();
    let los = los_env.sample_csi(tx, rx, &grid, &mut rng);
    let nlos = nlos_env.sample_csi(tx, rx, &grid, &mut rng);
    let p_los = est.delay_profile(&los).peak().power;
    let p_nlos = est.delay_profile(&nlos).peak().power;
    println!();
    println!(
        "peak power LOS / NLOS = {:.1} dB (paper: NLOS first path 'much lower than the normal one')",
        10.0 * (p_los / p_nlos).log10()
    );
}
