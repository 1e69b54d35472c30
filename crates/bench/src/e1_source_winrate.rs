//! E1 — source win-rate vs trajectory-data density.
//!
//! Paper hook: §I argues that web services deviate from drivers and that
//! popularity-only systems fail where data is sparse; the conclusion
//! states "MFP has the highest possibility to give the best route".
//! Expected shape: web services are density-independent; miners improve
//! with density; MFP tops the table once data is dense.

use crate::common::{header, row};
use cp_mining::{SourceKind, World};
use cp_traj::TimeOfDay;
use crowdplanner::sim::{Scale, SimWorld};

/// Runs E1.
pub fn run(fast: bool) {
    let world = SimWorld::build(Scale::Medium, 13).expect("world");
    let n_req = if fast { 30 } else { 100 };
    let requests = world.request_stream(n_req, 6, 31);
    let departure = TimeOfDay::from_hours(8.0);
    let densities = if fast {
        vec![0.1, 1.0]
    } else {
        vec![0.02, 0.05, 0.1, 0.25, 0.5, 1.0]
    };

    header(
        "E1: fraction of requests where each source returns the driver-preferred route",
        &[
            "density", "trips", "WS-Short", "WS-Fast", "MPR", "LDR", "MFP",
        ],
    );
    for d in densities {
        let keep = ((world.trips.trips.len() as f64) * d) as usize;
        let subset = &world.trips.trips[..keep.min(world.trips.trips.len())];
        let mining = World::new(world.city.graph.clone(), subset.to_vec());
        let mut hits = [0usize; 5];
        for &(a, b) in &requests {
            for c in mining.candidates(a, b, departure) {
                if world.is_best(&c.path) {
                    let i = SourceKind::ALL.iter().position(|&s| s == c.source).unwrap();
                    hits[i] += 1;
                }
            }
        }
        let pct = |h: usize| format!("{:.1}%", 100.0 * h as f64 / requests.len() as f64);
        row(&[
            format!("{:.0}%", d * 100.0),
            format!("{}", subset.len()),
            pct(hits[0]),
            pct(hits[1]),
            pct(hits[2]),
            pct(hits[3]),
            pct(hits[4]),
        ]);
    }
}
