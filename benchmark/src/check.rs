//! The in-run correctness gate: every check returns `Err` with what it
//! saw, and any `Err` fails the run.

use crate::load::Sample;
use crate::workloads::{City, Env};
use cp_roadnet::{NodeId, Path};
use cp_service::{Platform, PlatformSnapshot, Request};
use std::time::Instant;

/// Kept responses compared against the reference platform.
const REFERENCE_SAMPLES: usize = 1024;

/// Platform and aggregate ledgers balance.
pub fn ledgers_balance(snapshot: &PlatformSnapshot) -> Result<(), String> {
    if !snapshot.is_consistent() {
        return Err(format!("platform ledger does not balance: {snapshot:?}"));
    }
    if !snapshot.aggregate.is_consistent() {
        return Err(format!(
            "aggregate service ledger does not balance: {:?}",
            snapshot.aggregate
        ));
    }
    Ok(())
}

/// The route starts at `from`, ends at `to` and every edge leads from
/// one listed node to the next in the city graph. A city that reuses
/// nearby truths (the crowd city, within `reuse_radius`) may answer with
/// the verified route of a neighbouring OD pair, so its endpoints may
/// lie that far from the request's.
fn route_is_well_formed(city: &City, sample: &Sample) -> Result<(), String> {
    let Sample { request, path, .. } = sample;
    let graph = city.world.graph();
    let nodes = path.nodes();
    let contiguous = nodes.len() == path.edges().len() + 1
        && path.edges().iter().zip(nodes.windows(2)).all(|(&e, pair)| {
            let edge = graph.edge(e);
            edge.from == pair[0] && edge.to == pair[1]
        });
    let near = |a, b| graph.position(a).distance(&graph.position(b)) <= city.cfg.core.reuse_radius;
    if !contiguous || !near(path.source(), request.from) || !near(path.destination(), request.to) {
        return Err(format!(
            "malformed route for {request:?}: nodes {nodes:?}, edges {:?}",
            path.edges()
        ));
    }
    Ok(())
}

pub fn routes_are_well_formed(env: &Env, samples: &[Sample]) -> Result<(), String> {
    samples
        .iter()
        .try_for_each(|s| route_is_well_formed(env.city(s.request.city), s))
}

/// Rebuilds a [`Sample`] from a gateway `/route` body, checking the
/// echoed endpoints on the way.
pub fn sample_from_body(city: &City, request: Request, body: &[u8]) -> Result<Sample, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("non-UTF-8 body: {e}"))?;
    let bad = |what: &str| format!("{what} in body {text}");
    let number = |key: &str| {
        crate::json::field(text, key)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| bad(key))
    };
    if number("city")? != request.city.0 as f64
        || number("from")? != request.from.0 as f64
        || number("to")? != request.to.0 as f64
    {
        return Err(bad(&format!("wrong echo for {request:?}")));
    }
    let nodes: Vec<NodeId> = crate::json::field(text, "nodes")
        .and_then(crate::json::u32_array)
        .ok_or_else(|| bad("nodes"))?
        .into_iter()
        .map(NodeId)
        .collect();
    let path = Path::from_nodes(city.world.graph(), &nodes).ok_or_else(|| bad("broken route"))?;
    Ok(Sample {
        request,
        path,
        confidence: number("confidence")?,
    })
}

/// The first [`REFERENCE_SAMPLES`] kept responses equal, path for path
/// and confidence bit for bit, what a one-worker, uncoalesced platform
/// answers to the same requests one at a time.
pub fn matches_reference(reference: &Platform, samples: &[Sample]) -> Result<(), String> {
    for sample in samples.iter().take(REFERENCE_SAMPLES) {
        let served = reference
            .submit_blocking(sample.request)
            .and_then(|t| t.wait())
            .map_err(|e| format!("reference failed {:?}: {e}", sample.request))?;
        if served.path != sample.path || served.confidence.to_bits() != sample.confidence.to_bits()
        {
            return Err(format!(
                "{:?}: served {:?} @ {}, reference {:?} @ {}",
                sample.request,
                sample.path.nodes(),
                sample.confidence,
                served.path.nodes(),
                served.confidence
            ));
        }
    }
    Ok(())
}

/// Share of the kept responses whose route is the ground-truth best.
pub fn route_accuracy(env: &Env, samples: &[Sample]) -> f64 {
    let best = samples
        .iter()
        .filter(|s| env.city(s.request.city).sim.is_best(&s.path))
        .count();
    best as f64 / samples.len().max(1) as f64
}

/// `cold_mine`: a fresh platform recovered from the live log holds the
/// live store, entry for entry. Returns `(seconds, events)` of each of
/// `repeats` recoveries.
pub fn recovery_matches_live(env: &Env, repeats: usize) -> Result<Vec<(f64, u64)>, String> {
    let dir = env.wal_dir.as_ref().expect("cold_mine logs");
    env.platform.sync_durable();
    let signature = |platform: &Platform, city: &City| {
        let service = platform.city_service(city.id).expect("registered");
        let entries = service.truths().export();
        entries
            .into_iter()
            .map(|(seq, e)| {
                let edges: Vec<u32> = e.path.edges().iter().map(|x| x.0).collect();
                (
                    seq,
                    e.from.0,
                    e.to.0,
                    e.departure.0.to_bits(),
                    e.confidence.to_bits(),
                    edges,
                )
            })
            .collect::<Vec<_>>()
    };
    let live: Vec<_> = env
        .cities
        .iter()
        .map(|city| signature(&env.platform, city))
        .collect();
    let mut timings = Vec::new();
    for _ in 0..repeats {
        let fresh = crate::workloads::private_platform(&env.cities);
        let t = Instant::now();
        let report = fresh
            .recover_from(dir)
            .map_err(|e| format!("recovery failed: {e}"))?;
        timings.push((t.elapsed().as_secs_f64(), report.truths_replayed));
        for (city, live) in env.cities.iter().zip(&live) {
            let rebuilt = signature(&fresh, city);
            if *live != rebuilt {
                let at = live.iter().zip(&rebuilt).position(|(a, b)| a != b);
                return Err(format!(
                    "recovered store differs from the live one: {} live vs {} rebuilt entries, \
                     first difference at {at:?}",
                    live.len(),
                    rebuilt.len()
                ));
            }
        }
        fresh.shutdown();
    }
    Ok(timings)
}
