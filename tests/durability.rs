//! Durability integration tests (this PR's acceptance bar).
//!
//! 1. **Equivalence proptest**: a crowd-backed city served with the
//!    resolution log on — optionally checkpointed mid-stream — is
//!    rebuilt entry-wise identically by `Platform::recover_from`
//!    (snapshot + log) and, when the log is untruncated, by the
//!    `replay_log` oracle: same truth store contents, same crowd answer
//!    history, response times, and generation. Runs at 1 and 4 workers.
//! 2. **Torn-tail crash consistency**: truncating the log at *every*
//!    byte boundary inside the final record recovers exactly the
//!    longest valid prefix — no panic, no partial record — both through
//!    `cp_durable::read_log` and through a full `recover_from`.
//! 3. **Kill-mid-snapshot**: a stale `snapshot.cps.tmp` left by a crash
//!    during checkpointing never shadows the previous good checkpoint.
//! 4. **Sequence re-seeding regression**: a platform recovered from a
//!    checkpointed directory continues allocating store sequence
//!    numbers strictly above everything it restored, and a second
//!    recovery sees the union of both serving phases.

mod common;
use common::{crowd_forcing_config, truth_sig};

use cp_crowd::{CrowdDesk, CrowdState};
use cp_service::{
    CityId, CrowdServing, DurabilityConfig, FsyncPolicy, Platform, PlatformConfig, Request,
    ServiceConfig,
};
use cp_traj::TimeOfDay;
use crowdplanner::sim::{Scale, SimWorld};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cp_durability_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_platform(workers: usize, dir: Option<&Path>, fsync: FsyncPolicy) -> Platform {
    Platform::start(PlatformConfig {
        workers,
        city_weight: 1,
        queue_capacity: 64,
        maintenance: None,
        batch: None,
        durability: dir.map(|d| DurabilityConfig::new(d).with_fsync(fsync)),
        chaos: None,
    })
}

/// Serves `ods` one wave at a time (submit all, wait all) so every
/// resolution is committed — and therefore logged — before returning.
fn serve_wave(platform: &Platform, id: CityId, ods: &[(cp_roadnet::NodeId, cp_roadnet::NodeId)]) {
    let tickets: Vec<_> = ods
        .iter()
        .enumerate()
        .map(|(i, &(from, to))| {
            let req = Request::to_city(id, from, to, TimeOfDay::from_hours(6.0 + i as f64 % 12.0));
            platform.submit_blocking(req).expect("admitted")
        })
        .collect();
    for t in tickets {
        t.wait().expect("request serves");
    }
}

/// Registers a crowd-backed city whose desk state is reachable for
/// snapshot export and answer logging; returns the city and its desk.
fn register_crowd_city(
    platform: &Platform,
    sim: &SimWorld,
    seed: u64,
) -> (CityId, Arc<cp_crowd::SharedCrowd>) {
    let shared = sim.shared_crowd(48, 10, seed, 4);
    let mut service_cfg = ServiceConfig::default();
    service_cfg.core = crowd_forcing_config();
    let serving = CrowdServing::new(
        sim.landmarks_arc(),
        sim.significance_arc(),
        Arc::clone(&shared) as Arc<dyn CrowdDesk>,
        Arc::new(sim.oracle_factory()),
    )
    .with_persist(Arc::clone(&shared) as Arc<dyn CrowdState>);
    let id = platform
        .register_city_crowd(sim.service_world(), service_cfg, serving)
        .expect("crowd city registers");
    (id, shared)
}

/// One recover-equals-live case: serve a crowd-backed city with the log
/// on under `fsync` (optionally checkpointing mid-stream), then rebuild
/// it through `recover_from`, `replay_log` and `replay_until`.
fn recovery_and_replay_case(
    seed: u64,
    workers: usize,
    checkpoint_mid: bool,
    fsync: FsyncPolicy,
    cut: usize,
) -> Result<(), TestCaseError> {
    let dir = scratch_dir(&format!(
        "equiv_{seed}_{workers}_{checkpoint_mid}_{fsync:?}"
    ));
    let sim = SimWorld::build(Scale::Small, 1234).expect("world");
    let ods = sim.request_stream(16, 2, 900 + seed);

    // Live run, logging on.
    let live = durable_platform(workers, Some(&dir), fsync);
    let (id, desk) = register_crowd_city(&live, &sim, seed);
    serve_wave(&live, id, &ods[..8]);
    if checkpoint_mid {
        let watermark = live.checkpoint().expect("checkpoint");
        prop_assert!(watermark > 0, "8 crowd-forced requests must log events");
    }
    serve_wave(&live, id, &ods[8..]);
    live.sync_durable();
    let stats = live.durability_stats().expect("durability is on");
    prop_assert_eq!(stats.events_shed, 0, "nothing may be shed at this scale");
    let live_truths = truth_sig(&live.city_service(id).expect("registered"));
    let live_state = desk.export_state();
    let snap = live.city_stats(id).expect("registered");
    prop_assert!(snap.is_consistent(), "{:?}", snap);
    live.shutdown();
    prop_assert!(!live_truths.is_empty(), "the run must commit truths");
    prop_assert!(live_state.generation > 0, "the crowd must answer");

    // Warm restart: snapshot + log.
    let recovered = durable_platform(1, None, fsync);
    let (rid, rdesk) = register_crowd_city(&recovered, &sim, seed);
    let report = recovered.recover_from(&dir).expect("recovery");
    prop_assert_eq!(
        (report.truths_restored + report.truths_replayed) as usize,
        live_truths.len(),
        "every truth applied exactly once: {:?}",
        report
    );
    prop_assert_eq!(
        truth_sig(&recovered.city_service(rid).expect("registered")),
        live_truths.clone()
    );
    let rstate = rdesk.export_state();
    prop_assert_eq!(rstate.generation, live_state.generation);
    prop_assert_eq!(rstate.history, live_state.history.clone());
    prop_assert_eq!(rstate.response_times, live_state.response_times.clone());
    recovered.shutdown();

    // Replay oracle: the log alone, from a cold store. Only valid
    // while the log is untruncated, i.e. when no checkpoint ran.
    if !checkpoint_mid {
        // Point-in-time prefix: `replay_until(k)` applies exactly the
        // records up to WAL sequence `k` — the truths among them, and
        // the crowd answers up to the last one the prefix holds.
        let log = cp_durable::read_log(&dir).expect("log reads");
        let upto = log[cut % log.len()].0;
        let mut prefix_truths = std::collections::HashSet::new();
        let mut prefix_generation = 0u64;
        for (_, event) in log.iter().take_while(|(wal_seq, _)| *wal_seq <= upto) {
            match event {
                cp_durable::Event::Truth { seq, .. } => {
                    prefix_truths.insert(*seq);
                }
                cp_durable::Event::Answer { generation, .. } => prefix_generation = *generation,
            }
        }
        let partial = durable_platform(1, None, fsync);
        let (qid, qdesk) = register_crowd_city(&partial, &sim, seed);
        let report = partial.replay_until(&dir, upto).expect("bounded replay");
        prop_assert_eq!(report.last_wal_seq, Some(upto));
        let want: Vec<_> = live_truths
            .iter()
            .filter(|t| prefix_truths.contains(&t.0))
            .cloned()
            .collect();
        prop_assert_eq!(
            truth_sig(&partial.city_service(qid).expect("registered")),
            want
        );
        prop_assert_eq!(qdesk.export_state().generation, prefix_generation);
        partial.shutdown();

        let replayed = durable_platform(1, None, fsync);
        let (pid, pdesk) = register_crowd_city(&replayed, &sim, seed);
        let report = replayed.replay_log(&dir).expect("replay");
        prop_assert_eq!(report.truths_replayed as usize, live_truths.len());
        prop_assert_eq!(
            truth_sig(&replayed.city_service(pid).expect("registered")),
            live_truths
        );
        let pstate = pdesk.export_state();
        prop_assert_eq!(pstate.generation, live_state.generation);
        prop_assert_eq!(pstate.history, live_state.history);
        prop_assert_eq!(pstate.response_times, live_state.response_times);
        replayed.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// `recover_from` (snapshot + log) and the `replay_log` oracle each
    /// rebuild a crowd-backed platform entry-wise identically to the
    /// live one: truth store, answer history, response times and
    /// generation all match, with or without a mid-stream checkpoint,
    /// at 1 and at 4 workers; `replay_until` rebuilds exactly the log
    /// prefix it was given.
    #[test]
    fn recovery_and_replay_rebuild_the_live_state(
        seed in 0u64..500,
        worker_pick in 0usize..2,
        checkpoint_mid in 0u8..2,
        cut in 0usize..1024,
    ) {
        let workers = [1usize, 4][worker_pick];
        recovery_and_replay_case(seed, workers, checkpoint_mid == 1, FsyncPolicy::Never, cut)?;
    }
}

/// The same case under the default — and only power-loss-safe — policy,
/// `DurabilityConfig::new(dir)` unmodified: one `wal.sync()` per drained
/// batch.
#[test]
fn group_fsync_recovery_and_replay_rebuild_the_live_state() {
    assert_eq!(
        DurabilityConfig::new("unused").fsync,
        FsyncPolicy::Group,
        "Group is the default policy"
    );
    recovery_and_replay_case(7, 4, false, FsyncPolicy::Group, 5).expect("group-fsync case");
}

/// Truncating the log at every byte boundary inside the final record
/// recovers exactly the records before it — the longest valid prefix —
/// with no panic and no partial record surfacing.
#[test]
fn torn_wal_tail_recovers_longest_valid_prefix() {
    let dir = scratch_dir("torn_tail");
    let sim = SimWorld::build(Scale::Small, 7).expect("world");
    let platform = durable_platform(2, Some(&dir), FsyncPolicy::Never);
    let id = platform.register_city(sim.service_world(), ServiceConfig::strict_deterministic());
    serve_wave(&platform, id, &sim.request_stream(10, 2, 41));
    platform.sync_durable();
    let live_truths = truth_sig(&platform.city_service(id).expect("registered"));
    platform.shutdown();

    let full = cp_durable::read_log(&dir).expect("full log reads");
    assert_eq!(
        full.len(),
        live_truths.len(),
        "one event per committed truth"
    );
    let n = full.len();
    assert!(n >= 2, "need at least two records to tear the last one");

    // Locate the segment that holds records and the final record's
    // byte span: header is 28 bytes, each frame is 8 + payload.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("dir lists")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segments.sort();
    let segment = segments
        .iter()
        .find(|p| std::fs::metadata(p).expect("meta").len() > 28)
        .expect("a non-empty segment")
        .clone();
    let bytes = std::fs::read(&segment).expect("segment reads");
    let mut pos = 28usize;
    let mut last_start = pos;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + 8 + len > bytes.len() {
            break;
        }
        last_start = pos;
        pos += 8 + len;
    }
    assert_eq!(
        pos,
        bytes.len(),
        "the untruncated segment ends on a frame boundary"
    );

    // Every strictly-partial cut of the final record: the reader keeps
    // exactly the first n-1 records.
    let scratch = scratch_dir("torn_tail_cut");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let scratch_seg = scratch.join(segment.file_name().expect("name"));
    for cut in last_start..bytes.len() {
        std::fs::write(&scratch_seg, &bytes[..cut]).expect("truncated copy writes");
        let prefix = cp_durable::read_log(&scratch).expect("torn tail must not error");
        assert_eq!(prefix.len(), n - 1, "cut at byte {cut} of {}", bytes.len());
        for (got, want) in prefix.iter().zip(full.iter()) {
            assert_eq!(got.0, want.0, "prefix order preserved at cut {cut}");
        }
    }
    // And a full `recover_from` over a torn directory applies exactly
    // that prefix — no panic, no partial record.
    std::fs::write(
        &segment,
        &bytes[..last_start + (bytes.len() - last_start) / 2],
    )
    .expect("tearing the live dir");
    let fresh = durable_platform(1, None, FsyncPolicy::Never);
    let fid = fresh.register_city(sim.service_world(), ServiceConfig::strict_deterministic());
    let report = fresh.recover_from(&dir).expect("torn recovery");
    assert_eq!(report.truths_replayed as usize, n - 1);
    assert_eq!(
        truth_sig(&fresh.city_service(fid).expect("registered")),
        live_truths[..n - 1].to_vec()
    );
    fresh.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A crash during checkpointing leaves at worst a stale
/// `snapshot.cps.tmp`; the previous good checkpoint stays loadable and
/// recovery still rebuilds the full live state (write-temp-then-rename).
#[test]
fn stale_snapshot_tmp_never_shadows_the_previous_checkpoint() {
    let dir = scratch_dir("mid_snapshot");
    let sim = SimWorld::build(Scale::Small, 11).expect("world");
    let platform = durable_platform(2, Some(&dir), FsyncPolicy::Never);
    let id = platform.register_city(sim.service_world(), ServiceConfig::strict_deterministic());
    let ods = sim.request_stream(12, 2, 77);
    serve_wave(&platform, id, &ods[..6]);
    platform.checkpoint().expect("checkpoint");
    serve_wave(&platform, id, &ods[6..]);
    platform.sync_durable();
    let live_truths = truth_sig(&platform.city_service(id).expect("registered"));
    platform.shutdown();

    // A later checkpoint died mid-stream: its temp file holds garbage.
    std::fs::write(
        dir.join("snapshot.cps.tmp"),
        b"CPSNAP01 interrupted mid-write",
    )
    .expect("stale tmp writes");

    let fresh = durable_platform(1, None, FsyncPolicy::Never);
    let fid = fresh.register_city(sim.service_world(), ServiceConfig::strict_deterministic());
    let report = fresh.recover_from(&dir).expect("recovery ignores the tmp");
    assert!(
        report.truths_restored > 0,
        "the good snapshot loads: {report:?}"
    );
    assert_eq!(
        truth_sig(&fresh.city_service(fid).expect("registered")),
        live_truths
    );
    fresh.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery re-seeds the store's sequence allocator: a recovered
/// platform keeps serving with sequence numbers strictly above
/// everything it restored, and a second recovery sees both phases.
#[test]
fn recovered_platform_resumes_sequence_monotonically() {
    let dir = scratch_dir("reseed");
    let sim = SimWorld::build(Scale::Small, 23).expect("world");
    let ods = sim.request_stream(12, 2, 3000);

    // Phase 1: serve, checkpoint (snapshot + log truncation), shut down.
    let first = durable_platform(2, Some(&dir), FsyncPolicy::Never);
    let id = first.register_city(sim.service_world(), ServiceConfig::strict_deterministic());
    serve_wave(&first, id, &ods[..6]);
    first.checkpoint().expect("checkpoint");
    let phase1 = truth_sig(&first.city_service(id).expect("registered"));
    first.shutdown();

    // Phase 2: recover into a platform that keeps logging to the same
    // directory, then serve fresh work.
    let second = durable_platform(2, Some(&dir), FsyncPolicy::Never);
    let sid = second.register_city(sim.service_world(), ServiceConfig::strict_deterministic());
    let report = second.recover_from(&dir).expect("recovery");
    assert_eq!(report.truths_restored as usize, phase1.len());
    let restored_top = phase1.iter().map(|t| t.0).max().expect("phase 1 truths");
    {
        let svc = second.city_service(sid).expect("registered");
        assert!(
            svc.truths().next_seq() > restored_top,
            "the allocator must resume above the restored range"
        );
    }
    serve_wave(&second, sid, &ods[6..]);
    second.sync_durable();
    let both = truth_sig(&second.city_service(sid).expect("registered"));
    let snap = second.city_stats(sid).expect("registered");
    assert!(snap.is_consistent(), "{snap:?}");
    second.shutdown();
    assert!(both.len() > phase1.len(), "phase 2 must commit new truths");
    let mut seqs: Vec<u64> = both.iter().map(|t| t.0).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), both.len(), "no sequence number is reused");
    for t in &both[phase1.len()..] {
        assert!(
            t.0 > restored_top,
            "new truths allocate above the restored range"
        );
    }

    // A third platform recovering the same directory sees the union.
    let third = durable_platform(1, None, FsyncPolicy::Never);
    let tid = third.register_city(sim.service_world(), ServiceConfig::strict_deterministic());
    let report = third.recover_from(&dir).expect("second recovery");
    assert_eq!(
        (report.truths_restored + report.truths_replayed) as usize,
        both.len(),
        "{report:?}"
    );
    assert_eq!(
        truth_sig(&third.city_service(tid).expect("registered")),
        both
    );
    third.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
