//! The traced run's layer ledger: the window's first requests replayed
//! one at a time through each layer's public function, and
//! single-in-flight probes of the idle live platform. Everything the
//! replay writes to is private — a store on its own platform, its own
//! log, its own crowd desk — so it cannot perturb the numbers it
//! follows.

use crate::load::{request_bytes, WireClient};
use crate::metrics::Ledger;
use crate::stats::median_ns_as_us;
use crate::trace::{median_self_us, self_times_ns, SpanId, Tracer, NO_PARENT};
use crate::workloads::{City, Env};
use cp_core::{
    evaluate_candidates, generate_task, select_workers, Evaluation, KnowledgeModel, LandmarkRoute,
    SelectionAlgorithm, TruthEntry, TruthStore,
};
use cp_crowd::CrowdDesk;
use cp_durable::{read_log, read_snapshot, Event, WalWriter};
use cp_gateway::http::{read_request, write_response};
use cp_gateway::{route_json, HttpLimits, Response};
use cp_mining::{
    local_driver_route, most_frequent_path, most_popular_route, CandidateRoute,
    FastestRouteService, LdrParams, MfpParams, MprParams, ShortestRouteService, TransferNetwork,
};
use cp_roadnet::routing::{astar_path, dijkstra_path, distance_cost, k_shortest_paths, time_cost};
use cp_roadnet::{LandmarkId, Path};
use cp_service::{MachineResolver, Platform, Request, Resolver, Served, ServedRoute};
use cp_traj::{CalibrationParams, TimeOfDay};
use std::path::Path as FsPath;
use std::time::Instant;

/// One replayed request in this many also times the per-source miners
/// and the routing primitives (sibling probes on the same OD).
const MINER_STRIDE: usize = 10;
/// One in this many also times Yen k = 4, which alone costs ~17 ms a
/// call on the Medium city.
const YEN_STRIDE: usize = 40;
/// One crowd task in this many rebuilds the knowledge model.
const KNOWLEDGE_STRIDE: usize = 10;
/// Appends per private-log sync.
const APPENDS_PER_SYNC: usize = 64;
/// Single-in-flight probes of the idle platform.
const HIT_PROBES: usize = 500;
const MISS_PROBES: usize = 200;

/// Copies the live truth stores into the private platform's, so the
/// replay's lookups and inserts see the store size the window ended
/// with.
fn mirror_stores(env: &Env, host: &Platform) {
    for city in &env.cities {
        let live = env.platform.city_service(city.id).expect("registered");
        let mirror = host.city_service(city.id).expect("registered");
        for (_, entry) in live.truths().export() {
            mirror.truths().insert(city.world.graph(), entry);
        }
    }
}

struct CrowdProbe<'a> {
    city: &'a City,
    /// The live desk, read only: the history worker selection sees.
    live_desk: &'a dyn CrowdDesk,
    /// A private, identically warmed desk that takes the asks.
    ask_desk: std::sync::Arc<dyn CrowdDesk>,
    knowledge: Option<KnowledgeModel>,
    tasks: usize,
    questions: usize,
    workers: usize,
}

impl CrowdProbe<'_> {
    /// The crowd stages of one undecided request, in pipeline order.
    fn run(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        id: u64,
        candidates: &[CandidateRoute],
        confidences: &[f64],
    ) {
        let City {
            sim, world, cfg, ..
        } = self.city;
        let landmarks = sim.landmarks_arc();
        let mut paths: Vec<&Path> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for (c, &conf) in candidates.iter().zip(confidences) {
            match paths.iter().position(|p| **p == c.path) {
                Some(at) => weights[at] = weights[at].max(0.1 + conf),
                None => {
                    paths.push(&c.path);
                    weights.push(0.1 + conf);
                }
            }
        }
        let mut routes: Vec<LandmarkRoute> = Vec::new();
        let mut kept_weights = Vec::new();
        for (path, &w) in paths.iter().zip(&weights) {
            let route = tracer.scoped("traj.calibrate_path", root, id, || {
                LandmarkRoute::from_path(
                    world.graph(),
                    &landmarks,
                    path,
                    &CalibrationParams::default(),
                )
            });
            if routes.iter().all(|r| !r.same_landmark_set(&route)) {
                routes.push(route);
                kept_weights.push(w);
            }
        }
        if routes.len() < 2 {
            return;
        }
        let task = tracer.scoped("core.taskgen.generate_task", root, id, || {
            generate_task(
                routes,
                &sim.significance_arc(),
                SelectionAlgorithm::Greedy,
                cfg.core.selection_budget,
                Some(&kept_weights),
            )
        });
        let Ok(task) = task else {
            return;
        };
        if self.tasks.is_multiple_of(KNOWLEDGE_STRIDE) {
            self.knowledge = Some(tracer.scoped(
                "core.worker_selection.knowledge_model",
                root,
                id,
                || KnowledgeModel::build(self.live_desk, &landmarks, &cfg.core),
            ));
        }
        self.tasks += 1;
        self.questions += task.questions.len();
        let asked: Vec<LandmarkId> = task.questions.iter().map(|&(l, _)| l).collect();
        let knowledge = self.knowledge.as_ref().expect("built on the first task");
        let selected = tracer.scoped("core.worker_selection.select", root, id, || {
            select_workers(self.live_desk, knowledge, &asked, &cfg.core)
        });
        let Ok(selected) = selected else {
            return;
        };
        self.workers += selected.len();
        let (Some(&worker), Some(&question)) = (selected.first(), asked.first()) else {
            return;
        };
        // What an ask costs does not depend on the true answer.
        tracer.scoped("crowd.desk.ask", root, id, || {
            if self.ask_desk.try_reserve(worker).is_ok() {
                self.ask_desk.ask(worker, landmarks.get(question), true);
                self.ask_desk.commit(worker);
            }
        });
    }
}

/// The per-source miners and routing primitives on one OD.
fn miner_probes(
    tracer: &mut Tracer,
    root: SpanId,
    id: u64,
    city: &City,
    all_day: &TransferNetwork,
    request: &Request,
    with_yen: bool,
) {
    let graph = city.world.graph();
    let trips = &city.sim.trips.trips;
    let (from, to) = (request.from, request.to);
    tracer.scoped("mining.origin_artifacts", root, id, || {
        std::hint::black_box(city.world.origin_artifacts(from));
    });
    tracer.scoped("mining.mpr", root, id, || {
        let _ = std::hint::black_box(most_popular_route(
            graph,
            all_day,
            from,
            to,
            &MprParams::default(),
        ));
    });
    tracer.scoped("mining.mfp", root, id, || {
        let _ = std::hint::black_box(most_frequent_path(
            graph,
            trips,
            from,
            to,
            request.departure,
            &MfpParams::default(),
        ));
    });
    tracer.scoped("mining.ldr", root, id, || {
        let _ = std::hint::black_box(local_driver_route(
            graph,
            trips,
            from,
            to,
            &LdrParams::default(),
        ));
    });
    tracer.scoped("mining.ws_shortest", root, id, || {
        let _ = std::hint::black_box(ShortestRouteService.route(graph, from, to));
    });
    tracer.scoped("mining.ws_fastest", root, id, || {
        let _ = std::hint::black_box(FastestRouteService.route(graph, from, to));
    });
    tracer.scoped("roadnet.dijkstra", root, id, || {
        let _ = std::hint::black_box(dijkstra_path(graph, from, to, time_cost(graph)));
    });
    tracer.scoped("roadnet.astar", root, id, || {
        let _ = std::hint::black_box(astar_path(graph, from, to, distance_cost(graph), 1.0));
    });
    if with_yen {
        tracer.scoped("roadnet.yen_k4", root, id, || {
            let _ = std::hint::black_box(k_shortest_paths(graph, from, to, 4, time_cost(graph)));
        });
    }
}

/// Replays `requests` through every layer, reads the per-layer medians
/// into `ledger` and appends the replay's spans to `recorder`.
pub fn layer_replay(
    env: &Env,
    requests: &[Request],
    recorder: &mut Tracer,
    ledger: &mut Ledger,
    out_dir: &FsPath,
) -> Result<(), String> {
    let host = crate::workloads::private_platform(&env.cities);
    mirror_stores(env, &host);
    let wal_dir = out_dir.join(format!("wal_replay_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut wal = WalWriter::open(&wal_dir).map_err(|e| format!("private log: {e}"))?;
    let limits = HttpLimits::default();
    let no_truths = TruthStore::new();
    let all_day: Vec<TransferNetwork> = env
        .cities
        .iter()
        .map(|c| TransferNetwork::build(c.world.graph(), &c.sim.trips.trips, None))
        .collect();
    let mut resolvers: Vec<MachineResolver> = env
        .cities
        .iter()
        .map(|c| MachineResolver::new(c.sim.graph_arc(), c.cfg.core.clone()))
        .collect();
    let mut crowd = env.cities.iter().find_map(|city| {
        Some(CrowdProbe {
            city,
            live_desk: &*city.crowd.as_ref()?.desk,
            ask_desk: crate::workloads::crowd_of(&city.sim).desk,
            knowledge: None,
            tasks: 0,
            questions: 0,
            workers: 0,
        })
    });
    let stores: Vec<_> = env
        .cities
        .iter()
        .map(|c| host.city_service(c.id).expect("registered"))
        .collect();
    // The replay records into its own recorder, so its parent links and
    // self times need no re-basing.
    let mut spans = recorder.fork(32 * requests.len());
    let mut parse_buf = Vec::new();
    let mut render_buf = Vec::new();

    for (i, request) in requests.iter().enumerate() {
        let id = i as u64;
        let city = env.city(request.city);
        let graph = city.world.graph();
        let store_host = &stores[city.id.index()];
        let Request {
            from,
            to,
            departure,
            ..
        } = *request;
        let root = spans.open("replay", NO_PARENT, id);

        let bytes = request_bytes(request);
        spans.scoped("gateway.http.parse", root, id, || {
            parse_buf.clear();
            let parsed = read_request(&mut bytes.as_bytes(), &mut parse_buf, &limits);
            std::hint::black_box(parsed.is_ok());
        });
        spans.scoped("service.store.lookup", root, id, || {
            std::hint::black_box(store_host.truths().lookup(
                graph,
                from,
                to,
                departure,
                &city.cfg.core,
            ));
        });
        let candidates = spans.scoped("mining.candidates", root, id, || {
            city.world.candidates(from, to, departure)
        });
        if i.is_multiple_of(MINER_STRIDE) {
            let net = &all_day[city.id.index()];
            miner_probes(
                &mut spans,
                root,
                id,
                city,
                net,
                request,
                i.is_multiple_of(YEN_STRIDE),
            );
        }
        let evaluation = spans.scoped("core.evaluate", root, id, || {
            evaluate_candidates(graph, &candidates, &no_truths, from, to, &city.cfg.core)
        });
        let resolved = spans.scoped("service.resolver.machine", root, id, || {
            resolvers[city.id.index()].resolve(from, to, departure, &candidates)
        });
        let resolved =
            resolved.map_err(|e| format!("replay could not resolve {request:?}: {e}"))?;
        if let (Some(probe), Evaluation::Undecided { confidences }) = (&mut crowd, &evaluation) {
            probe.run(&mut spans, root, id, &candidates, confidences);
        }
        spans.scoped("service.store.insert", root, id, || {
            store_host.truths().insert(
                graph,
                TruthEntry {
                    from,
                    to,
                    departure,
                    path: resolved.path.clone(),
                    confidence: resolved.confidence,
                },
            );
        });
        let event = Event::Truth {
            city: city.id.0,
            seq: id,
            from: from.0,
            to: to.0,
            departure: departure.0,
            confidence: resolved.confidence,
            edges: resolved.path.edges().iter().map(|e| e.0).collect(),
        };
        spans
            .scoped("durable.wal.append", root, id, || wal.append(&event))
            .map_err(|e| format!("private log append: {e}"))?;
        if (i + 1).is_multiple_of(APPENDS_PER_SYNC) {
            spans
                .scoped("durable.wal.sync", root, id, || wal.sync())
                .map_err(|e| format!("private log sync: {e}"))?;
        }
        let served = ServedRoute {
            path: resolved.path,
            served: Served::Resolved(resolved.resolution),
            confidence: resolved.confidence,
        };
        spans.scoped("gateway.render", root, id, || {
            render_buf.clear();
            let body = route_json(request, &served, graph);
            let written = write_response(&mut render_buf, &Response::json(200, body));
            std::hint::black_box(written.is_ok());
        });
        spans.close(root);
    }
    wal.sync().map_err(|e| format!("private log sync: {e}"))?;
    drop(wal);

    let t = Instant::now();
    let events = read_log(&wal_dir).map_err(|e| format!("private log read: {e}"))?;
    let read_s = t.elapsed().as_secs_f64();
    if events.len() != requests.len() {
        return Err(format!(
            "the private log holds {} of {} appended events",
            events.len(),
            requests.len()
        ));
    }
    ledger.set(
        "durable.wal.read_us_per_event",
        read_s * 1e6 / events.len().max(1) as f64,
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
    host.shutdown();

    let self_ns = self_times_ns(spans.spans());
    // Every timed layer reports as `<span name>_us`.
    for span in [
        "gateway.http.parse",
        "gateway.render",
        "service.store.lookup",
        "service.store.insert",
        "mining.candidates",
        "mining.origin_artifacts",
        "mining.mpr",
        "mining.mfp",
        "mining.ldr",
        "mining.ws_shortest",
        "mining.ws_fastest",
        "roadnet.dijkstra",
        "roadnet.astar",
        "roadnet.yen_k4",
        "core.evaluate",
        "service.resolver.machine",
        "traj.calibrate_path",
        "core.taskgen.generate_task",
        "core.worker_selection.knowledge_model",
        "core.worker_selection.select",
        "crowd.desk.ask",
        "durable.wal.append",
        "durable.wal.sync",
    ] {
        ledger.set(
            &format!("{span}_us"),
            median_self_us(spans.spans(), &self_ns, span),
        );
    }
    if let Some(probe) = crowd {
        let tasks = probe.tasks.max(1) as f64;
        ledger.set(
            "core.taskgen.questions_per_task",
            probe.questions as f64 / tasks,
        );
        ledger.set(
            "core.worker_selection.workers_per_task",
            probe.workers as f64 / tasks,
        );
    }
    recorder.absorb(spans);
    Ok(())
}

/// Median submit → wait time, in µs, of `requests` served one at a time.
fn serve_one_at_a_time(platform: &Platform, requests: &[Request]) -> Result<f64, String> {
    let mut times = Vec::with_capacity(requests.len());
    for &request in requests {
        let t = Instant::now();
        platform
            .submit_blocking(request)
            .and_then(|ticket| ticket.wait())
            .map_err(|e| format!("idle-platform probe {request:?}: {e}"))?;
        times.push(t.elapsed().as_nanos() as u64);
    }
    Ok(median_ns_as_us(&mut times))
}

/// Single-in-flight probes of the idle live platform: what one request
/// costs end to end when nothing queues, on a truth hit and on a miss,
/// and what the wire adds. Run after the windows; the layer medians
/// from [`layer_replay`] must already be in `ledger`.
pub fn idle_platform_probes(
    env: &Env,
    served: &[Request],
    ledger: &mut Ledger,
) -> Result<(), String> {
    let hits = &served[..served.len().min(HIT_PROBES)];
    let hit_us = serve_one_at_a_time(&env.platform, hits)?;
    // Misses: keys the window never touched — a distinct request each,
    // moved to a night bucket no workload draws from a pool.
    let misses: Vec<Request> = env
        .traffic
        .distinct_requests(MISS_PROBES)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let cfg = &env.city(r.city).cfg;
            let night = ((i % 16) as f64 + 0.5) * cfg.time_bucket_s;
            Request::to_city(r.city, r.from, r.to, TimeOfDay::new(night))
        })
        .collect();
    let miss_us = serve_one_at_a_time(&env.platform, &misses)?;
    let lookup = ledger.get("service.store.lookup_us");
    ledger.set("service.platform.serve_one_hit_us", hit_us);
    ledger.set("service.platform.serve_one_miss_us", miss_us);
    ledger.set("service.platform.overhead_hit_us", hit_us - lookup);
    ledger.set(
        "service.platform.overhead_miss_us",
        miss_us
            - lookup
            - ledger.get("mining.candidates_us")
            - ledger.get("service.resolver.machine_us")
            - ledger.get("service.store.insert_us"),
    );

    if let Some(gateway) = &env.gateway {
        // Twice through the metro hot pool: 256 distinct keys between
        // repeats, so the 32-entry session cache never answers and both
        // sides measure a platform truth hit.
        let pool = env.traffic.metro_hot_pool();
        let requests: Vec<Request> = pool.iter().chain(pool).copied().collect();
        let mut client = WireClient::connect(gateway.local_addr())
            .map_err(|e| format!("wire probe connect: {e}"))?;
        let mut wire = Vec::with_capacity(requests.len());
        for request in &requests {
            let t = Instant::now();
            let status = client
                .round_trip(request)
                .map_err(|e| format!("wire probe {request:?}: {e}"))?;
            if status != 200 {
                return Err(format!("wire probe {request:?} answered {status}"));
            }
            wire.push(t.elapsed().as_nanos() as u64);
        }
        let in_process = serve_one_at_a_time(&env.platform, &requests)?;
        ledger.set(
            "gateway.wire_overhead_us",
            median_ns_as_us(&mut wire) - in_process,
        );
    }
    Ok(())
}

/// Times one snapshot of the live platform and reading it back.
pub fn snapshot_probe(env: &Env, ledger: &mut Ledger, out_dir: &FsPath) -> Result<(), String> {
    let dir = out_dir.join(format!("snapshot_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("snapshot dir: {e}"))?;
    let t = Instant::now();
    env.platform
        .snapshot_to(&dir)
        .map_err(|e| format!("snapshot write: {e}"))?;
    ledger.set("durable.snapshot_write_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let snapshot = read_snapshot(&dir).map_err(|e| format!("snapshot read: {e}"))?;
    ledger.set("durable.snapshot_read_ms", t.elapsed().as_secs_f64() * 1e3);
    let _ = std::fs::remove_dir_all(&dir);
    let stored: usize = snapshot.map_or(0, |s| s.cities.iter().map(|c| c.truths.len()).sum());
    let live = env.truth_entries();
    if stored != live {
        return Err(format!(
            "the snapshot holds {stored} truths, the live stores {live}"
        ));
    }
    Ok(())
}
