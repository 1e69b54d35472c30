//! The four pinned workloads: which cities they serve, how the platform
//! is configured, and the request stream a seed produces.
//!
//! The *population* of every workload — cities, key pools, the crowd —
//! is pinned by constants here; `--seed` draws the *traffic* over it.
//! (With a seed-drawn pool, which key lands on Zipf rank 0 alone moved
//! `hot_reuse` throughput and accuracy by more than any bound.)

use crate::stats::{Rng, Zipf};
use cp_gateway::{Gateway, GatewayConfig};
use cp_roadnet::NodeId;
use cp_service::{
    BatchConfig, CityId, CrowdServing, DurabilityConfig, FsyncPolicy, Platform, PlatformConfig,
    Request, ServiceConfig, World,
};
use cp_traj::TimeOfDay;
use crowdplanner::sim::{Scale, SimWorld};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Seed of every simulated city.
const WORLD_SEED: u64 = 42;
/// Seed of the pinned key pools.
const POOL_SEED: u64 = 0x0C0F_FEE5;
/// `hot_reuse` key pool size.
const HOT_POOL: usize = 4096;
/// `wire_mix` per-city hot pool size.
const WIRE_POOL: usize = 256;
/// `wire_mix`: share of requests addressed to the metro city.
const WIRE_METRO_SHARE: f64 = 0.85;
/// `wire_mix`: share of a city's requests drawn from its hot pool.
const WIRE_HOT_SHARE: f64 = 0.80;
/// `wire_mix` offered rate over all connections.
pub const WIRE_RATE_HZ: f64 = 1000.0;
/// `wire_mix` client threads, one keep-alive connection each.
pub const WIRE_CLIENTS: usize = 2;
/// Crowd of `crowd_city`: workers, warm-up rounds, seed, per-worker cap.
const CROWD: (usize, usize, u64, u32) = (200, 30, 13, 5);
/// `crowd_city` journeys generated per seed (cycled if ever exhausted).
const JOURNEYS: usize = 16_384;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotReuse,
    ColdMine,
    CrowdCity,
    WireMix,
}

impl Workload {
    /// In the order `BENCHMARK.json` lists them: `wire_mix` last and
    /// after `hot_reuse`. A `wire_mix` process started right after
    /// `cold_mine` or `crowd_city` reads a median latency of 310–460 µs
    /// instead of 180–230 µs for its whole length.
    pub const ALL: [Workload; 4] = [
        Workload::ColdMine,
        Workload::CrowdCity,
        Workload::HotReuse,
        Workload::WireMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotReuse => "hot_reuse",
            Workload::ColdMine => "cold_mine",
            Workload::CrowdCity => "crowd_city",
            Workload::WireMix => "wire_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests a closed-loop generator keeps outstanding.
    pub fn window(self) -> usize {
        match self {
            // A crowd request costs ~14 ms of CPU; a deeper window only
            // measures queueing.
            Workload::CrowdCity => 4,
            _ => 32,
        }
    }

    /// Whether responses are a pure function of the request (machine
    /// cities under `strict_deterministic`), so a reference platform
    /// must reproduce them bit for bit.
    pub fn is_deterministic(self) -> bool {
        self != Workload::CrowdCity
    }

    /// Requests the layer replay walks through the pipeline.
    pub fn replay_requests(self) -> usize {
        match self {
            Workload::CrowdCity => 300,
            _ => 1000,
        }
    }
}

/// One registered city and the simulation it was cut from.
pub struct City {
    pub id: CityId,
    pub sim: SimWorld,
    pub world: Arc<World>,
    pub cfg: ServiceConfig,
    /// The live crowd of a crowd-backed city.
    pub crowd: Option<CrowdServing>,
}

/// A workload, set up and ready for warm-up.
pub struct Env {
    pub workload: Workload,
    pub platform: Arc<Platform>,
    pub cities: Vec<City>,
    pub gateway: Option<Gateway>,
    /// Where the live platform logs (`cold_mine` only).
    pub wal_dir: Option<PathBuf>,
    pub traffic: Traffic,
}

/// The one platform profile every workload runs under, so a coalescer
/// change that helps one and hurts another shows.
pub fn platform_config(durability: Option<DurabilityConfig>) -> PlatformConfig {
    PlatformConfig {
        workers: 2,
        queue_capacity: 512,
        city_weight: 1,
        maintenance: None,
        batch: Some(BatchConfig::adaptive(16, Duration::from_millis(2))),
        durability,
        chaos: None,
    }
}

/// A platform with one worker and no coalescing: the reference the
/// correctness gate compares against, and the host of the layer
/// replay's private truth store.
pub fn private_platform(cities: &[City]) -> Platform {
    let platform = Platform::start(PlatformConfig {
        workers: 1,
        batch: None,
        ..platform_config(None)
    });
    for city in cities {
        // Crowd cities register as machine cities here: the private
        // platform only lends its store to the replay.
        let id = platform.register_city(Arc::clone(&city.world), city.cfg.clone());
        assert_eq!(id, city.id, "private platform mirrors the live city ids");
    }
    platform
}

/// A mid-bucket departure drawn uniformly from `[from_h, to_h)` hours.
/// Mid-bucket times are their own canonical form, so the replay can
/// probe the store with the request's departure as is.
fn draw_departure(rng: &mut Rng, bucket_s: f64, from_h: f64, to_h: f64) -> TimeOfDay {
    let per_hour = 3600.0 / bucket_s;
    let first = (from_h * per_hour) as u64;
    let count = ((to_h - from_h) * per_hour) as u64;
    let bucket = first + rng.below(count);
    TimeOfDay::new((bucket as f64 + 0.5) * bucket_s)
}

fn pool_of(sim: &SimWorld, city: CityId, bucket_s: f64, n: usize, salt: u64) -> Vec<Request> {
    let mut rng = Rng::new(POOL_SEED ^ salt);
    sim.request_stream(n, 2, POOL_SEED ^ salt)
        .into_iter()
        .map(|(from, to)| {
            Request::to_city(
                city,
                from,
                to,
                draw_departure(&mut rng, bucket_s, 6.0, 18.0),
            )
        })
        .collect()
}

/// One city's share of the `wire_mix` traffic.
#[derive(Clone)]
struct CityMix {
    city: CityId,
    nodes: u64,
    bucket_s: f64,
    hot: Vec<Request>,
}

impl CityMix {
    fn draw(&self, rng: &mut Rng) -> Request {
        if rng.next_f64() < WIRE_HOT_SHARE {
            return self.hot[rng.below(self.hot.len() as u64) as usize];
        }
        uniform_request(rng, self.city, self.nodes, self.bucket_s, 6.0, 18.0)
    }
}

fn uniform_request(
    rng: &mut Rng,
    city: CityId,
    nodes: u64,
    bucket_s: f64,
    from_h: f64,
    to_h: f64,
) -> Request {
    let from = rng.below(nodes);
    // Distinct endpoints: draw the destination from the other n − 1.
    let to = (from + 1 + rng.below(nodes - 1)) % nodes;
    Request::to_city(
        city,
        NodeId(from as u32),
        NodeId(to as u32),
        draw_departure(rng, bucket_s, from_h, to_h),
    )
}

#[derive(Clone)]
enum Shape {
    /// Zipf(1) draws over a pinned, pre-served pool.
    Zipf { pool: Vec<Request>, zipf: Zipf },
    /// Uniform random OD pairs and departures over the whole day.
    Uniform {
        city: CityId,
        nodes: u64,
        bucket_s: f64,
    },
    /// Real journeys (≥ 6 grid cells) from the simulator's own stream,
    /// daytime departures.
    Journeys {
        city: CityId,
        bucket_s: f64,
        ods: Vec<(NodeId, NodeId)>,
    },
    /// Two cities, each 80 % hot pool / 20 % uniform.
    Mix { metro: CityMix, town: CityMix },
}

/// The request stream of one workload under one seed.
#[derive(Clone)]
pub struct Traffic {
    rng: Rng,
    drawn: usize,
    shape: Shape,
}

impl Traffic {
    pub fn next_request(&mut self) -> Request {
        let rng = &mut self.rng;
        self.drawn += 1;
        match &self.shape {
            Shape::Zipf { pool, zipf } => pool[zipf.sample(rng)],
            Shape::Uniform {
                city,
                nodes,
                bucket_s,
            } => uniform_request(rng, *city, *nodes, *bucket_s, 0.0, 24.0),
            Shape::Journeys {
                city,
                bucket_s,
                ods,
            } => {
                let (from, to) = ods[(self.drawn - 1) % ods.len()];
                Request::to_city(*city, from, to, draw_departure(rng, *bucket_s, 6.0, 20.0))
            }
            Shape::Mix { metro, town } => {
                if rng.next_f64() < WIRE_METRO_SHARE {
                    metro.draw(rng)
                } else {
                    town.draw(rng)
                }
            }
        }
    }

    /// An independent stream over the same population (for probes that
    /// must not repeat the measured requests, and for the second wire
    /// client).
    pub fn fork(&self, salt: u64) -> Traffic {
        let mut forked = self.clone();
        forked.rng = Rng::new(forked.rng.next_u64() ^ salt);
        // Journeys: start half a stream away from the measured ones.
        forked.drawn += JOURNEYS / 2;
        forked
    }

    /// Requests the workload serves once during set-up.
    fn prewarm(&self) -> Vec<Request> {
        match &self.shape {
            Shape::Zipf { pool, .. } => pool.clone(),
            Shape::Mix { metro, town } => metro.hot.iter().chain(&town.hot).copied().collect(),
            Shape::Uniform { .. } | Shape::Journeys { .. } => Vec::new(),
        }
    }

    /// `n` requests with pairwise distinct keys, none of them drawn by
    /// this stream so far.
    pub fn distinct_requests(&self, n: usize) -> Vec<Request> {
        match &self.shape {
            Shape::Zipf { pool, .. } => pool[..n].to_vec(),
            Shape::Mix { metro, .. } => metro.hot[..n].to_vec(),
            Shape::Uniform { .. } | Shape::Journeys { .. } => {
                let mut fresh = self.fork(0xD157);
                (0..n).map(|_| fresh.next_request()).collect()
            }
        }
    }

    /// The metro hot pool of `wire_mix` (empty elsewhere).
    pub fn metro_hot_pool(&self) -> &[Request] {
        match &self.shape {
            Shape::Mix { metro, .. } => &metro.hot,
            _ => &[],
        }
    }
}

/// A freshly warmed crowd for `sim`: the live one of `crowd_city`, or
/// an identical private one for the layer replay to ask.
pub fn crowd_of(sim: &SimWorld) -> CrowdServing {
    let (workers, rounds, seed, cap) = CROWD;
    sim.crowd_serving(workers, rounds, seed, cap)
}

fn build_sim(scale: Scale) -> SimWorld {
    SimWorld::build(scale, WORLD_SEED).expect("the pinned city parameters are valid")
}

fn machine_city(platform: &Platform, sim: SimWorld) -> City {
    let world = sim.service_world();
    let cfg = ServiceConfig::strict_deterministic();
    let id = platform.register_city(Arc::clone(&world), cfg.clone());
    City {
        id,
        sim,
        world,
        cfg,
        crowd: None,
    }
}

/// Builds the workload from nothing: worlds, platform, city
/// registration, pool pre-warm, crowd warm-up, gateway bind. `out_dir`
/// receives the write-ahead log of `cold_mine`.
pub fn set_up(workload: Workload, seed: u64, out_dir: &Path) -> Env {
    let wal_dir = (workload == Workload::ColdMine).then(|| {
        let dir = out_dir.join(format!("wal_live_{}", std::process::id()));
        // A previous run's log would be replayed into this one's check.
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let durability = wal_dir
        .as_ref()
        .map(|dir| DurabilityConfig::new(dir.clone()).with_fsync(FsyncPolicy::Never));
    let platform = Arc::new(Platform::start(platform_config(durability)));
    let (cities, shape) = match workload {
        Workload::HotReuse => {
            let city = machine_city(&platform, build_sim(Scale::Medium));
            let shape = Shape::Zipf {
                pool: pool_of(&city.sim, city.id, city.cfg.time_bucket_s, HOT_POOL, 0),
                zipf: Zipf::new(HOT_POOL),
            };
            (vec![city], shape)
        }
        Workload::ColdMine => {
            let city = machine_city(&platform, build_sim(Scale::Large));
            let shape = Shape::Uniform {
                city: city.id,
                nodes: city.world.graph().node_count() as u64,
                bucket_s: city.cfg.time_bucket_s,
            };
            (vec![city], shape)
        }
        Workload::CrowdCity => {
            let sim = build_sim(Scale::Medium);
            let world = sim.service_world();
            let cfg = ServiceConfig::default();
            let crowd = crowd_of(&sim);
            let id = platform
                .register_city_crowd(Arc::clone(&world), cfg.clone(), crowd.clone())
                .expect("the default thresholds are valid");
            let shape = Shape::Journeys {
                city: id,
                bucket_s: cfg.time_bucket_s,
                ods: sim.request_stream(JOURNEYS, 6, seed),
            };
            let city = City {
                id,
                sim,
                world,
                cfg,
                crowd: Some(crowd),
            };
            (vec![city], shape)
        }
        Workload::WireMix => {
            let metro = machine_city(&platform, build_sim(Scale::Medium));
            let town = machine_city(&platform, build_sim(Scale::Small));
            platform.set_city_weight(metro.id, 4);
            platform.set_city_weight(town.id, 1);
            let mix = |city: &City, salt| CityMix {
                city: city.id,
                nodes: city.world.graph().node_count() as u64,
                bucket_s: city.cfg.time_bucket_s,
                hot: pool_of(&city.sim, city.id, city.cfg.time_bucket_s, WIRE_POOL, salt),
            };
            let shape = Shape::Mix {
                metro: mix(&metro, 1),
                town: mix(&town, 2),
            };
            (vec![metro, town], shape)
        }
    };
    let traffic = Traffic {
        rng: Rng::new(seed),
        drawn: 0,
        shape,
    };
    for chunk in traffic.prewarm().chunks(workload.window()) {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|&req| platform.submit_blocking(req).expect("set-up submission"))
            .collect();
        for ticket in tickets {
            ticket.wait().expect("set-up request");
        }
    }
    let gateway = (workload == Workload::WireMix).then(|| {
        Gateway::start(
            Arc::clone(&platform),
            GatewayConfig {
                handler_threads: WIRE_CLIENTS,
                keep_alive_requests: usize::MAX,
                ..GatewayConfig::default()
            },
        )
        .expect("the gateway binds a loopback port")
    });
    Env {
        workload,
        platform,
        cities,
        gateway,
        wal_dir,
        traffic,
    }
}

impl Env {
    pub fn city(&self, id: CityId) -> &City {
        &self.cities[id.index()]
    }

    /// Truths held by the live stores of every city.
    pub fn truth_entries(&self) -> usize {
        self.cities
            .iter()
            .map(|c| {
                let service = self.platform.city_service(c.id).expect("registered");
                service.truths().len()
            })
            .sum()
    }

    /// Stops the gateway, then the platform, and removes the live log.
    pub fn tear_down(self) {
        if let Some(gateway) = self.gateway {
            gateway.shutdown();
        }
        match Arc::try_unwrap(self.platform) {
            Ok(platform) => platform.shutdown(),
            Err(_) => panic!("the platform is still shared at tear-down"),
        }
        if let Some(dir) = self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
