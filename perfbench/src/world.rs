//! The benchmark's inputs: the Beijing POI set, a worker crowd drawn from
//! the workload seed, and the deterministic answers that crowd gives.

use crowd_core::{AccOptAssigner, Distances, LabelBits, TaskId, TaskSet, WorkerId, WorkerPool};
use crowd_sim::{generate_population, AnswerSimulator, BehaviorConfig, CampaignConfig};
use crowd_sim::{PopulationConfig, SimPlatform};

/// The POI set, the crowd, every answer it would give and the Deployment-1
/// stream are the same on every run: the paper's Deployment 1 is one fixed
/// answer set. The workload seed drives what varies between runs of a
/// live campaign: which workers visit when, and the reference campaign.
const WORLD_SEED: u64 = 2016;

/// Tasks per HIT in every workload.
pub const H: usize = 2;

/// Sizes of one workload run. `FULL` is what the benchmark measures;
/// `SMALL` keeps the self-test quick.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub workers: usize,
    /// Campaign budget of the HTTP campaign and of every restarted service.
    pub budget: usize,
    /// Deployment-1 answers per POI in `ingest_replay` and `restart`.
    pub answers_per_poi: usize,
    /// Open-loop arrival rate of worker visits, per second.
    pub visit_rate: f64,
    /// Visits each restarted service serves in `ingest_replay` and
    /// `restart`: at most 2 answers each, so fewer than the 100 answers a
    /// shard absorbs before its first delayed EM rebuild.
    pub reopen_visits: usize,
    /// Snapshot → restart cycles run after the traffic stage.
    pub tail_cycles: usize,
    /// `http_campaign` keeps restarting each hardened campaign for this
    /// long, at least `tail_cycles` times. Its cycles take about 25 ms,
    /// and the host's speed drifts within a second: cycles run back to
    /// back read one moment of it, 1.6× slower or faster than the next.
    pub tail_seconds: f64,
    /// Independent set-ups per run of `restart`; `setup_s` is their
    /// median. The other workloads set up in milliseconds and take three
    /// times as many.
    pub setups: usize,
}

pub const FULL: Scale = Scale {
    workers: 600,
    budget: 4000,
    answers_per_poi: 40,
    visit_rate: 200.0,
    reopen_visits: 48,
    tail_cycles: 8,
    tail_seconds: 2.0,
    setups: 3,
};

pub const SMALL: Scale = Scale {
    workers: 300,
    budget: 2500,
    answers_per_poi: 4,
    visit_rate: 300.0,
    reopen_visits: 20,
    tail_cycles: 2,
    tail_seconds: 0.0,
    setups: 1,
};

/// Reference campaigns behind the `http_campaign` accuracy gate.
const REFERENCE_CAMPAIGNS: u64 = 6;

/// One generated world.
pub struct World {
    pub platform: SimPlatform,
    pub distances: Distances,
    /// The workload seed.
    seed: u64,
}

impl World {
    pub fn new(seed: u64, workers: usize) -> Self {
        let dataset = crowd_sim::beijing(WORLD_SEED);
        let population = generate_population(
            &PopulationConfig::with_workers(workers, WORLD_SEED ^ 1),
            &dataset,
        );
        let platform = SimPlatform::new(
            dataset,
            population,
            BehaviorConfig::default(),
            WORLD_SEED ^ 2,
        );
        let distances = Distances::from_tasks(&platform.dataset.tasks);
        Self {
            platform,
            distances,
            seed,
        }
    }

    pub fn tasks(&self) -> &TaskSet {
        &self.platform.dataset.tasks
    }

    pub fn workers(&self) -> &WorkerPool {
        &self.platform.population.pool
    }

    /// The answer worker `w` gives to task `t`: a pure function of the
    /// pair, so arrival order never changes content.
    pub fn answer(&self, w: WorkerId, t: TaskId) -> LabelBits {
        let p = &self.platform;
        let d = self
            .distances
            .between(p.population.pool.worker(w), p.dataset.tasks.task(t));
        let seed =
            crowd_sim::rngx::pair_seed(u64::from(w.0), u64::from(t.0)).wrapping_add(WORLD_SEED);
        AnswerSimulator::new(p.behavior().clone(), seed).answer(
            &p.population.profiles[w.index()],
            &p.dataset.true_dt[t.index()],
            &p.dataset.truth[t.index()],
            d,
        )
    }

    /// The paper's accuracy (Equation 1) of a decision vector.
    pub fn accuracy(&self, decisions: &[LabelBits]) -> f64 {
        let tasks = self.tasks();
        let total: f64 = tasks
            .iter()
            .map(|task| {
                let truth = &self.platform.dataset.truth[task.id.index()];
                truth.agreement(&decisions[task.id.index()]) as f64 / task.n_labels() as f64
            })
            .sum();
        total / tasks.len() as f64
    }

    /// The Deployment-1 stream: `k` answers per POI in one fixed shuffled
    /// order, the same for every seed.
    pub fn deployment1(&self, k: usize) -> Vec<(WorkerId, TaskId, LabelBits)> {
        self.platform
            .deployment1(k)
            .answers()
            .iter()
            .map(|a| (a.worker, a.task, a.bits))
            .collect()
    }

    /// Final accuracy of the single-threaded ACCOPT campaign
    /// (`SimPlatform::run_campaign`) at `budget`: the mean of
    /// [`REFERENCE_CAMPAIGNS`] campaigns at seeds drawn from the workload
    /// seed, run on two threads. One campaign's accuracy moves by about
    /// 0.005 with its seed, a quarter of the gate it is the reference for.
    pub fn reference_accuracy(&self, budget: usize) -> f64 {
        let campaign = |k: u64| {
            let mut assigner = AccOptAssigner::new();
            self.platform
                .run_campaign(
                    &mut assigner,
                    &CampaignConfig {
                        budget,
                        h: H,
                        batch_size: 1,
                        careless_arrival_boost: 1.0,
                        seed: crowd_sim::rngx::pair_seed(self.seed, k),
                        ..CampaignConfig::default()
                    },
                )
                .final_accuracy
        };
        let runs: Vec<f64> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2u64)
                .map(|first| {
                    s.spawn(move || {
                        (first..REFERENCE_CAMPAIGNS)
                            .step_by(2)
                            .map(campaign)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("reference campaign panicked"))
                .collect()
        });
        crate::stats::mean(&runs)
    }

    /// The order in which workers visit: a Fisher–Yates permutation
    /// under the workload seed, cycled.
    pub fn visit_order(&self) -> Vec<WorkerId> {
        let mut order: Vec<WorkerId> = (0..self.workers().len())
            .map(WorkerId::from_index)
            .collect();
        let mut state = self.seed;
        for i in (1..order.len()).rev() {
            state = crowd_sim::rngx::pair_seed(state, i as u64);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order
    }
}
