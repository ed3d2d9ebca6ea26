//! The four workloads: which campaigns one op submits, generated from
//! the seed. The program only ever sees the generated specs.

use campaign::{CampaignSpec, FilterSpec, HostRegistry};
use profipy::case_study::{self, Campaign};
use profipy::Workflow;
use sandbox::ParallelExecutor;
use scenarios::Matrix;

/// Cores the executor is told it has: one execution worker (N−1).
pub const EXECUTOR_CORES: usize = 2;

/// Seed used when none is given; the committed golden digests are for
/// this seed.
pub const DEFAULT_SEED: u64 = 17;

/// The broker cells whose mutants spin until `fuel_per_round` runs
/// out. They are `hang_storm`; `small_cells` leaves them out because a
/// single one (~0.2 s) outweighs the other 24 cells together.
pub const HANG_MODELS: [&str; 3] = ["value-corruption", "off-by-one", "redelivery-storm"];
const HANG_TARGET: &str = "broker";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FreshRevision,
    RepeatCampaign,
    HangStorm,
    SmallCells,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FreshRevision,
        Workload::RepeatCampaign,
        Workload::HangStorm,
        Workload::SmallCells,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FreshRevision => "fresh_revision",
            Workload::RepeatCampaign => "repeat_campaign",
            Workload::HangStorm => "hang_storm",
            Workload::SmallCells => "small_cells",
        }
    }

    /// Ops one run measures per second it is given. Measured once on
    /// the reference box (2 cores) so that the quota takes about 60 %
    /// of the run's seconds, then frozen: the same work is measured on
    /// every commit, and the seconds are only the cap. A run the cap
    /// cuts short is reported as not correct, so the headroom is what
    /// a slow spell or a regression may use up before that happens.
    pub fn ops_per_second(self) -> f64 {
        match self {
            Workload::FreshRevision => 2.2,
            Workload::RepeatCampaign => 4.9,
            Workload::HangStorm => 3.1,
            Workload::SmallCells => 9.0,
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Every host environment the workloads' specs name.
pub fn registry() -> HostRegistry {
    HostRegistry::with_noop().with("etcd", case_study::etcd_host_factory())
}

/// `spec` as the executable workflow the engine would build for it.
pub fn build_workflow(spec: &CampaignSpec) -> Result<Workflow, String> {
    let host = registry()
        .get(&spec.host)
        .ok_or_else(|| format!("unknown host '{}'", spec.host))?;
    spec.build_workflow(host, ParallelExecutor::new(EXECUTOR_CORES))
        .map_err(|e| e.message)
}

/// The generated inputs of one run.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// The unstamped campaigns of each distinct op; op `n` submits
    /// `sets[n % sets.len()]`.
    pub sets: Vec<Vec<CampaignSpec>>,
}

impl Inputs {
    /// The seed names the submitting user and picks the revisions
    /// `fresh_revision` stamps. It decides neither which experiments
    /// run nor in which order campaigns are submitted: the case-study
    /// campaigns keep the paper's seeds, the matrix samples its cells'
    /// points with a fixed one, and a shuffled submit order alone moved
    /// `status_blocked_ratio` by half its value. Every `--seed` so
    /// measures the same work, and differences between runs are the
    /// system's, not the sample's.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut sets: Vec<Vec<CampaignSpec>> = match workload {
            Workload::FreshRevision | Workload::RepeatCampaign => vec![case_study_triple()],
            Workload::HangStorm => matrix(0)
                .cells()
                .into_iter()
                .filter(|c| is_hang_cell(&c.target, &c.model))
                .map(|c| vec![c.spec])
                .collect(),
            Workload::SmallCells => vec![matrix(2)
                .cells()
                .into_iter()
                .filter(|c| !is_hang_cell(&c.target, &c.model))
                .map(|c| c.spec)
                .collect()],
        };
        for spec in sets.iter_mut().flatten() {
            spec.user = format!("bench-{seed}");
        }
        Inputs {
            workload,
            seed,
            sets,
        }
    }

    /// Ops to measure in a loop capped at `seconds`.
    pub fn quota(&self, seconds: f64) -> usize {
        (self.workload.ops_per_second() * seconds) as usize
    }

    pub fn op_specs(&self, n: u64) -> Vec<CampaignSpec> {
        let set = self.set(n);
        match self.workload {
            Workload::FreshRevision => set.iter().map(|s| stamped(s, self.seed, n)).collect(),
            _ => set.to_vec(),
        }
    }

    /// The unstamped campaigns of op `n`.
    pub fn set(&self, n: u64) -> &[CampaignSpec] {
        &self.sets[(n % self.sets.len() as u64) as usize]
    }
}

fn is_hang_cell(target: &str, model: &str) -> bool {
    target == HANG_TARGET && HANG_MODELS.contains(&model)
}

fn matrix(sample_per_cell: usize) -> Matrix {
    let mut matrix = Matrix::new(scenarios::default_catalog(), scenarios::default_corpus());
    matrix.seed = DEFAULT_SEED;
    matrix.sample_per_cell = sample_per_cell;
    matrix
}

/// The paper's §V campaigns A, B and C as submittable specs.
fn case_study_triple() -> Vec<CampaignSpec> {
    [
        case_study::campaign_a(),
        case_study::campaign_b(),
        case_study::campaign_c(),
    ]
    .iter()
    .map(case_study_spec)
    .collect()
}

fn case_study_spec(c: &Campaign) -> CampaignSpec {
    let config = &c.workflow.config;
    let mut spec = CampaignSpec::new(
        "bench",
        &c.name,
        "etcd",
        c.workflow.sources().to_vec(),
        targets::WORKLOAD_BASIC.to_string(),
        c.workflow.model.clone(),
    );
    spec.setup = config.setup.clone();
    spec.seed = config.seed;
    spec.mode = config.mode;
    spec.round_timeout = config.round_timeout;
    spec.fuel_per_round = config.fuel_per_round;
    spec.filter = FilterSpec::from_filter(&c.filter);
    spec.prune_by_coverage = c.prune_by_coverage;
    spec
}

/// The revision op `n` of a run seeded `seed` stamps its sources with;
/// halved so that it is an integer literal the target language has.
pub fn revision(seed: u64, n: u64) -> u64 {
    jsonlite::combine_hash64(&[seed, n]) >> 1
}

/// `spec` with a trailing revision assignment on every source and on
/// the workload. It has to be a statement: a mutant's text is its
/// module parsed and unparsed, which drops a comment, and `sandbox`'s
/// process-wide prepare cache is keyed on that text.
pub fn stamped(spec: &CampaignSpec, seed: u64, n: u64) -> CampaignSpec {
    let stamp = format!("_BENCH_REV = {}\n", revision(seed, n));
    let mut out = spec.clone();
    for (_, text) in &mut out.sources {
        text.push_str(&stamp);
    }
    out.workload.push_str(&stamp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_is_deterministic_and_changes_the_cache_key() {
        let inputs = Inputs::generate(Workload::FreshRevision, 5);
        let base = &inputs.sets[0][0];
        let a = stamped(base, 5, 3);
        assert_eq!(a, stamped(base, 5, 3), "same (seed, n), same stamp");
        assert_ne!(a, stamped(base, 5, 4));
        assert_ne!(a, stamped(base, 6, 3));
        assert_ne!(a.cache_key(), base.cache_key());
        assert_ne!(a.cache_key(), stamped(base, 5, 4).cache_key());
        assert_ne!(a.coverage_key(), base.coverage_key());
        // A mutant's text is its module parsed and unparsed, and the
        // process-wide prepare cache is keyed on that text: the stamp
        // has to come through.
        let (name, text) = &a.sources[0];
        let module = pysrc::parse_module(text, name).expect("stamped source parses");
        assert!(pysrc::unparse::unparse_module(&module)
            .ends_with(&format!("_BENCH_REV = {}\n", revision(5, 3))));
        // Everything but the text is the campaign it was.
        assert_eq!(
            (&a.name, a.seed, &a.filter),
            (&base.name, base.seed, &base.filter)
        );
    }

    #[test]
    fn workload_shapes() {
        let triple = Inputs::generate(Workload::RepeatCampaign, DEFAULT_SEED);
        assert_eq!(triple.sets.len(), 1);
        assert_eq!(triple.sets[0].len(), 3);
        assert_eq!(
            triple.op_specs(0),
            triple.op_specs(9),
            "repeat resubmits the same triple"
        );

        let hang = Inputs::generate(Workload::HangStorm, DEFAULT_SEED);
        assert_eq!(hang.sets.len(), 3, "one op per hang cell, rotating");
        assert!(hang
            .sets
            .iter()
            .all(|s| s.len() == 1 && s[0].filter.sample == 0));
        assert_ne!(hang.op_specs(0), hang.op_specs(1));
        assert_eq!(hang.op_specs(0), hang.op_specs(3));

        let cells = Inputs::generate(Workload::SmallCells, DEFAULT_SEED);
        assert_eq!(cells.sets[0].len(), 24);
        assert!(cells.sets[0].iter().all(|s| s.filter.sample == 2));
    }

    #[test]
    fn seed_changes_the_inputs_but_not_the_work() {
        for workload in Workload::ALL {
            let (a, b) = (Inputs::generate(workload, 1), Inputs::generate(workload, 2));
            assert_ne!(a.op_specs(3), b.op_specs(3), "{}", workload.name());
            assert_eq!(a.op_specs(3), Inputs::generate(workload, 1).op_specs(3));
            // Same campaigns, same experiment seeds, same filters.
            let plan = |i: &Inputs| -> Vec<(String, u64, FilterSpec)> {
                i.sets
                    .iter()
                    .flatten()
                    .map(|s| (s.name.clone(), s.seed, s.filter.clone()))
                    .collect()
            };
            assert_eq!(plan(&a), plan(&b), "{}", workload.name());
        }
    }
}
