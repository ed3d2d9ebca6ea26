//! Serializable campaign specifications — everything needed to rebuild
//! and re-run a campaign after a crash or on another node, plus the
//! stable content hashes that key the cross-campaign cache.
//!
//! A [`CampaignSpec`] is the persistent analogue of
//! `profipy::case_study::Campaign`: target sources, workload, fault
//! model, plan filter, and execution knobs. The host environment is
//! referenced *by name* (resolved through the engine's host registry),
//! since host factories are code, not data.

use faultdsl::FaultModel;
use injector::MutationMode;
use jsonlite::Value;
use profipy::workflow::{HostFactory, Workflow, WorkflowConfig, WorkflowError};
use profipy::PlanFilter;
use sandbox::ParallelExecutor;

/// Serializable mirror of [`PlanFilter`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FilterSpec {
    /// Module globs (empty = all).
    pub modules: Vec<String>,
    /// Scope globs (empty = all).
    pub scopes: Vec<String>,
    /// Spec names (empty = all).
    pub specs: Vec<String>,
    /// Random sample cap (0 = no limit).
    pub sample: usize,
}

impl FilterSpec {
    /// Converts to the executable filter.
    pub fn to_filter(&self) -> PlanFilter {
        PlanFilter {
            modules: self.modules.clone(),
            scopes: self.scopes.clone(),
            specs: self.specs.clone(),
            sample: self.sample,
        }
    }

    /// Captures an executable filter.
    pub fn from_filter(filter: &PlanFilter) -> FilterSpec {
        FilterSpec {
            modules: filter.modules.clone(),
            scopes: filter.scopes.clone(),
            specs: filter.specs.clone(),
            sample: filter.sample,
        }
    }

    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("modules", Value::arr(&self.modules)),
            ("scopes", Value::arr(&self.scopes)),
            ("specs", Value::arr(&self.specs)),
            ("sample", self.sample.into()),
        ])
    }

    fn from_value(v: &Value) -> Result<FilterSpec, String> {
        Ok(FilterSpec {
            modules: v.req_strs("modules")?,
            scopes: v.req_strs("scopes")?,
            specs: v.req_strs("specs")?,
            sample: v.req_u64("sample")? as usize,
        })
    }
}

/// Reads the array of `[name, text]` string pairs at `key` — the shape
/// of a spec's `sources` and of a leased job's container sources.
///
/// # Errors
///
/// Describes the malformed field.
pub fn text_pairs_from_value<T>(
    v: &Value,
    key: &str,
    pair: impl Fn(String, String) -> T,
) -> Result<Vec<T>, String> {
    v.req_list(key, |entry| match entry.as_arr() {
        Some([Value::Str(name), Value::Str(text)]) => Ok(pair(name.clone(), text.clone())),
        _ => Err("expected [name, text] string pairs".to_string()),
    })
}

/// A complete, serializable campaign description.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Submitting user.
    pub user: String,
    /// Campaign name (unique per user is recommended, not enforced).
    pub name: String,
    /// Scheduling priority: higher runs first within a user's queue.
    pub priority: u8,
    /// Host environment name, resolved via the engine's registry.
    pub host: String,
    /// Target sources: `(import name, source text)`.
    pub sources: Vec<(String, String)>,
    /// Workload module text.
    pub workload: String,
    /// Setup commands run at deploy.
    pub setup: Vec<Vec<String>>,
    /// Campaign seed (plan sampling + per-experiment seeds).
    pub seed: u64,
    /// Mutation mode.
    pub mode: MutationMode,
    /// Virtual-time budget per round.
    pub round_timeout: f64,
    /// Interpreter fuel per round.
    pub fuel_per_round: u64,
    /// The fault model.
    pub model: FaultModel,
    /// Plan filter.
    pub filter: FilterSpec,
    /// Coverage pruning (paper §IV-D).
    pub prune_by_coverage: bool,
}

impl CampaignSpec {
    /// A spec with the workflow defaults for the execution knobs.
    pub fn new(
        user: &str,
        name: &str,
        host: &str,
        sources: Vec<(String, String)>,
        workload: String,
        model: FaultModel,
    ) -> CampaignSpec {
        let defaults = WorkflowConfig::default();
        CampaignSpec {
            user: user.to_string(),
            name: name.to_string(),
            priority: 0,
            host: host.to_string(),
            sources,
            workload,
            setup: Vec::new(),
            seed: defaults.seed,
            mode: defaults.mode,
            round_timeout: defaults.round_timeout,
            fuel_per_round: defaults.fuel_per_round,
            model,
            filter: FilterSpec::default(),
            prune_by_coverage: false,
        }
    }

    /// Stable hash of everything the **scan** depends on: target
    /// sources and workload. Mutation mode matters for mutants, not
    /// points, but participates so a cache entry never mixes modes.
    pub fn source_hash(&self) -> u64 {
        let mut parts: Vec<u64> = Vec::new();
        for (name, text) in &self.sources {
            parts.push(jsonlite::stable_hash64(name.as_bytes()));
            parts.push(jsonlite::stable_hash64(text.as_bytes()));
        }
        parts.push(jsonlite::stable_hash64(self.workload.as_bytes()));
        parts.push(match self.mode {
            MutationMode::Direct => 1,
            MutationMode::Triggered => 2,
        });
        jsonlite::combine_hash64(&parts)
    }

    /// Stable hash of the fault model.
    pub fn model_hash(&self) -> u64 {
        self.model.content_hash()
    }

    /// The cross-campaign cache key: `(source hash, model hash)`.
    pub fn cache_key(&self) -> u64 {
        jsonlite::combine_hash64(&[self.source_hash(), self.model_hash()])
    }

    /// The coverage-cache key. Unlike scans and mutants, a fault-free
    /// coverage run also depends on the host environment, seed, setup
    /// commands, and round budgets — two campaigns may share a scan but
    /// must not share coverage unless all of those agree too.
    pub fn coverage_key(&self) -> u64 {
        let mut parts = vec![
            self.cache_key(),
            jsonlite::stable_hash64(self.host.as_bytes()),
            self.seed,
            self.round_timeout.to_bits(),
            self.fuel_per_round,
        ];
        for cmd in &self.setup {
            for word in cmd {
                parts.push(jsonlite::stable_hash64(word.as_bytes()));
            }
        }
        jsonlite::combine_hash64(&parts)
    }

    /// Stable hash of the full spec — used to invalidate checkpoints
    /// when a resubmitted campaign changed anything that affects
    /// results.
    pub fn content_hash(&self) -> u64 {
        jsonlite::stable_hash64(
            jsonlite::canonicalize(&self.to_value()).compact().as_bytes(),
        )
    }

    /// Builds the executable workflow, parsing the sources.
    ///
    /// # Errors
    ///
    /// Propagates parse/DSL errors.
    pub fn build_workflow(
        &self,
        host_factory: HostFactory,
        executor: ParallelExecutor,
    ) -> Result<Workflow, WorkflowError> {
        Workflow::new(
            self.sources.clone(),
            self.workload.clone(),
            self.model.clone(),
            host_factory,
            self.workflow_config(executor),
        )
    }

    /// Builds the executable workflow from cached parsed modules,
    /// skipping the parse step.
    ///
    /// # Errors
    ///
    /// Propagates DSL/shape errors.
    pub fn build_workflow_with_modules(
        &self,
        modules: Vec<pysrc::Module>,
        host_factory: HostFactory,
        executor: ParallelExecutor,
    ) -> Result<Workflow, WorkflowError> {
        Workflow::from_modules(
            self.sources.clone(),
            modules,
            self.workload.clone(),
            self.model.clone(),
            host_factory,
            self.workflow_config(executor),
        )
    }

    fn workflow_config(&self, executor: ParallelExecutor) -> WorkflowConfig {
        WorkflowConfig {
            seed: self.seed,
            mode: self.mode,
            round_timeout: self.round_timeout,
            fuel_per_round: self.fuel_per_round,
            setup: self.setup.clone(),
            executor,
        }
    }

    /// The spec as a JSON value.
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("user", Value::str(&self.user)),
            ("name", Value::str(&self.name)),
            ("priority", Value::UInt(self.priority as u64)),
            ("host", Value::str(&self.host)),
            (
                "sources",
                Value::arr(self.sources.iter().map(|(n, t)| Value::arr([n, t]))),
            ),
            ("workload", Value::str(&self.workload)),
            ("setup", Value::arr(self.setup.iter().map(Value::arr))),
            ("seed", Value::UInt(self.seed)),
            (
                "mode",
                Value::str(match self.mode {
                    MutationMode::Direct => "direct",
                    MutationMode::Triggered => "triggered",
                }),
            ),
            ("round_timeout", Value::Float(self.round_timeout)),
            ("fuel_per_round", Value::UInt(self.fuel_per_round)),
            ("model", self.model.to_value()),
            ("filter", self.filter.to_value()),
            ("prune_by_coverage", Value::Bool(self.prune_by_coverage)),
        ])
    }

    /// Reads a spec back from a JSON value.
    ///
    /// # Errors
    ///
    /// Describes the malformed field.
    pub fn from_value(v: &Value) -> Result<CampaignSpec, String> {
        Ok(CampaignSpec {
            user: v.req_str("user")?.into(),
            name: v.req_str("name")?.into(),
            priority: v.req_u64("priority")? as u8,
            host: v.req_str("host")?.into(),
            sources: text_pairs_from_value(v, "sources", |name, text| (name, text))?,
            workload: v.req_str("workload")?.into(),
            setup: v.req_list("setup", |cmd| {
                cmd.as_strs()
                    .ok_or_else(|| "expected an array of strings".to_string())
            })?,
            seed: v.req_u64("seed")?,
            mode: match v.req_str("mode")? {
                "direct" => MutationMode::Direct,
                "triggered" => MutationMode::Triggered,
                other => return Err(format!("unknown mutation mode '{other}'")),
            },
            round_timeout: v.req_f64("round_timeout")?,
            fuel_per_round: v.req_u64("fuel_per_round")?,
            model: FaultModel::from_value(v.req("model")?)?,
            filter: FilterSpec::from_value(v.req("filter")?)?,
            prune_by_coverage: v.req_bool("prune_by_coverage")?,
        })
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Parse or shape error message.
    pub fn from_json(json: &str) -> Result<CampaignSpec, String> {
        CampaignSpec::from_value(&jsonlite::parse(json)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new(
            "alice",
            "smoke",
            "etcd",
            vec![("etcd".into(), "def f():\n    pass\n".into())],
            "def run(round):\n    pass\n".into(),
            faultdsl::campaign_a_model(),
        );
        spec.priority = 3;
        spec.setup = vec![vec!["etcd-start".into()]];
        spec.seed = 42;
        spec.filter.modules.push("etcd".into());
        spec.filter.sample = 5;
        spec.prune_by_coverage = true;
        spec
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = sample_spec();
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.content_hash(), back.content_hash());
        assert_eq!(spec.cache_key(), back.cache_key());
    }

    #[test]
    fn cache_key_ignores_plan_but_not_target_or_model() {
        let spec = sample_spec();
        let mut other_seed = spec.clone();
        other_seed.seed = 99;
        other_seed.filter.sample = 2;
        // Same target + model → same cache key (scan reusable).
        assert_eq!(spec.cache_key(), other_seed.cache_key());
        assert_ne!(spec.content_hash(), other_seed.content_hash());

        let mut other_target = spec.clone();
        other_target.sources[0].1 = "def g():\n    pass\n".into();
        assert_ne!(spec.cache_key(), other_target.cache_key());

        let mut other_model = spec.clone();
        other_model.model = faultdsl::campaign_b_model();
        assert_ne!(spec.cache_key(), other_model.cache_key());

        let mut other_mode = spec.clone();
        other_mode.mode = MutationMode::Direct;
        assert_ne!(spec.cache_key(), other_mode.cache_key());
    }

    #[test]
    fn coverage_key_tracks_runtime_environment_too() {
        let spec = sample_spec();
        // Same scan cache key, but coverage must not be shared when the
        // host, seed, setup, or round budgets differ.
        let mut other_host = spec.clone();
        other_host.host = "noop".into();
        assert_eq!(spec.cache_key(), other_host.cache_key());
        assert_ne!(spec.coverage_key(), other_host.coverage_key());

        let mut other_seed = spec.clone();
        other_seed.seed = 1234;
        assert_eq!(spec.cache_key(), other_seed.cache_key());
        assert_ne!(spec.coverage_key(), other_seed.coverage_key());

        let mut other_setup = spec.clone();
        other_setup.setup.clear();
        assert_ne!(spec.coverage_key(), other_setup.coverage_key());

        let mut other_fuel = spec.clone();
        other_fuel.fuel_per_round /= 2;
        assert_ne!(spec.coverage_key(), other_fuel.coverage_key());

        // Identical specs agree, including across JSON round-trips.
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec.coverage_key(), back.coverage_key());
    }

    #[test]
    fn filter_spec_matches_plan_filter() {
        let filter = PlanFilter::all().module("etcd").scope("Client.*").sample(7);
        let spec = FilterSpec::from_filter(&filter);
        let back = spec.to_filter();
        assert_eq!(back.modules, filter.modules);
        assert_eq!(back.scopes, filter.scopes);
        assert_eq!(back.sample, filter.sample);
    }
}
