//! The consolidated pipeline entry point.
//!
//! Four PRs of growth left the pipeline with fragmented entry points:
//! [`Pipeline::run`], the since-removed `Pipeline::run_with`, and the
//! low-level [`crate::executor::run_resilient`]. [`PipelineBuilder`]
//! puts one
//! path in front of all of them — declare the problem, requirements,
//! resilience, and observability, then [`PipelineBuilder::build`] a
//! [`BuiltPipeline`] and run it against any sources:
//!
//! ```no_run
//! # use rdi_core::PipelineBuilder;
//! # use rdi_fault::ResilienceConfig;
//! # use rdi_tailor::{DtProblem, TableSource, RandomPolicy};
//! # use rdi_table::GroupSpec;
//! # use rand::{rngs::StdRng, SeedableRng};
//! # let problem = DtProblem::exact_counts(GroupSpec::new(vec!["g"]), vec![]);
//! # let mut sources: Vec<TableSource> = vec![];
//! # let mut policy = RandomPolicy::new(1);
//! # let mut rng = StdRng::seed_from_u64(0);
//! let built = PipelineBuilder::new(problem)
//!     .max_draws(10_000)
//!     .resilience(ResilienceConfig::default())
//!     .build();
//! let result = built.run(&mut sources, &mut policy, &mut rng);
//! ```
//!
//! The one legacy entry point, [`Pipeline::run`], survives as a thin
//! delegate onto the same internal implementation (the deprecated
//! `Pipeline::run_with` has been removed), so its output is bitwise
//! identical to the builder path — proven by a regression test below.

use rand::Rng;
use rdi_cleaning::ImputeStrategy;
use rdi_fault::ResilienceConfig;
use rdi_policy::{PolicyId, PolicyParams, PolicySet};
use rdi_profile::LabelConfig;
use rdi_tailor::{DtProblem, Policy, Source};

use crate::pipeline::{Pipeline, PipelineError, PipelineResult};
use crate::requirement::{Requirement, RequirementSpec};

/// Fluent configuration for an end-to-end responsible pipeline:
/// problem → imputations → requirements → resilience → observability →
/// [`PipelineBuilder::build`].
#[derive(Debug)]
pub struct PipelineBuilder {
    problem: DtProblem,
    imputations: Vec<(String, ImputeStrategy)>,
    label_config: LabelConfig,
    spec: RequirementSpec,
    max_draws: usize,
    resilience: ResilienceConfig,
    policies: PolicySet,
    span_root: String,
}

impl PipelineBuilder {
    /// Start from the distribution-tailoring problem (what to collect).
    ///
    /// Defaults: no imputations, default label config, empty
    /// requirement spec, `max_draws = 100_000`, default
    /// [`ResilienceConfig`], default selection policies, span root
    /// `"pipeline"`.
    pub fn new(problem: DtProblem) -> Self {
        PipelineBuilder {
            problem,
            imputations: Vec::new(),
            label_config: LabelConfig::default(),
            spec: RequirementSpec::default(),
            max_draws: 100_000,
            resilience: ResilienceConfig::default(),
            policies: PolicySet::new(),
            span_root: "pipeline".to_string(),
        }
    }

    /// Impute a numeric column after collection.
    pub fn impute(mut self, column: impl Into<String>, strategy: ImputeStrategy) -> Self {
        self.imputations.push((column.into(), strategy));
        self
    }

    /// Replace the label-generation config.
    pub fn label_config(mut self, config: LabelConfig) -> Self {
        self.label_config = config;
        self
    }

    /// Replace the whole requirement spec.
    pub fn requirements(mut self, spec: RequirementSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Add one requirement to audit at the end.
    pub fn require(mut self, requirement: Requirement) -> Self {
        self.spec = self.spec.with(requirement);
        self
    }

    /// Add a scope-of-use note (carried onto the shipped label).
    pub fn scope_note(mut self, note: impl Into<String>) -> Self {
        self.spec = self.spec.with_note(note);
        self
    }

    /// Cap the tailoring draw budget.
    pub fn max_draws(mut self, n: usize) -> Self {
        self.max_draws = n;
        self
    }

    /// Retry/backoff/breaker parameters for the resilient executor.
    pub fn resilience(mut self, config: ResilienceConfig) -> Self {
        self.resilience = config;
        self
    }

    /// Override one selection-policy site's params (e.g.
    /// `with_policy(PolicyId::REDIRECT, PolicyParams::new().with("dir",
    /// "min"))`). Sites not overridden run on their documented defaults;
    /// every decision is audited either way.
    pub fn with_policy(mut self, site: PolicyId, params: PolicyParams) -> Self {
        self.policies.set(site, params);
        self
    }

    /// Observability: the root span name under which the run's stage
    /// timings land in the `rdi-obs` registry (default `"pipeline"`).
    pub fn span_root(mut self, name: impl Into<String>) -> Self {
        self.span_root = name.into();
        self
    }

    /// Finalize into a runnable pipeline (validates the resilience
    /// config).
    pub fn build(self) -> BuiltPipeline {
        self.resilience.validate();
        BuiltPipeline {
            pipeline: Pipeline {
                problem: self.problem,
                imputations: self.imputations,
                label_config: self.label_config,
                spec: self.spec,
                max_draws: self.max_draws,
            },
            resilience: self.resilience,
            policies: self.policies,
            span_root: self.span_root,
        }
    }
}

/// A fully configured pipeline, ready to run against sources. This is
/// the single execution path: the legacy [`Pipeline::run`] delegate
/// routes through the same internals.
#[derive(Debug)]
pub struct BuiltPipeline {
    pipeline: Pipeline,
    resilience: ResilienceConfig,
    policies: PolicySet,
    span_root: String,
}

impl BuiltPipeline {
    /// Run against `sources`, selecting with `policy`, drawing
    /// randomness from `rng`. Source failures degrade the result
    /// (see [`PipelineResult::degraded`]); `Err` is reserved for
    /// structural problems.
    pub fn run<S: Source, R: Rng>(
        &self,
        sources: &mut [S],
        policy: &mut dyn Policy,
        rng: &mut R,
    ) -> Result<PipelineResult, PipelineError> {
        self.pipeline.run_impl(
            sources,
            policy,
            rng,
            &self.resilience,
            &self.policies,
            &self.span_root,
        )
    }

    /// The underlying pipeline configuration.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The resilience parameters this pipeline runs with.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// The selection-policy overrides this pipeline runs with.
    pub fn policies(&self) -> &PolicySet {
        &self.policies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_datagen::{skewed_sources, PopulationSpec, SourceConfig};
    use rdi_table::{GroupKey, GroupSpec, TableError, Value};
    use rdi_tailor::{RatioColl, TableSource};

    fn scenario(seed: u64) -> (DtProblem, Vec<TableSource>, RatioColl, StdRng) {
        let pop = PopulationSpec::two_group(0.2);
        let mut rng = StdRng::seed_from_u64(seed);
        let generated = skewed_sources(
            &pop,
            &SourceConfig {
                num_sources: 3,
                rows_per_source: 2_000,
                concentration: 1.0,
                costs: vec![1.0],
            },
            &mut rng,
        );
        let problem = DtProblem::exact_counts(
            GroupSpec::new(vec!["group"]),
            vec![
                (GroupKey(vec![Value::str("maj")]), 60),
                (GroupKey(vec![Value::str("min")]), 60),
            ],
        );
        let sources: Vec<TableSource> = generated
            .into_iter()
            .enumerate()
            .map(|(i, g)| TableSource::new(format!("s{i}"), g.table, g.cost, &problem).unwrap())
            .collect();
        let policy = RatioColl::from_sources(&sources);
        (problem, sources, policy, rng)
    }

    /// The `Pipeline::run` delegate and the builder path (with explicit
    /// resilience) must be bitwise identical: same data, same
    /// provenance, same label scope notes, same cost bits, same audit
    /// markdown. This is the migrated form of the regression test that
    /// used to pin the removed `run_with` delegate to the builder path.
    #[test]
    fn run_with_explicit_resilience_is_bitwise_identical_to_builder_path() {
        let config = ResilienceConfig::default();
        let (problem, mut sources, mut policy, mut rng) = scenario(11);
        let legacy = Pipeline {
            problem: problem.clone(),
            imputations: vec![],
            label_config: LabelConfig::default(),
            spec: RequirementSpec::default().with_note("equivalence run"),
            max_draws: 500_000,
        }
        .run(&mut sources, &mut policy, &mut rng)
        .unwrap();

        let (problem, mut sources, mut policy, mut rng) = scenario(11);
        let modern = PipelineBuilder::new(problem)
            .scope_note("equivalence run")
            .max_draws(500_000)
            .resilience(config)
            .build()
            .run(&mut sources, &mut policy, &mut rng)
            .unwrap();

        assert_eq!(legacy.data, modern.data);
        assert_eq!(legacy.provenance_lines(), modern.provenance_lines());
        assert_eq!(legacy.label.scope_notes, modern.label.scope_notes);
        assert_eq!(legacy.total_cost.to_bits(), modern.total_cost.to_bits());
        assert_eq!(legacy.audit.to_markdown(), modern.audit.to_markdown());
        assert_eq!(legacy.degraded, modern.degraded);
        assert_eq!(legacy.quarantined, modern.quarantined);
    }

    /// `Pipeline::run` (the convenience delegate) matches the builder
    /// with default resilience too.
    #[test]
    fn run_is_bitwise_identical_to_builder_path() {
        let (problem, mut sources, mut policy, mut rng) = scenario(23);
        let legacy = Pipeline {
            problem: problem.clone(),
            imputations: vec![],
            label_config: LabelConfig::default(),
            spec: RequirementSpec::default(),
            max_draws: 500_000,
        }
        .run(&mut sources, &mut policy, &mut rng)
        .unwrap();

        let (problem, mut sources, mut policy, mut rng) = scenario(23);
        let modern = PipelineBuilder::new(problem)
            .max_draws(500_000)
            .build()
            .run(&mut sources, &mut policy, &mut rng)
            .unwrap();
        assert_eq!(legacy.data, modern.data);
        assert_eq!(legacy.provenance_lines(), modern.provenance_lines());
        assert_eq!(legacy.total_cost.to_bits(), modern.total_cost.to_bits());
    }

    #[test]
    fn builder_accumulates_configuration() {
        let problem = DtProblem::exact_counts(
            GroupSpec::new(vec!["g"]),
            vec![(GroupKey(vec![Value::str("a")]), 1)],
        );
        let built = PipelineBuilder::new(problem)
            .impute("x", ImputeStrategy::Mean)
            .require(Requirement::ScopeOfUse { min_scope_notes: 1 })
            .scope_note("note")
            .max_draws(7)
            .span_root("custom")
            .build();
        assert_eq!(built.pipeline().max_draws, 7);
        assert_eq!(built.pipeline().imputations.len(), 1);
        assert_eq!(built.pipeline().spec.scope_notes, vec!["note".to_string()]);
        assert_eq!(built.resilience(), &ResilienceConfig::default());
    }

    /// A hot-deck with `k = 0` is a typed error from the run, not a
    /// panic inside the imputation stage.
    #[test]
    fn zero_k_hot_deck_fails_the_run() {
        let (problem, mut sources, mut policy, mut rng) = scenario(5);
        let result = PipelineBuilder::new(problem)
            .impute(
                "x1",
                ImputeStrategy::HotDeckKnn {
                    features: vec!["x2".into()],
                    k: 0,
                },
            )
            .build()
            .run(&mut sources, &mut policy, &mut rng);
        assert!(matches!(
            result,
            Err(PipelineError::Table(TableError::SchemaMismatch(_)))
        ));
    }

    #[test]
    #[should_panic(expected = "max_attempts")]
    fn build_validates_resilience() {
        let problem = DtProblem::exact_counts(GroupSpec::new(vec!["g"]), vec![]);
        let bad = ResilienceConfig {
            max_attempts: 0,
            ..ResilienceConfig::default()
        };
        let _ = PipelineBuilder::new(problem).resilience(bad).build();
    }
}
