//! # rdi-datagen
//!
//! Deterministic synthetic data generators standing in for the proprietary
//! data sets used by the systems the tutorial surveys (see the substitution
//! table in `DESIGN.md`):
//!
//! * [`rng`] — Zipf, Gamma, Dirichlet, and Gaussian samplers built on
//!   `rand`'s uniform primitives;
//! * [`population`] — group-structured populations with planted
//!   feature→target relationships;
//! * [`sources`] — splitting a population into cost-annotated, skewed
//!   sources for distribution-tailoring experiments (§4.2);
//! * [`missing`] — MCAR / MAR / MNAR missingness injection (§2.4);
//! * [`corrupt`] — value-error injection (§2.4);
//! * [`healthcare`] — the tutorial's Example 1 benchmark (Chicago-style
//!   breast-cancer screening data scattered across skewed hospitals);
//! * [`lake`] — synthetic data lakes with planted joinable/unionable
//!   tables and planted join-correlations (§3.1);
//! * [`churn`] — seeded register/append/delete/drop streams for
//!   lake-churn experiments (E20);
//! * [`sessions`] — serve-agnostic request ops ([`SessionOp`]) over a
//!   seeded shared lake, the building blocks of [`tenants`];
//! * [`tenants`] — adversarial multi-tenant serving workloads (honest
//!   / flooding / poisoning tenants) with per-tenant request streams
//!   independent of the roster (E22).

//!
//! ```
//! use rand::SeedableRng;
//! use rdi_datagen::PopulationSpec;
//!
//! let spec = PopulationSpec::two_group(0.1); // 10% minority
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let table = spec.generate(1_000, &mut rng);
//! assert_eq!(table.num_rows(), 1_000);
//! assert_eq!(table.schema().sensitive(), vec!["group"]);
//! ```
#![warn(missing_docs)]

pub mod churn;
pub mod corrupt;
pub mod faulty;
pub mod healthcare;
pub mod lake;
pub mod missing;
pub mod population;
pub mod rng;
pub mod sessions;
pub mod sources;
pub mod tenants;

pub use churn::{churn_workload, ChurnConfig, ChurnEvent, ChurnWorkload};
pub use corrupt::{corrupt_numeric, CorruptSpec};
pub use faulty::{faulty_skewed_sources, wrap_federation};
pub use healthcare::{healthcare_population, healthcare_sources, HealthcareConfig};
pub use lake::{LakeConfig, SyntheticLake};
pub use missing::{inject_missing, Mechanism, MissingSpec};
pub use population::{AttributeSpec, PopulationSpec};
pub use rng::{dirichlet, gamma, normal, zipf_weights};
pub use sessions::{SessionOp, SessionWorkloadConfig};
pub use sources::{skewed_sources, SourceConfig};
pub use tenants::{
    tenant_workload, TenantBehavior, TenantSpec, TenantWorkload, TenantWorkloadConfig,
};
