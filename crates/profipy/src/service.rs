//! The software-as-a-service façade (paper title: "Programmable
//! Software Fault Injection as-a-Service").
//!
//! Models the hosted-tool surface: named user sessions, a store of
//! saved fault models ("users can save and import fault models of
//! previous fault injection campaigns", §IV-A), and campaign
//! submission.

use crate::analysis::FailureClassifier;
use crate::plan::PlanFilter;
use crate::report::CampaignReport;
use crate::workflow::{Workflow, WorkflowError};
use faultdsl::FaultModel;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A user session: uploaded target, saved models, past reports.
#[derive(Default)]
pub struct Session {
    saved_models: BTreeMap<String, String>,
    /// Shared, not copied: a report delivered by the campaign engine is
    /// the same allocation its status board holds.
    reports: Vec<Arc<CampaignReport>>,
}

/// The service façade.
#[derive(Default)]
pub struct ProfipyService {
    sessions: BTreeMap<String, Session>,
}

/// Service-level errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "service error: {}", self.message)
    }
}

impl std::error::Error for ServiceError {}

impl ProfipyService {
    /// Creates an empty service.
    pub fn new() -> ProfipyService {
        ProfipyService::default()
    }

    /// Opens (or returns) a user session.
    pub fn session(&mut self, user: &str) -> &mut Session {
        self.sessions.entry(user.to_string()).or_default()
    }

    /// Lists known users.
    pub fn users(&self) -> Vec<String> {
        self.sessions.keys().cloned().collect()
    }

    /// A user's session, if one exists (read-only; does not create).
    pub fn get_session(&self, user: &str) -> Option<&Session> {
        self.sessions.get(user)
    }

    /// A user's past reports, oldest first (empty for unknown users).
    pub fn reports(&self, user: &str) -> &[Arc<CampaignReport>] {
        self.sessions
            .get(user)
            .map(|s| s.reports())
            .unwrap_or(&[])
    }

    /// The names of a user's past campaigns, oldest first.
    pub fn report_names(&self, user: &str) -> Vec<String> {
        self.reports(user).iter().map(|r| r.name.clone()).collect()
    }

    /// Fetches a user's **latest** report with the given campaign name
    /// (campaigns may be re-run under the same name; the newest is the
    /// interesting one).
    pub fn report(&self, user: &str, name: &str) -> Option<&Arc<CampaignReport>> {
        self.reports(user).iter().rev().find(|r| r.name == name)
    }
}

impl Session {
    /// Saves a fault model under a name (serialized to JSON, §IV-A).
    pub fn save_model(&mut self, name: &str, model: &FaultModel) {
        self.saved_models
            .insert(name.to_string(), model.to_json());
    }

    /// Imports a previously saved model.
    ///
    /// # Errors
    ///
    /// Unknown name or corrupt JSON.
    pub fn load_model(&self, name: &str) -> Result<FaultModel, ServiceError> {
        let json = self.saved_models.get(name).ok_or_else(|| ServiceError {
            message: format!("no saved fault model named '{name}'"),
        })?;
        FaultModel::from_json(json).map_err(|e| ServiceError { message: e })
    }

    /// Names of saved models.
    pub fn model_names(&self) -> Vec<String> {
        self.saved_models.keys().cloned().collect()
    }

    /// Runs a campaign and stores the report in the session history.
    ///
    /// # Errors
    ///
    /// Propagates workflow failures (bad sources, broken coverage run).
    pub fn run_campaign(
        &mut self,
        name: &str,
        workflow: &Workflow,
        filter: &PlanFilter,
        classifier: &FailureClassifier,
        prune_by_coverage: bool,
    ) -> Result<CampaignReport, WorkflowError> {
        let outcome = workflow.run_campaign(filter, prune_by_coverage)?;
        let report = CampaignReport::from_outcome(name, &outcome, classifier);
        self.reports.push(Arc::new(report.clone()));
        Ok(report)
    }

    /// Past reports, oldest first.
    pub fn reports(&self) -> &[Arc<CampaignReport>] {
        &self.reports
    }

    /// Records a report produced outside `run_campaign` — e.g. by the
    /// campaign orchestration engine, which executes asynchronously and
    /// pushes the report here on completion.
    pub fn add_report(&mut self, report: Arc<CampaignReport>) {
        self.reports.push(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_and_load_models() {
        let mut svc = ProfipyService::new();
        let session = svc.session("alice");
        let model = faultdsl::predefined_models();
        session.save_model("default", &model);
        let loaded = session.load_model("default").unwrap();
        assert_eq!(loaded.name, model.name);
        assert_eq!(session.model_names(), vec!["default".to_string()]);
        assert!(session.load_model("missing").is_err());
    }

    #[test]
    fn sessions_are_per_user() {
        let mut svc = ProfipyService::new();
        svc.session("alice")
            .save_model("m", &faultdsl::campaign_a_model());
        assert!(svc.session("bob").model_names().is_empty());
        assert_eq!(svc.users(), vec!["alice".to_string(), "bob".to_string()]);
    }

    fn dummy_report(name: &str, executed: usize) -> Arc<CampaignReport> {
        Arc::new(CampaignReport::from_results(
            name,
            executed,
            None,
            &[],
            &FailureClassifier::case_study(),
        ))
    }

    #[test]
    fn service_level_report_accessors() {
        let mut svc = ProfipyService::new();
        assert!(svc.reports("nobody").is_empty());
        assert!(svc.report("nobody", "x").is_none());
        assert!(svc.get_session("nobody").is_none());

        svc.session("alice").add_report(dummy_report("smoke", 1));
        svc.session("alice").add_report(dummy_report("full", 2));
        svc.session("bob").add_report(dummy_report("smoke", 3));

        assert_eq!(svc.report_names("alice"), vec!["smoke", "full"]);
        assert_eq!(svc.reports("alice").len(), 2);
        assert_eq!(svc.report("alice", "full").unwrap().planned_points, 2);
        // Reports are per-user: bob's "smoke" is not alice's.
        assert_eq!(svc.report("bob", "smoke").unwrap().planned_points, 3);
        assert!(svc.report("alice", "missing").is_none());
        assert!(svc.get_session("alice").is_some());
    }

    #[test]
    fn latest_report_wins_on_name_collision() {
        let mut svc = ProfipyService::new();
        svc.session("alice").add_report(dummy_report("nightly", 1));
        svc.session("alice").add_report(dummy_report("nightly", 9));
        assert_eq!(svc.report("alice", "nightly").unwrap().planned_points, 9);
        assert_eq!(svc.reports("alice").len(), 2, "history keeps both");
    }
}
