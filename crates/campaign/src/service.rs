//! The orchestrated service façade: `ProfipyService` sessions (saved
//! models, report history) + the [`CampaignEngine`] (queue, checkpoints,
//! cache) behind one submit/poll/resume surface — the paper's
//! "as-a-Service" story made asynchronous and crash-tolerant.
//!
//! Why two service types: `profipy::service` is the session store of
//! the library layer. It runs a `Workflow` synchronously
//! (`Session::run_campaign`) and needs no queue, no disk and no engine.
//! `campaign` depends on `profipy`, not the other way round, so the
//! store cannot own the engine; this type composes the two. They share
//! the reports rather than copying them: a session holds the same
//! `Arc<CampaignReport>` the engine's status board does.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::engine::{
    CampaignEngine, CheckedOutCampaign, DriveSummary, EngineConfig, EngineError, HostRegistry,
    JobStatus,
};
use crate::spec::CampaignSpec;
use profipy::service::ProfipyService;

/// The combined service.
pub struct CampaignService {
    /// Session store (saved fault models, report history).
    pub sessions: ProfipyService,
    engine: CampaignEngine,
}

impl CampaignService {
    /// Creates the service over an engine configuration.
    ///
    /// # Errors
    ///
    /// Engine persistence failures.
    pub fn new(config: EngineConfig, registry: HostRegistry) -> Result<CampaignService, EngineError> {
        Ok(CampaignService {
            sessions: ProfipyService::new(),
            engine: CampaignEngine::new(config, registry)?,
        })
    }

    /// Submits a campaign on behalf of `spec.user`; returns the job id.
    ///
    /// # Errors
    ///
    /// Unknown host or queue persistence failure.
    pub fn submit(&mut self, spec: CampaignSpec) -> Result<String, EngineError> {
        // Touch the session so the user exists even before completion.
        self.sessions.session(&spec.user);
        self.engine.submit(spec)
    }

    /// Job status, or `None` for an unknown id.
    pub fn poll(&self, id: &str) -> Option<JobStatus> {
        self.engine.poll(id)
    }

    /// Runs queued work (optionally bounded by an experiment budget),
    /// then delivers any newly completed reports into the owning
    /// sessions — afterwards they are visible through
    /// `ProfipyService::reports` / `report`.
    ///
    /// # Errors
    ///
    /// Checkpoint persistence failures.
    pub fn drive(&mut self, budget: Option<usize>) -> Result<DriveSummary, EngineError> {
        let summary = self.engine.drive(budget)?;
        self.deliver_completed();
        Ok(summary)
    }

    /// Checks the next queued campaign out for distributed execution
    /// (see [`CampaignEngine::checkout_next`]).
    ///
    /// # Errors
    ///
    /// Queue/checkpoint persistence failures.
    pub fn checkout_next(&mut self) -> Result<Option<CheckedOutCampaign>, EngineError> {
        self.engine.checkout_next()
    }

    /// Returns a checked-out campaign, completing it if all results are
    /// recorded (the report is then also delivered into the owning
    /// session, exactly as a locally driven completion would be).
    ///
    /// # Errors
    ///
    /// Queue persistence failures.
    pub fn checkin(&mut self, campaign: CheckedOutCampaign) -> Result<bool, EngineError> {
        let completed = self.engine.checkin(campaign)?;
        if completed {
            self.deliver_completed();
        }
        Ok(completed)
    }

    /// The underlying engine (cache stats, raw results, cancellation).
    pub fn engine(&mut self) -> &mut CampaignEngine {
        &mut self.engine
    }

    /// Each completion is handed over by the engine exactly once, so
    /// no record of what was already delivered is needed.
    fn deliver_completed(&mut self) {
        for (user, report) in self.engine.take_completed() {
            self.sessions.session(&user).add_report(report);
        }
    }
}
