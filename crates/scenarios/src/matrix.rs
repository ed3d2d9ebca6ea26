//! The campaign matrix: (target × fault model) cross-product,
//! applicability-filtered, each cell submitted as an ordinary campaign
//! through the `CampaignService` path (in-process or over HTTP against
//! a coordinator), aggregated into a [`MatrixReport`].
//!
//! Determinism contract: a cell's report depends only on its
//! [`campaign::CampaignSpec`] — which the matrix derives entirely from
//! its own seed and the (target, model) names — so the same matrix run
//! single-node and through a worker fleet produces byte-identical
//! per-cell reports. The acceptance test in `tests/matrix.rs` holds
//! this line.

use crate::catalog::CatalogTarget;
use crate::corpus::CorpusModel;
use campaign::{report_to_value, CampaignService, CampaignSpec};
use jsonlite::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A configured matrix run.
#[derive(Clone, Debug)]
pub struct Matrix {
    /// Submitting user (cells land in this user's session).
    pub user: String,
    /// Matrix seed; per-cell campaign seeds derive from it.
    pub seed: u64,
    /// Per-cell experiment cap (`filter.sample`); 0 = run every point.
    pub sample_per_cell: usize,
    /// The targets (rows).
    pub targets: Vec<CatalogTarget>,
    /// The fault models (columns).
    pub models: Vec<CorpusModel>,
}

/// One applicable (target, model) cell with its derived campaign.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// Target name.
    pub target: String,
    /// Model name.
    pub model: String,
    /// Expected dominant failure class (corpus metadata).
    pub failure_class: String,
    /// The cell's campaign spec.
    pub spec: CampaignSpec,
}

/// One executed cell: the campaign report plus the parsed
/// failure-class distribution.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Target name.
    pub target: String,
    /// Model name.
    pub model: String,
    /// Expected dominant failure class (corpus metadata).
    pub expected_class: String,
    /// Experiments executed.
    pub executed: u64,
    /// Experiments that failed.
    pub failures: u64,
    /// Observed failure-class distribution (`mode_distribution`).
    pub classes: BTreeMap<String, u64>,
    /// The canonical wire-format report (the byte-identity unit).
    pub report_json: String,
}

/// The aggregated matrix outcome.
#[derive(Clone, Debug, Default)]
pub struct MatrixReport {
    /// Per-cell reports, in matrix order (targets outer, models inner).
    pub cells: Vec<CellReport>,
}

impl Matrix {
    /// A matrix over `targets` × `models` with the default knobs.
    pub fn new(targets: Vec<CatalogTarget>, models: Vec<CorpusModel>) -> Matrix {
        Matrix {
            user: "matrix".to_string(),
            seed: 17,
            sample_per_cell: 4,
            targets,
            models,
        }
    }

    /// The applicable cells: full cross-product filtered by the
    /// models' target tags, in deterministic matrix order.
    pub fn cells(&self) -> Vec<MatrixCell> {
        let mut cells = Vec::new();
        for target in &self.targets {
            for model in &self.models {
                if !model.applies_to_target(target) {
                    continue;
                }
                cells.push(MatrixCell {
                    target: target.name.clone(),
                    model: model.model.name.clone(),
                    failure_class: model.failure_class.clone(),
                    spec: self.cell_spec(target, model),
                });
            }
        }
        cells
    }

    /// Derives the cell's campaign spec. The seed mixes the matrix
    /// seed with both names, so every cell samples its plan
    /// independently but reproducibly.
    fn cell_spec(&self, target: &CatalogTarget, model: &CorpusModel) -> CampaignSpec {
        let mut spec = CampaignSpec::new(
            &self.user,
            &format!("matrix/{}/{}", target.name, model.model.name),
            &target.host,
            target.sources.clone(),
            target.workload.clone(),
            model.model.clone(),
        );
        spec.setup = target.setup.clone();
        spec.seed = jsonlite::combine_hash64(&[
            self.seed,
            jsonlite::stable_hash64(target.name.as_bytes()),
            jsonlite::stable_hash64(model.model.name.as_bytes()),
        ]);
        spec.filter.sample = self.sample_per_cell;
        spec
    }

    /// Runs every cell through an in-process service, driving the
    /// queue to completion.
    ///
    /// # Errors
    ///
    /// Submission/drive errors, or a cell failing to produce a report.
    pub fn run_local(&self, service: &mut CampaignService) -> Result<MatrixReport, String> {
        let cells = self.cells();
        let ids: Vec<(MatrixCell, String)> = cells
            .into_iter()
            .map(|cell| {
                let id = service
                    .submit(cell.spec.clone())
                    .map_err(|e| format!("submit {}/{}: {e}", cell.target, cell.model))?;
                Ok((cell, id))
            })
            .collect::<Result<_, String>>()?;
        // One drive pass completes every queued campaign; the retry
        // loop only matters if a drive slice ever returns early.
        for _ in 0..ids.len() + 1 {
            service.drive(None).map_err(|e| format!("drive: {e}"))?;
            if ids
                .iter()
                .all(|(_, id)| service.poll(id).is_some_and(|s| s.state.as_str() == "completed"))
            {
                break;
            }
        }
        let mut report = MatrixReport::default();
        for (cell, id) in ids {
            let campaign_report = service
                .engine()
                .report(&id)
                .ok_or_else(|| format!("cell {}/{} did not complete", cell.target, cell.model))?;
            let json = report_to_value(&campaign_report).pretty();
            report.cells.push(CellReport::from_wire(&cell, &json)?);
        }
        Ok(report)
    }

    /// Runs every cell against a coordinator's REST API (single-node
    /// or fleet — the campaign surface is identical): submit all
    /// cells, poll to completion, fetch the wire-format reports.
    ///
    /// # Errors
    ///
    /// HTTP/protocol errors, a failed campaign, or `timeout` elapsing
    /// before every cell completes.
    pub fn run_http(&self, addr: &str, timeout: Duration) -> Result<MatrixReport, String> {
        let mut client = httpd::Client::new(addr);
        let cells = self.cells();
        let ids: Vec<(MatrixCell, String)> = cells
            .into_iter()
            .map(|cell| {
                let resp = client
                    .post_json("/api/campaigns", &cell.spec.to_json())
                    .map_err(|e| format!("submit {}/{}: {e}", cell.target, cell.model))?;
                if resp.status != 201 {
                    return Err(format!(
                        "submit {}/{}: HTTP {} {}",
                        cell.target,
                        cell.model,
                        resp.status,
                        resp.text()
                    ));
                }
                let id = jsonlite::parse(&resp.text())?.req_str("id")?.to_string();
                Ok((cell, id))
            })
            .collect::<Result<_, String>>()?;
        let deadline = Instant::now() + timeout;
        for (cell, id) in &ids {
            loop {
                let resp = client
                    .get(&format!("/api/campaigns/{id}"))
                    .map_err(|e| format!("poll {id}: {e}"))?;
                let v = jsonlite::parse(&resp.text())?;
                match v.req("state")?.as_str().unwrap_or("") {
                    "completed" => break,
                    "failed" => {
                        return Err(format!(
                            "cell {}/{} failed: {}",
                            cell.target,
                            cell.model,
                            resp.text()
                        ))
                    }
                    state => {
                        if Instant::now() >= deadline {
                            return Err(format!(
                                "cell {}/{} stuck in state {state}",
                                cell.target, cell.model
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
        }
        let mut report = MatrixReport::default();
        for (cell, id) in ids {
            let resp = client
                .get(&format!("/api/campaigns/{id}/report"))
                .map_err(|e| format!("report {id}: {e}"))?;
            if resp.status != 200 {
                return Err(format!("report {id}: HTTP {}", resp.status));
            }
            report.cells.push(CellReport::from_wire(&cell, &resp.text())?);
        }
        Ok(report)
    }
}

impl CellReport {
    /// Parses a cell report out of the canonical wire-format campaign
    /// report (`report_to_value` text — from the engine or straight
    /// off `GET /api/campaigns/:id/report`).
    ///
    /// # Errors
    ///
    /// Malformed report JSON.
    pub fn from_wire(cell: &MatrixCell, report_json: &str) -> Result<CellReport, String> {
        let v = jsonlite::parse(report_json)?;
        let mut classes = BTreeMap::new();
        let modes = v.req("mode_distribution")?;
        for (class, _) in modes.as_obj().unwrap_or_default() {
            classes.insert(class.clone(), modes.req_u64(class)?);
        }
        Ok(CellReport {
            target: cell.target.clone(),
            model: cell.model.clone(),
            expected_class: cell.failure_class.clone(),
            executed: v.req_u64("executed")?,
            failures: v.req_u64("failures")?,
            classes,
            report_json: report_json.to_string(),
        })
    }
}

impl MatrixReport {
    /// Failure-class totals aggregated per (target, model, class) —
    /// the exact label set the exported counters carry.
    pub fn class_totals(&self) -> BTreeMap<(String, String, String), u64> {
        let mut totals = BTreeMap::new();
        for cell in &self.cells {
            for (class, n) in &cell.classes {
                *totals
                    .entry((cell.target.clone(), cell.model.clone(), class.clone()))
                    .or_insert(0) += n;
            }
        }
        totals
    }

    /// Exports the per-cell failure-class distributions as
    /// `campaign_failure_class_total{target,model,class}` counters.
    /// Counters are create-or-get by label set: export once per run
    /// (or into a fresh registry) to avoid double-counting.
    pub fn export_metrics(&self, registry: &obs::Registry) {
        for ((target, model, class), n) in self.class_totals() {
            registry
                .counter_with(
                    "campaign_failure_class_total",
                    "Experiments per failure class, by matrix cell (target x fault model)",
                    &[
                        ("target", target.as_str()),
                        ("model", model.as_str()),
                        ("class", class.as_str()),
                    ],
                )
                .add(n);
        }
    }

    /// The matrix report as a JSON value.
    pub fn to_value(&self) -> Value {
        let cells = self.cells.iter().map(|cell| {
            let classes = cell
                .classes
                .iter()
                .map(|(c, n)| (c.clone(), Value::UInt(*n)));
            Value::obj(vec![
                ("target", Value::str(&cell.target)),
                ("model", Value::str(&cell.model)),
                ("expected_class", Value::str(&cell.expected_class)),
                ("executed", Value::UInt(cell.executed)),
                ("failures", Value::UInt(cell.failures)),
                ("classes", Value::Obj(classes.collect())),
            ])
        });
        Value::obj(vec![("cells", Value::arr(cells))])
    }

    /// A fixed-width text table of the matrix (CLI output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:<22} {:>4} {:>5}  {}\n",
            "target", "model", "run", "fail", "failure classes"
        ));
        for cell in &self.cells {
            let classes = cell
                .classes
                .iter()
                .map(|(c, n)| format!("{c}={n}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "{:<12} {:<22} {:>4} {:>5}  {}\n",
                cell.target, cell.model, cell.executed, cell.failures, classes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::noop_catalog;
    use crate::corpus::default_corpus;

    fn matrix() -> Matrix {
        Matrix::new(noop_catalog(), default_corpus())
    }

    #[test]
    fn cells_filter_by_applicability_and_stay_deterministic() {
        let m = matrix();
        let cells = m.cells();
        // 3 targets x 6 generic models + one restricted model each.
        assert_eq!(cells.len(), 3 * 6 + 3, "unexpected cell count");
        assert!(cells
            .iter()
            .any(|c| c.target == "kvstore" && c.model == "stale-read-amplifier"));
        assert!(!cells
            .iter()
            .any(|c| c.target == "broker" && c.model == "stale-read-amplifier"));
        // Deterministic: same matrix, same cells, same specs.
        let again = m.cells();
        assert_eq!(cells.len(), again.len());
        for (a, b) in cells.iter().zip(&again) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.spec.content_hash(), b.spec.content_hash());
        }
    }

    #[test]
    fn cell_seeds_differ_but_derive_from_matrix_seed() {
        let m = matrix();
        let cells = m.cells();
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.spec.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len(), "cell seeds must be distinct");

        let mut reseeded = matrix();
        reseeded.seed = 18;
        assert_ne!(cells[0].spec.seed, reseeded.cells()[0].spec.seed);
    }

    #[test]
    fn cell_spec_carries_target_knobs() {
        let m = Matrix::new(crate::catalog::default_catalog(), default_corpus());
        let cells = m.cells();
        let etcd_cell = cells
            .iter()
            .find(|c| c.target == "python-etcd")
            .expect("etcd target present");
        assert_eq!(etcd_cell.spec.host, "etcd");
        assert_eq!(etcd_cell.spec.setup, vec![vec!["etcd-start".to_string()]]);
        let kv_cell = cells.iter().find(|c| c.target == "kvstore").unwrap();
        assert_eq!(kv_cell.spec.host, "noop");
        assert!(kv_cell.spec.setup.is_empty());
        assert_eq!(kv_cell.spec.filter.sample, m.sample_per_cell);
    }

    #[test]
    fn report_renders_and_aggregates() {
        let cell = MatrixCell {
            target: "kvstore".into(),
            model: "off-by-one".into(),
            failure_class: "inconsistent-read".into(),
            spec: CampaignSpec::new(
                "matrix",
                "matrix/kvstore/off-by-one",
                "noop",
                vec![],
                String::new(),
                faultdsl::predefined_models(),
            ),
        };
        let wire = r#"{
  "name": "matrix/kvstore/off-by-one",
  "planned_points": 3,
  "covered_points": null,
  "executed": 3,
  "failures": 2,
  "availability": 0.5,
  "persistent": 0,
  "logging": 1.0,
  "propagation": 0.0,
  "total_virtual_secs": 1.0,
  "mode_distribution": {"inconsistent-read": 2, "no-failure": 1},
  "per_spec": {}
}"#;
        let parsed = CellReport::from_wire(&cell, wire).unwrap();
        assert_eq!(parsed.executed, 3);
        assert_eq!(parsed.classes.get("inconsistent-read"), Some(&2));
        let report = MatrixReport {
            cells: vec![parsed],
        };
        let totals = report.class_totals();
        assert_eq!(
            totals.get(&(
                "kvstore".to_string(),
                "off-by-one".to_string(),
                "inconsistent-read".to_string()
            )),
            Some(&2)
        );
        let text = report.render_text();
        assert!(text.contains("kvstore"), "{text}");
        assert!(text.contains("inconsistent-read=2"), "{text}");

        let registry = obs::Registry::new();
        report.export_metrics(&registry);
        let rendered = registry.render();
        assert!(
            rendered.contains(
                "campaign_failure_class_total{target=\"kvstore\",model=\"off-by-one\",class=\"inconsistent-read\"} 2"
            ),
            "{rendered}"
        );
        obs::validate_exposition(&rendered).unwrap();
    }
}
