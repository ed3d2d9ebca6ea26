//! JSON codecs for the fleet protocol.
//!
//! Everything on the wire is **portable**: injection points carry the
//! source spans of their window statements (via `injector::persist`) so
//! the worker process — which parses the campaign sources itself — can
//! re-bind them to its own ASTs, and experiment results reuse the
//! checkpoint codec (`campaign::persist`) so a remotely executed result
//! is recorded exactly as a local one would be.

use campaign::{result_from_value, result_to_value, text_pairs_from_value, CampaignSpec};
use injector::persist::SpanIndex;
use injector::InjectionPoint;
use jsonlite::Value;
use profipy::ExperimentResult;
use pysrc::Module;
use sandbox::SourceFile;
use std::collections::btree_map::{BTreeMap, Entry};

use crate::coordinator::LeaseGrant;

/// A job as decoded by the worker: the point is still in portable form
/// and must be re-bound against the worker's parsed modules.
pub struct WireJob {
    /// Owning campaign id.
    pub campaign: String,
    /// Portable point value (one `injector::persist` portable entry).
    pub point: Value,
    /// The complete container source set for the experiment.
    pub sources: Vec<SourceFile>,
}

/// A decoded lease reply.
pub struct WireLease {
    /// Granted jobs.
    pub jobs: Vec<WireJob>,
    /// Campaign specs the worker did not previously know.
    pub new_campaigns: Vec<(String, CampaignSpec)>,
    /// Coordinator-stamped trace id for this lease (empty when talking
    /// to a coordinator predating tracing).
    pub trace_id: String,
    /// The coordinator epoch the lease was granted under (0 when
    /// talking to a coordinator predating epochs). The worker echoes it
    /// with the batch's result upload.
    pub epoch: u64,
}

/// One worker-side phase span shipped back with a result upload.
///
/// The span's wall-clock start is expressed as `age` — how many seconds
/// before the upload was *sent* the phase started — so the coordinator
/// can anchor it on its own clock (`campaign offset - age`) without any
/// cross-host clock agreement.
pub struct WireSpan {
    /// Owning campaign id (the trace key).
    pub campaign: String,
    /// Phase label (e.g. `"rebind (4 jobs)"`, `"execute #17"`).
    pub name: String,
    /// Seconds between the phase start and the upload send.
    pub age: f64,
    /// Phase duration in seconds.
    pub duration: f64,
    /// Whether the phase failed (round-1 failure for execute spans).
    pub failed: bool,
}

/// Serializes a lease grant for the wire.
///
/// # Errors
///
/// Point portability failures (a span that cannot be resolved — should
/// not happen for points scanned from the shipped sources).
pub fn lease_grant_to_value(grant: &LeaseGrant) -> Result<Value, String> {
    // One span index per campaign in the grant, not one per job: a
    // campaign's jobs share its modules.
    let mut indices: BTreeMap<&str, SpanIndex<'_>> = BTreeMap::new();
    let mut jobs = Vec::with_capacity(grant.jobs.len());
    for job in &grant.jobs {
        let index = match indices.entry(&job.campaign) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => entry.insert(SpanIndex::new(&job.modules)?),
        };
        jobs.push(Value::obj(vec![
            ("campaign", Value::str(&job.campaign)),
            ("point", index.point_to_value(&job.point)?),
            (
                "sources",
                Value::arr(
                    job.sources
                        .iter()
                        .map(|s| Value::arr([&s.import_name, &s.text])),
                ),
            ),
        ]));
    }
    let campaigns = grant
        .new_campaigns
        .iter()
        .map(|(id, spec)| Value::obj(vec![("id", Value::str(id)), ("spec", spec.to_value())]));
    Ok(Value::obj(vec![
        ("jobs", Value::Arr(jobs)),
        ("campaigns", Value::arr(campaigns)),
        ("trace", Value::str(&grant.trace_id)),
        ("epoch", Value::UInt(grant.epoch)),
    ]))
}

/// Decodes a lease reply on the worker.
///
/// # Errors
///
/// Describes the malformed field.
pub fn lease_from_value(v: &Value) -> Result<WireLease, String> {
    Ok(WireLease {
        jobs: v.req_list("jobs", |job| {
            Ok(WireJob {
                campaign: job.req_str("campaign")?.into(),
                point: job.req("point")?.clone(),
                sources: text_pairs_from_value(job, "sources", |import_name, text| SourceFile {
                    import_name,
                    text,
                })?,
            })
        })?,
        new_campaigns: v.req_list("campaigns", |c| {
            Ok((
                c.req_str("id")?.into(),
                CampaignSpec::from_value(c.req("spec")?)?,
            ))
        })?,
        // Tolerant: absent on the wire means an older coordinator.
        trace_id: v
            .opt("trace")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        epoch: v.opt("epoch").and_then(Value::as_u64).unwrap_or(0),
    })
}

/// Re-binds a wire job's portable point against the worker's parsed
/// modules. Indexes `modules` on every call: a caller with a batch of
/// points for one campaign builds one [`SpanIndex`] and asks it.
///
/// # Errors
///
/// A span that no longer resolves (the worker's sources diverged from
/// the coordinator's — impossible when the spec came over the wire).
pub fn rebind_point(point: &Value, modules: &[Module]) -> Result<InjectionPoint, String> {
    SpanIndex::new(modules)?.point_from_value(point)
}

/// Serializes a result batch for upload.
pub fn results_to_value(results: &[(String, ExperimentResult)]) -> Value {
    let entries = results.iter().map(|(campaign, result)| {
        Value::obj(vec![
            ("campaign", Value::str(campaign)),
            ("result", result_to_value(result)),
        ])
    });
    Value::obj(vec![("results", Value::arr(entries))])
}

/// Decodes a result batch on the coordinator.
///
/// # Errors
///
/// Describes the malformed field.
pub fn results_from_value(v: &Value) -> Result<Vec<(String, ExperimentResult)>, String> {
    v.req_list("results", |entry| {
        Ok((
            entry.req_str("campaign")?.into(),
            result_from_value(entry.req("result")?)?,
        ))
    })
}

/// Serializes worker phase spans for the upload payload.
pub fn spans_to_value(spans: &[WireSpan]) -> Value {
    Value::arr(spans.iter().map(|s| {
        Value::obj(vec![
            ("campaign", Value::str(&s.campaign)),
            ("name", Value::str(&s.name)),
            ("age", Value::Float(s.age)),
            ("duration", Value::Float(s.duration)),
            ("failed", Value::Bool(s.failed)),
        ])
    }))
}

/// Decodes worker phase spans on the coordinator. Tolerant: spans are
/// telemetry, so malformed entries are skipped, never rejected — a
/// worker that mangles its spans must not lose its results.
pub fn spans_from_value(v: &Value) -> Vec<WireSpan> {
    let Some(entries) = v.as_arr() else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|s| {
            Some(WireSpan {
                campaign: s.get("campaign")?.as_str()?.to_string(),
                name: s.get("name")?.as_str()?.to_string(),
                age: s.get("age")?.as_f64()?,
                duration: s.get("duration")?.as_f64()?,
                failed: matches!(s.get("failed"), Some(Value::Bool(true))),
            })
        })
        .collect()
}
