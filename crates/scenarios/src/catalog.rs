//! The target catalog: every simulated software-under-injection the
//! matrix can exercise, with the metadata the generator filters on.

use crate::{broker, kvstore, microsvc};

/// One catalog entry: a target library plus its deterministic
/// workload and the campaign knobs it needs.
#[derive(Clone, Debug)]
pub struct CatalogTarget {
    /// Catalog name (unique; matrix cells are keyed on it).
    pub name: String,
    /// What the target simulates.
    pub description: String,
    /// Applicability tags fault models filter on (e.g. `replicated`).
    pub tags: Vec<String>,
    /// Host environment name (resolved via the engine's registry).
    pub host: String,
    /// Setup commands run at deploy.
    pub setup: Vec<Vec<String>>,
    /// Target sources: `(import name, source text)`.
    pub sources: Vec<(String, String)>,
    /// Workload module text.
    pub workload: String,
}

impl CatalogTarget {
    fn new(
        name: &str,
        description: &str,
        tags: &[&str],
        sources: Vec<(&str, &str)>,
        workload: &str,
    ) -> CatalogTarget {
        CatalogTarget {
            name: name.to_string(),
            description: description.to_string(),
            tags: tags.iter().map(|t| (*t).to_string()).collect(),
            host: "noop".to_string(),
            setup: Vec::new(),
            sources: sources
                .into_iter()
                .map(|(n, t)| (n.to_string(), t.to_string()))
                .collect(),
            workload: workload.to_string(),
        }
    }

    /// True when this target carries `tag`.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.iter().any(|t| t == tag)
    }

    /// The catalog entry as a JSON value (the `/api/matrix` listing
    /// shape; sources are summarized by module name, not inlined).
    pub fn to_value(&self) -> jsonlite::Value {
        use jsonlite::Value;
        Value::obj(vec![
            ("name", Value::str(&self.name)),
            ("description", Value::str(&self.description)),
            ("tags", Value::arr(&self.tags)),
            ("host", Value::str(&self.host)),
            ("modules", Value::arr(self.sources.iter().map(|(n, _)| n))),
        ])
    }
}

/// The self-contained targets: pure mini-Python state machines that
/// run under the `noop` host (no simulated external services), so any
/// node — coordinator or fleet worker — can execute them.
pub fn noop_catalog() -> Vec<CatalogTarget> {
    vec![
        CatalogTarget::new(
            "kvstore",
            "Replicated key-value store: leader log, async followers, quorum reads \
             (stale-read / divergence failure surface)",
            &["replicated", "kv"],
            vec![("kvstore", kvstore::KVSTORE_SOURCE)],
            kvstore::KVSTORE_WORKLOAD,
        ),
        CatalogTarget::new(
            "broker",
            "Message broker with at-least-once delivery: in-flight tracking, nack \
             redelivery, retry budget, dead-letter queue (redelivery-storm / \
             poison-message failure surface)",
            &["queued", "broker"],
            vec![("broker", broker::BROKER_SOURCE)],
            broker::BROKER_WORKLOAD,
        ),
        CatalogTarget::new(
            "microsvc",
            "Retrying microservice call graph: per-hop latency against a request \
             deadline, exponential backoff, bounded retry budget (timeout-\
             amplification failure surface)",
            &["retrying", "rpc"],
            vec![("microsvc", microsvc::MICROSVC_SOURCE)],
            microsvc::MICROSVC_WORKLOAD,
        ),
    ]
}

/// The full catalog: the self-contained targets plus the paper's
/// python-etcd case-study client (which needs the `etcd` simulated
/// host and its `etcd-start` setup command).
pub fn default_catalog() -> Vec<CatalogTarget> {
    let mut catalog = noop_catalog();
    let mut etcd = CatalogTarget::new(
        "python-etcd",
        "The paper's §V case study: python-etcd-like client against the simulated \
         etcd host (reconnection, membership, guarded-request failure surface)",
        &["kv", "etcd", "external"],
        vec![("etcd", targets::CLIENT_SOURCE)],
        targets::WORKLOAD_BASIC,
    );
    etcd.host = "etcd".to_string();
    etcd.setup = vec![vec!["etcd-start".to_string()]];
    catalog.push(etcd);
    catalog
}

/// Filters a catalog by comma-separated name globs (`kv*,broker`).
/// An empty pattern list keeps everything.
pub fn filter_by_globs(catalog: Vec<CatalogTarget>, globs: &[String]) -> Vec<CatalogTarget> {
    if globs.is_empty() {
        return catalog;
    }
    catalog
        .into_iter()
        .filter(|t| globs.iter().any(|g| faultdsl::glob_match(g, &t.name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_tagged() {
        let catalog = default_catalog();
        assert!(catalog.len() >= 4);
        let mut names: Vec<&str> = catalog.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog.len(), "duplicate catalog names");
        for target in &catalog {
            assert!(!target.tags.is_empty(), "{} has no tags", target.name);
            assert!(!target.sources.is_empty(), "{} has no sources", target.name);
        }
    }

    #[test]
    fn every_catalog_source_parses() {
        for target in default_catalog() {
            for (name, text) in &target.sources {
                pysrc::parse_module(text, name)
                    .unwrap_or_else(|e| panic!("{}/{name} does not parse: {e}", target.name));
            }
            pysrc::parse_module(&target.workload, "workload")
                .unwrap_or_else(|e| panic!("{} workload does not parse: {e}", target.name));
        }
    }

    #[test]
    fn glob_filter_selects_by_name() {
        let names = |globs: &[&str]| -> Vec<String> {
            filter_by_globs(
                default_catalog(),
                &globs.iter().map(|g| (*g).to_string()).collect::<Vec<_>>(),
            )
            .into_iter()
            .map(|t| t.name)
            .collect()
        };
        assert_eq!(names(&["kv*"]), vec!["kvstore"]);
        assert_eq!(names(&["broker", "micro*"]), vec!["broker", "microsvc"]);
        assert_eq!(names(&[]).len(), default_catalog().len());
        assert!(names(&["nope"]).is_empty());
    }
}
