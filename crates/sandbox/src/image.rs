//! Container images: everything needed to deploy an experiment.

/// One source file of the target software.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceFile {
    /// Name the target imports it as (e.g. `"etcd"`).
    pub import_name: String,
    /// Source text.
    pub text: String,
}

/// A built container image (paper §IV-B: "The tool first creates a
/// container image, in which it copies the Python source code uploaded
/// by the user").
#[derive(Clone, Debug)]
pub struct ContainerImage {
    /// Image name.
    pub name: String,
    /// Target software sources (possibly mutated).
    pub sources: Vec<SourceFile>,
    /// Pre-parsed, pre-resolved modules shared across experiments,
    /// matched on `(module name, source hash)`: a source is registered
    /// from here, without re-parsing or re-resolving, only when one of
    /// these carries its name and is stamped with the hash of its text.
    /// The campaign layer attaches the fault-free modules and the
    /// workload (`"workload"`); the one whose module an experiment
    /// mutated matches no text and goes unused.
    pub prepared: Vec<std::sync::Arc<pyrt::PreparedModule>>,
    /// The workload module. Its top level initializes the client; it
    /// must define `run(round)` which exercises the target and raises
    /// on service failure (crash/assertion).
    pub workload: String,
    /// Setup commands executed through the host before the workload
    /// (the user's Dockerfile-style directives, e.g. `etcd-start`).
    pub setup: Vec<Vec<String>>,
    /// Virtual-time budget per workload round; exceeding it is the
    /// *timeout* failure mode.
    pub round_timeout: f64,
    /// Interpreter step budget per round.
    pub fuel_per_round: u64,
    /// Simulated memory footprint of one container (drives the
    /// executor's memory back-off).
    pub mem_mb: u64,
}

impl ContainerImage {
    /// Creates an image with sensible experiment defaults
    /// (120 s virtual round timeout — the paper's §V-D worst case).
    pub fn new(name: impl Into<String>) -> ContainerImage {
        ContainerImage {
            name: name.into(),
            sources: Vec::new(),
            prepared: Vec::new(),
            workload: String::new(),
            setup: Vec::new(),
            round_timeout: 120.0,
            fuel_per_round: 8_000_000,
            mem_mb: 512,
        }
    }

    /// Adds a source file (builder-style).
    pub fn source(mut self, import_name: &str, text: &str) -> ContainerImage {
        self.sources.push(SourceFile {
            import_name: import_name.to_string(),
            text: text.to_string(),
        });
        self
    }

    /// Sets the workload module (builder-style).
    pub fn workload(mut self, text: &str) -> ContainerImage {
        self.workload = text.to_string();
        self
    }

    /// Appends a setup command (builder-style).
    pub fn setup_cmd(mut self, argv: &[&str]) -> ContainerImage {
        self.setup.push(argv.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Overrides the per-round virtual timeout (builder-style).
    pub fn round_timeout(mut self, secs: f64) -> ContainerImage {
        self.round_timeout = secs;
        self
    }

    /// Overrides the per-round fuel budget (builder-style).
    pub fn fuel(mut self, steps: u64) -> ContainerImage {
        self.fuel_per_round = steps;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let img = ContainerImage::new("exp")
            .source("lib", "x = 1\n")
            .workload("def run(r):\n    pass\n")
            .setup_cmd(&["etcd-start"])
            .round_timeout(60.0)
            .fuel(1000);
        assert_eq!(img.sources.len(), 1);
        assert_eq!(img.setup.len(), 1);
        assert_eq!(img.round_timeout, 60.0);
        assert_eq!(img.fuel_per_round, 1000);
    }
}
