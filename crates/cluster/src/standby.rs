//! The warm standby: a process that tails the primary coordinator's
//! durable state over HTTP and takes over when the primary dies.
//!
//! ```text
//!   primary ──/api/fleet/manifest──▶ standby   (probe + sync, each cycle)
//!       │  ──/api/fleet/file───────▶ replica data dir
//!       ✕ (crash)
//!   probe misses ≥ threshold ──▶ promote:
//!       CampaignService over the replica  (queue demotes Running→Queued)
//!       Coordinator::recover              (WAL leases re-armed, epoch+1)
//!       FleetServer::serve_listener       (the listener bound at boot)
//! ```
//!
//! The standby binds its listener **at boot**: workers that fail over
//! before the promotion finishes queue in the kernel backlog and are
//! answered the moment the promoted coordinator starts serving — after
//! recovery, so none of them can observe a half-recovered fleet.
//!
//! Replication is pull-based and crash-consistent by construction: the
//! primary's files are themselves append-only logs (or atomically
//! rewritten snapshots), so any prefix the standby managed to copy is a
//! state some crash could have left on the primary's own disk — the
//! exact torn-tail class every log reader here already tolerates.
//! `cache/` is not replicated: mutant preparation is deterministic and
//! the promoted engine simply re-prepares.

use crate::coordinator::FleetConfig;
use crate::server::FleetServer;
use campaign::{ApiConfig, CampaignService, EngineConfig, HostRegistry};
use jsonlite::{stable_hash64, Value};
use obs::Level;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Standby options.
pub struct StandbyConfig {
    /// The primary coordinator (`host:port`).
    pub primary: String,
    /// Address to bind **now** and serve from after takeover (port 0
    /// for an ephemeral port).
    pub addr: String,
    /// The replica data dir (must differ from the primary's when both
    /// run on one host).
    pub data_dir: PathBuf,
    /// Sync-and-probe cadence.
    pub probe_interval: Duration,
    /// Consecutive failed probes before the standby declares the
    /// primary dead and promotes itself.
    pub probe_misses: u32,
    /// API config for the promoted server.
    pub api: ApiConfig,
    /// Fleet config for the promoted coordinator (`data_dir` is
    /// overridden with the replica dir).
    pub fleet: FleetConfig,
}

impl StandbyConfig {
    /// A standby of `primary`, replicating into `data_dir`, with the
    /// default probe cadence (250ms, 3 misses — detection well under a
    /// default lease period).
    pub fn new(primary: impl Into<String>, data_dir: impl Into<PathBuf>) -> StandbyConfig {
        StandbyConfig {
            primary: primary.into(),
            addr: "127.0.0.1:0".to_string(),
            data_dir: data_dir.into(),
            probe_interval: Duration::from_millis(250),
            probe_misses: 3,
            api: ApiConfig::default(),
            fleet: FleetConfig::default(),
        }
    }
}

struct StandbyShared {
    stop: AtomicBool,
    promoted: AtomicBool,
    sync_cycles: AtomicU64,
    probes_missed: AtomicU64,
    fleet: Mutex<Option<FleetServer>>,
}

/// A running standby. Holds the bound listener until promotion, then a
/// full [`FleetServer`] on it.
pub struct StandbyServer {
    addr: SocketAddr,
    shared: Arc<StandbyShared>,
    thread: Option<JoinHandle<()>>,
}

impl StandbyServer {
    /// Binds the takeover listener and starts the sync-and-probe loop.
    /// `registry` is the host registry the promoted engine will use —
    /// it must match the primary's, or re-prepared campaigns would
    /// diverge.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn start(config: StandbyConfig, registry: HostRegistry) -> io::Result<StandbyServer> {
        std::fs::create_dir_all(&config.data_dir)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(StandbyShared {
            stop: AtomicBool::new(false),
            promoted: AtomicBool::new(false),
            sync_cycles: AtomicU64::new(0),
            probes_missed: AtomicU64::new(0),
            fleet: Mutex::new(None),
        });
        let loop_shared = shared.clone();
        let thread = std::thread::Builder::new()
            .name("fleet-standby".into())
            .spawn(move || standby_loop(listener, config, registry, &loop_shared))
            .expect("spawn standby thread");
        Ok(StandbyServer {
            addr,
            shared,
            thread: Some(thread),
        })
    }

    /// The address this standby serves from after takeover (concrete
    /// from boot — hand it to workers as their fallback coordinator).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Completed sync cycles (each one a successful probe).
    pub fn sync_cycles(&self) -> u64 {
        self.shared.sync_cycles.load(Ordering::SeqCst)
    }

    /// Failed probes so far (any consecutive `probe_misses` of them
    /// trigger the takeover).
    pub fn probes_missed(&self) -> u64 {
        self.shared.probes_missed.load(Ordering::SeqCst)
    }

    /// Whether this standby has promoted itself to primary.
    pub fn is_promoted(&self) -> bool {
        self.shared.promoted.load(Ordering::SeqCst)
    }

    /// Blocks until promotion (or the deadline). Returns whether the
    /// standby is promoted.
    pub fn wait_promoted(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.is_promoted() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    }

    /// Stops the standby. If it promoted itself, the inner coordinator
    /// is drained and its service handed back; a never-promoted standby
    /// returns `None`.
    pub fn shutdown(mut self) -> Option<CampaignService> {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let fleet = self
            .shared
            .fleet
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        fleet.map(FleetServer::shutdown)
    }
}

impl Drop for StandbyServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }
}

fn standby_loop(
    listener: TcpListener,
    mut config: StandbyConfig,
    registry: HostRegistry,
    shared: &StandbyShared,
) {
    let mut misses = 0u32;
    while !shared.stop.load(Ordering::SeqCst) {
        match replicate_once(&config.primary, &config.data_dir, config.probe_interval) {
            Ok(()) => {
                misses = 0;
                shared.sync_cycles.fetch_add(1, Ordering::SeqCst);
            }
            Err(e) => {
                misses += 1;
                shared.probes_missed.fetch_add(1, Ordering::SeqCst);
                obs::log!(
                    Level::Warn,
                    "standby_probe_missed",
                    "primary" => config.primary.as_str(),
                    "misses" => u64::from(misses),
                    "err" => e.as_str(),
                );
                if misses >= config.probe_misses {
                    break;
                }
            }
        }
        // Stop-aware sleep, sliced so shutdown stays prompt.
        let deadline = Instant::now() + config.probe_interval;
        while Instant::now() < deadline && !shared.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    if shared.stop.load(Ordering::SeqCst) {
        return;
    }
    // Promote: serve the replica from the listener bound at boot. The
    // engine demotes the queue's Running jobs, the coordinator replays
    // the WAL (epoch + 1) and re-arms its leases before the first
    // backlogged connection is answered.
    obs::log!(
        Level::Warn,
        "standby_promoting",
        "primary" => config.primary.as_str(),
        "data_dir" => config.data_dir.display().to_string().as_str(),
    );
    config.fleet.data_dir = Some(config.data_dir.clone());
    let engine_config = EngineConfig {
        data_dir: Some(config.data_dir.clone()),
        executor: Default::default(),
    };
    let service = match CampaignService::new(engine_config, registry) {
        Ok(service) => service,
        Err(e) => {
            obs::log!(Level::Error, "standby_promote_failed", "err" => format!("{e}").as_str());
            return;
        }
    };
    match FleetServer::serve_listener(listener, service, config.api, config.fleet) {
        Ok(fleet) => {
            *shared.fleet.lock().unwrap_or_else(|p| p.into_inner()) = Some(fleet);
            shared.promoted.store(true, Ordering::SeqCst);
        }
        Err(e) => {
            obs::log!(Level::Error, "standby_promote_failed", "err" => format!("{e}").as_str());
        }
    }
}

/// One sync cycle: fetch the manifest (this is also the health probe)
/// and bring every listed file up to date in the replica dir.
fn replicate_once(primary: &str, dir: &Path, probe_interval: Duration) -> Result<(), String> {
    // Probe timeout well above the interval would stall miss counting;
    // cap it at 2s and never below the interval itself.
    let timeout = probe_interval.max(Duration::from_millis(500)).min(Duration::from_secs(2));
    let mut client = httpd::Client::new(primary).timeout(timeout);
    let resp = client
        .get("/api/fleet/manifest")
        .map_err(|e| format!("manifest: {e}"))?;
    if resp.status != 200 {
        return Err(format!("manifest: HTTP {}", resp.status));
    }
    let manifest = jsonlite::parse(&resp.text()).map_err(|e| format!("manifest: {e}"))?;
    let Some(files) = manifest.get("files").and_then(Value::as_arr) else {
        return Err("manifest: missing 'files'".to_string());
    };
    for entry in files {
        let (Some(name), Some(size), Some(hash)) = (
            entry.get("name").and_then(Value::as_str),
            entry.get("size").and_then(Value::as_u64),
            entry.get("hash").and_then(Value::as_u64),
        ) else {
            continue;
        };
        sync_file(&mut client, dir, name, size, hash).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(())
}

/// Brings one replica file up to date. Append-only logs (`.jsonl`) are
/// tailed from the local length; anything else — and any log the
/// primary rewrote (compaction shrank it, or same-size content drift) —
/// is refetched whole; either way the replica file is replaced
/// atomically (`jsonlite::durable::replace`).
fn sync_file(
    client: &mut httpd::Client,
    dir: &Path,
    name: &str,
    size: u64,
    hash: u64,
) -> Result<(), String> {
    let path = dir.join(name);
    let local = std::fs::read(&path).unwrap_or_default();
    if local.len() as u64 == size && stable_hash64(&local) == hash {
        return Ok(()); // already current
    }
    let appendable = name.ends_with(".jsonl") && (local.len() as u64) < size;
    if appendable {
        let tail = fetch(client, name, local.len() as u64)?;
        let mut merged = local;
        merged.extend_from_slice(&tail);
        // The tail only helps if the prefix still matches (the primary
        // may have compacted between cycles) — verify, else fall back
        // to a full refetch.
        if merged.len() as u64 == size && stable_hash64(&merged) == hash {
            return write_atomic(&path, &merged);
        }
    }
    let whole = fetch(client, name, 0)?;
    write_atomic(&path, &whole)
}

fn fetch(client: &mut httpd::Client, name: &str, offset: u64) -> Result<Vec<u8>, String> {
    let resp = client
        .get(&format!("/api/fleet/file?name={name}&offset={offset}"))
        .map_err(|e| format!("fetch: {e}"))?;
    if resp.status != 200 {
        return Err(format!("fetch: HTTP {}", resp.status));
    }
    Ok(resp.body)
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("mkdir: {e}"))?;
    }
    jsonlite::durable::replace(path, bytes).map_err(|e| format!("write: {e}"))
}
