//! What the synthetic-clock fleet suites share.

use campaign::SharedService;
use cluster::{Coordinator, FleetConfig};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The lease clock a test steps: the coordinator reads it, the test
/// sets it.
#[derive(Clone)]
pub struct Clock(Arc<Mutex<Instant>>);

impl Clock {
    pub fn new() -> Clock {
        Clock(Arc::new(Mutex::new(Instant::now())))
    }

    pub fn now(&self) -> Instant {
        *self.0.lock().unwrap()
    }

    pub fn set(&self, t: Instant) {
        *self.0.lock().unwrap() = t;
    }
}

/// A coordinator over `shared` whose lease clock the test steps.
pub fn stepped(shared: &SharedService, config: FleetConfig) -> (Coordinator, Clock) {
    let clock = Clock::new();
    let reading = clock.clone();
    let coordinator =
        Coordinator::with_clock(shared.clone(), config, move || reading.now()).unwrap();
    (coordinator, clock)
}
