// Seeded L1 violations: a canonical-order inversion, a self-nested
// acquisition, and an inversion through the path-qualified
// `extract_obs::lock_unpoisoned` helper. Not compiled by cargo (fixtures are data for the lint
// tests) and excluded from the workspace xlint run via xlint.toml.
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

struct Shared {
    queue: Mutex<VecDeque<u32>>,
    inflight: Mutex<HashMap<u32, u64>>,
    parked: Mutex<HashMap<u64, u32>>,
}

fn inverted(shared: &Shared) {
    let parked = shared.parked.lock().unwrap();
    let queue = shared.queue.lock().unwrap(); // L1: parked held, queue taken
    drop(queue);
    drop(parked);
}

fn self_nested(shared: &Shared) {
    let first = shared.queue.lock().unwrap();
    let second = shared.queue.lock().unwrap(); // L1: queue taken twice
    drop(second);
    drop(first);
}

fn inverted_through_the_shared_helper(shared: &Shared) {
    let parked = extract_obs::lock_unpoisoned(&shared.parked);
    let queue = extract_obs::lock_unpoisoned(&shared.queue); // L1: path-qualified helper
    drop(queue);
    drop(parked);
}

fn canonical(shared: &Shared) {
    let queue = shared.queue.lock().unwrap();
    let inflight = shared.inflight.lock().unwrap(); // ok: queue -> inflight
    drop(inflight);
    let parked = shared.parked.lock().unwrap(); // ok: queue -> parked
    drop(parked);
    drop(queue);
}

fn sequential(shared: &Shared) {
    let parked = shared.parked.lock().unwrap();
    drop(parked);
    let queue = shared.queue.lock().unwrap(); // ok: parked already dropped
    drop(queue);
}
