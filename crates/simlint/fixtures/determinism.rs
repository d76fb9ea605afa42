// Seeded violations for the determinism family: default-hasher,
// wall-clock, ambient-env, float-hash-aggregate.
//
// Analyzed by tests/fixtures.rs under the pseudo-path
// `crates/bgp/src/determinism.rs` (in scope for every sim rule). A
// trailing marker comment (two slashes, a tilde, then rule names) is the
// exact multiset of findings expected on that line; lines without a
// marker must stay clean. The fixture only has to lex, not compile.
//
// Analyzed a second time under `crates/bench/src/bin/`, where exactly the
// wall-clock markers must fire: bench prints goldens, so it may read argv
// and the environment but never a clock.

use std::collections::HashMap; //~ default-hasher
use std::collections::HashSet; //~ default-hasher
use std::collections::BTreeMap;
use std::time::Instant; //~ wall-clock
use std::time::SystemTime; //~ wall-clock

pub fn hashers() {
    let m: HashMap<u32, u32> = HashMap::new(); //~ default-hasher default-hasher
    let s: HashSet<u64> = HashSet::new(); //~ default-hasher default-hasher
    let ordered: BTreeMap<u32, u32> = BTreeMap::new();
    drop((m, s, ordered));
}

pub fn clocks() -> u64 {
    let t0 = Instant::now(); //~ wall-clock
    let later = SystemTime::now(); //~ wall-clock
    drop(later);
    t0.elapsed().as_nanos() as u64
}

pub fn ambient() -> usize {
    let path = std::env::var("PATH"); //~ ambient-env
    let id = std::thread::current().id(); //~ ambient-env
    let workers = std::thread::available_parallelism(); //~ ambient-env
    drop((path, id));
    workers.map(|v| v.get()).unwrap_or(1)
}

pub struct Agg {
    pub means: FxHashMap<u32, f64>, //~ float-hash-aggregate
    pub loads: HashMap<u16, f32>, //~ default-hasher float-hash-aggregate
    pub nested: FxHashMap<u32, Vec<f64>>, //~ float-hash-aggregate
    pub counts: FxHashMap<u32, u64>,
    pub ordered: BTreeMap<u32, f64>,
}

pub fn generic_bounds<T: Ord>(a: T, b: T) -> bool {
    // Bare angle brackets outside a hashed container are not aggregates.
    a < b
}

pub fn mentions() -> &'static str {
    // Names inside comments and string literals never fire:
    // HashMap::new(), Instant::now(), std::env::var.
    "HashMap Instant SystemTime env::var thread::current"
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn hashed_state_is_fine_in_tests() {
        let mut m = HashMap::new();
        m.insert(1u32, 2u32);
        assert_eq!(m[&1], 2);
    }
}
