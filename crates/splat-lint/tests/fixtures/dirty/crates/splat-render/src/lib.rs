use std::collections::HashMap;
use std::time::Instant;

pub fn skew(i: usize) -> u64 {
    let m: HashMap<usize, u64> = HashMap::new();
    let t = Instant::now();
    t.elapsed().as_nanos() as u64 + m.get(&i).copied().unwrap_or(0)
}
