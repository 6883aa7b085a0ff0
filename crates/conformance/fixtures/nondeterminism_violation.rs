//! Fixture: seeded `nondeterminism` violations. Not compiled — scanned by
//! the analyzer's tests, which assert the exact lines flagged below.

use std::collections::HashMap; // line 4: violation (HashMap)
use std::time::Instant; // line 5: violation (Instant)

pub fn slow_count(xs: &[u64]) -> usize {
    let start = Instant::now(); // line 8: violation (Instant)
    let mut seen = HashMap::new(); // line 9: violation (HashMap)
    for &x in xs {
        seen.insert(x, ());
    }
    let _elapsed = start.elapsed();
    seen.len()
}

// A string literal and a comment mentioning HashMap must NOT be flagged.
pub fn innocuous() -> &'static str {
    "HashMap and Instant in a string are fine"
}

// csmpc-allow(nondeterminism): fixture for the suppressed case
pub fn suppressed() -> std::collections::HashSet<u64> {
    Default::default()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet; // test code is exempt

    #[test]
    fn scaffolding_may_hash() {
        let _ = HashSet::<u8>::new();
    }
}
