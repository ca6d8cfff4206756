//! Fixture: a suppression that matches nothing is itself a finding.
pub fn add(a: u64, b: u64) -> u64 {
    // audit:allow(unsynced-durable-write) -- fixture: nothing is published here
    a.saturating_add(b)
}
