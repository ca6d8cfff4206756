//! Fixture: a suppression that matches nothing is itself a finding.
pub fn add(a: u64, b: u64) -> u64 {
    // audit:allow(swallowed-result) -- fixture: no Result is dropped here
    a.saturating_add(b)
}
