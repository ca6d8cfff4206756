//! Fixture: a suppression with no `-- reason` is itself a finding.

pub fn publish(dir: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(".cache.tmp");
    fs::write(&tmp, bytes)?;
    // audit:allow(unsynced-durable-write)
    fs::rename(&tmp, dir.join("cache.bin"))
}
