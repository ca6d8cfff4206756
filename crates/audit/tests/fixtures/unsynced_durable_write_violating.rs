//! Fixture: a ledger file and a manifest renamed into place without an
//! fsync, so a crash right after either rename can publish an empty or
//! torn file.

pub fn publish(dir: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(".run.json.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    fs::rename(&tmp, dir.join("run.json"))
}

pub fn publish_manifest(dir: &Path, text: &str) -> io::Result<()> {
    let tmp = dir.join(".manifest.tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, dir.join("manifest.csv"))
}
