//! Observational duplicate-set detection.
//!
//! "Jobs are duplicates if they belong to the same application and all
//! their *observable* application features are identical" (§VI.A). The
//! detector hashes each job's observable application features — never its
//! timing or placement — and groups equal signatures. It knows nothing
//! about the simulator's hidden config ids; the integration tests verify
//! that the recovered sets coincide with them.

use iotax_obs::counter;
use iotax_sim::SimJob;
use iotax_stats::Fnv1aHasher;
use std::hash::{Hash, Hasher};

/// Duplicate-set structure over a job collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateSets {
    /// Each set: indices (into the analyzed job slice) of 2+ duplicates.
    pub sets: Vec<Vec<usize>>,
    /// For each job index: which set it belongs to, if any.
    pub set_of: Vec<Option<usize>>,
}

impl DuplicateSets {
    /// Number of duplicate jobs (members of any set).
    pub fn n_duplicates(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.sets.len()
    }

    /// Fraction of all analyzed jobs that are duplicates.
    pub fn duplicate_fraction(&self) -> f64 {
        self.n_duplicates() as f64 / self.set_of.len().max(1) as f64
    }
}

/// Observable-feature signature of a job: the POSIX and MPI-IO counters
/// plus the Darshan-visible process count. Timing, placement and ids are
/// deliberately excluded — with them, no two jobs would ever be duplicates
/// (§VI.C's warning about timing features).
///
/// Hashed with FNV-1a rather than `DefaultHasher`: signatures are
/// compared across processes (the on-disk trace tools recompute them),
/// so the algorithm must not drift between Rust releases.
pub fn job_signature(job: &SimJob) -> u64 {
    feature_signature(job.nprocs, job.uses_mpiio, job.posix.iter().chain(&job.mpiio))
}

/// The signature [`job_signature`] computes, from its parts: the process
/// count, whether the job used MPI-IO, then the POSIX and the MPI-IO
/// features in order. The on-disk trace tools call it on parsed logs.
pub fn feature_signature<'a>(
    nprocs: u32,
    uses_mpiio: bool,
    features: impl IntoIterator<Item = &'a f64>,
) -> u64 {
    let mut hasher = Fnv1aHasher::new();
    nprocs.hash(&mut hasher);
    uses_mpiio.hash(&mut hasher);
    for v in features {
        v.to_bits().hash(&mut hasher);
    }
    hasher.finish()
}

/// Group jobs into duplicate sets by observable signature. Set members
/// are positions in the order `jobs` yields them.
pub fn find_duplicate_sets<'a>(jobs: impl IntoIterator<Item = &'a SimJob>) -> DuplicateSets {
    let dup = group_signatures(jobs.into_iter().map(job_signature));
    counter!("core.duplicate_sets_found").incr(dup.sets.len() as u64);
    dup
}

/// Group positions by equal signature: every signature two or more
/// positions share is one set, its positions ascending, and the sets are
/// ordered by first member. Sorting the (signature, position) pairs finds
/// the groups without a hash map, so no step depends on a hasher's seed.
pub fn group_signatures(signatures: impl IntoIterator<Item = u64>) -> DuplicateSets {
    let mut keyed: Vec<(u64, usize)> =
        signatures.into_iter().enumerate().map(|(i, signature)| (signature, i)).collect();
    let mut set_of = vec![None; keyed.len()];
    keyed.sort_unstable();
    let mut sets: Vec<Vec<usize>> = keyed
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|run| run.len() >= 2)
        .map(|run| run.iter().map(|&(_, i)| i).collect())
        .collect();
    sets.sort_unstable_by_key(|set: &Vec<usize>| set.first().copied());
    for (si, set) in sets.iter().enumerate() {
        for &j in set {
            if let Some(slot) = set_of.get_mut(j) {
                *slot = Some(si);
            }
        }
    }
    DuplicateSets { sets, set_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotax_sim::{Platform, SimConfig};
    use std::collections::BTreeMap;

    #[test]
    fn recovered_sets_match_hidden_config_ids() {
        let ds = Platform::new(SimConfig::theta().with_jobs(2_000).with_seed(21)).generate();
        let dup = find_duplicate_sets(&ds.jobs);
        assert!(dup.n_sets() > 10, "too few sets: {}", dup.n_sets());
        // Every detected set maps to exactly one hidden config id…
        for set in &dup.sets {
            let first = ds.jobs[set[0]].config_id;
            assert!(set.iter().all(|&i| ds.jobs[i].config_id == first));
        }
        // …and every hidden duplicate group is detected as one set.
        let mut by_config: BTreeMap<u64, usize> = BTreeMap::new();
        for j in &ds.jobs {
            *by_config.entry(j.config_id).or_default() += 1;
        }
        let hidden_dups: usize = by_config.values().filter(|&&c| c >= 2).sum();
        assert_eq!(dup.n_duplicates(), hidden_dups);
    }

    /// The hash-map grouping the sort replaced: sets in first-member
    /// order, members ascending.
    fn hash_map_grouping(signatures: &[u64]) -> Vec<Vec<usize>> {
        let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, &s) in signatures.iter().enumerate() {
            groups.entry(s).or_default().push(i);
        }
        let mut sets: Vec<Vec<usize>> = groups.into_values().filter(|g| g.len() >= 2).collect();
        sets.sort_by_key(|s| s[0]);
        sets
    }

    #[test]
    fn sort_grouping_matches_hash_map_grouping() {
        // Heavy collisions (97 classes, in scrambled order), singletons
        // and an empty input.
        let mut signatures: Vec<u64> = (0..1_000u64).map(|i| ((i * 7_919) % 97) << 40).collect();
        signatures.extend((0..50u64).map(|i| u64::MAX - i));
        signatures.push(0);
        let dup = group_signatures(signatures.iter().copied());
        assert_eq!(dup.sets, hash_map_grouping(&signatures));
        assert_eq!(dup.set_of.len(), signatures.len());
        for (i, set_idx) in dup.set_of.iter().enumerate() {
            let member = dup.sets.iter().position(|set| set.contains(&i));
            assert_eq!(*set_idx, member, "position {i}");
        }
        assert_eq!(group_signatures([]), DuplicateSets { sets: vec![], set_of: vec![] });

        let ds = Platform::new(SimConfig::theta().with_jobs(1_000).with_seed(25)).generate();
        let signatures: Vec<u64> = ds.jobs.iter().map(job_signature).collect();
        assert_eq!(find_duplicate_sets(&ds.jobs).sets, hash_map_grouping(&signatures));
    }

    #[test]
    fn set_of_is_consistent() {
        let ds = Platform::new(SimConfig::theta().with_jobs(1_000).with_seed(22)).generate();
        let dup = find_duplicate_sets(&ds.jobs);
        for (i, set_idx) in dup.set_of.iter().enumerate() {
            if let Some(s) = set_idx {
                assert!(dup.sets[*s].contains(&i));
            }
        }
        let frac = dup.duplicate_fraction();
        assert!(frac > 0.1 && frac < 0.5, "duplicate fraction {frac}");
    }

    /// Golden values: the signature algorithm (field order + FNV-1a) is a
    /// cross-process contract with the on-disk trace tools. These pins
    /// catch any accidental change to either half.
    #[test]
    fn signature_values_are_pinned() {
        let ds = Platform::new(SimConfig::theta().with_jobs(50).with_seed(24)).generate();
        let sigs: Vec<u64> = ds.jobs.iter().take(3).map(job_signature).collect();
        assert_eq!(
            sigs,
            [0x5cdf_1587_0d29_0afa, 0x6638_5b7e_e0e6_47ab, 0x3407_a754_bbf4_5ca9],
            "pinned signatures changed: {sigs:#x?}"
        );
    }

    #[test]
    fn signature_ignores_timing() {
        let ds = Platform::new(SimConfig::theta().with_jobs(500).with_seed(23)).generate();
        let dup = find_duplicate_sets(&ds.jobs);
        // Find a set whose members ran at different times (not a batch).
        let set = dup
            .sets
            .iter()
            .find(|s| ds.jobs[s[0]].start_time != ds.jobs[s[1]].start_time)
            .expect("has spread-out duplicates");
        let (a, b) = (&ds.jobs[set[0]], &ds.jobs[set[1]]);
        assert_ne!(a.start_time, b.start_time, "distinct runs");
        assert_eq!(job_signature(a), job_signature(b));
    }
}
