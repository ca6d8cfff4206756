//! Event-driven FCFS scheduler with optional EASY backfill.
//!
//! Turns job requests into placed, timed [`SchedRecord`]s. The scheduler is
//! what makes the simulated timeline *causal*: a job's start time depends on
//! queue pressure and machine fragmentation, so concurrency (and therefore
//! contention ζ_l) emerges from the workload instead of being painted on.

use crate::log::SchedRecord;
use crate::pool::{NodePool, NodeRange};
use std::collections::{BinaryHeap, VecDeque};

/// A job submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRequest {
    /// Caller-assigned job id (unique).
    pub job_id: u64,
    /// Queue arrival time, seconds.
    pub arrival_time: i64,
    /// Nodes requested (≥ 1, ≤ pool size).
    pub nodes: u32,
    /// Actual runtime once started, seconds (≥ 1).
    pub runtime: i64,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Machine size in nodes.
    pub total_nodes: u32,
    /// Cores per node (Theta KNL: 64; Cori Haswell: 32).
    pub cores_per_node: u32,
    /// Allow jobs behind a blocked queue head to start when they fit
    /// (EASY-style backfill without reservations).
    pub backfill: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self { total_nodes: 4096, cores_per_node: 64, backfill: true }
    }
}

/// Event-driven scheduler.
#[derive(Debug)]
pub struct Scheduler {
    config: SchedulerConfig,
}

#[derive(Debug, PartialEq, Eq)]
struct Completion {
    end_time: i64,
    job_id: u64,
    range: NodeRange,
}

// Min-heap by end time (BinaryHeap is a max-heap, so reverse).
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.end_time.cmp(&self.end_time).then_with(|| other.job_id.cmp(&self.job_id))
    }
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Scheduler {
    /// New scheduler with the given configuration.
    pub fn new(config: SchedulerConfig) -> Self {
        assert!(config.total_nodes > 0 && config.cores_per_node > 0);
        Self { config }
    }

    /// Schedule all requests; returns one record per request, in start-time
    /// order. Requests need not be sorted. Panics if a request asks for more
    /// nodes than the machine has or has non-positive runtime.
    pub fn schedule(&self, requests: &[JobRequest]) -> Vec<SchedRecord> {
        for r in requests {
            assert!(
                r.nodes >= 1 && r.nodes <= self.config.total_nodes,
                "job {} wants {} nodes on a {}-node machine",
                r.job_id,
                r.nodes,
                self.config.total_nodes
            );
            assert!(r.runtime >= 1, "job {} has non-positive runtime", r.job_id);
        }
        let mut sorted: Vec<JobRequest> = requests.to_vec();
        sorted.sort_by_key(|r| (r.arrival_time, r.job_id));

        let mut pool = NodePool::new(self.config.total_nodes);
        let mut running: BinaryHeap<Completion> = BinaryHeap::new();
        let mut queue: VecDeque<JobRequest> = VecDeque::new();
        let mut records: Vec<SchedRecord> = Vec::with_capacity(requests.len());
        let mut next_arrival = 0usize;
        let mut now;

        // Try to start queued jobs at time `now`; respects FCFS unless
        // backfill is enabled.
        fn drain_queue(
            now: i64,
            queue: &mut VecDeque<JobRequest>,
            pool: &mut NodePool,
            running: &mut BinaryHeap<Completion>,
            records: &mut Vec<SchedRecord>,
            cores_per_node: u32,
            backfill: bool,
        ) {
            let mut i = 0;
            while i < queue.len() {
                let req = queue[i];
                if let Some(range) = pool.allocate(req.nodes) {
                    queue.remove(i);
                    let end_time = now + req.runtime;
                    running.push(Completion { end_time, job_id: req.job_id, range });
                    records.push(SchedRecord {
                        job_id: req.job_id,
                        nodes: req.nodes,
                        cores: req.nodes * cores_per_node,
                        arrival_time: req.arrival_time,
                        start_time: now,
                        end_time,
                        placement_first: range.first,
                        placement_count: range.count,
                    });
                    // Restart the scan: freeing nothing, but earlier entries
                    // stay blocked; i unchanged because of remove.
                } else if backfill {
                    i += 1; // skip the blocked job, try the next
                } else {
                    break; // strict FCFS: head blocks the queue
                }
            }
        }

        while next_arrival < sorted.len() || !running.is_empty() || !queue.is_empty() {
            // Next event time: min(next arrival, next completion).
            let t_arr = sorted.get(next_arrival).map(|r| r.arrival_time);
            let t_done = running.peek().map(|c| c.end_time);
            let t = match (t_arr, t_done) {
                (Some(a), Some(d)) => a.min(d),
                (Some(a), None) => a,
                (None, Some(d)) => d,
                (None, None) => {
                    // Queue non-empty but nothing running and no arrivals:
                    // impossible unless a job can never fit, which the
                    // entry assertion rules out.
                    unreachable!("queued jobs with an idle machine")
                }
            };
            now = t;
            // Process completions first so freed nodes are available to
            // arrivals at the same instant.
            while running.peek().is_some_and(|c| c.end_time == now) {
                let c = running.pop().expect("peeked");
                pool.release(c.range);
            }
            while sorted.get(next_arrival).is_some_and(|r| r.arrival_time == now) {
                queue.push_back(sorted[next_arrival]);
                next_arrival += 1;
            }
            drain_queue(
                now,
                &mut queue,
                &mut pool,
                &mut running,
                &mut records,
                self.config.cores_per_node,
                self.config.backfill,
            );
        }
        records.sort_by_key(|r| (r.start_time, r.job_id));
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(id: u64, arrival: i64, nodes: u32, runtime: i64) -> JobRequest {
        JobRequest { job_id: id, arrival_time: arrival, nodes, runtime }
    }

    fn small_sched(backfill: bool) -> Scheduler {
        Scheduler::new(SchedulerConfig { total_nodes: 10, cores_per_node: 4, backfill })
    }

    #[test]
    fn empty_machine_starts_jobs_immediately() {
        let s = small_sched(true);
        let recs = s.schedule(&[req(1, 100, 4, 50)]);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].start_time, 100);
        assert_eq!(recs[0].end_time, 150);
        assert_eq!(recs[0].cores, 16);
    }

    #[test]
    fn jobs_queue_when_machine_full() {
        let s = small_sched(true);
        let recs = s.schedule(&[req(1, 0, 10, 100), req(2, 10, 10, 50)]);
        let r2 = recs.iter().find(|r| r.job_id == 2).expect("job 2");
        assert_eq!(r2.start_time, 100); // waits for job 1
        assert_eq!(r2.start_time - r2.arrival_time, 90);
    }

    #[test]
    fn strict_fcfs_blocks_behind_head() {
        let s = small_sched(false);
        // Job 1 takes 8 nodes; job 2 wants 8 (blocked); job 3 wants 2 and
        // *could* fit, but FCFS makes it wait behind job 2.
        let recs = s.schedule(&[req(1, 0, 8, 100), req(2, 1, 8, 10), req(3, 2, 2, 10)]);
        let start = |id| recs.iter().find(|r| r.job_id == id).expect("rec").start_time;
        assert_eq!(start(1), 0);
        assert_eq!(start(2), 100);
        assert_eq!(start(3), 100);
    }

    #[test]
    fn backfill_lets_small_jobs_jump() {
        let s = small_sched(true);
        let recs = s.schedule(&[req(1, 0, 8, 100), req(2, 1, 8, 10), req(3, 2, 2, 10)]);
        let start = |id| recs.iter().find(|r| r.job_id == id).expect("rec").start_time;
        assert_eq!(start(3), 2); // fits beside job 1 immediately
        assert_eq!(start(2), 100);
    }

    #[test]
    fn no_two_concurrent_jobs_share_nodes() {
        let s =
            Scheduler::new(SchedulerConfig { total_nodes: 32, cores_per_node: 4, backfill: true });
        let mut reqs = Vec::new();
        let mut state = 99u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for id in 0..500 {
            reqs.push(req(
                id,
                (next() % 10_000) as i64,
                next() % 16 + 1,
                (next() % 500 + 1) as i64,
            ));
        }
        let recs = s.schedule(&reqs);
        assert_eq!(recs.len(), reqs.len());
        for (i, a) in recs.iter().enumerate() {
            for b in &recs[i + 1..] {
                if a.overlaps_in_time(b) {
                    assert!(
                        !a.placement().overlaps(&b.placement()),
                        "jobs {} and {} share nodes while concurrent",
                        a.job_id,
                        b.job_id
                    );
                }
            }
        }
    }

    #[test]
    fn utilization_never_exceeds_machine() {
        let s =
            Scheduler::new(SchedulerConfig { total_nodes: 16, cores_per_node: 1, backfill: true });
        let reqs: Vec<JobRequest> =
            (0..100).map(|i| req(i, i as i64, (i % 7 + 1) as u32, 37)).collect();
        let recs = s.schedule(&reqs);
        // Sample node usage at every start instant.
        for probe in recs.iter().map(|r| r.start_time) {
            let used: u32 = recs
                .iter()
                .filter(|r| r.start_time <= probe && probe < r.end_time)
                .map(|r| r.nodes)
                .sum();
            assert!(used <= 16, "{used} nodes in use at t={probe}");
        }
    }

    #[test]
    fn start_never_precedes_arrival() {
        let s = small_sched(true);
        let reqs: Vec<JobRequest> =
            (0..50).map(|i| req(i, (i * 13 % 97) as i64, (i % 5 + 1) as u32, 20)).collect();
        for r in s.schedule(&reqs) {
            assert!(r.start_time >= r.arrival_time);
            assert_eq!(r.runtime(), 20);
        }
    }

    #[test]
    #[should_panic(expected = "wants")]
    fn oversized_request_panics() {
        small_sched(true).schedule(&[req(1, 0, 11, 10)]);
    }

    #[test]
    fn simultaneous_batch_submission_runs_concurrently() {
        // Duplicate jobs batched together (the Δt = 0 case of §IX) should
        // genuinely run at the same time when they fit.
        let s = small_sched(true);
        let recs = s.schedule(&[req(1, 0, 2, 60), req(2, 0, 2, 60), req(3, 0, 2, 60)]);
        assert!(recs.iter().all(|r| r.start_time == 0));
        for (i, a) in recs.iter().enumerate() {
            for b in &recs[i + 1..] {
                assert!(a.overlaps_in_time(b));
                assert!(!a.placement().overlaps(&b.placement()));
            }
        }
    }

    fn arb_requests(max_nodes: u32) -> impl Strategy<Value = Vec<JobRequest>> {
        prop::collection::vec((0i64..100_000, 1u32..=16, 1i64..5_000), 1..120).prop_map(
            move |specs| {
                specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (arrival, nodes, runtime))| JobRequest {
                        job_id: i as u64,
                        arrival_time: arrival,
                        nodes: nodes.min(max_nodes),
                        runtime,
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_job_runs_exactly_once(reqs in arb_requests(16), backfill in any::<bool>()) {
            let s = Scheduler::new(SchedulerConfig { total_nodes: 16, cores_per_node: 4, backfill });
            let recs = s.schedule(&reqs);
            prop_assert_eq!(recs.len(), reqs.len());
            let mut ids: Vec<u64> = recs.iter().map(|r| r.job_id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), reqs.len());
        }

        #[test]
        fn causality_and_durations_hold(reqs in arb_requests(16), backfill in any::<bool>()) {
            let s = Scheduler::new(SchedulerConfig { total_nodes: 16, cores_per_node: 4, backfill });
            let recs = s.schedule(&reqs);
            for r in &recs {
                let req = reqs.iter().find(|q| q.job_id == r.job_id).unwrap();
                prop_assert!(r.start_time >= req.arrival_time, "started before arrival");
                prop_assert_eq!(r.end_time - r.start_time, req.runtime);
                prop_assert_eq!(r.nodes, req.nodes);
                prop_assert_eq!(r.cores, req.nodes * 4);
            }
        }

        #[test]
        fn concurrent_jobs_never_share_nodes(reqs in arb_requests(8), backfill in any::<bool>()) {
            let s = Scheduler::new(SchedulerConfig { total_nodes: 8, cores_per_node: 1, backfill });
            let recs = s.schedule(&reqs);
            for (i, a) in recs.iter().enumerate() {
                for b in &recs[i + 1..] {
                    if a.overlaps_in_time(b) {
                        prop_assert!(
                            !a.placement().overlaps(&b.placement()),
                            "jobs {} and {} share nodes",
                            a.job_id,
                            b.job_id
                        );
                    }
                }
            }
        }

        #[test]
        fn machine_capacity_never_exceeded(reqs in arb_requests(8), backfill in any::<bool>()) {
            let s = Scheduler::new(SchedulerConfig { total_nodes: 8, cores_per_node: 1, backfill });
            let recs = s.schedule(&reqs);
            for probe in recs.iter().map(|r| r.start_time) {
                let used: u32 = recs
                    .iter()
                    .filter(|r| r.start_time <= probe && probe < r.end_time)
                    .map(|r| r.nodes)
                    .sum();
                prop_assert!(used <= 8, "{used} nodes at t={probe}");
            }
        }

        #[test]
        fn fcfs_without_backfill_orders_starts_by_arrival(reqs in arb_requests(8)) {
            let s = Scheduler::new(SchedulerConfig { total_nodes: 8, cores_per_node: 1, backfill: false });
            let mut recs = s.schedule(&reqs);
            // Under strict FCFS, start order respects (arrival, id) order.
            recs.sort_by_key(|r| (r.arrival_time, r.job_id));
            for w in recs.windows(2) {
                prop_assert!(w[0].start_time <= w[1].start_time,
                    "job {} started after later-arriving job {}", w[0].job_id, w[1].job_id);
            }
        }

        #[test]
        fn backfill_is_a_no_op_for_uniform_job_sizes(reqs in arb_requests(8), width in 1u32..=8) {
            // With every job requesting the same node count, a blocked queue
            // head implies nothing else fits either, so backfill cannot change
            // the schedule. (Note: for mixed sizes, backfill without
            // reservations can legitimately *worsen* makespan — a property
            // test against "backfill never hurts" found a counterexample.)
            let uniform: Vec<JobRequest> =
                reqs.iter().map(|r| JobRequest { nodes: width, ..*r }).collect();
            let fcfs = Scheduler::new(SchedulerConfig { total_nodes: 8, cores_per_node: 1, backfill: false });
            let easy = Scheduler::new(SchedulerConfig { total_nodes: 8, cores_per_node: 1, backfill: true });
            prop_assert_eq!(fcfs.schedule(&uniform), easy.schedule(&uniform));
        }
    }
}
