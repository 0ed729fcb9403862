//! Multi-design fleet scheduling: whole campaigns as work items on one
//! shared worker pool.
//!
//! The round-checkpointed engine of [`crate::campaign`] parallelizes
//! *inside* one campaign: its workers drain that campaign's shard grid and
//! barrier at every round fold. Suites — the cognition loop, the table
//! harnesses, a manifest of designs — run many campaigns whose small
//! members then serialize on their own barriers while cores idle.
//!
//! A *fleet* inverts the nesting. Each [`FleetJob`] wraps one campaign
//! (netlist + configuration + optional sink factory + stopping rule);
//! [`run_fleet`] compiles one simulation engine per job and lets a single
//! pool of `std::thread::scope` workers pull **shards of any job** from a
//! shared queue, so shards of different campaigns interleave on the same
//! threads and suite throughput scales with cores instead of with the
//! widest single design.
//!
//! # Determinism contract
//!
//! Fleet execution changes scheduling only, never results:
//!
//! * every job keeps its own shard grid and its own accumulator; per-shard
//!   sinks are folded **in that job's canonical shard order** at each round
//!   boundary — the exact fold sequence of
//!   [`run_campaign_parallel`](crate::campaign::run_campaign_parallel) /
//!   [`run_campaign_adaptive`](crate::campaign::run_campaign_adaptive);
//! * a job's [`StoppingRule`] is consulted per job at its own round
//!   checkpoints, on checkpoint-folded state only, so adaptive jobs stop at
//!   the same round mid-fleet as they do standalone;
//! * only the current round of a job is ever in flight (the rule must see
//!   the folded round before more of that job's grid is scheduled), so no
//!   shard past a stop boundary is simulated.
//!
//! Every job's [`CampaignOutcome`] is therefore **byte-identical** to its
//! standalone run — at any worker count and in any job mix.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use polaris_netlist::{Netlist, NetlistError};
use polaris_obs::{NullRecorder, Payload, Phase, PhaseTimer, Recorder};

use crate::campaign::{
    shard_grid, BlockScratch, CampaignConfig, CampaignOutcome, CampaignStats, Checkpoint, Engine,
    MergeableSink, NeverStop, Parallelism, Population, ShardSpec, StoppingRule,
};
use crate::power::PowerModel;

/// Factory for the private per-shard sinks of one job.
type SinkFactory<'a, S> = Box<dyn Fn() -> S + Send + Sync + 'a>;

/// A job's (possibly stateful) stopping rule, consulted at its round
/// checkpoints.
type BoxedRule<'a, S> = Box<dyn StoppingRule<S> + Send + 'a>;

/// One campaign scheduled as a top-level work item of a fleet: a (netlist,
/// campaign configuration, sink factory) triple plus an optional stopping
/// rule for adaptive jobs.
pub struct FleetJob<'a, S> {
    netlist: &'a Netlist,
    power: &'a PowerModel,
    config: CampaignConfig,
    factory: Option<SinkFactory<'a, S>>,
    rule: BoxedRule<'a, S>,
    shards_per_round: usize,
}

impl<'a, S: MergeableSink + Default> FleetJob<'a, S> {
    /// A non-adaptive job: the whole shard grid runs as one round (no
    /// checkpoint work), exactly like
    /// [`run_campaign_parallel`](crate::campaign::run_campaign_parallel).
    pub fn new(netlist: &'a Netlist, power: &'a PowerModel, config: CampaignConfig) -> Self {
        FleetJob {
            netlist,
            power,
            config,
            factory: None,
            rule: Box::new(NeverStop),
            shards_per_round: usize::MAX,
        }
    }

    /// Attaches a stopping rule evaluated every `shards_per_round` shards —
    /// the adaptive-job variant. With the same rule state and round size the
    /// job's outcome (sink, stats, stop round) is byte-identical to
    /// [`run_campaign_adaptive`](crate::campaign::run_campaign_adaptive).
    pub fn with_rule<R>(mut self, rule: R, shards_per_round: usize) -> Self
    where
        R: StoppingRule<S> + Send + 'a,
    {
        self.rule = Box::new(rule);
        self.shards_per_round = shards_per_round.max(1);
        self
    }

    /// Uses `factory` instead of `S::default()` for the job's private
    /// per-shard sinks. The factory must produce *empty* sinks equivalent to
    /// `S::default()` — it exists for preallocation, not for seeding state —
    /// or the standalone-equivalence contract is forfeited.
    pub fn with_sink_factory<F>(mut self, factory: F) -> Self
    where
        F: Fn() -> S + Send + Sync + 'a,
    {
        self.factory = Some(Box::new(factory));
        self
    }

    /// The job's campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }
}

/// The round decomposition of one job's `n_shards`-entry grid: contiguous
/// chunks of `shards_per_round` (the last may be short) — a pure function
/// of the pair and the fleet scheduler's single source of truth for both
/// the enqueue schedule and `planned_rounds`. Matches the standalone
/// engine's `chunks(shards_per_round)` walk chunk for chunk.
pub fn job_rounds(n_shards: usize, shards_per_round: usize) -> Vec<std::ops::Range<usize>> {
    let spr = shards_per_round.max(1);
    let mut rounds = Vec::new();
    let mut lo = 0usize;
    while lo < n_shards {
        let hi = lo.saturating_add(spr).min(n_shards);
        rounds.push(lo..hi);
        lo = hi;
    }
    rounds
}

/// One queued work item: shard `grid_idx` of job `job`, depositing into
/// round slot `slot`.
#[derive(Clone, Copy, Debug)]
struct WorkItem {
    job: usize,
    slot: usize,
    grid_idx: usize,
}

/// Mutable per-job scheduler state (behind the fleet mutex).
struct JobState<'a, S> {
    rule: BoxedRule<'a, S>,
    /// The job's round decomposition ([`job_rounds`] of its grid) — the
    /// single source of truth for both the enqueue schedule and
    /// `planned_rounds` (`rounds.len()`).
    rounds: Vec<std::ops::Range<usize>>,
    planned_fixed: usize,
    planned_random: usize,
    /// Running accumulator, folded in grid order at round boundaries.
    acc: Option<S>,
    stats: CampaignStats,
    /// Index into `rounds` of the next round to enqueue.
    next_round: usize,
    /// Grid index of the in-flight round's first shard.
    round_base: usize,
    /// Per-shard deposit slots of the in-flight round (grid order).
    slots: Vec<Option<S>>,
    /// Shards of the in-flight round not yet deposited.
    outstanding: usize,
    done: bool,
}

/// What a completed round fold did to its job.
enum RoundEvent {
    /// The job continues with its next round.
    NextRound,
    /// The job is finished (grid exhausted or rule stopped).
    JobDone,
}

struct FleetInner<'a, S> {
    queue: VecDeque<WorkItem>,
    jobs: Vec<JobState<'a, S>>,
    remaining_jobs: usize,
    /// Set when a worker panicked outside the lock — wakes waiters so the
    /// scope can propagate the panic instead of deadlocking on the condvar.
    poisoned: bool,
}

struct FleetShared<'a, S> {
    inner: Mutex<FleetInner<'a, S>>,
    work_ready: Condvar,
}

fn lock<'g, 'a, S>(shared: &'g FleetShared<'a, S>) -> MutexGuard<'g, FleetInner<'a, S>> {
    // The `poisoned` flag (plus scope join) is the panic protocol; std's
    // mutex poisoning would only turn one panic into many.
    shared.inner.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Enqueues job `j`'s next [`job_rounds`] range (with the lock held). Must
/// only be called while the job has rounds left.
fn enqueue_round<S>(inner: &mut FleetInner<'_, S>, j: usize) {
    let st = &mut inner.jobs[j];
    let range = st.rounds[st.next_round].clone();
    st.next_round += 1;
    let count = range.len();
    debug_assert!(count > 0, "job_rounds never emits an empty round");
    st.round_base = range.start;
    st.slots.clear();
    st.slots.resize_with(count, || None);
    st.outstanding = count;
    for (i, grid_idx) in range.enumerate() {
        inner.queue.push_back(WorkItem {
            job: j,
            slot: i,
            grid_idx,
        });
    }
}

/// Books a completed (lock-free) round fold back into its job's state and
/// consults the stopping rule — mirroring the standalone round-checkpointed
/// driver's checkpoint statement for statement. Called with the lock held.
fn finish_round<S: MergeableSink>(
    inner: &mut FleetInner<'_, S>,
    job: usize,
    acc: S,
    fixed_traces: usize,
    random_traces: usize,
) -> RoundEvent {
    let st = &mut inner.jobs[job];
    st.acc = Some(acc);
    st.stats.fixed_traces += fixed_traces;
    st.stats.random_traces += random_traces;
    st.stats.rounds += 1;
    if st.stats.rounds < st.rounds.len() {
        let checkpoint = Checkpoint {
            sink: st.acc.as_ref().expect("non-empty round folds a sink"),
            round: st.stats.rounds,
            planned_rounds: st.rounds.len(),
            fixed_traces: st.stats.fixed_traces,
            random_traces: st.stats.random_traces,
            planned_fixed: st.planned_fixed,
            planned_random: st.planned_random,
        };
        if st.rule.should_stop(&checkpoint) {
            st.stats.stopped_early = true;
            st.done = true;
            RoundEvent::JobDone
        } else {
            RoundEvent::NextRound
        }
    } else {
        st.done = true;
        RoundEvent::JobDone
    }
}

/// Marks a worker panic in the shared state on unwind so waiting workers
/// exit (and the scope can re-raise the panic) instead of sleeping forever.
struct PanicSentry<'g, 'a, S> {
    shared: &'g FleetShared<'a, S>,
    armed: bool,
}

impl<S> Drop for PanicSentry<'_, '_, S> {
    fn drop(&mut self) {
        if self.armed {
            lock(self.shared).poisoned = true;
            self.shared.work_ready.notify_all();
        }
    }
}

/// The shared worker loop: pull a shard of *any* job, simulate it into a
/// fresh private sink, deposit; the round-completing deposit folds the
/// round and schedules the job's next round (or retires the job).
///
/// With an enabled `recorder` the loop reports, per item, the queue state
/// it observed ([`Payload::QueueDepth`]) and the item's phase-split timing
/// ([`Payload::WorkItem`] — its `thread` stamp is the job-interleave
/// signal), plus one [`Payload::WorkerSummary`] when the worker exits.
/// Recording never touches scheduling or fold state, so outcomes stay
/// byte-identical to the untraced fleet.
fn worker_loop<S: MergeableSink + Default>(
    shared: &FleetShared<'_, S>,
    engines: &[Engine<'_>],
    grids: &[Vec<ShardSpec>],
    factories: &[Option<SinkFactory<'_, S>>],
    recorder: &dyn Recorder,
) {
    let tracing = recorder.enabled();
    let t_loop = if tracing { Some(Instant::now()) } else { None };
    let mut items = 0u64;
    let mut busy_ns = 0u64;
    // Block buffers for every item this worker runs, whatever its job:
    // `run_range_timed` resizes them per engine.
    let mut scratch = BlockScratch::default();
    'worker: loop {
        let (item, queue_obs) = {
            let mut guard = lock(shared);
            loop {
                if guard.poisoned || guard.remaining_jobs == 0 {
                    break 'worker;
                }
                if let Some(item) = guard.queue.pop_front() {
                    let obs =
                        tracing.then(|| (guard.queue.len() as u64, guard.remaining_jobs as u64));
                    break (item, obs);
                }
                guard = shared
                    .work_ready
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if let Some((depth, jobs_remaining)) = queue_obs {
            recorder.record(Payload::QueueDepth {
                depth,
                jobs_remaining,
            });
        }

        let mut sentry = PanicSentry {
            shared,
            armed: true,
        };
        let shard = grids[item.job][item.grid_idx];
        let mut sink = match &factories[item.job] {
            Some(f) => f(),
            None => S::default(),
        };
        let mut timer = PhaseTimer::new(tracing);
        let t_item = timer.begin();
        engines[item.job].run_range_timed(
            shard.population(),
            shard.start(),
            shard.count(),
            &mut sink,
            &mut scratch,
            &mut timer,
        );
        if let Some(t0) = t_item {
            let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            items += 1;
            busy_ns += wall_ns;
            recorder.record(Payload::WorkItem {
                job: item.job as u64,
                grid_index: item.grid_idx as u64,
                count: shard.count() as u64,
                wall_ns,
                rng_ns: timer.nanos(Phase::Rng),
                sim_ns: timer.nanos(Phase::Simulate),
                acc_ns: timer.nanos(Phase::Accumulate),
            });
        }

        let mut guard = lock(shared);
        let st = &mut guard.jobs[item.job];
        debug_assert!(st.slots[item.slot].is_none(), "double deposit");
        st.slots[item.slot] = Some(sink);
        st.outstanding -= 1;
        if st.outstanding == 0 {
            // Round complete. Exactly this worker owns the round now (no
            // item of the job is queued or in flight), so the deterministic
            // grid-order fold can run OUTSIDE the lock — dense-sink merges
            // are a real fraction of simulation cost, and other jobs'
            // workers must keep popping work meanwhile.
            let slots = std::mem::take(&mut st.slots);
            let mut acc = st.acc.take();
            let round_base = st.round_base;
            drop(guard);

            let t_fold = if tracing { Some(Instant::now()) } else { None };
            let grid = &grids[item.job];
            let (mut fixed_traces, mut random_traces) = (0usize, 0usize);
            for (i, slot) in slots.into_iter().enumerate() {
                let shard = grid[round_base + i];
                let sink = slot.expect("a completed round has every slot deposited");
                match &mut acc {
                    None => acc = Some(sink),
                    Some(a) => a.merge(sink),
                }
                match shard.population() {
                    Population::Fixed => fixed_traces += shard.count(),
                    Population::Random => random_traces += shard.count(),
                }
            }
            if let Some(t0) = t_fold {
                busy_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }

            guard = lock(shared);
            let acc = acc.expect("non-empty round folds a sink");
            match finish_round(&mut guard, item.job, acc, fixed_traces, random_traces) {
                RoundEvent::NextRound => {
                    enqueue_round(&mut guard, item.job);
                    shared.work_ready.notify_all();
                }
                RoundEvent::JobDone => {
                    guard.remaining_jobs -= 1;
                    if guard.remaining_jobs == 0 {
                        shared.work_ready.notify_all();
                    }
                }
            }
        }
        drop(guard);
        sentry.armed = false;
    }
    if let Some(t0) = t_loop {
        recorder.record(Payload::WorkerSummary {
            items,
            busy_ns,
            wall_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
    }
}

/// Executes every job of a fleet on one shared worker pool and returns the
/// per-job outcomes **in job order**.
///
/// Shards of different jobs interleave freely on the pool's threads; each
/// job's accumulator is folded in its canonical shard order at its own round
/// boundaries, so every outcome is byte-identical to the job's standalone
/// [`run_campaign_parallel`](crate::campaign::run_campaign_parallel) (or,
/// for jobs with a rule,
/// [`run_campaign_adaptive`](crate::campaign::run_campaign_adaptive)) run —
/// at any thread count and in any job mix. A round's fold runs lock-free on
/// the worker that deposited its last shard (that worker owns the round
/// exclusively); only the bookkeeping and rule evaluation hold the
/// scheduler lock.
///
/// `parallelism` caps the pool; like the single-campaign engine, a
/// sequential budget (or a fleet with at most one concurrently runnable
/// shard) executes inline on the calling thread.
///
/// # Errors
///
/// Returns the first [`NetlistError`] hit while compiling a job's design
/// (no shard of any job runs in that case).
///
/// # Panics
///
/// Propagates worker panics.
pub fn run_fleet<S>(
    jobs: Vec<FleetJob<'_, S>>,
    parallelism: Parallelism,
) -> Result<Vec<CampaignOutcome<S>>, NetlistError>
where
    S: MergeableSink + Default,
{
    run_fleet_traced(jobs, parallelism, &NullRecorder)
}

/// [`run_fleet`] reporting structured trace events to `recorder`: per-item
/// queue depth, per-item phase-split timing (whose thread stamps expose the
/// job interleave), and one worker-utilization summary per pool thread.
/// Recording is strictly observational — outcomes stay byte-identical to
/// [`run_fleet`] at any worker count and in any job mix.
///
/// # Errors
///
/// Returns the first [`NetlistError`] hit while compiling a job's design.
///
/// # Panics
///
/// Propagates worker panics.
pub fn run_fleet_traced<S>(
    jobs: Vec<FleetJob<'_, S>>,
    parallelism: Parallelism,
    recorder: &dyn Recorder,
) -> Result<Vec<CampaignOutcome<S>>, NetlistError>
where
    S: MergeableSink + Default,
{
    // Decompose the jobs: engines borrow the configs, mutable rule state
    // moves behind the scheduler mutex.
    let n_jobs = jobs.len();
    let mut configs = Vec::with_capacity(n_jobs);
    let mut factories = Vec::with_capacity(n_jobs);
    let mut parts = Vec::with_capacity(n_jobs);
    for job in jobs {
        configs.push(job.config);
        factories.push(job.factory);
        parts.push((job.netlist, job.power, job.rule, job.shards_per_round));
    }
    let mut engines = Vec::with_capacity(n_jobs);
    let mut states = Vec::with_capacity(n_jobs);
    let mut remaining_jobs = 0usize;
    // Worker budget: per job at most one round — `shards_per_round` shards —
    // is ever in flight, so no thread beyond the fleet's peak runnable-shard
    // count can find work.
    let mut concurrency = 0usize;
    for ((netlist, power, rule, shards_per_round), config) in parts.into_iter().zip(&configs) {
        engines.push(Engine::new(
            netlist,
            power,
            config,
            parallelism.lane_words(),
        )?);
        let n_shards = shard_grid(config).len();
        let rounds = job_rounds(n_shards, shards_per_round);
        concurrency += n_shards.min(shards_per_round.max(1));
        let done = rounds.is_empty();
        remaining_jobs += usize::from(!done);
        states.push(JobState {
            rule,
            planned_fixed: config.n_fixed,
            planned_random: config.n_random,
            acc: None,
            stats: CampaignStats {
                planned_rounds: rounds.len(),
                ..CampaignStats::default()
            },
            rounds,
            next_round: 0,
            round_base: 0,
            slots: Vec::new(),
            outstanding: 0,
            done,
        });
    }
    let grids: Vec<Vec<ShardSpec>> = configs.iter().map(shard_grid).collect();

    let shared = FleetShared {
        inner: Mutex::new(FleetInner {
            queue: VecDeque::new(),
            jobs: states,
            remaining_jobs,
            poisoned: false,
        }),
        work_ready: Condvar::new(),
    };
    {
        let mut inner = lock(&shared);
        for j in 0..n_jobs {
            if !inner.jobs[j].done {
                enqueue_round(&mut inner, j);
            }
        }
    }

    let threads = parallelism.threads().min(concurrency.max(1));
    if remaining_jobs > 0 {
        if threads <= 1 {
            // Inline path: the queue only drains when every job is done, so
            // a single worker never waits on the condvar.
            worker_loop(&shared, &engines, &grids, &factories, recorder);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| worker_loop(&shared, &engines, &grids, &factories, recorder));
                }
            });
        }
    }

    let inner = shared
        .inner
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    assert!(
        !inner.poisoned && inner.remaining_jobs == 0,
        "fleet pool exited with unfinished jobs"
    );
    Ok(inner
        .jobs
        .into_iter()
        .map(|st| CampaignOutcome {
            sink: st.acc.unwrap_or_default(),
            stats: st.stats,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{
        collect_gate_samples_parallel, run_campaign_adaptive, run_campaign_parallel, GateSamples,
        TraceSink, DEFAULT_SHARDS_PER_ROUND,
    };
    use polaris_netlist::generators;

    #[test]
    fn job_rounds_tile_the_grid() {
        for (n, spr) in [
            (0usize, 4usize),
            (1, 4),
            (7, 2),
            (8, 4),
            (9, 4),
            (5, usize::MAX),
        ] {
            let rounds = job_rounds(n, spr);
            let mut next = 0usize;
            for r in &rounds {
                assert_eq!(r.start, next);
                assert!(r.end > r.start && r.end - r.start <= spr.max(1));
                next = r.end;
            }
            assert_eq!(next, n);
        }
        assert!(job_rounds(0, 1).is_empty());
        // spr == 0 is clamped to 1, matching the standalone driver.
        assert_eq!(job_rounds(3, 0).len(), 3);
    }

    #[test]
    fn heterogeneous_fleet_matches_standalone_runs() {
        let c17 = generators::iscas_c17();
        let c432 = generators::iscas_like("c432", 1, 5).unwrap();
        let model = PowerModel::default();
        let cfg_a = CampaignConfig::new(700, 900, 21);
        let cfg_b = CampaignConfig::new(450, 333, 9);

        let solo_a: GateSamples =
            run_campaign_parallel(&c17, &model, &cfg_a, Parallelism::new(2)).unwrap();
        let solo_b: GateSamples =
            run_campaign_parallel(&c432, &model, &cfg_b, Parallelism::new(2)).unwrap();

        for threads in [1usize, 2, 3, 8] {
            let jobs = vec![
                FleetJob::<GateSamples>::new(&c17, &model, cfg_a.clone()),
                FleetJob::<GateSamples>::new(&c432, &model, cfg_b.clone()),
            ];
            let outcomes = run_fleet(jobs, Parallelism::new(threads)).unwrap();
            assert_eq!(outcomes.len(), 2);
            for id in c17.ids() {
                assert_eq!(outcomes[0].sink.fixed(id), solo_a.fixed(id), "{threads}");
                assert_eq!(outcomes[0].sink.random(id), solo_a.random(id), "{threads}");
            }
            for id in c432.ids() {
                assert_eq!(outcomes[1].sink.fixed(id), solo_b.fixed(id), "{threads}");
                assert_eq!(outcomes[1].sink.random(id), solo_b.random(id), "{threads}");
            }
            assert!(!outcomes[0].stats.stopped_early);
            assert_eq!(outcomes[0].stats.fixed_traces, 700);
            assert_eq!(outcomes[0].stats.random_traces, 900);
            assert_eq!(
                outcomes[0].stats.rounds, 1,
                "non-adaptive jobs run as one round"
            );
        }
    }

    /// Test rule: stop unconditionally after a fixed number of rounds.
    struct StopAfter(usize);

    impl<S> StoppingRule<S> for StopAfter {
        fn should_stop(&mut self, c: &Checkpoint<'_, S>) -> bool {
            c.round >= self.0
        }
    }

    #[test]
    fn adaptive_job_stops_at_the_standalone_round_mid_fleet() {
        let c17 = generators::iscas_c17();
        let model = PowerModel::default();
        let adaptive_cfg = CampaignConfig::new(1200, 1200, 21);
        let filler_cfg = CampaignConfig::new(600, 600, 3);

        let solo: CampaignOutcome<GateSamples> = run_campaign_adaptive(
            &c17,
            &model,
            &adaptive_cfg,
            Parallelism::new(2),
            2,
            &mut StopAfter(2),
        )
        .unwrap();
        assert!(solo.stats.stopped_early);

        for threads in [1usize, 2, 8] {
            let jobs = vec![
                FleetJob::<GateSamples>::new(&c17, &model, filler_cfg.clone()),
                FleetJob::new(&c17, &model, adaptive_cfg.clone()).with_rule(StopAfter(2), 2),
            ];
            let outcomes = run_fleet(jobs, Parallelism::new(threads)).unwrap();
            assert_eq!(outcomes[1].stats, solo.stats, "{threads} threads");
            for id in c17.ids() {
                assert_eq!(outcomes[1].sink.fixed(id), solo.sink.fixed(id));
                assert_eq!(outcomes[1].sink.random(id), solo.sink.random(id));
            }
        }
    }

    #[test]
    fn empty_and_one_sided_jobs_resolve() {
        let c17 = generators::iscas_c17();
        let model = PowerModel::default();
        let jobs = vec![
            FleetJob::<GateSamples>::new(&c17, &model, CampaignConfig::new(0, 0, 1)),
            FleetJob::<GateSamples>::new(&c17, &model, CampaignConfig::new(0, 300, 4)),
        ];
        let outcomes = run_fleet(jobs, Parallelism::new(4)).unwrap();
        assert_eq!(outcomes[0].stats, CampaignStats::default());
        assert_eq!(outcomes[0].sink.gate_count(), 0);
        assert_eq!(outcomes[1].stats.random_traces, 300);
        let solo: GateSamples = run_campaign_parallel(
            &c17,
            &model,
            &CampaignConfig::new(0, 300, 4),
            Parallelism::new(4),
        )
        .unwrap();
        for id in c17.ids() {
            assert_eq!(outcomes[1].sink.random(id), solo.random(id));
        }
        let none: Vec<CampaignOutcome<GateSamples>> =
            run_fleet(Vec::new(), Parallelism::new(4)).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn sink_factory_preallocates_without_changing_results() {
        let c17 = generators::iscas_c17();
        let model = PowerModel::default();
        let cfg = CampaignConfig::new(300, 300, 7);
        let gates = c17.gate_count();
        let solo: GateSamples =
            run_campaign_parallel(&c17, &model, &cfg, Parallelism::new(2)).unwrap();
        let job = FleetJob::new(&c17, &model, cfg)
            .with_sink_factory(move || GateSamples::with_capacity(gates, 256, 256));
        let outcomes = run_fleet(vec![job], Parallelism::new(2)).unwrap();
        for id in c17.ids() {
            assert_eq!(outcomes[0].sink.fixed(id), solo.fixed(id));
            assert_eq!(outcomes[0].sink.random(id), solo.random(id));
        }
    }

    /// Sink counting traces per population — cheap probe for scheduling
    /// bookkeeping.
    #[derive(Default)]
    struct CountProbe {
        fixed: usize,
        random: usize,
    }

    impl TraceSink for CountProbe {
        fn record_batch(&mut self, pop: Population, batch: crate::campaign::EnergyBatch<'_>) {
            match pop {
                Population::Fixed => self.fixed += batch.lanes(),
                Population::Random => self.random += batch.lanes(),
            }
        }
    }

    impl MergeableSink for CountProbe {
        fn merge(&mut self, other: Self) {
            self.fixed += other.fixed;
            self.random += other.random;
        }
    }

    #[test]
    fn no_shard_is_lost_or_duplicated_across_a_mixed_fleet() {
        let c17 = generators::iscas_c17();
        let model = PowerModel::default();
        let sizes = [(513usize, 0usize), (1, 1), (300, 1000), (0, 257)];
        for threads in [1usize, 3, 8] {
            let jobs: Vec<FleetJob<CountProbe>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &(nf, nr))| {
                    let job =
                        FleetJob::new(&c17, &model, CampaignConfig::new(nf, nr, i as u64 + 1));
                    if i % 2 == 0 {
                        job.with_rule(NeverStop, DEFAULT_SHARDS_PER_ROUND)
                    } else {
                        job
                    }
                })
                .collect();
            let outcomes = run_fleet(jobs, Parallelism::new(threads)).unwrap();
            for (outcome, &(nf, nr)) in outcomes.iter().zip(&sizes) {
                assert_eq!(outcome.sink.fixed, nf, "{threads} threads");
                assert_eq!(outcome.sink.random, nr, "{threads} threads");
                assert_eq!(outcome.stats.fixed_traces, nf);
                assert_eq!(outcome.stats.random_traces, nr);
            }
        }
    }

    #[test]
    fn fleet_dense_collection_matches_collect_gate_samples_parallel() {
        let c17 = generators::iscas_c17();
        let model = PowerModel::default();
        let cfg = CampaignConfig::new(100, 130, 1);
        let solo = collect_gate_samples_parallel(&c17, &model, &cfg, Parallelism::new(2)).unwrap();
        let outcomes = run_fleet(
            vec![FleetJob::<GateSamples>::new(&c17, &model, cfg)],
            Parallelism::new(2),
        )
        .unwrap();
        for id in c17.ids() {
            assert_eq!(outcomes[0].sink.fixed(id), solo.fixed(id));
            assert_eq!(outcomes[0].sink.random(id), solo.random(id));
        }
    }
}
