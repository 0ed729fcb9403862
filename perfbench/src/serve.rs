//! `serve`: the assessment service driven in-process through its public
//! API. One client keeps at most [`WINDOW`] submissions outstanding against
//! one in-process worker, closed loop: `Submission` → `Coordinator::submit`
//! → `next_task` → `TaskSpec::execute` → `complete_task` → `job_status`,
//! with every message framed through `proto::Message` in memory. The cache
//! starts empty on every run.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use polaris_dist::{
    Coordinator, DesignFormat, JobResult, JobStatus, Message, ResultOrigin, Submission,
    SubmitOutcome, TaskSpec, PROTO_VERSION,
};
use polaris_netlist::{generators, write_bench, GateId, Netlist};
use polaris_obs::SharedRecorder;
use polaris_sim::{Parallelism, PowerModel};
use polaris_tvla::{
    assess_parallel_traced, campaign_outcome_adaptive_traced, GateLeakage, SequentialConfig,
};

use crate::layers::{overhead_metrics, timed, EngineSplit, SpanLog};
use crate::stats::{median, required_percentile, windowed_percentile, Tally};
use crate::{Report, RunConfig, SeedStream};

/// Setups before the measured phase. Every service restart is one more, so
/// the sub-millisecond setup is sampled across the whole run like every
/// other figure; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 11;
/// Submissions the client keeps outstanding.
const WINDOW: usize = 2;
/// Generated designs fresh submissions cycle through (ISCAS-85-like, scale
/// 1, generator seed 7 as the CLI defaults). `--seed` drives every campaign
/// seed and which finished job each repeat resubmits.
const POOL: [&str; 4] = ["c432", "c499", "c880", "c1355"];
const DESIGN_SEED: u64 = 7;
/// Traces per class of every submission (the budget, for adaptive ones).
const TRACES: usize = 2_000;
/// Adaptive clean-verdict confidence.
const CONFIDENCE: f64 = 0.95;
/// Blocks per service epoch. At each epoch start the client drains its
/// window and the service restarts with an empty cache, so memory does not
/// grow with the number of jobs a run gets through.
const EPOCH_BLOCKS: usize = 10;
/// Latencies per percentile window: two epochs, so five turns of the
/// design cycle (four designs, three fresh submissions per block) and the
/// same mix in every window.
const LATENCY_WINDOW: usize = 2 * EPOCH_BLOCKS * BLOCK.len();

/// What each position of a six-submission block is. Two of six are exact
/// repeats of finished jobs (cache hits), one duplicates the submission
/// before it while that is still running (coalesced), three are computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Fresh { adaptive: bool },
    Repeat,
    Duplicate,
}

const BLOCK: [Kind; 6] = [
    Kind::Fresh { adaptive: false },
    Kind::Fresh { adaptive: true },
    Kind::Repeat,
    Kind::Fresh { adaptive: false },
    Kind::Duplicate,
    Kind::Repeat,
];

/// Everything that distinguishes one submitted campaign from another.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Campaign {
    design: usize,
    seed: u64,
    adaptive: bool,
}

/// The client's seeded submission stream.
struct Stream {
    rng: SeedStream,
    pool: Vec<(String, String)>,
    /// Fresh campaigns of the current epoch, in submission order.
    fresh: Vec<Campaign>,
    /// Fresh campaigns over the whole run; they cycle through the pool.
    fresh_total: usize,
    next: usize,
}

impl Stream {
    fn at_block_start(&self) -> bool {
        self.next.is_multiple_of(BLOCK.len())
    }

    fn block(&self) -> usize {
        self.next / BLOCK.len()
    }

    fn next(&mut self) -> Campaign {
        let kind = BLOCK[self.next % BLOCK.len()];
        self.next += 1;
        match kind {
            Kind::Fresh { adaptive } => {
                let c = Campaign {
                    design: self.fresh_total % self.pool.len(),
                    seed: self.rng.next_u64(),
                    adaptive,
                };
                self.fresh_total += 1;
                self.fresh.push(c);
                c
            }
            Kind::Duplicate => *self.fresh.last().expect("a fresh submission came first"),
            // Any fresh submission but the latest, which may still run:
            // jobs finish in submission order, so every earlier one is done.
            Kind::Repeat => self.fresh[self.rng.below(self.fresh.len() - 1)],
        }
    }

    fn submission(&self, c: Campaign) -> Submission {
        let (name, source) = &self.pool[c.design];
        Submission {
            tenant: "bench".into(),
            name: name.clone(),
            format: DesignFormat::Bench,
            traces: TRACES,
            seed: c.seed,
            cycles: 1,
            glitch: false,
            adaptive: c.adaptive,
            confidence: CONFIDENCE,
            source: source.clone(),
        }
    }
}

/// The fixed design sources, rendered as `.bench` text.
fn design_pool() -> Vec<(String, String)> {
    POOL.iter()
        .map(|&name| {
            let n: Netlist = generators::iscas_like(name, 1, DESIGN_SEED).expect("known design");
            (name.to_string(), write_bench(&n))
        })
        .collect()
}

/// Service setup: the client's design sources, a fresh coordinator (empty
/// cache) and its registered worker.
fn setup(recorder: &SharedRecorder) -> (Vec<(String, String)>, Coordinator, u64) {
    let pool = design_pool();
    let mut coordinator = Coordinator::new(recorder.clone());
    let worker = coordinator.register_worker("bench-worker");
    (pool, coordinator, worker)
}

/// Per-call timings of the service layers, in seconds.
#[derive(Default)]
struct LayerTimes {
    submit: Vec<f64>,
    lease: Vec<f64>,
    execute: Vec<f64>,
    complete: Vec<f64>,
    frame: Vec<f64>,
    /// Manifest parsing and status polls: covered time with no metric.
    other: f64,
    frame_bytes: usize,
}

impl LayerTimes {
    /// Encodes `msg` and decodes it back, as a socket peer would see it.
    fn frame(&mut self, msg: &Message) -> Result<Message, String> {
        let (secs, out) = timed(|| -> Result<(Message, usize), String> {
            let mut wire = Vec::new();
            msg.write_to(&mut wire).map_err(|e| e.to_string())?;
            let back = Message::read_from(&mut wire.as_slice())
                .map_err(|e| e.to_string())?
                .ok_or("empty frame")?;
            Ok((back, wire.len()))
        });
        self.frame.push(secs);
        let (back, bytes) = out?;
        self.frame_bytes += bytes;
        Ok(back)
    }

    fn total(&self) -> f64 {
        [
            &self.submit,
            &self.lease,
            &self.execute,
            &self.complete,
            &self.frame,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum::<f64>()
            + self.other
    }
}

/// The client's record of one served result.
struct Served {
    campaign: Campaign,
    origin: ResultOrigin,
    fixed: u64,
    random: u64,
    /// FNV-1a digest of the t-value bits.
    digest: u64,
}

/// FNV-1a over 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// The result artifact: one `gate,t-bits` line per gate, so the client can
/// compare bit for bit.
fn render_result(result: &JobResult) -> Vec<u8> {
    let leakage = result.sink.leakage();
    let mut out = String::new();
    for g in 0..leakage.gate_count() {
        out.push_str(&format!(
            "{g},{:016x}\n",
            leakage.result(GateId::new(g)).t.to_bits()
        ));
    }
    out.into_bytes()
}

fn parse_result(blob: &[u8]) -> Result<Vec<u64>, String> {
    std::str::from_utf8(blob)
        .map_err(|e| e.to_string())?
        .lines()
        .map(|line| {
            let (_, bits) = line.split_once(',').ok_or("result line without comma")?;
            u64::from_str_radix(bits, 16).map_err(|e| e.to_string())
        })
        .collect()
}

fn result_message(result: &JobResult, origin: ResultOrigin) -> Message {
    Message::Result {
        origin,
        fixed: result.stats.fixed_traces as u64,
        random: result.stats.random_traces as u64,
        rounds: result.stats.rounds as u64,
        stopped_early: result.stats.stopped_early,
        blob: render_result(result),
    }
}

/// One in-flight submission.
struct Pending {
    job: u64,
    campaign: Campaign,
    submitted: Instant,
    /// Attached to an identical job already running.
    coalesced: bool,
}

pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let par = Parallelism::new(cfg.threads);
    let log = SpanLog::new();
    let recorder: SharedRecorder = log.clone();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (secs, out) = timed(|| setup(&recorder));
        setup_s.push(secs);
        built = Some(out);
    }
    let (pool, mut coordinator, mut worker) = built.expect("SETUP_REPS > 0");
    let pool_gates: Vec<String> = pool
        .iter()
        .map(|(name, src)| {
            DesignFormat::Bench
                .parse(src)
                .map(|n| format!("{name}:{}", n.gate_count()))
                .unwrap_or_else(|e| format!("{name}:{e}"))
        })
        .collect();
    let mut stream = Stream {
        rng: SeedStream::new(cfg.seed, 0x5E7E),
        pool,
        fresh: Vec::new(),
        fresh_total: 0,
        next: 0,
    };

    let mut tally = Tally::default();
    let mut times = LayerTimes::default();
    let mut served: Vec<Served> = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut hit_latencies_ms = Vec::new();
    let mut walls = [Vec::new(), Vec::new()]; // [untraced, traced]
    let mut pending: Vec<Pending> = Vec::new();
    let (mut hits, mut coalesced, mut jobs, mut leases, mut requeued) = (0usize, 0, 0, 0, 0);
    let mut traces = 0u64;
    let mut block_start: Option<(Instant, bool)> = None;
    // Start of the current epoch and the traces computed before it.
    let mut epoch: Option<(Instant, u64)> = None;
    let mut epoch_rates = Vec::new();
    // Time spent checking results, which is not measured.
    let mut checking = 0.0;
    let start = Instant::now();
    loop {
        // Client: keep the window full; stop only at a block boundary.
        while pending.len() < WINDOW {
            if stream.at_block_start() {
                let epoch_start = stream.block() > 0 && stream.block().is_multiple_of(EPOCH_BLOCKS);
                if epoch_start && !pending.is_empty() {
                    break; // drain the window before the restart
                }
                if let Some((t0, traced)) = block_start.take() {
                    walls[usize::from(traced)].push(t0.elapsed().as_secs_f64());
                }
                if stream.block().is_multiple_of(EPOCH_BLOCKS) {
                    if let Some((t0, before)) = epoch.take() {
                        epoch_rates.push((traces - before) as f64 / t0.elapsed().as_secs_f64());
                        // Check the finished epoch between epochs, so the
                        // measured ones spread over the whole run and sample
                        // more of the host's slow and fast stretches.
                        log.set_on(cfg.trace);
                        let (secs, checked) = timed(|| {
                            check_served(&mut served, &stream, par, &recorder, &mut tally)
                        });
                        checking += secs;
                        checked?;
                    }
                }
                if start.elapsed().as_secs_f64() - checking >= cfg.seconds
                    && latencies_ms.len() >= LATENCY_WINDOW
                {
                    break;
                }
                if epoch_start {
                    let (secs, (_, c, w)) = timed(|| setup(&recorder));
                    setup_s.push(secs);
                    (coordinator, worker) = (c, w);
                    stream.fresh.clear();
                }
                if stream.block().is_multiple_of(EPOCH_BLOCKS) {
                    epoch = Some((Instant::now(), traces));
                }
                // Fresh submissions cycle through the pool three per block,
                // so the work repeats every POOL.len() blocks: traced and
                // untraced groups of that many blocks see the same mix.
                let traced = cfg.trace && (stream.block() / POOL.len()) % 2 == 1;
                log.set_on(traced);
                block_start = Some((Instant::now(), traced));
            }
            let campaign = stream.next();
            let sub = stream.submission(campaign);
            let submitted = Instant::now();
            let msg = times.frame(&Message::Submit {
                version: PROTO_VERSION,
                blob: sub.render(),
            })?;
            let Message::Submit { blob, .. } = msg else {
                return Err("SUBMIT frame decoded as another message".into());
            };
            let (secs, parsed) = timed(|| Submission::parse(&blob));
            times.other += secs;
            let parsed = parsed.map_err(|e| e.to_string())?;
            let (secs, outcome) = timed(|| coordinator.submit(&parsed));
            times.submit.push(secs);
            match outcome.map_err(|e| e.to_string())? {
                SubmitOutcome::Cached(result) => {
                    hits += 1;
                    deliver(
                        &mut times,
                        &mut served,
                        campaign,
                        &result,
                        ResultOrigin::Cached,
                    )?;
                    let ms = submitted.elapsed().as_secs_f64() * 1e3;
                    latencies_ms.push(ms);
                    hit_latencies_ms.push(ms);
                }
                SubmitOutcome::Queued {
                    job,
                    coalesced: joined,
                } => {
                    if joined {
                        coalesced += 1;
                    } else {
                        jobs += 1;
                    }
                    pending.push(Pending {
                        job,
                        campaign,
                        submitted,
                        coalesced: joined,
                    });
                }
            }
        }
        if pending.is_empty() {
            break;
        }

        // Worker: one lease, executed and returned.
        let (secs, task) = timed(|| coordinator.next_task(worker));
        times.lease.push(secs);
        let (lease, spec) = task.ok_or("jobs are outstanding but no task was leased")?;
        leases += 1;
        let Message::Task { blob, .. } = times.frame(&Message::Task {
            task: lease,
            blob: spec.render(),
        })?
        else {
            return Err("TASK frame decoded as another message".into());
        };
        let (secs, spec) = timed(|| TaskSpec::parse(&blob));
        times.other += secs;
        let spec = spec.map_err(|e| e.to_string())?;
        let (secs, part) = timed(|| spec.execute(par));
        times.execute.push(secs);
        let part = part.map_err(|e| e.to_string())?;
        let Message::Done { blob, .. } = times.frame(&Message::Done {
            task: lease,
            blob: part,
        })?
        else {
            return Err("DONE frame decoded as another message".into());
        };
        let (secs, done) = timed(|| coordinator.complete_task(lease, &blob));
        times.complete.push(secs);
        if let Err(e) = done {
            eprintln!("serve: lease {lease} re-queued: {e}");
            requeued += 1;
        }

        // Client: collect finished jobs.
        let mut still = Vec::with_capacity(pending.len());
        for p in pending.drain(..) {
            let (secs, status) = timed(|| coordinator.job_status(p.job));
            times.other += secs;
            match status {
                JobStatus::Running => still.push(p),
                JobStatus::Done(result) => {
                    let origin = if p.coalesced {
                        ResultOrigin::Coalesced
                    } else {
                        traces += (result.stats.fixed_traces + result.stats.random_traces) as u64;
                        ResultOrigin::Computed
                    };
                    deliver(&mut times, &mut served, p.campaign, &result, origin)?;
                    latencies_ms.push(p.submitted.elapsed().as_secs_f64() * 1e3);
                }
                other => {
                    eprintln!("serve: job {} ended as {other:?}", p.job);
                    tally.record(false);
                    latencies_ms.push(p.submitted.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        pending = still;
    }
    let measured_s = start.elapsed().as_secs_f64() - checking;
    if epoch_rates.is_empty() {
        return Err("serve: the run ended before its first epoch did".into());
    }
    log.set_on(cfg.trace);
    check_served(&mut served, &stream, par, &recorder, &mut tally)?;
    log.set_on(false);
    let submissions = stream.next;

    let mut report = Report::new(tally);
    report.input("pool", pool_gates.join(" "));
    report.input("traces_per_class", TRACES);
    report.input("window", WINDOW);
    report.input("submissions", submissions);
    report.input("computed_jobs", jobs);
    report.input("cache_hits", hits);
    report.input("coalesced", coalesced);
    report.input("latency_samples", latencies_ms.len());
    report.input("latency_window", LATENCY_WINDOW);
    report.input("epochs", epoch_rates.len());
    report.input("hit_latency_samples", hit_latencies_ms.len());

    if !cfg.trace {
        report.values = vec![
            ("setup_s", median(&setup_s)),
            ("wall_s", median(&walls[0])),
            ("traces_per_s", median(&epoch_rates)),
            (
                "latency_p50_ms",
                windowed_percentile("latency_p50_ms", &latencies_ms, LATENCY_WINDOW, 0.5)?,
            ),
            (
                "latency_p90_ms",
                windowed_percentile("latency_p90_ms", &latencies_ms, LATENCY_WINDOW, 0.9)?,
            ),
        ];
        return Ok(report);
    }

    let split = EngineSplit::from_events(&log.events());
    let mut values = split.metrics(cfg.threads);
    values.push((
        "campaign.gate_samples",
        split.gate_samples as f64 / split.campaigns.max(1) as f64,
    ));
    let us = |v: &[f64]| median(v) * 1e6;
    values.extend([
        ("dist.submit_us", us(&times.submit)),
        ("dist.complete_us", us(&times.complete)),
        ("dist.lease_us", us(&times.lease)),
        ("proto.frame_us", us(&times.frame)),
        ("proto.bytes", times.frame_bytes as f64 / submissions as f64),
        ("dist.execute_ms", median(&times.execute) * 1e3),
        ("dist.cache_hit_ratio", hits as f64 / submissions as f64),
        (
            "dist.coalesced_ratio",
            coalesced as f64 / submissions as f64,
        ),
        ("dist.leases", leases as f64 / jobs.max(1) as f64),
        ("dist.requeued", requeued as f64),
        (
            "hit_latency_p50_ms",
            required_percentile("hit_latency_p50_ms", &hit_latencies_ms, 0.5)?,
        ),
        ("coverage.wall_pct", 100.0 * times.total() / measured_s),
    ]);
    values.extend(overhead_metrics(&walls[0], &walls[1]));
    values.push(("fail_ratio", report.tally.fail_ratio()));
    report.values = values;
    Ok(report)
}

/// Checks every served t-map against a solo in-process run of its
/// campaign (one per distinct campaign) and clears `served`.
fn check_served(
    served: &mut Vec<Served>,
    stream: &Stream,
    par: Parallelism,
    recorder: &SharedRecorder,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut solo: HashMap<Campaign, (u64, u64, u64)> = HashMap::new();
    for s in served.drain(..) {
        let reference = match solo.entry(s.campaign) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let sub = stream.submission(s.campaign);
                *e.insert(solo_run(&sub, par, recorder.clone())?)
            }
        };
        let ok = reference == (s.digest, s.fixed, s.random);
        if !ok {
            eprintln!(
                "serve: {} result for {} seed {} differs from the solo run",
                s.origin.name(),
                stream.pool[s.campaign.design].0,
                s.campaign.seed
            );
        }
        tally.record(ok);
    }
    Ok(())
}

/// Frames the `Result` reply and keeps the client's decoded copy.
fn deliver(
    times: &mut LayerTimes,
    served: &mut Vec<Served>,
    campaign: Campaign,
    result: &Arc<JobResult>,
    origin: ResultOrigin,
) -> Result<(), String> {
    let Message::Result {
        origin,
        fixed,
        random,
        blob,
        ..
    } = times.frame(&result_message(result, origin))?
    else {
        return Err("RESULT frame decoded as another message".into());
    };
    served.push(Served {
        campaign,
        origin,
        fixed,
        random,
        digest: digest(parse_result(&blob)?),
    });
    Ok(())
}

/// A solo in-process assessment of a submission's campaign: digest of the
/// `t` bits and consumed trace counts. Fixed submissions use `assess_parallel`; adaptive
/// ones the in-process sequential engine the service replays.
fn solo_run(
    sub: &Submission,
    par: Parallelism,
    recorder: SharedRecorder,
) -> Result<(u64, u64, u64), String> {
    let netlist = sub.format.parse(&sub.source).map_err(|e| e.to_string())?;
    let power = PowerModel::default();
    let campaign = sub.campaign();
    let (leakage, fixed, random): (GateLeakage, usize, usize) = if sub.adaptive {
        let o = campaign_outcome_adaptive_traced(
            &netlist,
            &power,
            &campaign,
            par,
            &SequentialConfig::with_confidence(sub.confidence),
            recorder,
        )
        .map_err(|e| e.to_string())?;
        (
            o.sink.leakage(),
            o.stats.fixed_traces,
            o.stats.random_traces,
        )
    } else {
        let l = assess_parallel_traced(&netlist, &power, &campaign, par, recorder)
            .map_err(|e| e.to_string())?;
        (l, campaign.n_fixed, campaign.n_random)
    };
    let bits = (0..leakage.gate_count()).map(|g| leakage.result(GateId::new(g)).t.to_bits());
    Ok((digest(bits), fixed as u64, random as u64))
}
