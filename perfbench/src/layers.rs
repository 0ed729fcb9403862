//! Per-layer measurement: an in-memory span recorder for the engine's
//! existing `*_traced` entry points, and a stopwatch for timing calls into
//! a layer's public functions from the benchmark itself.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use polaris_obs::{Event, Payload, Recorder, TraceSummary};

/// A [`Recorder`] that keeps events in memory and can be switched off, so
/// one handle serves interleaved traced and untraced passes. Switched off it
/// behaves exactly like the null recorder: instrumentation sites skip their
/// clock reads.
pub struct SpanLog {
    on: AtomicBool,
    epoch: Instant,
    events: Mutex<Vec<Event>>,
}

impl SpanLog {
    /// A recorder that starts switched off.
    pub fn new() -> Arc<Self> {
        Arc::new(SpanLog {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        })
    }

    /// Switches recording on or off for the passes that follow.
    pub fn set_on(&self, on: bool) {
        // Relaxed: the flag publishes no other data, and every switch
        // happens between passes on the thread that starts them.
        self.on.store(on, Ordering::Relaxed);
    }

    /// Every event recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("span log poisoned").clone()
    }
}

impl Recorder for SpanLog {
    fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn record(&self, payload: Payload) {
        if !self.enabled() {
            return;
        }
        let event = Event {
            t_ns: u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            thread: polaris_obs::thread_ordinal(),
            payload,
        };
        self.events.lock().expect("span log poisoned").push(event);
    }
}

/// The campaign-engine figures read from a trace's spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineSplit {
    /// Gate-samples simulated: gates × traces summed over campaigns.
    pub gate_samples: u64,
    /// Campaigns that ran to their end.
    pub campaigns: u64,
    pub rng_ns: u64,
    pub sim_ns: u64,
    pub acc_ns: u64,
    pub fold_ns: u64,
    pub shard_wall_ns: u64,
    pub phases_ns: u64,
    /// Summed wall time of the campaigns.
    pub campaign_wall_ns: u64,
}

impl EngineSplit {
    /// Aggregates the spans of campaigns that ran one after another (each
    /// `campaign_start` is closed by the next `campaign_end`).
    pub fn from_events(events: &[Event]) -> EngineSplit {
        let summary = TraceSummary::build(events);
        let mut split = EngineSplit {
            rng_ns: summary.phases.rng_ns,
            sim_ns: summary.phases.sim_ns,
            acc_ns: summary.phases.acc_ns,
            fold_ns: summary.phases.fold_ns,
            shard_wall_ns: summary.phases.shard_wall_ns,
            phases_ns: summary.phases.phases_ns(),
            campaign_wall_ns: summary.campaign_wall_ns.unwrap_or(0),
            ..EngineSplit::default()
        };
        let mut gates = 0u64;
        for ev in events {
            match ev.payload {
                Payload::CampaignStart { gates: g, .. } => gates = g,
                Payload::CampaignEnd {
                    fixed_traces,
                    random_traces,
                    ..
                } => {
                    split.campaigns += 1;
                    split.gate_samples += gates * (fixed_traces + random_traces);
                }
                _ => {}
            }
        }
        split
    }

    /// The engine's per-layer metrics; `threads` is the pool size the
    /// campaigns ran on.
    pub fn metrics(&self, threads: usize) -> Vec<(&'static str, f64)> {
        let per_sample = |ns: u64| ns as f64 / self.gate_samples.max(1) as f64;
        let pool_ns = (threads.max(1) as u64 * self.campaign_wall_ns).max(1) as f64;
        vec![
            ("sim.rng_ns_per_gate_sample", per_sample(self.rng_ns)),
            ("sim.simulate_ns_per_gate_sample", per_sample(self.sim_ns)),
            (
                "tvla.accumulate_ns_per_gate_sample",
                per_sample(self.acc_ns),
            ),
            (
                "campaign.fold_ms",
                self.fold_ns as f64 / 1e6 / self.campaigns.max(1) as f64,
            ),
            (
                "campaign.overhead_pct",
                100.0
                    * self
                        .shard_wall_ns
                        .saturating_sub(self.rng_ns + self.sim_ns + self.acc_ns)
                        as f64
                    / self.shard_wall_ns.max(1) as f64,
            ),
            (
                "campaign.phase_coverage_pct",
                100.0 * self.phases_ns as f64 / pool_ns,
            ),
            ("pool.busy_pct", 100.0 * self.shard_wall_ns as f64 / pool_ns),
        ]
    }
}

/// Wall time of one call, in seconds, plus its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Traced and untraced pass walls of one run: the tracing overhead and its
/// base.
pub fn overhead_metrics(untraced: &[f64], traced: &[f64]) -> Vec<(&'static str, f64)> {
    let u = crate::stats::median(untraced);
    let t = crate::stats::median(traced);
    vec![
        ("trace.overhead_pct", 100.0 * (t / u - 1.0)),
        ("trace.untraced_wall_s", u),
        ("trace.traced_wall_s", t),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_obs::PopulationTag;

    fn ev(thread: u64, payload: Payload) -> Event {
        Event {
            t_ns: 0,
            thread,
            payload,
        }
    }

    #[test]
    fn engine_split_counts_gate_samples_per_campaign() {
        let start = |gates| Payload::CampaignStart {
            gates,
            planned_fixed: 0,
            planned_random: 0,
            threads: 1,
            lane_words: 1,
            shards: 1,
            planned_rounds: 1,
        };
        let end = |n| Payload::CampaignEnd {
            rounds: 1,
            stopped_early: false,
            fixed_traces: n,
            random_traces: n,
            wall_ns: 1_000,
        };
        let shard = Payload::ShardSpan {
            round: 1,
            grid_index: 0,
            pop: PopulationTag::Fixed,
            start: 0,
            count: 10,
            wall_ns: 800,
            rng_ns: 400,
            sim_ns: 100,
            acc_ns: 200,
        };
        let events = vec![
            ev(0, start(10)),
            ev(1, shard.clone()),
            ev(0, end(5)),
            ev(0, start(3)),
            ev(1, shard),
            ev(0, end(100)),
        ];
        let s = EngineSplit::from_events(&events);
        assert_eq!(s.campaigns, 2);
        assert_eq!(s.gate_samples, 10 * 10 + 3 * 200);
        assert_eq!(
            (s.rng_ns, s.shard_wall_ns, s.campaign_wall_ns),
            (800, 1_600, 2_000)
        );
        let m = s.metrics(1);
        let get = |k: &str| m.iter().find(|(n, _)| *n == k).unwrap().1;
        assert_eq!(get("sim.rng_ns_per_gate_sample"), 800.0 / 700.0);
        assert_eq!(get("pool.busy_pct"), 80.0);
        assert_eq!(get("campaign.overhead_pct"), 12.5);
    }

    #[test]
    fn switched_off_log_records_nothing() {
        let log = SpanLog::new();
        log.record(Payload::QueueDepth {
            depth: 1,
            jobs_remaining: 1,
        });
        assert!(log.events().is_empty());
        log.set_on(true);
        log.record(Payload::QueueDepth {
            depth: 1,
            jobs_remaining: 1,
        });
        assert_eq!(log.events().len(), 1);
    }
}
