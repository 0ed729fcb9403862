//! `protect`: the paper's Table II flow. Setup trains POLARIS on the
//! generated training suite at the CLI `train` defaults; the measured phase
//! masks each of the eleven evaluation designs with
//! `TrainedPolaris::mask_design` (the `polaris-cli mask` path) under a
//! leaky-fraction budget, with fixed-N first-order reporting campaigns.

use std::time::{Duration, Instant};

use polaris::cognition::generate_for_design;
use polaris::explain::Explainer;
use polaris::masking_flow::rank_gates;
use polaris::{
    MaskBudget, PolarisConfig, PolarisModel, PolarisPipeline, StructuralFeatureExtractor,
    TrainedPolaris,
};
use polaris_masking::apply_masking;
use polaris_ml::{Classifier, Dataset};
use polaris_netlist::transform::decompose;
use polaris_netlist::{generators, GateId, Netlist};
use polaris_obs::SharedRecorder;
use polaris_sim::PowerModel;
use polaris_xai::RuleMiner;

use crate::layers::{overhead_metrics, timed, EngineSplit, SpanLog};
use crate::stats::{mean, median, min_samples_for, required_percentile, Tally};
use crate::{Report, RunConfig};

/// Training runs per benchmark run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Generator scale and seed of both suites (the CLI defaults). The design
/// netlists stay fixed like the paper's benchmark suite; `--seed` drives
/// every random stream: cognition batches, model fits and campaign traces.
const SCALE: u32 = 1;
const DESIGN_SEED: u64 = 7;
/// The `polaris-cli mask` default budget: every leaky gate.
const BUDGET: MaskBudget = MaskBudget::LeakyFraction(1.0);
/// Repetitions of the direct mitigation-layer timings in a traced run.
const LAYER_REPS: usize = 5;

/// The configuration `polaris-cli train` builds from its default flags.
fn train_config(seed: u64, threads: usize) -> PolarisConfig {
    PolarisConfig {
        msize: 30 * SCALE as usize,
        iterations: 8,
        max_traces: 300,
        seed,
        threads,
        ..PolarisConfig::default()
    }
}

pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let power = PowerModel::default();
    let config = train_config(cfg.seed, cfg.threads);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut replays = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (secs, out) = timed(|| {
            let training = generators::training_suite(SCALE, DESIGN_SEED);
            let designs = generators::evaluation_suite(SCALE, DESIGN_SEED);
            PolarisPipeline::new(config.clone())
                .train(&training, &power)
                .map(|trained| (training, designs, trained))
        });
        setup_s.push(secs);
        let (training, designs, trained) = out.map_err(|e| format!("training failed: {e}"))?;
        // Interleaved with the timed trainings, so replay and coverage base
        // see the same machine and process state.
        if cfg.trace {
            replays.push(setup_layers(&training, &config, &power)?);
        }
        built = Some((training.len(), designs, trained));
    }
    let (training_designs, designs, trained) = built.expect("SETUP_REPS > 0");

    let log = SpanLog::new();
    let recorder: SharedRecorder = log.clone();
    let mut tally = Tally::default();
    let mut latencies_ms = Vec::new();
    let mut walls = [Vec::new(), Vec::new()]; // [untraced, traced]
    let mut mitigation_s = Vec::new();
    let mut reductions = Vec::new();
    let mut selections: Vec<Vec<GateId>> = vec![Vec::new(); designs.len()];
    let mut rates = Vec::new();
    let min_ops = min_samples_for(0.9);
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut pass = 0usize;
    while start.elapsed() < budget || latencies_ms.len() < min_ops {
        let traced = cfg.trace && pass % 2 == 1;
        log.set_on(traced);
        let pass_start = Instant::now();
        let mut mitigation = 0.0;
        let mut traces = 0usize;
        for (i, design) in designs.iter().enumerate() {
            let (secs, out) =
                timed(|| trained.mask_design_traced(design, &power, BUDGET, recorder.clone()));
            latencies_ms.push(secs * 1e3);
            match out {
                Ok(r) => {
                    let ok = r.after.leaky_cells <= r.before.leaky_cells && r.reduction_pct() > 0.0;
                    if !ok {
                        eprintln!(
                            "protect: {} check failed: leaky {} -> {}, reduction {:.2}%",
                            design.name(),
                            r.before.leaky_cells,
                            r.after.leaky_cells,
                            r.reduction_pct()
                        );
                    }
                    tally.record(ok);
                    // Baseline and after-masking campaigns, both classes.
                    traces += 2 * (r.campaign_fixed_traces + r.campaign_random_traces);
                    mitigation += r.mitigation_time_s;
                    if pass == 0 {
                        reductions.push(r.reduction_pct());
                    }
                    selections[i] = r.masked_gates;
                }
                Err(e) => {
                    eprintln!("protect: masking {} failed: {e}", design.name());
                    tally.record(false);
                }
            }
        }
        let wall = pass_start.elapsed().as_secs_f64();
        walls[usize::from(traced)].push(wall);
        if !traced {
            rates.push(traces as f64 / wall);
        }
        mitigation_s.push(mitigation);
        pass += 1;
    }
    log.set_on(false);

    let gates: usize = designs.iter().map(Netlist::gate_count).sum();
    let mut report = Report::new(tally);
    report.input("designs", designs.len());
    report.input("design_gates", gates);
    report.input("training_designs", training_designs);
    report.input("traces_per_class", config.max_traces);
    report.input("passes", pass);
    report.input("latency_samples", latencies_ms.len());

    if !cfg.trace {
        report.values = vec![
            ("setup_s", median(&setup_s)),
            ("wall_s", median(&walls[0])),
            ("traces_per_s", median(&rates)),
            (
                "latency_p50_ms",
                required_percentile("latency_p50_ms", &latencies_ms, 0.5)?,
            ),
            (
                "latency_p90_ms",
                required_percentile("latency_p90_ms", &latencies_ms, 0.9)?,
            ),
        ];
        return Ok(report);
    }

    let split = EngineSplit::from_events(&log.events());
    let traced_passes = walls[1].len().max(1) as f64;
    let mut values = split.metrics(cfg.threads);
    values.push((
        "campaign.gate_samples",
        split.gate_samples as f64 / traced_passes,
    ));
    values.extend(replays[0].iter().map(|&(name, _)| {
        let samples: Vec<f64> = replays.iter().map(|r| lookup(r, name)).collect();
        (name, median(&samples))
    }));
    values.extend(mitigation_layers(&designs, &selections, &trained)?);
    let pass_mitigation = median(&mitigation_s);
    values.push(("mitigation_s", pass_mitigation));
    values.push((
        "reduction_pct",
        reductions.iter().sum::<f64>() / reductions.len().max(1) as f64,
    ));
    let setup_layer_s: f64 = ["cognition.s", "ml.fit_s", "xai.rules_s"]
        .iter()
        .map(|k| lookup(&values, k))
        .sum();
    values.push((
        "coverage.setup_pct",
        100.0 * setup_layer_s / median(&setup_s),
    ));
    // The traced passes' wall is campaigns plus the TVLA-free mitigation path.
    let covered_s = split.campaign_wall_ns as f64 / 1e9 / traced_passes + pass_mitigation;
    values.push(("coverage.wall_pct", 100.0 * covered_s / mean(&walls[1])));
    values.extend(overhead_metrics(&walls[0], &walls[1]));
    values.push(("fail_ratio", tally.fail_ratio()));
    report.values = values;
    Ok(report)
}

fn lookup(values: &[(&'static str, f64)], key: &str) -> f64 {
    values
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |(_, v)| *v)
}

/// Replays `PolarisPipeline::train` stage by stage through the layers'
/// public functions, timing cognition (core), the two model fits (ml) and
/// the SHAP rule mining (xai). The seed offsets and the rule-miner cutoff
/// mirror `train`, so the replay does the same work.
fn setup_layers(
    training: &[Netlist],
    config: &PolarisConfig,
    power: &PowerModel,
) -> Result<Vec<(&'static str, f64)>, String> {
    let extractor = StructuralFeatureExtractor::new(config.locality);
    let mut dataset = Dataset::new(extractor.feature_names());
    let mut campaigns = 0usize;
    let (cognition_s, done) = timed(|| -> Result<(), String> {
        for (i, design) in training.iter().enumerate() {
            let (normalized, _) = decompose(design).map_err(|e| e.to_string())?;
            let stats = generate_for_design(
                &normalized,
                config,
                power,
                &extractor,
                &mut dataset,
                config.seed.wrapping_add(i as u64 * 0x9E37),
            )
            .map_err(|e| e.to_string())?;
            campaigns += 1 + stats.iterations;
        }
        Ok(())
    });
    done?;
    let (fit_s, model) = timed(|| -> Result<PolarisModel, String> {
        let (holdout_train, _) = dataset
            .stratified_split(0.2, config.seed ^ 0x5A11D)
            .map_err(|e| e.to_string())?;
        PolarisModel::train(&holdout_train, config).map_err(|e| e.to_string())?;
        PolarisModel::train(&dataset, config).map_err(|e| e.to_string())
    });
    let model = model?;
    let (rules_s, rows) = timed(|| {
        let explainer = Explainer::new(&dataset, config.shap_background);
        let mut probs: Vec<f64> = (0..dataset.len())
            .map(|i| model.predict_proba(dataset.row(i)))
            .collect();
        probs.sort_by(f64::total_cmp);
        let p75 = probs[(probs.len() * 3) / 4].max(0.5 + 1e-6);
        let miner = RuleMiner {
            min_probability: p75.min(0.7),
            ..RuleMiner::default()
        };
        std::hint::black_box(explainer.mine_rules(&model, &dataset, &miner));
        dataset.len()
    });
    Ok(vec![
        ("cognition.s", cognition_s),
        ("cognition.campaigns", campaigns as f64),
        ("ml.fit_s", fit_s),
        ("xai.rules_s", rules_s),
        ("xai.rows_explained", rows as f64),
    ])
}

/// Times the TVLA-free mitigation path per suite pass — normalization
/// (netlist), ranking (core: features, inference, rule adjustment) and the
/// masking transform — by calling each layer directly on the gates the
/// measured passes selected.
fn mitigation_layers(
    designs: &[Netlist],
    selections: &[Vec<GateId>],
    trained: &TrainedPolaris,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut decompose_s = Vec::with_capacity(LAYER_REPS);
    let mut rank_s = Vec::with_capacity(LAYER_REPS);
    let mut transform_s = Vec::with_capacity(LAYER_REPS);
    let mut cells_added = 0usize;
    for _ in 0..LAYER_REPS {
        let (mut d_s, mut r_s, mut t_s) = (0.0, 0.0, 0.0);
        cells_added = 0;
        for (design, selected) in designs.iter().zip(selections) {
            let (secs, normalized) = timed(|| decompose(design));
            d_s += secs;
            let (normalized, _) = normalized.map_err(|e| e.to_string())?;
            let (secs, ranked) = timed(|| {
                rank_gates(
                    &normalized,
                    trained.model(),
                    Some(trained.rules()),
                    trained.extractor(),
                )
            });
            r_s += secs;
            std::hint::black_box(ranked.map_err(|e| e.to_string())?);
            let (secs, masked) =
                timed(|| apply_masking(&normalized, selected, trained.config().style));
            t_s += secs;
            let masked = masked.map_err(|e| e.to_string())?;
            cells_added += masked.netlist.cell_ids().len() - normalized.cell_ids().len();
        }
        decompose_s.push(d_s);
        rank_s.push(r_s);
        transform_s.push(t_s);
    }
    Ok(vec![
        ("netlist.decompose_ms", median(&decompose_s) * 1e3),
        ("core.rank_ms", median(&rank_s) * 1e3),
        ("masking.transform_ms", median(&transform_s) * 1e3),
        ("masking.cells_added", cells_added as f64),
    ])
}
