//! Cross-commit golden of the first-order accumulator: the raw bits of every
//! gate's `(n, mean, M2, M3, M4)` per class, for two fixed campaigns, are
//! pinned in `tests/golden/welch_moments.hex`. The fixture was recorded from
//! the serial `StreamingMoments::extend_batch` kernel with one block-buffer
//! set per shard, so any change to the accumulate kernel or to buffer reuse
//! that moves a single bit fails here — at 1 and 2 threads and through the
//! fleet scheduler.
//!
//! Campaign `masked_c432`: `designs/c432.bench`, decomposed, every fourth
//! cell Trichina-masked; single-cycle zero-delay, 300 traces per class at
//! lane width 4 (a partial trailing 44-lane block per class).
//!
//! Campaign `memctrl_glitch`: the sequential `memctrl` generator over three
//! clock cycles under the unit-delay model — the per-lane toggle-counter
//! path; uneven classes at lane width 2.

use polaris_masking::{apply_masking, MaskingStyle};
use polaris_netlist::transform::decompose;
use polaris_netlist::{generators, parse_bench, Netlist};
use polaris_sim::PowerModel;
use polaris_sim::{run_campaign_parallel, run_fleet, CampaignConfig, FleetJob, Parallelism};
use polaris_tvla::{StreamingMoments, WelchAccumulator};

const GOLDEN: &str = include_str!("golden/welch_moments.hex");

struct Campaign {
    name: &'static str,
    design: Netlist,
    config: CampaignConfig,
    lane_words: usize,
}

fn campaigns() -> Vec<Campaign> {
    let c432 = parse_bench(include_str!("../designs/c432.bench")).expect("c432 parses");
    let (c432, _) = decompose(&c432).expect("c432 decomposes");
    let targets: Vec<_> = c432.cell_ids().into_iter().step_by(4).collect();
    let masked = apply_masking(&c432, &targets, MaskingStyle::Trichina).expect("masking");
    vec![
        Campaign {
            name: "masked_c432",
            design: masked.netlist,
            config: CampaignConfig::new(300, 300, 41),
            lane_words: 4,
        },
        Campaign {
            name: "memctrl_glitch",
            design: generators::memctrl(1, 3),
            config: CampaignConfig::new(333, 190, 17)
                .with_cycles(3)
                .with_glitches(),
            lane_words: 2,
        },
    ]
}

/// One line per (campaign, class, gate): `n` in decimal, then the IEEE-754
/// bits of `mean M2 M3 M4` in hex.
fn render(name: &str, acc: &WelchAccumulator, out: &mut String) {
    let (fixed, random) = acc.classes();
    for (class, moments) in [("fixed", fixed), ("random", random)] {
        for (g, m) in moments.iter().enumerate() {
            out.push_str(&line(name, class, g, m));
        }
    }
}

fn line(name: &str, class: &str, g: usize, m: &StreamingMoments) -> String {
    let (n, mean, m2, m3, m4) = m.raw_parts();
    format!(
        "{name} {class} {g} {n} {:016x} {:016x} {:016x} {:016x}\n",
        mean.to_bits(),
        m2.to_bits(),
        m3.to_bits(),
        m4.to_bits()
    )
}

fn assert_matches_golden(actual: &str, path: &str) {
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    for (i, (e, a)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(a, e, "{path}: first divergence at fixture line {}", i + 1);
    }
    assert_eq!(got.len(), expected.len(), "{path}: line count");
}

#[test]
fn solo_campaigns_match_the_recorded_bits_at_1_and_2_threads() {
    let model = PowerModel::default();
    let campaigns = campaigns();
    for threads in [1usize, 2] {
        let mut actual = String::new();
        for c in &campaigns {
            let par = Parallelism::new(threads).with_lane_words(c.lane_words);
            let acc: WelchAccumulator =
                run_campaign_parallel(&c.design, &model, &c.config, par).expect("campaign");
            render(c.name, &acc, &mut actual);
        }
        assert_matches_golden(&actual, &format!("{threads} thread(s)"));
    }
}

#[test]
fn fleet_matches_the_recorded_bits() {
    let model = PowerModel::default();
    let campaigns = campaigns();
    // The fleet compiles every job at one lane width; the golden is
    // width-invariant, so both jobs run at the fixture's first width.
    for threads in [1usize, 2] {
        let jobs = campaigns
            .iter()
            .map(|c| FleetJob::<WelchAccumulator>::new(&c.design, &model, c.config.clone()))
            .collect();
        let par = Parallelism::new(threads).with_lane_words(campaigns[0].lane_words);
        let outcomes = run_fleet(jobs, par).expect("fleet");
        let mut actual = String::new();
        for (c, outcome) in campaigns.iter().zip(&outcomes) {
            render(c.name, &outcome.sink, &mut actual);
        }
        assert_matches_golden(&actual, &format!("fleet, {threads} thread(s)"));
    }
}
