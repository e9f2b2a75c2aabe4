//! Integration across rp-dp, rp-datagen and rp-experiments: the Section-2
//! attack against the Section-5 defence, plus experiment-runner coherence.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::estimate::GroupedView;
use rp_core::privacy::PrivacyParams;
use rp_core::sps::{sps_groups, up_histograms, SpsConfig};
use rp_dp::attack::RatioAttack;
use rp_dp::mechanism::{LaplaceMechanism, Sensitivity};
use rp_experiments::config::{defaults, PreparedDataset};
use rp_experiments::table1::example1_query;
use rp_experiments::{error, table1, tables45, violation};

#[test]
fn dp_attack_discloses_while_sps_publication_does_not_expose_the_cell() {
    // The paper's core contrast in one test. On the same synthetic ADULT:
    // (1) two differentially-private answers at eps = 0.5 pin down the
    //     Example-1 confidence;
    // (2) the SPS publication makes the *personal* reconstruction of the
    //     Example-1 cell unreliable across runs.
    let dataset = PreparedDataset::adult_small(20_000);
    let raw = &dataset.raw;

    // (1) Output perturbation discloses.
    let attack = RatioAttack::new(example1_query(raw));
    let mech = LaplaceMechanism::new(0.5, Sensitivity::count_query_batch(2));
    let mut rng = StdRng::seed_from_u64(1);
    let outcome = attack.run(raw, &mech, 10, &mut rng);
    assert!(
        (outcome.confidence.mean - outcome.true_confidence).abs() < 0.05,
        "DP at eps=0.5 should disclose: Conf' = {} vs {}",
        outcome.confidence.mean,
        outcome.true_confidence
    );

    // (2) Data perturbation with SPS defends: the per-run reconstruction
    //     of the victim's generalized personal group has large spread.
    let params = PrivacyParams::new(0.3, 0.3);
    let p = defaults::P;
    // Locate the generalized personal group containing the Example-1 cell.
    let gen_query = dataset.generalization.translate_query(&example1_query(raw));
    let mut estimates = Vec::new();
    for _ in 0..20 {
        let (published, _) = sps_groups(&mut rng, &dataset.groups, SpsConfig { p, params });
        let view = GroupedView::assemble(dataset.groups.spec(), &published);
        let (support, observed) = view.support_and_observed(&gen_query);
        assert!(support > 0);
        let est = rp_core::mle::reconstruct_frequency(observed, support, p, 2);
        estimates.push(est);
    }
    let mean: f64 = estimates.iter().sum::<f64>() / estimates.len() as f64;
    let var: f64 = estimates
        .iter()
        .map(|e| (e - mean) * (e - mean))
        .sum::<f64>()
        / estimates.len() as f64;
    // The reconstruction is noisy run to run; an adversary holding ONE
    // published instance cannot certify a small relative error. (The DP
    // attack above had SE < 0.02; this spread is an order larger in
    // relative terms, on a generalized group that is itself an aggregate
    // over merged education/occupation values.)
    assert!(
        var.sqrt() > 0.01,
        "sd = {} should be noticeable",
        var.sqrt()
    );
}

#[test]
fn violation_and_error_runners_share_the_same_dataset_view() {
    let d = PreparedDataset::adult_small(12_000);
    let v = violation::run_all(&d);
    // 4 runs, not 2: the `sps >= 0.8 * up` spread check below needs the
    // Monte-Carlo means tight enough that one lucky SPS draw cannot mask
    // the true ordering.
    let protocol = error::ErrorProtocol {
        pool_size: 100,
        runs: 4,
        seed: 5,
    };
    let e = error::run_all(&d, protocol);
    assert_eq!(v.len(), 3);
    assert_eq!(e.len(), 3);
    for sweep in &v {
        assert_eq!(sweep.dataset, d.name);
        assert_eq!(sweep.points.len(), 5);
    }
    for sweep in &e {
        assert_eq!(sweep.dataset, d.name);
        // SPS never beats UP by more than Monte-Carlo slack anywhere.
        for pt in &sweep.points {
            assert!(pt.sps > 0.0 && pt.up > 0.0);
            assert!(pt.sps >= pt.up * 0.8, "{pt:?}");
        }
    }
}

#[test]
fn table1_and_tables45_run_on_the_same_fixture() {
    let d = PreparedDataset::adult_small(12_000);
    let t1 = table1::run(&d.raw, &[0.5], 10, 3);
    assert!((t1.true_confidence - 0.8383).abs() < 1e-3);
    let impact = tables45::run(&d);
    assert_eq!(impact.records, 12_000);
    assert_eq!(impact.groups_before, 2240);
    assert!(impact.groups_after < impact.groups_before);
}

#[test]
fn up_and_sps_histograms_have_consistent_group_counts() {
    let d = PreparedDataset::adult_small(10_000);
    let mut rng = StdRng::seed_from_u64(11);
    let params = PrivacyParams::new(0.3, 0.3);
    let up = up_histograms(&mut rng, &d.groups, 0.5);
    let (sp, _) = sps_groups(&mut rng, &d.groups, SpsConfig { p: 0.5, params });
    assert_eq!(up.len(), d.groups.len());
    assert_eq!(sp.len(), d.groups.len());
    // UP preserves each group's key and size exactly; SPS its key, and its
    // size in expectation.
    for ((g, (up_key, up_hist)), (sps_key, _)) in d.groups.groups().zip(up.iter()).zip(sp.iter()) {
        assert_eq!((g.key, g.key), (up_key, sps_key));
        assert_eq!(g.len() as u64, up_hist.iter().sum::<u64>());
    }
}
