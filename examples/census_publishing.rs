//! Large-scale census publication: the Section-6 CENSUS workflow at
//! reduced size.
//!
//! Demonstrates the histogram-level fast path that makes the paper's
//! parameter sweeps tractable: prepare a CENSUS-like table, generalize,
//! measure violation under plain perturbation, then answer a pool of
//! count queries through `QueryEngine`s built over UP and SPS histogram
//! releases, one engine per release and perturbation run.
//!
//! Run with: `cargo run --release -p rp-experiments --example census_publishing`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::privacy::{check_groups, PrivacyParams};
use rp_core::sps::{sps_histograms, up_histograms, SpsConfig};
use rp_datagen::querypool::{QueryPool, QueryPoolConfig};
use rp_engine::QueryEngine;
use rp_experiments::config::PreparedDataset;
use rp_experiments::error::mean_relative_error;
use rp_stats::summary::OnlineStats;

fn main() {
    // 60K keeps the example under a second; `repro figure4/figure5` runs
    // the paper-scale 100K–500K sweeps.
    let dataset = PreparedDataset::census(60_000);
    println!(
        "{}: {} records, {} personal groups after generalization",
        dataset.name,
        dataset.raw.rows(),
        dataset.groups.len()
    );

    // p = 0.9 keeps reconstruction sharp enough that some large groups
    // violate even at this reduced size (at 300K+, violations appear at
    // the default p = 0.5 — see `repro figure4`).
    let p = 0.9;
    let params = PrivacyParams::new(0.3, 0.3);
    let report = check_groups(&dataset.groups, p, params);
    println!(
        "uniform perturbation design at p = {p}: vg = {:.2}%, vr = {:.2}%",
        100.0 * report.vg(),
        100.0 * report.vr()
    );

    // A pool of selective queries posed on original attribute values.
    let mut rng = StdRng::seed_from_u64(60);
    let pool = QueryPool::generate(
        &mut rng,
        dataset.raw.schema(),
        &dataset.generalization,
        &dataset.groups,
        QueryPoolConfig {
            pool_size: 1_000,
            ..QueryPoolConfig::default()
        },
    );
    println!(
        "query pool: {} queries admitted from {} candidates",
        pool.len(),
        pool.attempts
    );

    let schema = dataset.generalized.schema();

    // Publish both ways (histogram-level), answer the pool, compare.
    let mut up_err = OnlineStats::new();
    let mut sps_err = OnlineStats::new();
    for _ in 0..5 {
        let up_engine = QueryEngine::from_histograms(
            &dataset.groups,
            up_histograms(&mut rng, &dataset.groups, p),
            schema,
            p,
        );
        let sps_engine = QueryEngine::from_histograms(
            &dataset.groups,
            sps_histograms(&mut rng, &dataset.groups, SpsConfig { p, params }),
            schema,
            p,
        );
        up_err.push(mean_relative_error(&up_engine, &pool).expect("pool fits schema"));
        sps_err.push(mean_relative_error(&sps_engine, &pool).expect("pool fits schema"));
    }
    println!(
        "average relative error over {} runs x {} queries:",
        up_err.count(),
        pool.len()
    );
    println!(
        "  UP  (violates reconstruction privacy): {:.4}",
        up_err.mean().unwrap()
    );
    println!(
        "  SPS (enforces reconstruction privacy): {:.4}",
        sps_err.mean().unwrap()
    );
    let overhead =
        100.0 * (sps_err.mean().unwrap() - up_err.mean().unwrap()) / up_err.mean().unwrap();
    if report.violating_records == 0 {
        println!("no group violated, so SPS degenerated to UP (overhead {overhead:+.1}%)");
    } else {
        println!(
            "SPS pays {overhead:+.1}% extra error to make every personal \
             reconstruction unreliable"
        );
    }
}
