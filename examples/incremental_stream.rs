//! Live publication under record insertion — the Section-3.1 advantage of
//! data perturbation over noisy query answers.
//!
//! A first day of patient records is published in one batch; the next
//! days stream in through a `StreamPublisher` over a write-ahead log.
//! Each record is perturbed on arrival and added to its live group, and a
//! group that outgrows its threshold `sg` is re-published through SPS in
//! place without touching the rest of the release. A snapshot of the
//! stream (base + live records) then answers the analyst's questions
//! through a `QueryEngine`, next to a batch release of the same records —
//! the nightly-batch counterpart of the live path.
//!
//! Run with: `cargo run --release --example incremental_stream`

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_engine::stream::{StreamConfig, StreamPublisher};
use rp_engine::{Publication, Publisher, QueryEngine};
use rp_table::{Attribute, Schema, Table, TableBuilder};

const DISEASES: usize = 6;
const P: f64 = 0.5;

/// One day of 10,000 records over (clinic, ward, disease). Ward 0 of
/// clinic 0 is a specialty ward with a skewed disease mix — it crosses
/// its `sg` first.
fn day_of_records(rng: &mut StdRng) -> Vec<[u32; 3]> {
    (0..10_000)
        .map(|_| {
            let clinic = rng.gen_range(0..4u32);
            let ward = rng.gen_range(0..3u32);
            let sa = if clinic == 0 && ward == 0 && rng.gen::<f64>() < 0.8 {
                1
            } else {
                rng.gen_range(0..DISEASES as u32)
            };
            [clinic, ward, sa]
        })
        .collect()
}

fn publish(table: Table, seed: u64) -> Publication {
    Publisher::new(table)
        .sa_named("Disease")
        .privacy(0.3, 0.3)
        .retention(P)
        .seed(seed)
        .publish()
        .expect("stream shape supports the criterion")
}

/// The reconstructed frequency of each disease in the specialty ward.
fn specialty_ward(publication: &Publication) -> Vec<f64> {
    let engine = QueryEngine::new(publication);
    (0..DISEASES)
        .map(|sa| {
            let query = engine
                .query_from_values(&[
                    ("Clinic", "Clinic_0"),
                    ("Ward", "Ward_0"),
                    ("Disease", &format!("Disease_{sa}")),
                ])
                .expect("values exist in the published schema");
            engine
                .answer(&query)
                .expect("query fits the release")
                .frequency
        })
        .collect()
}

fn main() {
    let schema = Schema::new(vec![
        Attribute::with_anonymous_domain("Clinic", 4),
        Attribute::with_anonymous_domain("Ward", 3),
        Attribute::with_anonymous_domain("Disease", DISEASES),
    ]);
    let mut rng = StdRng::seed_from_u64(42);
    // Every record is also accumulated for the end-of-stream batch
    // release, and the specialty ward's true disease counts are kept.
    let mut accumulated = TableBuilder::with_capacity(schema.clone(), 30_000);
    let mut truth = [0u64; DISEASES];
    let mut record = |accumulated: &mut TableBuilder, codes: &[u32; 3]| {
        accumulated.push_codes(codes).expect("codes in domain");
        if codes[..2] == [0, 0] {
            truth[codes[2] as usize] += 1;
        }
    };

    // Day 0 is the base release.
    let mut base = TableBuilder::with_capacity(schema, 10_000);
    for codes in day_of_records(&mut rng) {
        base.push_codes(&codes).expect("codes in domain");
        record(&mut accumulated, &codes);
    }
    let wal = std::env::temp_dir().join(format!("incremental_stream-{}.rpwal", std::process::id()));
    let mut stream = StreamPublisher::open(publish(base.build(), 7), &wal, StreamConfig::default())
        .expect("a fresh WAL opens");
    println!("day 0: base release of 10000 records");

    // Days 1 and 2 stream in record by record.
    for day in 1..3 {
        let mut republished = BTreeMap::new();
        for codes in day_of_records(&mut rng) {
            let outcome = stream.insert_codes(&codes).expect("insert is logged");
            if outcome.republished {
                *republished.entry(outcome.key).or_insert(0u32) += 1;
            }
            record(&mut accumulated, &codes);
        }
        stream.flush().expect("WAL syncs");
        println!(
            "day {day}: {} records in, {} groups live; SPS re-publications per group {:?}",
            stream.inserted(),
            stream.live_groups(),
            republished
        );
    }

    let ward_total: u64 = truth.iter().sum();
    let live = specialty_ward(&stream.snapshot());
    let batch = specialty_ward(&publish(accumulated.build(), 7));
    println!("\nspecialty ward, {ward_total} raw records:");
    for sa in 0..DISEASES {
        println!(
            "  disease {sa}: true {:.3}, live snapshot {:+.3}, batch release {:+.3}",
            truth[sa] as f64 / ward_total as f64,
            live[sa],
            batch[sa]
        );
    }
    println!(
        "(live and batch paths answer from different randomness but the \
         same guarantee)"
    );
    std::fs::remove_file(&wal).ok();
}
