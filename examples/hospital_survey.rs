//! Publishing a hospital survey: generalization, privacy enforcement and
//! statistical learning on the published data.
//!
//! The scenario of the paper's introduction: a publisher wants analysts to
//! learn statistical relationships ("smokers tend to have lung cancer")
//! while preventing targeted inference about any individual ("Bob likely
//! has HIV"). This example builds a survey table whose public attributes
//! include a spurious one (FavoriteColor — the Section-3.4 motivation),
//! shows the χ² merge folding it away, publishes through the `Publisher`
//! builder, and then *learns the smoking relationship back* from a
//! `QueryEngine` over the release while the personal reconstruction of a
//! single victim stays unreliable.
//!
//! Run with: `cargo run --release -p rp-experiments --example hospital_survey`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_core::generalize::Generalization;
use rp_core::groups::{PersonalGroups, SaSpec};
use rp_core::mle::reconstruct_histogram;
use rp_engine::{Publisher, QueryEngine};
use rp_table::{Attribute, Pattern, Schema, TableBuilder, Term};

const DISEASES: [&str; 8] = [
    "none",
    "lung-cancer",
    "asthma",
    "flu",
    "diabetes",
    "hiv",
    "hepatitis",
    "ulcer",
];

fn main() {
    let mut rng = StdRng::seed_from_u64(1234);
    let schema = Schema::new(vec![
        Attribute::new("Smoker", ["yes", "no"]),
        Attribute::new("AgeBand", ["18-35", "36-60", "61+"]),
        Attribute::new("FavoriteColor", ["red", "green", "blue", "black"]),
        Attribute::new("Disease", DISEASES),
    ]);
    let mut builder = TableBuilder::new(schema);
    for _ in 0..40_000 {
        let smoker = usize::from(rng.gen::<f64>() < 0.25);
        let age = match rng.gen::<f64>() {
            x if x < 0.4 => 0,
            x if x < 0.8 => 1,
            _ => 2,
        };
        let color = rng.gen_range(0..4u32);
        // Smokers carry a much higher lung-cancer rate; favorite color has
        // no effect whatsoever.
        let lung_rate = if smoker == 0 { 0.12 } else { 0.01 };
        let disease = if rng.gen::<f64>() < lung_rate {
            1 // lung-cancer
        } else {
            // Everything else split by age a little.
            let r: f64 = rng.gen();
            match (age, r) {
                (_, r) if r < 0.6 => 0,
                (0, _) => 3,
                (1, r) if r < 0.8 => 4,
                (2, r) if r < 0.8 => 7,
                _ => 2,
            }
        };
        builder
            .push_codes(&[smoker as u32, age, color, disease])
            .expect("codes in domain");
    }
    let table = builder.build();

    // 1. Generalize: FavoriteColor has no impact on Disease, so its four
    //    values merge into one and stop fragmenting personal groups.
    let spec = SaSpec::new(&table, 3);
    let generalization = Generalization::fit(&table, &spec, 0.05);
    for attr_gen in generalization.attributes() {
        println!(
            "{}: {} -> {} values",
            table.schema().attribute(attr_gen.attr).name(),
            table.schema().attribute(attr_gen.attr).domain_size(),
            attr_gen.new_domain_size()
        );
    }
    let published_input = generalization.apply(&table);

    // 2. Publish under (0.3, 0.3)-reconstruction privacy at p = 0.4: the
    //    builder runs the design check and SPS in one call.
    let p = 0.4;
    let publication = Publisher::new(published_input.clone())
        .sa_named("Disease")
        .privacy(0.3, 0.3)
        .retention(p)
        .seed(rng.gen())
        .publish()
        .expect("survey shape supports the criterion");
    let check = publication.check();
    println!(
        "\nbefore SPS: vg = {:.1}%, vr = {:.1}% of records at risk",
        100.0 * check.vg(),
        100.0 * check.vr()
    );
    let stats = publication.stats();
    println!(
        "SPS sampled {} of {} groups; publication has {} records",
        stats.groups_sampled,
        stats.groups,
        publication.records()
    );

    // 3. Statistical learning on the publication: the smoking/lung-cancer
    //    relationship survives aggregate reconstruction.
    let engine = QueryEngine::new(&publication);
    for (smoker_value, label) in [("yes", "smokers"), ("no", "non-smokers")] {
        let query = engine
            .query_from_values(&[("Smoker", smoker_value), ("Disease", "lung-cancer")])
            .expect("values exist in the published schema");
        let truth = query.answer(&published_input);
        let answer = engine.answer(&query).expect("query fits the release");
        let smoker_code = published_input
            .schema()
            .attribute(0)
            .dictionary()
            .code(smoker_value)
            .expect("value in domain");
        let support = Pattern::new(vec![(0, Term::Value(smoker_code))]).count(&published_input);
        println!(
            "lung cancer among {label}: true rate {:.2}%, learned rate {:.2}%",
            100.0 * truth as f64 / support as f64,
            100.0 * answer.estimate / support as f64
        );
    }

    // 4. Personal reconstruction about one victim stays unreliable: take
    //    the victim's personal group in the publication and reconstruct.
    let groups = PersonalGroups::build(&published_input, publication.spec());
    let victim = groups
        .groups()
        .max_by_key(|g| g.len())
        .expect("non-empty grouping");
    let truth_hist = victim.sa_hist;
    let n = victim.len();
    // The published counterpart of that group.
    let (_, published) = publication
        .groups()
        .iter()
        .find(|&(k, _)| k == victim.key)
        .expect("group survives publication");
    let reconstructed = reconstruct_histogram(published, p);
    println!("\npersonal reconstruction of the largest group ({n} records):");
    for (i, name) in DISEASES.iter().enumerate() {
        let truth = truth_hist[i] as f64 / n as f64;
        println!(
            "  {name:<12} true {truth:.3}  reconstructed {:+.3}",
            reconstructed[i]
        );
    }
    println!(
        "(the reconstruction errors above are what (0.3, 0.3)-privacy \
         guarantees an attacker cannot rule out)"
    );
}
