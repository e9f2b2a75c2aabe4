//! Seeded input generation: the CSVs `rpctl publish` turns into releases,
//! and the request lines the load generator sends.
//!
//! Files written to `--out DIR` (all a pure function of `--seed` and
//! `--scale`):
//!
//! | file           | contents                                                  |
//! |----------------|-----------------------------------------------------------|
//! | `census.csv`   | CENSUS sample without `Age` (see below), SA `Occupation`  |
//! | `adult.csv`    | ADULT-shaped sample, second catalog tenant                 |
//! | `adult10x.csv` | ten times ADULT, the traced run's publish pipeline input   |
//! | `pool.txt`     | the Section-6 CENSUS pool, one `count` line per query      |
//! | `hot.txt`      | the hottest pool queries (largest answers), rank order     |
//! | `batch.txt`    | `batch` lines of uniformly drawn pool queries              |
//! | `inserts.txt`  | `insert` lines: a fresh CENSUS sample, generalized         |
//!
//! `Age` is dropped from the CENSUS CSV because the χ² generalization
//! merges its 77 values into one, and the merged label
//! (`Age_0|Age_1|…(77 values)`) contains a space, which the line protocol
//! cannot frame; every insert must name every column. Occupation does not
//! depend on Age, so the generalized groups are the same 2·14·6·9 keys
//! either way.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_core::generalize::Generalization;
use rp_core::groups::{PersonalGroups, SaSpec};
use rp_datagen::adult::{self, AdultConfig};
use rp_datagen::census::{self, CensusConfig};
use rp_datagen::querypool::{QueryPool, QueryPoolConfig};
use rp_engine::protocol::is_token;
use rp_engine::{Request, WireQuery, WireRecord};
use rp_table::{read_csv, write_csv, CountQuery, Schema, Table, TableBuilder, Term};

use crate::{sub_seed, Args, Json};

/// Input sizes of one scale.
struct Scale {
    census_rows: usize,
    adult_rows: usize,
    adult10x_rows: usize,
    pool: usize,
    hot: usize,
    batches: usize,
    batch_size: usize,
    inserts: usize,
}

const FULL: Scale = Scale {
    census_rows: 300_000,
    adult_rows: adult::ADULT_ROWS,
    adult10x_rows: 10 * adult::ADULT_ROWS,
    pool: 5_000,
    hot: 256,
    batches: 1_024,
    batch_size: 32,
    inserts: 65_536,
};

/// Seconds-scale inputs for the benchmark's own tests.
const TOY: Scale = Scale {
    census_rows: 20_000,
    adult_rows: 4_000,
    adult10x_rows: 10_000,
    pool: 300,
    hot: 32,
    batches: 64,
    batch_size: 32,
    inserts: 2_000,
};

/// The SA column of the CENSUS and ADULT releases.
const CENSUS_SA: &str = "Occupation";

fn io_err(path: &Path, e: impl std::fmt::Display) -> String {
    format!("{}: {e}", path.display())
}

fn write_table(table: &Table, path: &Path) -> Result<(), String> {
    let file = File::create(path).map_err(|e| io_err(path, e))?;
    let mut w = BufWriter::new(file);
    write_csv(table, &mut w).map_err(|e| io_err(path, e))?;
    w.flush().map_err(|e| io_err(path, e))
}

fn write_lines(lines: &[String], path: &Path) -> Result<(), String> {
    let file = File::create(path).map_err(|e| io_err(path, e))?;
    let mut w = BufWriter::new(file);
    for line in lines {
        writeln!(w, "{line}").map_err(|e| io_err(path, e))?;
    }
    w.flush().map_err(|e| io_err(path, e))
}

/// Reads a CSV exactly as `rpctl` does.
pub fn read_table(path: &Path) -> Result<Table, String> {
    let file = File::open(path).map_err(|e| io_err(path, e))?;
    read_csv(BufReader::new(file)).map_err(|e| io_err(path, e))
}

/// Reads one request per line.
pub fn read_lines(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    Ok(text.lines().map(str::to_string).collect())
}

/// The CENSUS sample without its first column (`Age`).
fn census_without_age(rows: usize, seed: u64) -> Table {
    let full = census::generate(CensusConfig { rows, seed });
    let attrs: Vec<_> = (1..full.schema().arity())
        .map(|a| full.schema().attribute(a).clone())
        .collect();
    let mut builder = TableBuilder::with_capacity(Schema::new(attrs), rows);
    for r in 0..full.rows() {
        let codes = full.row(r).expect("row in range");
        builder
            .push_codes(&codes[1..])
            .expect("codes come from the same domains");
    }
    builder.build()
}

/// The wire value of `code` in `schema`, refusing values the line
/// protocol cannot frame.
fn token(schema: &Schema, attr: usize, code: u32) -> Result<String, String> {
    let attribute = schema.attribute(attr);
    let value = attribute
        .dictionary()
        .value(code)
        .ok_or_else(|| format!("code {code} outside {}", attribute.name()))?;
    if !is_token(value) {
        return Err(format!(
            "value `{value}` of {} is not a protocol token",
            attribute.name()
        ));
    }
    Ok(value.to_string())
}

/// A pool query as a wire query over the generalized schema.
fn wire_query(schema: &Schema, query: &CountQuery) -> Result<WireQuery, String> {
    let mut conditions = Vec::new();
    for &(attr, term) in query.na_pattern().terms() {
        if let Term::Value(code) = term {
            conditions.push((
                schema.attribute(attr).name().to_string(),
                token(schema, attr, code)?,
            ));
        }
    }
    conditions.push((
        schema.attribute(query.sa_attr()).name().to_string(),
        token(schema, query.sa_attr(), query.sa_value())?,
    ));
    Ok(WireQuery::new(conditions))
}

/// `gen`: writes every input file for one seed and prints the settings
/// `run.py` needs (the `rpctl publish` seeds, row counts).
pub fn run(args: &Args) -> Result<Json, String> {
    let seed: u64 = args.num("seed")?;
    let scale = match args.str("scale")? {
        "full" => &FULL,
        "toy" => &TOY,
        other => return Err(format!("unknown scale `{other}`")),
    };
    let out = Path::new(args.str("out")?);
    std::fs::create_dir_all(out).map_err(|e| io_err(out, e))?;

    write_table(
        &census_without_age(scale.census_rows, sub_seed(seed, 1)),
        &out.join("census.csv"),
    )?;
    write_table(
        &adult::generate(AdultConfig {
            rows: scale.adult_rows,
            seed: sub_seed(seed, 2),
        }),
        &out.join("adult.csv"),
    )?;
    write_table(
        &adult::generate(AdultConfig {
            rows: scale.adult10x_rows,
            seed: sub_seed(seed, 3),
        }),
        &out.join("adult10x.csv"),
    )?;

    // The release's view of CENSUS: read back as `rpctl publish` reads
    // it, generalized with the same χ² fit, so every label below is the
    // one the published artifact carries.
    let raw = read_table(&out.join("census.csv"))?;
    let sa = raw.schema().attr_id(CENSUS_SA).map_err(|e| e.to_string())?;
    let generalization = Generalization::fit(&raw, &SaSpec::new(&raw, sa), 0.05);
    let generalized = generalization.apply(&raw);
    let gschema = generalized.schema().clone();
    let groups = PersonalGroups::build(&generalized, SaSpec::new(&generalized, sa));

    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    let pool = QueryPool::generate(
        &mut rng,
        raw.schema(),
        &generalization,
        &groups,
        QueryPoolConfig {
            pool_size: scale.pool,
            ..QueryPoolConfig::default()
        },
    );
    if pool.len() < scale.pool {
        return Err(format!("query pool admitted only {} queries", pool.len()));
    }
    let wire: Vec<WireQuery> = pool
        .queries
        .iter()
        .map(|pq| wire_query(&gschema, &pq.query))
        .collect::<Result<_, _>>()?;
    let pool_lines: Vec<String> = wire
        .iter()
        .map(|q| Request::Query(q.clone()).encode())
        .collect();
    write_lines(&pool_lines, &out.join("pool.txt"))?;

    // Hot set: the distinct queries with the largest exact answers
    // (ties keep pool order). The pool draws low-dimensional queries more
    // than once, so duplicates are skipped.
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(pool.queries[i].answer));
    let mut seen = std::collections::HashSet::new();
    let hot: Vec<String> = order
        .iter()
        .map(|&i| &pool_lines[i])
        .filter(|line| seen.insert(line.as_str()))
        .take(scale.hot)
        .cloned()
        .collect();
    if hot.len() < scale.hot {
        return Err(format!("pool holds only {} distinct queries", hot.len()));
    }
    write_lines(&hot, &out.join("hot.txt"))?;

    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 7));
    let batches: Vec<String> = (0..scale.batches)
        .map(|_| {
            let queries = (0..scale.batch_size)
                .map(|_| wire[rng.gen_range(0..wire.len())].clone())
                .collect();
            Request::Batch(queries).encode()
        })
        .collect();
    write_lines(&batches, &out.join("batch.txt"))?;

    // Inserts: a fresh CENSUS sample mapped onto the release's labels.
    // Values the base sample never saw are closed-world misses; skip them.
    let fresh = census_without_age(scale.inserts, sub_seed(seed, 5));
    let fresh_schema = fresh.schema();
    let mut inserts = Vec::with_capacity(scale.inserts);
    'rows: for r in 0..fresh.rows() {
        let codes = fresh.row(r).map_err(|e| e.to_string())?;
        let mut fields = Vec::with_capacity(codes.len());
        for (attr, &code) in codes.iter().enumerate() {
            let value = fresh_schema
                .attribute(attr)
                .dictionary()
                .value(code)
                .expect("generated code in domain");
            let Some(raw_code) = raw.schema().attribute(attr).dictionary().code(value) else {
                continue 'rows;
            };
            let gcode = generalization.translate(attr, raw_code);
            fields.push((
                gschema.attribute(attr).name().to_string(),
                token(&gschema, attr, gcode)?,
            ));
        }
        inserts.push(Request::Insert(WireRecord::new(fields)).encode());
    }
    write_lines(&inserts, &out.join("inserts.txt"))?;

    let mut json = Json::default();
    json.int("seed", seed)
        .int("census_publish_seed", sub_seed(seed, 6) >> 1)
        .int("adult_publish_seed", sub_seed(seed, 8) >> 1)
        .int("census_rows", scale.census_rows as u64)
        .int("adult10x_rows", scale.adult10x_rows as u64)
        .int("pool", pool.len() as u64)
        .int("hot", hot.len() as u64)
        .int("batches", batches.len() as u64)
        .int("batch_size", scale.batch_size as u64)
        .int("inserts", inserts.len() as u64)
        .int("census_groups", groups.len() as u64);
    Ok(json)
}
