//! Export the key experiment results as machine-readable JSON
//! (`results/experiments.json`), for downstream plotting.

use mx_analysis::{accuracy, country, coverage, market};
use mx_bench::ExperimentCtx;
use mx_corpus::Dataset;
use mx_infer::Strategy;
use mx_obs::json::Value;

/// An object from `(key, value)` pairs, keys in the given order.
fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn main() {
    let mut ctx = ExperimentCtx::from_env();
    let k = ExperimentCtx::last_snapshot();
    let companies = ctx.companies.clone();
    let mut root = Value::obj();

    // Figure 4 accuracy cells.
    let mut fig4 = Vec::new();
    for ds in Dataset::ALL {
        let Some(obs) = ctx.observation(k, ds).cloned() else { continue };
        let knowledge = ctx.knowledge.clone();
        let seed = ctx.study.config.seed;
        let (world, _) = ctx.snapshot(k);
        let report = accuracy::evaluate(&obs, &world.truth, knowledge, &companies, 200, seed);
        for c in &report.cells {
            fig4.push(obj([
                ("dataset", ds.label().into()),
                ("strategy", c.strategy.label().into()),
                ("sample", c.sample.label().into()),
                ("n", c.sample_size.into()),
                ("correct", c.correct.into()),
                ("accuracy", c.accuracy().into()),
                ("examined", c.examined.into()),
            ]));
        }
    }
    root.insert("fig4_accuracy", Value::Arr(fig4));

    // Table 4 coverage.
    let mut table4 = Vec::new();
    for ds in Dataset::ALL {
        let obs = ctx.observation(k, ds).expect("active").clone();
        let b = coverage::breakdown(&obs);
        for (cat, n) in &b.counts {
            table4.push(obj([
                ("dataset", ds.label().into()),
                ("category", cat.label().into()),
                ("count", (*n).into()),
                ("share", (*n as f64 / b.total as f64).into()),
            ]));
        }
    }
    root.insert("table4_coverage", Value::Arr(table4));

    // Table 6 market shares.
    let mut table6 = Vec::new();
    for ds in Dataset::ALL {
        let result = ctx.result(k, ds).clone();
        let shares = market::market_share(&result, &companies, None);
        for (rank, r) in shares.top(15).iter().enumerate() {
            table6.push(obj([
                ("dataset", ds.label().into()),
                ("rank", (rank + 1).into()),
                ("company", r.company.clone().into()),
                ("weight", r.weight.into()),
                ("share", r.share.into()),
            ]));
        }
    }
    root.insert("table6_top15", Value::Arr(table6));

    // Figure 8 country matrix.
    let records = ctx.study.populations[0].domains.clone();
    let result = ctx.result(k, Dataset::Alexa).clone();
    let m = country::country_matrix(&result, &records, &companies);
    let mut fig8 = Vec::new();
    for cc in country::FIG8_CCTLDS {
        for provider in country::FIG8_PROVIDERS {
            fig8.push(obj([
                ("cctld", cc.into()),
                ("provider", provider.into()),
                ("domains", m.total(cc).into()),
                ("share", m.share(cc, provider).into()),
            ]));
        }
    }
    root.insert("fig8_country", Value::Arr(fig8));

    // Strategy labels for completeness.
    root.insert(
        "strategies",
        Value::Arr(Strategy::ALL.iter().map(|s| s.label().into()).collect()),
    );

    std::fs::create_dir_all("results").ok();
    // The committed file has no trailing newline.
    let pretty = root.to_string_pretty();
    let out = pretty.trim_end_matches('\n');
    std::fs::write("results/experiments.json", out).expect("write");
    println!("wrote results/experiments.json ({} bytes)", out.len());
}
