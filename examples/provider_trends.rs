//! Longitudinal provider trends (a miniature Figure 6a): run the full
//! measurement + inference pipeline at every snapshot from June 2017 to
//! June 2021 and chart each top provider's market share as a sparkline.
//!
//! Run with: `cargo run --release --example provider_trends`
//!
//! With `-- --store` the study is first serialized into an `mx-store`
//! snapshot file and the same series is computed from the store's
//! zero-copy reader — the numbers are identical bit for bit.
//!
//! With `-- --provider <name>` the example flips the question around:
//! instead of "which providers serve the market", it asks "which
//! domains does this provider serve" at every snapshot, answered from
//! the `mx-store/2` postings lists (per-epoch inverted index from
//! provider id to customer-domain ids).

use mxmap::analysis::longitudinal::{self, default_series};
use mxmap::analysis::store::{domains_of_provider, series_from_store, StudyStoreExt};
use mxmap::corpus::{company_map, provider_knowledge, Dataset, ScenarioConfig, Study};
use mxmap::infer::Pipeline;
use mxmap::store::StoreReader;

fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-9);
    values
        .iter()
        .map(|v| BARS[(((v - min) / span) * 7.0).round() as usize])
        .collect()
}

/// Reverse query: list every customer domain of `provider` at each
/// snapshot, straight from the postings lists in the store footer.
fn provider_mode(study: &Study, provider: &str) {
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let bytes = study
        .write_store(Dataset::Alexa, &pipeline, &company_map())
        .expect("serialize study");
    let reader = StoreReader::open(&bytes).expect("reopen store");
    if reader.provider_index(provider).is_none() {
        eprintln!("provider {provider:?} not in the store dictionary; known providers include:");
        for p in reader.providers().iter().take(10) {
            eprintln!("  {p}");
        }
        std::process::exit(2);
    }
    println!("customer domains of {provider} (Alexa), from the postings index:\n");
    let mut prev: Vec<String> = Vec::new();
    for epoch in 0..reader.epoch_count() {
        let label = reader.label(epoch).expect("epoch label");
        let domains = domains_of_provider(&reader, provider, epoch).expect("postings query");
        let gained = domains.iter().filter(|d| !prev.contains(d)).count();
        let lost = prev.iter().filter(|d| !domains.contains(d)).count();
        println!("{label}  {:>4} domains  (+{gained} / -{lost})", domains.len());
        for d in &domains {
            println!("    {d}");
        }
        prev = domains;
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let from_store = args.iter().any(|a| a == "--store");
    let study = Study::generate(ScenarioConfig::small(42));
    if let Some(i) = args.iter().position(|a| a == "--provider") {
        let provider = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("usage: provider_trends -- --provider <name>");
            std::process::exit(2);
        });
        provider_mode(&study, provider);
        return;
    }
    println!("running all nine snapshots (Alexa)...");
    let tracked = [
        "Google",
        "Microsoft",
        "Yandex",
        "ProofPoint",
        "Mimecast",
        "GoDaddy",
    ];
    let series = if from_store {
        let pipeline = Pipeline::priority_based(provider_knowledge(10));
        let bytes = study
            .write_store(Dataset::Alexa, &pipeline, &company_map())
            .expect("serialize study");
        println!(
            "store mode: {} bytes written, querying the snapshot store...",
            bytes.len()
        );
        let reader = StoreReader::open(&bytes).expect("reopen store");
        series_from_store(&reader, Dataset::Alexa, &tracked).expect("series from store")
    } else {
        default_series(&study, Dataset::Alexa, &tracked)
    };

    println!("\nmarket share {} .. {}\n", series.dates[0], series.dates.last().unwrap());
    for (company, points) in &series.companies {
        let shares: Vec<f64> = points.iter().map(|p| p.share).collect();
        println!(
            "{company:>12}  {}  {:>5.1}% -> {:>5.1}%",
            sparkline(&shares),
            shares[0] * 100.0,
            shares.last().unwrap() * 100.0
        );
    }
    let self_shares: Vec<f64> = series.self_hosted.iter().map(|p| p.share).collect();
    println!(
        "{:>12}  {}  {:>5.1}% -> {:>5.1}%",
        "Self-Hosted",
        sparkline(&self_shares),
        self_shares[0] * 100.0,
        self_shares.last().unwrap() * 100.0
    );
    let top5: Vec<f64> = series.top5_total.iter().map(|p| p.share).collect();
    println!(
        "{:>12}  {}  {:>5.1}% -> {:>5.1}%",
        "Top5 Total",
        sparkline(&top5),
        top5[0] * 100.0,
        top5.last().unwrap() * 100.0
    );

    println!(
        "\nThe paper's headline (§5.2.1): the top providers steadily gain \
         share while self-hosting declines — the consolidation of e-mail."
    );
    let _ = longitudinal::security_companies();
}
