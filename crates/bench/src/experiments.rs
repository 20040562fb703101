//! One function per table/figure of the paper.

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use mx_analysis::{accuracy, churn, country, coverage, market, observe, report::pct, Table};
use mx_corpus::{Dataset, SNAPSHOT_DATES};
use mx_dns::{dns_name, RData, SimClock, Timestamp, Zone};
use mx_infer::{DomainObservation, IpObservation, ObservationSet, Pipeline, Strategy};
use mx_net::SimNet;
use mx_smtp::SmtpServerConfig;

use crate::runner::ExperimentCtx;

/// Tables 1–3 (§3.1): the four motivating example domains, reproduced
/// end-to-end — DNS resolution, port-25 scanning and inference all run
/// against a live micro-network with exactly the paper's shapes.
pub fn exp_tables123() -> String {
    // Build the micro-Internet.
    let clock = SimClock::starting_at(Timestamp::from_ymd(2021, 6, 8));
    let mut b = SimNet::builder(clock);
    let ca_valid = (Timestamp::from_ymd(2020, 1, 1), Timestamp::from_ymd(2023, 1, 1));
    let mut ca = mx_cert::CertificateAuthority::new_root(
        "Micro Root CA",
        mx_cert::KeyId(1),
        (Timestamp::from_ymd(2010, 1, 1), Timestamp::from_ymd(2040, 1, 1)),
    );
    let mut trust = mx_cert::TrustStore::new();
    trust.add_root(&ca);

    // Google mail servers (AS15169), presenting mx.google.com.
    let gcert = ca.issue_server(
        mx_cert::KeyId(10),
        Some("mx.google.com"),
        &["mx.google.com", "aspmx2.googlemail.com", "mx1.smtp.goog"],
        ca_valid,
    );
    for ip in ["172.217.222.26", "173.194.201.27"] {
        let mut cfg = SmtpServerConfig::with_tls("mx.google.com", vec![gcert.clone()]);
        cfg.banner_tag = "ESMTP gsmtp".into();
        b.smtp_host(ip.parse().unwrap(), cfg);
    }
    // Security provider hosted in Google Cloud address space.
    let scert = ca.issue_server(
        mx_cert::KeyId(11),
        Some("*.mailspamprotection.com"),
        &["*.mailspamprotection.com"],
        ca_valid,
    );
    let mut scfg = SmtpServerConfig::with_tls("se26.mailspamprotection.com", vec![scert]);
    scfg.ehlo_host = "se26.mailspamprotection.com".into();
    b.smtp_host("35.192.135.139".parse().unwrap(), scfg);
    // Google web-hosting IP: no SMTP at all.
    b.silent_host("172.217.168.243".parse().unwrap());
    for prefix in ["172.217.0.0/16", "173.194.0.0/16", "35.192.0.0/14"] {
        b.announce(prefix.parse().unwrap(), 15169);
    }
    b.register_as(mx_asn::AsInfo {
        asn: 15169,
        name: "GOOGLE".into(),
        org: "Google".into(),
        country: "US".into(),
    });

    // Zones.
    let mut g = Zone::new(dns_name!("google.com"));
    g.add_rr(dns_name!("aspmx.l.google.com"), 300, RData::A("172.217.222.26".parse().unwrap()));
    g.add_rr(dns_name!("ghs.google.com"), 300, RData::A("172.217.168.243".parse().unwrap()));
    b.zone(g);
    let mut msp = Zone::new(dns_name!("mailspamprotection.com"));
    msp.add_rr(
        dns_name!("mx10.mailspamprotection.com"),
        300,
        RData::A("35.192.135.139".parse().unwrap()),
    );
    b.zone(msp);
    let mk_customer = |mx: &str, target: Option<Ipv4Addr>| -> Zone {
        let origin = mx.split_once('.').unwrap().1.to_string();
        let mut z = Zone::new(mx_dns::Name::parse(&origin).unwrap());
        z.add_rr(
            mx_dns::Name::parse(&origin).unwrap(),
            3600,
            RData::Mx {
                preference: 10,
                exchange: mx_dns::Name::parse(mx).unwrap(),
            },
        );
        if let Some(ip) = target {
            z.add_rr(mx_dns::Name::parse(mx).unwrap(), 300, RData::A(ip));
        }
        z
    };
    let mut netflix = Zone::new(dns_name!("netflix.com"));
    netflix.add_rr(
        dns_name!("netflix.com"),
        3600,
        RData::Mx {
            preference: 10,
            exchange: dns_name!("aspmx.l.google.com"),
        },
    );
    b.zone(netflix);
    b.zone(mk_customer(
        "mailhost.gsipartners.com",
        Some("173.194.201.27".parse().unwrap()),
    ));
    let mut beats = Zone::new(dns_name!("beats24-7.com"));
    beats.add_rr(
        dns_name!("beats24-7.com"),
        3600,
        RData::Mx {
            preference: 10,
            exchange: dns_name!("mx10.mailspamprotection.com"),
        },
    );
    b.zone(beats);
    let mut jenius = Zone::new(dns_name!("jeniustoto.net"));
    jenius.add_rr(
        dns_name!("jeniustoto.net"),
        3600,
        RData::Mx {
            preference: 10,
            exchange: dns_name!("ghs.google.com"),
        },
    );
    b.zone(jenius);
    let net = b.build();

    // Measure and infer.
    let domains = [
        dns_name!("netflix.com"),
        dns_name!("gsipartners.com"),
        dns_name!("beats24-7.com"),
        dns_name!("jeniustoto.net"),
    ];
    let dns = mx_net::openintel::measure(&net, &domains);
    let ips = dns.all_mx_ips();
    let scan = mx_net::Scanner::new().scan(&net, &ips, 0);

    let mut t1 = Table::new("Table 1: example domains and mail information")
        .headers(["Domain", "MX", "MX IP", "ASN of IP"]);
    let mut t2 = Table::new("Table 2: SMTP session data")
        .headers(["Domain", "Banner/EHLO", "Subject CN"]);
    for name in &domains {
        let m = &dns.rows[name];
        let t = &m.targets()[0];
        let ip = t.addrs.first().copied();
        let asn = ip.and_then(|ip| net.asn_of(ip));
        t1.row([
            name.to_string(),
            t.exchange.to_string(),
            ip.map(|i| i.to_string()).unwrap_or_default(),
            asn.map(|a| net.as_table().describe(a)).unwrap_or_default(),
        ]);
        let (banner, cn) = match ip.and_then(|ip| scan.data(ip)) {
            Some(d) => (
                d.banner_host().unwrap_or("N/A").to_string(),
                d.leaf_certificate()
                    .and_then(|c| c.subject_cn.clone())
                    .unwrap_or_else(|| "N/A".into()),
            ),
            None => ("N/A".into(), "N/A".into()),
        };
        t2.row([name.to_string(), banner, cn]);
    }
    let now = net.clock().now();
    let table = ips
        .iter()
        .map(|&ip| {
            let o = IpObservation::from_scan(ip, net.asn_of(ip), scan.get(ip), &trust, now);
            (ip, (o, scan.acquisition(ip)))
        })
        .collect();
    let rows = dns
        .rows
        .into_iter()
        .map(|(domain, mx)| DomainObservation { domain, mx })
        .collect();
    let obs = ObservationSet::from_rows(rows, &table);
    let result = Pipeline::new(Strategy::PriorityBased).run(&obs);
    let mx_only = Pipeline::new(Strategy::MxOnly).run(&obs);

    let mut t3 = Table::new("Table 3: inferred provider IDs").headers([
        "Domain",
        "priority-based",
        "MX-only",
        "SMTP live",
    ]);
    for name in &domains {
        let p = result.domains[name]
            .sole_provider()
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".into());
        let m = mx_only.domains[name]
            .sole_provider()
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".into());
        t3.row([
            name.to_string(),
            p,
            m,
            result.domains[name].has_smtp.to_string(),
        ]);
    }

    format!("{}\n{}\n{}", t1.render(), t2.render(), t3.render())
}

/// Figure 4: accuracy of the four approaches on sampled domains.
pub fn exp_fig4(ctx: &mut ExperimentCtx) -> String {
    let k = ExperimentCtx::last_snapshot();
    let mut out = String::new();
    let sample_n = 200;
    for ds in Dataset::ALL {
        let Some(obs) = ctx.observation(k, ds).cloned() else {
            continue;
        };
        let knowledge = ctx.knowledge.clone();
        let companies = ctx.companies.clone();
        let seed = ctx.study.config.seed;
        let (world, _) = ctx.snapshot(k);
        let report = accuracy::evaluate(&obs, &world.truth, knowledge, &companies, sample_n, seed);
        let mut t = Table::new(format!(
            "Figure 4 — {} (n per sample = {})",
            ds.label(),
            sample_n
        ))
        .headers(["Sample", "MX-only", "cert-based", "banner-based", "priority-based", "examined"]);
        for kind in [accuracy::SampleKind::Uniform, accuracy::SampleKind::UniqueMx] {
            let cells: Vec<String> = Strategy::ALL
                .iter()
                .map(|s| {
                    let c = report.cell(*s, kind);
                    format!("{} ({})", c.correct, pct(c.accuracy()))
                })
                .collect();
            let examined = report.cell(Strategy::PriorityBased, kind).examined;
            t.row([
                kind.label().to_string(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
                cells[3].clone(),
                examined.to_string(),
            ]);
        }
        let _ = writeln!(out, "{}", t.render());
    }
    out
}

/// Table 4: data-availability breakdown at the June 2021 snapshot.
pub fn exp_table4(ctx: &mut ExperimentCtx) -> String {
    let k = ExperimentCtx::last_snapshot();
    let mut t = Table::new("Table 4: breakdown of data availability (June 2021)")
        .headers(["Category", "Alexa", "COM", "GOV"]);
    let mut per_ds = Vec::new();
    for ds in Dataset::ALL {
        let obs = ctx.observation(k, ds).expect("all datasets active").clone();
        per_ds.push(coverage::breakdown(&obs));
    }
    for cat in coverage::CoverageCategory::ALL {
        t.row([
            cat.label().to_string(),
            per_ds[0].count(cat).to_string(),
            per_ds[1].count(cat).to_string(),
            per_ds[2].count(cat).to_string(),
        ]);
    }
    t.row([
        "Total".to_string(),
        per_ds[0].total.to_string(),
        per_ds[1].total.to_string(),
        per_ds[2].total.to_string(),
    ]);
    // Acquisition-resilience split behind the "No Censys" bucket: IP
    // counts, not domain counts — how the uncovered remainder divides
    // between never-attempted opt-outs and exhausted retry budgets, and
    // how much of the covered data was rescued by retries.
    let res: Vec<_> = per_ds.iter().map(|b| b.resilience).collect();
    for (label, pick) in [
        (
            "  IPs recovered on retry",
            (|r: &coverage::ResilienceCounts| r.recovered_ips) as fn(&_) -> usize,
        ),
        ("  IPs exhausted budget", |r: &coverage::ResilienceCounts| {
            r.exhausted_ips
        }),
        ("  IPs never attempted", |r: &coverage::ResilienceCounts| {
            r.never_attempted_ips
        }),
    ] {
        t.row([
            label.to_string(),
            pick(&res[0]).to_string(),
            pick(&res[1]).to_string(),
            pick(&res[2]).to_string(),
        ]);
    }
    t.render()
}

/// Table 5: provider IDs operated by Microsoft and ProofPoint.
pub fn exp_table5(ctx: &mut ExperimentCtx) -> String {
    let k = ExperimentCtx::last_snapshot();
    let mut t = Table::new("Table 5: provider IDs by company (June 2021)")
        .headers(["Company", "Provider ID", "ASNs"]);
    for company in ["Microsoft", "ProofPoint"] {
        let mut merged: std::collections::BTreeMap<String, std::collections::BTreeSet<u32>> =
            Default::default();
        for ds in Dataset::ALL {
            let obs = ctx.observation(k, ds).expect("active").clone();
            let companies = ctx.companies.clone();
            let result = ctx.result(k, ds);
            for row in market::provider_ids_of_company(result, &obs, &companies, company) {
                merged
                    .entry(row.provider_id.to_string())
                    .or_default()
                    .extend(row.asns);
            }
        }
        for (pid, asns) in merged {
            let asn_str: Vec<String> = asns.iter().map(|a| a.to_string()).collect();
            t.row([company.to_string(), pid, asn_str.join(", ")]);
        }
    }
    t.render()
}

/// Figure 5: top-5 companies per dataset and stratum (June 2021).
pub fn exp_fig5(ctx: &mut ExperimentCtx) -> String {
    let k = ExperimentCtx::last_snapshot();
    let mut out = String::new();
    let alexa_records = ctx.study.populations[0].domains.clone();
    let gov_records = ctx.study.populations[2].domains.clone();
    let companies = ctx.companies.clone();

    let mut render = |title: String, shares: market::MarketShare| {
        let mut t = Table::new(title).headers(["Rank", "Company", "Domains", "Share"]);
        for (i, r) in shares.top(5).iter().enumerate() {
            t.row([
                (i + 1).to_string(),
                r.company.clone(),
                format!("{:.0}", r.weight),
                pct(r.share),
            ]);
        }
        let _ = writeln!(out, "{}", t.render());
    };

    // Alexa strata (ranks live in the paper's 1..=93,538 stable range).
    let alexa_result = ctx.result(k, Dataset::Alexa).clone();
    for (label, cutoff) in [
        ("Alexa Top 1k", 1_000u32),
        ("Alexa Top 10k", 10_000u32),
        ("Alexa Top 100k", 100_000u32),
        ("Alexa (all)", u32::MAX),
    ] {
        let f = market::rank_filter(&alexa_records, cutoff);
        render(
            format!("Figure 5 — {label} (June 2021)"),
            market::market_share(&alexa_result, &companies, Some(&f)),
        );
    }
    // COM.
    let com_result = ctx.result(k, Dataset::Com).clone();
    render(
        "Figure 5 — COM (June 2021)".into(),
        market::market_share(&com_result, &companies, None),
    );
    // GOV all / federal / non-federal.
    let gov_result = ctx.result(k, Dataset::Gov).clone();
    render(
        "Figure 5 — GOV (June 2021)".into(),
        market::market_share(&gov_result, &companies, None),
    );
    for federal in [true, false] {
        let f = market::federal_filter(&gov_records, federal);
        render(
            format!(
                "Figure 5 — GOV {} (June 2021)",
                if federal { "federal" } else { "non-federal" }
            ),
            market::market_share(&gov_result, &companies, Some(&f)),
        );
    }
    out
}

/// Figure 6: longitudinal market share, 2017–2021. One sub-table per panel
/// (top companies / security companies / hosting companies) per dataset.
pub fn exp_fig6(ctx: &mut ExperimentCtx) -> String {
    let companies = ctx.companies.clone();
    let knowledge = ctx.knowledge.clone();
    let psl = mx_psl::PublicSuffixList::builtin();
    let mut out = String::new();

    let top_panel: &[(Dataset, [&str; 5])] = &[
        (Dataset::Alexa, ["Google", "Microsoft", "Yandex", "ProofPoint", "Mimecast"]),
        (Dataset::Com, ["GoDaddy", "Google", "Microsoft", "UnitedInternet", "OVH"]),
        (Dataset::Gov, ["Microsoft", "Google", "Barracuda", "ProofPoint", "Mimecast"]),
    ];
    let security = mx_analysis::longitudinal::security_companies();
    let hosting = mx_analysis::longitudinal::hosting_companies();

    // One pass over the snapshots, computing everything per dataset.
    struct PanelSeries {
        dates: Vec<String>,
        shares: Vec<Vec<f64>>, // [company][snapshot]
        self_hosted: Vec<f64>,
        top5: Vec<f64>,
    }
    let mut panels: std::collections::HashMap<(Dataset, &'static str), PanelSeries> =
        Default::default();
    let tracked: std::collections::HashMap<Dataset, Vec<&str>> = top_panel
        .iter()
        .map(|(ds, tops)| {
            let mut v: Vec<&str> = tops.to_vec();
            v.extend(security);
            v.extend(hosting);
            v.dedup();
            (*ds, v)
        })
        .collect();

    for k in 0..SNAPSHOT_DATES.len() {
        let world = ctx.study.world_at(k);
        let data = observe::observe_world(&world);
        for ds in Dataset::ALL {
            let Some(obs) = data.dataset(ds) else { continue };
            let result = Pipeline::priority_based(knowledge.clone()).run(obs);
            let shares = market::market_share(&result, &companies, None);
            let sh = market::self_hosted_count(&result, &psl);
            let entry = panels.entry((ds, "all")).or_insert_with(|| PanelSeries {
                dates: Vec::new(),
                shares: vec![Vec::new(); tracked[&ds].len()],
                self_hosted: Vec::new(),
                top5: Vec::new(),
            });
            entry.dates.push(world.date.ym_label());
            for (ci, c) in tracked[&ds].iter().enumerate() {
                entry.shares[ci].push(shares.share_of(c));
            }
            entry
                .self_hosted
                .push(sh as f64 / shares.total_domains.max(1) as f64);
            entry.top5.push(shares.top_share(5));
        }
    }

    for (ds, tops) in top_panel {
        let p = &panels[&(*ds, "all")];
        let names = &tracked[ds];
        let idx_of = |c: &str| names.iter().position(|n| *n == c).expect("tracked");
        for (panel_name, group) in [
            ("Top Companies", tops.to_vec()),
            ("E-mail Security Companies", security.to_vec()),
            ("Web Hosting Companies", hosting.to_vec()),
        ] {
            let mut headers = vec!["Snapshot".to_string()];
            headers.extend(group.iter().map(|s| s.to_string()));
            if panel_name == "Top Companies" {
                headers.push("Top5 Total".into());
                headers.push("Self-Hosted".into());
            } else {
                headers.push("Total".into());
            }
            let mut t = Table::new(format!("Figure 6 — {panel_name} in {}", ds.label()))
                .headers(headers);
            for (si, date) in p.dates.iter().enumerate() {
                let mut row = vec![date.clone()];
                let mut total = 0.0;
                for c in &group {
                    let v = p.shares[idx_of(c)][si];
                    total += v;
                    row.push(pct(v));
                }
                if panel_name == "Top Companies" {
                    row.push(pct(p.top5[si]));
                    row.push(pct(p.self_hosted[si]));
                } else {
                    row.push(pct(total));
                }
                t.row(row);
            }
            let _ = writeln!(out, "{}", t.render());
        }
    }
    out
}

/// Figure 7: Sankey churn of Alexa domains, June 2017 → June 2021.
pub fn exp_fig7(ctx: &mut ExperimentCtx) -> String {
    let companies = ctx.companies.clone();
    let obs0 = ctx.observation(0, Dataset::Alexa).expect("active").clone();
    let r0 = ctx.result(0, Dataset::Alexa).clone();
    let k = ExperimentCtx::last_snapshot();
    let obs8 = ctx.observation(k, Dataset::Alexa).expect("active").clone();
    let r8 = ctx.result(k, Dataset::Alexa).clone();
    let m = churn::churn_matrix((&r0, &obs0), (&r8, &obs8), &companies);

    let mut headers = vec!["From / To".to_string()];
    headers.extend(churn::ChurnCategory::ALL.iter().map(|c| c.label().to_string()));
    headers.push("2017 total".into());
    let mut t = Table::new("Figure 7: churn of Alexa domains 2017 -> 2021 (rows: 2017, cols: 2021)")
        .headers(headers);
    for from in churn::ChurnCategory::ALL {
        let mut row = vec![from.label().to_string()];
        for to in churn::ChurnCategory::ALL {
            row.push(m.flow(from, to).to_string());
        }
        row.push(m.outgoing_total(from).to_string());
        t.row(row);
    }
    let mut totals = vec!["2021 total".to_string()];
    for to in churn::ChurnCategory::ALL {
        totals.push(m.incoming_total(to).to_string());
    }
    totals.push(m.total.to_string());
    t.row(totals);

    // Headline numbers the paper calls out.
    let self_out: usize = churn::ChurnCategory::ALL
        .iter()
        .filter(|c| **c != churn::ChurnCategory::SelfHosted)
        .map(|c| m.flow(churn::ChurnCategory::SelfHosted, *c))
        .sum();
    let self_to_big = m.flow(churn::ChurnCategory::SelfHosted, churn::ChurnCategory::Google)
        + m.flow(churn::ChurnCategory::SelfHosted, churn::ChurnCategory::Microsoft);
    let mut out = t.render();
    let _ = writeln!(
        out,
        "\nSelf-hosted domains that switched: {self_out}; of those to Google/Microsoft: {self_to_big} ({})",
        pct(self_to_big as f64 / self_out.max(1) as f64)
    );
    out
}

/// Figure 8: mail-provider preference by ccTLD (June 2021, Alexa).
pub fn exp_fig8(ctx: &mut ExperimentCtx) -> String {
    let k = ExperimentCtx::last_snapshot();
    let companies = ctx.companies.clone();
    let records = ctx.study.populations[0].domains.clone();
    let result = ctx.result(k, Dataset::Alexa).clone();
    let m = country::country_matrix(&result, &records, &companies);
    let mut t = Table::new("Figure 8: provider share of ccTLD domains (June 2021)")
        .headers(["ccTLD", "Domains", "Google", "Microsoft", "Tencent", "Yandex", "US combined"]);
    for cc in country::FIG8_CCTLDS {
        let us = m.share(cc, "Google") + m.share(cc, "Microsoft");
        t.row([
            format!(".{cc}"),
            m.total(cc).to_string(),
            pct(m.share(cc, "Google")),
            pct(m.share(cc, "Microsoft")),
            pct(m.share(cc, "Tencent")),
            pct(m.share(cc, "Yandex")),
            pct(us),
        ]);
    }
    t.render()
}

/// Table 6: top-15 companies per dataset (June 2021).
pub fn exp_table6(ctx: &mut ExperimentCtx) -> String {
    let k = ExperimentCtx::last_snapshot();
    let companies = ctx.companies.clone();
    let mut per_ds = Vec::new();
    for ds in Dataset::ALL {
        let result = ctx.result(k, ds).clone();
        per_ds.push((ds, market::market_share(&result, &companies, None)));
    }
    let mut t = Table::new("Table 6: top 15 companies per dataset (June 2021)").headers([
        "Rank", "Alexa", "", "COM", "", "GOV", "",
    ]);
    for i in 0..15 {
        let mut row = vec![(i + 1).to_string()];
        for (_, shares) in &per_ds {
            match shares.rows.get(i) {
                Some(r) => {
                    row.push(r.company.clone());
                    row.push(format!("{:.0} ({})", r.weight, pct(r.share)));
                }
                None => {
                    row.push(String::new());
                    row.push(String::new());
                }
            }
        }
        t.row(row);
    }
    let mut totals = vec!["Top15".to_string()];
    for (_, shares) in &per_ds {
        let w: f64 = shares.top(15).iter().map(|r| r.weight).sum();
        totals.push(String::new());
        totals.push(format!("{:.0} ({})", w, pct(shares.top_share(15))));
    }
    t.row(totals);
    t.render()
}

/// Extension (§3.4 future work): discover the *eventual* mail provider
/// behind filtering services through SPF records. For every domain the
/// methodology attributes to an e-mail security company, resolve its TXT
/// records over the simulated network, parse the SPF policy, and take the
/// registered domains of `include:`/`redirect=` targets as eventual-
/// provider candidates — then score against ground truth.
pub fn exp_spf(ctx: &mut ExperimentCtx) -> String {
    use mx_dns::RecordType;
    let k = ExperimentCtx::last_snapshot();
    let companies = ctx.companies.clone();
    let psl = mx_psl::PublicSuffixList::builtin();
    let mut out = String::new();

    for ds in [Dataset::Alexa, Dataset::Gov] {
        let result = ctx.result(k, ds).clone();
        let (world, _) = ctx.snapshot(k);
        let resolver = world.net.resolver();

        let mut filtered = 0usize;
        let mut with_spf = 0usize;
        let mut recovered = 0usize;
        let mut correct = 0usize;
        let mut backend_counts: std::collections::BTreeMap<String, usize> = Default::default();

        for (name, a) in &result.domains {
            // Only domains the MX-level methodology attributes to a
            // security company have a hidden backend.
            let Some(share) = a.shares.first() else { continue };
            let company = companies.company_or_id(&share.provider).to_string();
            let is_security = mx_corpus::catalog::by_name(&company)
                .is_some_and(|c| c.kind == mx_corpus::ServiceKind::EmailSecurity);
            if !is_security || a.shares.len() != 1 {
                continue;
            }
            filtered += 1;
            let Ok(records) = resolver.resolve(name, RecordType::Txt) else {
                continue;
            };
            let spf = records.iter().find_map(|r| match &r.rdata {
                mx_dns::RData::Txt(strings) => {
                    mx_infer::SpfRecord::parse(&strings.join(""))
                }
                _ => None,
            });
            let Some(spf) = spf else { continue };
            with_spf += 1;
            let candidates = mx_infer::eventual_providers(&spf, &name.to_dotted(), &psl);
            // The security provider itself is expected among the includes;
            // the *other* mapped company is the eventual backend.
            let backend = candidates
                .iter()
                .map(|id| companies.company_or_id(id).to_string())
                .find(|c| c != &company);
            let truth = world.truth.of(name);
            let expected = truth.and_then(|t| t.eventual_company.clone());
            match (&backend, &expected) {
                (Some(b), Some(e)) => {
                    recovered += 1;
                    *backend_counts.entry(b.clone()).or_insert(0) += 1;
                    if b == e {
                        correct += 1;
                    }
                }
                (Some(b), None) => {
                    // Candidate found but the domain actually runs its own
                    // backend — a false discovery.
                    recovered += 1;
                    *backend_counts.entry(b.clone()).or_insert(0) += 1;
                }
                (None, _) => {}
            }
        }

        let mut t = Table::new(format!(
            "SPF eventual-provider discovery — {} (June 2021)",
            ds.label()
        ))
        .headers(["Metric", "Value"]);
        t.row(["security-filtered domains".to_string(), filtered.to_string()]);
        t.row(["with parseable SPF".to_string(), with_spf.to_string()]);
        t.row(["eventual provider candidate found".to_string(), recovered.to_string()]);
        t.row([
            "correct vs ground truth".to_string(),
            format!(
                "{correct} ({})",
                pct(correct as f64 / recovered.max(1) as f64)
            ),
        ]);
        for (b, n) in &backend_counts {
            t.row([format!("  backend: {b}"), n.to_string()]);
        }
        let _ = writeln!(out, "{}", t.render());
    }
    let _ = writeln!(
        out,
        "The MX record shows only the first delivery hop; the SPF policy \
         names the platform authorised to handle the domain's mail — \
         recovering the consolidation hidden behind filtering services."
    );
    out
}

/// Ablation: how the step-4 confidence threshold trades manual-examination
/// effort against accuracy, and what each data source is worth on the full
/// population (the design-choice ablations DESIGN.md calls out).
pub fn exp_ablation(ctx: &mut ExperimentCtx) -> String {
    let k = ExperimentCtx::last_snapshot();
    let companies = ctx.companies.clone();
    let obs = ctx
        .observation(k, Dataset::Alexa)
        .expect("alexa active")
        .clone();
    let (world, _) = ctx.snapshot(k);
    let truth = world.truth.clone();

    let eligible: Vec<&mx_dns::Name> = obs
        .domains
        .iter()
        .map(|d| &d.domain)
        .filter(|n| {
            truth
                .of(n)
                .is_some_and(|t| t.has_smtp && t.expected_provider_id.is_some())
        })
        .collect();
    let score = |result: &mx_infer::InferenceResult| -> usize {
        eligible
            .iter()
            .filter(|d| mx_analysis::accuracy::is_correct(result, &truth, &companies, d))
            .count()
    };

    let mut out = String::new();
    // Part 1: strategy ablation over the full SMTP-reachable population.
    let mut t = Table::new(format!(
        "Ablation A — data sources (Alexa, {} SMTP-reachable domains)",
        eligible.len()
    ))
    .headers(["Strategy", "Correct", "Accuracy"]);
    for strategy in Strategy::ALL {
        let pipeline = match strategy {
            Strategy::PriorityBased => {
                Pipeline::priority_based(mx_corpus::provider_knowledge(10))
            }
            other => Pipeline::new(other),
        };
        let result = pipeline.run(&obs);
        let c = score(&result);
        t.row([
            strategy.label().to_string(),
            c.to_string(),
            mx_analysis::report::pct(c as f64 / eligible.len().max(1) as f64),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());

    // Part 2: confidence-threshold sweep for the misidentification check.
    let mut t = Table::new("Ablation B — step-4 confidence threshold").headers([
        "Threshold",
        "Examined",
        "Corrected",
        "Correct",
        "Accuracy",
    ]);
    for threshold in [1usize, 2, 5, 10, 20, 50, 200, usize::MAX] {
        let pipeline =
            Pipeline::priority_based(mx_corpus::provider_knowledge(threshold));
        let result = pipeline.run(&obs);
        let c = score(&result);
        let label = if threshold == usize::MAX {
            "off".to_string()
        } else {
            threshold.to_string()
        };
        t.row([
            label,
            result.misid.examined.len().to_string(),
            result.misid.corrections.len().to_string(),
            c.to_string(),
            mx_analysis::report::pct(c as f64 / eligible.len().max(1) as f64),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "The paper's observation holds: a small threshold already catches the\n\
         VPS/forged corner cases (accuracy gain), while raising it further\n\
         only grows the manual-examination workload."
    );
    out
}
