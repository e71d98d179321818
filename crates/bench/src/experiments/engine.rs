//! Query-engine experiments: E3 (pushdown ablation), E4 (views vs
//! hand-written plans), E9 (FedMark), E11 (dialect modeling), E12
//! (execution-time prediction).

use std::sync::Arc;

use eii::data::{EiiError, Result};
use eii::prelude::*;
use eii::row;
use eii::warehouse::RefreshMode;

use crate::fedmark::{keyed_table, sizes, FedMark};
use crate::report::{fmt_f, Report};
use crate::runner::{run, Run, Step};

/// Errors (with `what` and both counts) unless two runs of one statement
/// answered the same number of rows.
fn agree(a: &Run, b: &Run, what: &str) -> Result<()> {
    if a.rows() == b.rows() {
        return Ok(());
    }
    Err(EiiError::Execution(format!("{what}: {} vs {} rows", a.rows(), b.rows())))
}

/// E3 — Bitton §3's indictment of "pull out the relevant data from all the
/// data sources and process it entirely there": the optimization ladder
/// from naive-XML shipping to the full optimizer, across selectivities.
pub fn e3_pushdown_ablation() -> Result<Report> {
    let mut report = Report::new(
        "e3",
        "pushdown ablation: bytes shipped and time vs optimization level",
        "Bitton §3 — naive pull-everything (XML) is catastrophic; each \
         optimization (native wire, filter pushdown, projection+join \
         planning) cuts shipped volume",
        &[
            "selectivity",
            "config",
            "rows out",
            "bytes shipped",
            "sim ms",
            "vs naive-xml",
        ],
    );
    let (n_cust, ..) = sizes(1);
    for frac in [0.01f64, 0.10, 0.50] {
        let k = (n_cust as f64 * frac) as i64;
        let sql = format!(
            "SELECT c.name, o.total FROM crm.customers c \
             JOIN sales.orders o ON c.customer_id = o.customer_id \
             WHERE c.customer_id < {k}"
        );
        let mut baseline_bytes = 0usize;
        for (label, config, xml) in [
            ("naive + XML wire", PlannerConfig::naive(), true),
            ("naive", PlannerConfig::naive(), false),
            ("+ filter pushdown", PlannerConfig::filters_only(), false),
            ("full optimizer", PlannerConfig::optimized(), false),
        ] {
            let env = FedMark::build_with_config(1, 23, config)?;
            if xml {
                for s in ["crm", "sales"] {
                    env.system.federation().set_wire_format(s, WireFormat::Xml)?;
                }
            }
            let out = run(&env.system, [Step::Query(sql.clone())]).checked()?;
            let bytes = out.traffic.bytes;
            if label == "naive + XML wire" {
                baseline_bytes = bytes;
            }
            report.row(vec![
                format!("{:.0}%", frac * 100.0),
                label.to_string(),
                out.rows().to_string(),
                bytes.to_string(),
                fmt_f(out.sim_ms()),
                format!("{:.1}%", bytes as f64 / baseline_bytes as f64 * 100.0),
            ]);
        }
    }
    report.note("same result rows at every level; only the plan changes".to_string());
    Ok(report)
}

/// E4 — Carey §4: "constructing the EAI business process is like
/// hand-writing a distributed query plan ... let the system choose the
/// right query plan for each of the different employee queries."
///
/// The hand-coded integration fetches every backend fully and stitches at
/// the client (one fixed plan for all access paths); the EII view lets the
/// optimizer specialize per query.
pub fn e4_views_vs_handwritten() -> Result<Report> {
    let mut report = Report::new(
        "e4",
        "single view of employee: hand-written fixed plan vs optimizer",
        "Carey §4 — a fixed hand-written plan serves every access path at \
         full-scan cost; the planner specializes each query",
        &[
            "access path",
            "fixed-plan bytes",
            "fixed-plan ms",
            "optimizer bytes",
            "optimizer ms",
            "bytes saved",
        ],
    );
    let build = |config: PlannerConfig| -> Result<EiiSystem> {
        use DataType::{Int, Str};
        let clock = SimClock::new();
        let hr = Database::new("hr", clock.clone());
        let rows = (0..300i64).map(|i| row![i, format!("emp {i}"), format!("dept{}", i % 6)]);
        keyed_table(&hr, "t", &[("emp_id", Int), ("name", Str), ("department", Str)], rows)?;
        let fac = Database::new("facilities", clock.clone());
        let rows = (0..300i64).map(|i| row![i, i, format!("loc{}", i % 4)]);
        keyed_table(&fac, "t", &[("office_id", Int), ("occupant", Int), ("location", Str)], rows)?;
        let it = Database::new("it", clock.clone());
        let rows = (0..300i64).map(|i| row![i, i, format!("model{}", i % 9)]);
        keyed_table(&it, "t", &[("asset_id", Int), ("owner", Int), ("model", Str)], rows)?;
        let mut builder = EiiSystem::builder(clock).planner_config(config);
        for db in [hr, fac, it] {
            builder = builder.source(
                Arc::new(RelationalConnector::new(db)),
                LinkProfile::wan(),
                WireFormat::Native,
            );
        }
        let sys = builder.build_owned()?;
        sys.execute(
            "CREATE VIEW employee_view AS \
             SELECT e.emp_id, e.name, e.department, o.location, a.model \
             FROM hr.t e JOIN facilities.t o ON e.emp_id = o.occupant \
             JOIN it.t a ON e.emp_id = a.owner",
        )?;
        Ok(sys)
    };

    let patterns = [
        ("by employee id", "SELECT name FROM employee_view WHERE emp_id = 17"),
        ("by department", "SELECT name FROM employee_view WHERE department = 'dept2'"),
        ("by location", "SELECT name FROM employee_view WHERE location = 'loc1'"),
        ("by computer model", "SELECT name FROM employee_view WHERE model = 'model3'"),
    ];
    // The fixed plan: what the hand-coded EAI process does — pull all three
    // systems fully and stitch at the portal, for every access path alike.
    let fixed = build(PlannerConfig::naive())?;
    let optimizer = build(PlannerConfig::optimized())?;
    for (label, sql) in patterns {
        let by_hand = run(&fixed, [Step::Query(sql.into())]).checked()?;
        let planned = run(&optimizer, [Step::Query(sql.into())]).checked()?;
        agree(&by_hand, &planned, &format!("E4 plans disagree on {label}"))?;
        let (fixed_bytes, opt_bytes) = (by_hand.traffic.bytes, planned.traffic.bytes);
        report.row(vec![
            label.to_string(),
            fixed_bytes.to_string(),
            fmt_f(by_hand.sim_ms()),
            opt_bytes.to_string(),
            fmt_f(planned.sim_ms()),
            format!(
                "{:.0}%",
                (1.0 - opt_bytes as f64 / fixed_bytes as f64) * 100.0
            ),
        ]);
    }
    report.note(
        "the fixed plan's cost is identical for every path; the optimizer's \
         scales with each predicate's selectivity",
    );
    Ok(report)
}

/// E9 — the FedMark suite: per-query latency and volume, EII vs warehouse,
/// across scale factors.
pub fn e9_fedmark() -> Result<Report> {
    let mut report = Report::new(
        "e9",
        "FedMark Q1-Q11: live EII vs hourly-refreshed warehouse",
        "Bitton §3 — a TPC-style benchmark for EII; the warehouse wins raw \
         latency once loaded, EII wins freshness and reaches sources the \
         warehouse cannot bulk-extract (Q8)",
        &[
            "sf",
            "query",
            "rows",
            "EII ms",
            "EII bytes",
            "WH ms",
            "EII/WH",
        ],
    );
    for sf in [1usize, 2, 5] {
        let env = FedMark::build(sf, 31)?;
        // Load the warehouse once.
        let wh = env.warehouse(&FedMark::loadable_tables())?;
        wh.refresh_all(RefreshMode::Full)?;
        let wh_sys = env.warehouse_system(&wh)?;

        for (id, _desc, sql) in FedMark::queries() {
            let live = run(&env.system, [Step::Query(sql.into())]).checked()?;
            let eii_ms = live.sim_ms();
            let (wh_ms_text, ratio) = if id == "Q8" {
                ("n/a (access-limited)".to_string(), "-".to_string())
            } else {
                let loaded = run(&wh_sys, [Step::Query(FedMark::warehouse_sql(sql))]).checked()?;
                agree(&live, &loaded, &format!("E9 {id}: warehouse result diverges"))?;
                let wh_ms = loaded.sim_ms();
                (fmt_f(wh_ms), format!("{:.0}x", eii_ms / wh_ms.max(1e-9)))
            };
            report.row(vec![
                sf.to_string(),
                id.to_string(),
                live.rows().to_string(),
                fmt_f(eii_ms),
                live.traffic.bytes.to_string(),
                wh_ms_text,
                ratio,
            ]);
        }
    }
    report.note("warehouse numbers exclude its standing refresh cost (see E1)".to_string());
    Ok(report)
}

/// E11 — Draper §5: fine-grained dialect modeling "had a decisive impact on
/// our performance on every comparison we were ever able to make".
pub fn e11_dialect_ablation() -> Result<Report> {
    let mut report = Report::new(
        "e11",
        "dialect modeling: fine-grained vs lowest-common-denominator wrapper",
        "Draper §5 — modeling vendor quirks finely lets predicates push that \
         a generic wrapper must evaluate at the assembly site",
        &[
            "predicate shape",
            "fine bytes",
            "fine ms",
            "LCD bytes",
            "LCD ms",
            "LCD/fine bytes",
        ],
    );
    let queries = [
        ("equality", "SELECT name FROM crm.customers WHERE region = 'r1'"),
        (
            "range",
            "SELECT name FROM crm.customers WHERE customer_id > 50 AND customer_id < 80",
        ),
        ("LIKE", "SELECT name FROM crm.customers WHERE name LIKE 'acme%'"),
        (
            "IN list",
            "SELECT name FROM crm.customers WHERE region IN ('r1', 'r2', 'r3')",
        ),
        (
            "function",
            "SELECT name FROM crm.customers WHERE UPPER(segment) = 'S1'",
        ),
        (
            "disjunction",
            "SELECT name FROM crm.customers WHERE region = 'r1' OR segment = 's2'",
        ),
    ];
    let fine = FedMark::build(1, 37)?;
    let mut lcd_cfg = PlannerConfig::optimized();
    lcd_cfg.dialect_override = Some(eii::federation::Dialect::lowest_common_denominator());
    let lcd = FedMark::build_with_config(1, 37, lcd_cfg)?;
    for (label, sql) in queries {
        let fine_run = run(&fine.system, [Step::Query(sql.into())]).checked()?;
        let lcd_run = run(&lcd.system, [Step::Query(sql.into())]).checked()?;
        agree(&fine_run, &lcd_run, &format!("E11 wrappers disagree on {label}"))?;
        let (fine_bytes, lcd_bytes) = (fine_run.traffic.bytes, lcd_run.traffic.bytes);
        report.row(vec![
            label.to_string(),
            fine_bytes.to_string(),
            fmt_f(fine_run.sim_ms()),
            lcd_bytes.to_string(),
            fmt_f(lcd_run.sim_ms()),
            format!("{:.1}x", lcd_bytes as f64 / fine_bytes as f64),
        ]);
    }
    report.note(
        "the LCD wrapper still pushes bare equality; everything else ships whole \
         tables",
    );
    Ok(report)
}

/// E12 — Sikka §8: "query optimization and query execution-time prediction
/// ... continue to be underserved issues". How well does our cost model
/// predict?
pub fn e12_prediction() -> Result<Report> {
    let mut report = Report::new(
        "e12",
        "execution-time prediction: predicted vs measured",
        "Sikka §8 — prediction should at least rank queries correctly even \
         when absolute numbers drift",
        &["query", "predicted ms", "measured ms", "ratio"],
    );
    let env = FedMark::build(2, 41)?;
    let mut predicted = Vec::new();
    let mut measured = Vec::new();
    for (id, _desc, sql) in FedMark::queries() {
        let est = env.system.predict(sql)?;
        let actual = run(&env.system, [Step::Query(sql.into())]).checked()?.sim_ms();
        predicted.push(est.sim_ms);
        measured.push(actual);
        report.row(vec![
            id.to_string(),
            fmt_f(est.sim_ms),
            fmt_f(actual),
            format!("{:.2}", est.sim_ms / actual.max(1e-9)),
        ]);
    }
    let rho = spearman(&predicted, &measured);
    report.note(format!(
        "Spearman rank correlation predicted-vs-measured: {rho:.2} (1.0 = perfect ordering)"
    ));
    Ok(report)
}

/// Spearman rank correlation of two equally-long samples.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    fn ranks(xs: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&i, &j| xs[i].total_cmp(&xs[j]));
        let mut r = vec![0.0; xs.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank as f64;
        }
        r
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    if n < 2.0 {
        return 1.0;
    }
    let d2: f64 = ra
        .iter()
        .zip(&rb)
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    1.0 - 6.0 * d2 / (n * (n * n - 1.0))
}
