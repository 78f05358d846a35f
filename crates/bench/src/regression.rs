//! The CI bench-regression gate: `report --check BENCH_streaming.json`.
//!
//! The committed `BENCH_streaming.json` used to be documentation; this
//! module makes it an **enforced contract**. [`check`] re-runs the §7
//! workloads at the baseline's scale and fails (non-zero exit in the
//! `report` binary) when
//!
//! * any workload's `result_rows` differs from the baseline — a
//!   correctness regression dressed up as a perf number;
//! * any `*_work` counter — or the `mask_batches` and spill-volume
//!   columns — regresses beyond [`WORK_TOLERANCE`]: the deterministic,
//!   hardware-independent cost proxies the paper's argument is measured
//!   in (the file holds no wall times; those are `benchmark/`'s);
//! * a recomputed row breaks a cross-column invariant
//!   ([`invariant_violations`]): DP join ordering measuring more work
//!   than the rewrite's order, or the cost-based plan more than the best
//!   forced join algorithm.
//!
//! Either way it prints a per-workload delta table, so a red gate says
//! exactly which workload and which counter moved, by how much.
//!
//! The workspace builds offline (no serde), so the baseline is read
//! back with the small hand-rolled parser below — it understands
//! exactly the JSON the sibling emitter writes (flat objects of string
//! and number fields inside one `workloads` array).

use crate::streaming_report::{compare, CompRow};
use std::fmt::Write as _;

/// Allowed relative growth of a `*_work` counter before the gate fails
/// (10%). Improvements (shrinking work) always pass.
pub const WORK_TOLERANCE: f64 = 0.10;

/// Absolute slack in work units, so a tiny baseline (or a zero) does
/// not turn one extra probe into a red build.
pub const WORK_SLACK: f64 = 16.0;

/// One workload row parsed from the committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// Workload label.
    pub workload: String,
    /// Numeric fields, in file order.
    pub fields: Vec<(String, f64)>,
}

impl BaselineRow {
    /// The named numeric field, if present.
    pub fn field(&self, name: &str) -> Option<f64> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// The parsed committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The generator scale the numbers were measured at.
    pub scale: usize,
    /// Per-workload rows.
    pub workloads: Vec<BaselineRow>,
}

/// Parses the baseline JSON (the exact shape `streaming_report::to_json`
/// emits). Errors are strings — the gate prints them and exits non-zero.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let scale = scan_number_field(text, "scale")
        .ok_or_else(|| "baseline has no \"scale\" field".to_string())? as usize;
    let arr_start = text
        .find("\"workloads\"")
        .and_then(|i| text[i..].find('[').map(|j| i + j + 1))
        .ok_or_else(|| "baseline has no \"workloads\" array".to_string())?;
    let mut workloads = Vec::new();
    let mut rest = &text[arr_start..];
    while let Some(obj_start) = rest.find('{') {
        let obj_end = rest[obj_start..]
            .find('}')
            .map(|j| obj_start + j)
            .ok_or_else(|| "unterminated workload object".to_string())?;
        let obj = &rest[obj_start + 1..obj_end];
        workloads.push(parse_row(obj)?);
        rest = &rest[obj_end + 1..];
        // stop at the array's closing bracket
        if rest.trim_start().starts_with(']') {
            break;
        }
    }
    if workloads.is_empty() {
        return Err("baseline workloads array is empty".to_string());
    }
    Ok(Baseline { scale, workloads })
}

/// Parses one flat `"key": value, …` object body.
fn parse_row(body: &str) -> Result<BaselineRow, String> {
    let mut workload = None;
    let mut fields = Vec::new();
    let mut rest = body;
    while let Some(k0) = rest.find('"') {
        let k1 = rest[k0 + 1..]
            .find('"')
            .map(|j| k0 + 1 + j)
            .ok_or_else(|| "unterminated key".to_string())?;
        let key = &rest[k0 + 1..k1];
        let after = rest[k1 + 1..]
            .find(':')
            .map(|j| k1 + 2 + j)
            .ok_or_else(|| format!("no value for key {key:?}"))?;
        let value = rest[after..].trim_start();
        if let Some(stripped) = value.strip_prefix('"') {
            let end = stripped
                .find('"')
                .ok_or_else(|| format!("unterminated string value for {key:?}"))?;
            if key == "workload" {
                workload = Some(stripped[..end].to_string());
            }
            rest = &stripped[end + 1..];
        } else {
            let end = value.find([',', '}']).unwrap_or(value.len());
            let raw = value[..end].trim();
            let num = raw
                .parse::<f64>()
                .map_err(|e| format!("bad number {raw:?} for {key:?}: {e}"))?;
            fields.push((key.to_string(), num));
            rest = &value[end..];
        }
    }
    Ok(BaselineRow {
        workload: workload
            .ok_or_else(|| "workload object has no \"workload\" field".to_string())?,
        fields,
    })
}

/// Extracts a top-level `"name": number` field.
fn scan_number_field(text: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\"");
    let i = text.find(&needle)?;
    let rest = text[i + needle.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// One gated comparison's outcome.
struct Delta {
    workload: String,
    column: &'static str,
    baseline: f64,
    current: f64,
    failed: bool,
}

impl Delta {
    fn pct(&self) -> f64 {
        if self.baseline == 0.0 {
            if self.current == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.current - self.baseline) / self.baseline * 100.0
        }
    }
}

/// Recomputes the workloads at the baseline's scale and gates them (see
/// the module docs). `Ok(report)` when everything holds, `Err(report)`
/// when any gate fails — both carry the full delta table.
pub fn check(baseline_text: &str) -> Result<String, String> {
    let baseline = parse_baseline(baseline_text)?;
    let rows = compare(baseline.scale);
    check_rows(&baseline, &rows)
}

/// [`check`] against already-computed rows (separated for testability).
pub fn check_rows(baseline: &Baseline, rows: &[CompRow]) -> Result<String, String> {
    let mut deltas: Vec<Delta> = Vec::new();
    let mut missing: Vec<String> = Vec::new();
    for base in &baseline.workloads {
        let Some(row) = rows.iter().find(|r| r.workload == base.workload) else {
            missing.push(base.workload.clone());
            continue;
        };
        for (column, current) in row.gated_fields() {
            let Some(old) = base.field(column) else {
                // a column added after the baseline was committed is
                // not a regression; it starts being gated once the
                // baseline is refreshed
                continue;
            };
            let failed = if column == "result_rows" {
                current != old
            } else {
                current > old * (1.0 + WORK_TOLERANCE) && current > old + WORK_SLACK
            };
            deltas.push(Delta {
                workload: base.workload.clone(),
                column,
                baseline: old,
                current,
                failed,
            });
        }
    }

    let violations = invariant_violations(rows);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Bench regression gate — scale {}, tolerance {:.0}% on *_work, result_rows exact, \
         join_order_work <= rewrite_order_work, cost_based_work <= best forced",
        baseline.scale,
        WORK_TOLERANCE * 100.0
    );
    let _ = writeln!(
        out,
        "  {:<26} {:<24} {:>12} {:>12} {:>8}",
        "workload", "column", "baseline", "current", "delta"
    );
    for d in &deltas {
        let _ = writeln!(
            out,
            "  {:<26} {:<24} {:>12} {:>12} {:>7.1}% {}",
            d.workload,
            d.column,
            d.baseline,
            d.current,
            d.pct(),
            if d.failed { "<< REGRESSION" } else { "" }
        );
    }
    for w in &missing {
        let _ = writeln!(out, "  {w:<26} MISSING from the recomputed workloads");
    }
    for v in &violations {
        let _ = writeln!(out, "  {v} << REGRESSION");
    }
    let failures = deltas.iter().filter(|d| d.failed).count() + missing.len() + violations.len();
    if failures == 0 {
        let _ = writeln!(out, "PASS: {} comparisons within tolerance", deltas.len());
        Ok(out)
    } else {
        let _ = writeln!(
            out,
            "FAIL: {failures} gate(s) violated — either fix the regression or refresh the \
             committed BENCH_streaming.json (run `cargo run -p oodb-bench --release --bin \
             report` and commit the result) with a justification"
        );
        Err(out)
    }
}

/// Workloads exempt from `cost_based_work <= best forced`: plain
/// equi-joins, where `Stats::work` excludes sort comparisons, so the
/// forced sort-merge counter under-reports its true cost and the cost
/// model (which does price the sort) rightly picks hash anyway. Which of
/// the two is wrong is ROADMAP item 9's question.
const SORT_COST_EXEMPT: [&str; 2] = ["join_supplier_delivery", "multi_join_chain"];

/// The cross-column invariants every recomputed row must hold — each
/// compares two freshly measured columns against *each other*, not
/// against the baseline, so a cost-model drift fails the gate even if
/// both columns stayed within tolerance:
///
/// * `join_order_work <= rewrite_order_work` — DP enumeration must not
///   pick an order that measures worse than the rewrite's own;
/// * `cost_based_work <= best_forced_work`, except on the two equi-join
///   workloads in `SORT_COST_EXEMPT` — letting the optimizer choose per
///   operator is at least as good as the best global rule, the §7
///   argument in one comparison.
pub fn invariant_violations(rows: &[CompRow]) -> Vec<String> {
    let mut out = Vec::new();
    for row in rows {
        if row.join_order_work > row.rewrite_order_work {
            out.push(format!(
                "{:<26} join_order_work {} > rewrite_order_work {}",
                row.workload, row.join_order_work, row.rewrite_order_work
            ));
        }
        if !SORT_COST_EXEMPT.contains(&row.workload.as_str())
            && row.cost_based_work > row.best_forced_work()
        {
            out.push(format!(
                "{:<26} cost_based_work {} > best forced {} (hash {}, sort-merge {}, nl {})",
                row.workload,
                row.cost_based_work,
                row.best_forced_work(),
                row.forced_hash_work,
                row.forced_sort_merge_work,
                row.forced_nested_loop_work,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming_report::to_json;

    /// A tiny synthetic row so tests don't run real workloads.
    fn row(workload: &str, work: u64, result_rows: usize) -> CompRow {
        CompRow {
            workload: workload.to_string(),
            result_rows,
            nested_loop_work: work,
            materialized_work: work,
            streaming_work: work,
            streaming_operators: 3,
            streaming_batches: 3,
            cost_based_work: work,
            forced_hash_work: work,
            forced_sort_merge_work: work,
            forced_nested_loop_work: work,
            spill_bytes: 0,
            smj_spill_bytes: 0,
            join_order_work: work,
            rewrite_order_work: work,
            mask_batches: 0,
        }
    }

    #[test]
    fn baseline_roundtrips_through_the_emitter() {
        let rows = vec![row("alpha", 1000, 42), row("beta", 2000, 7)];
        let text = to_json(123, &rows);
        let base = parse_baseline(&text).unwrap();
        assert_eq!(base.scale, 123);
        assert_eq!(base.workloads.len(), 2);
        assert_eq!(base.workloads[0].workload, "alpha");
        assert_eq!(base.workloads[0].field("streaming_work"), Some(1000.0));
        assert_eq!(base.workloads[1].field("result_rows"), Some(7.0));
        // identical rows pass the gate
        let report = check_rows(&base, &rows).expect("identical rows must pass");
        assert!(report.contains("PASS"), "{report}");
    }

    #[test]
    fn work_regressions_and_result_drift_fail() {
        let baseline_rows = vec![row("alpha", 1000, 42)];
        let base = parse_baseline(&to_json(99, &baseline_rows)).unwrap();
        // +50% work: regression
        let report = check_rows(&base, &[row("alpha", 1500, 42)]).unwrap_err();
        assert!(report.contains("REGRESSION"), "{report}");
        // within 10%: fine
        assert!(check_rows(&base, &[row("alpha", 1050, 42)]).is_ok());
        // faster is always fine
        assert!(check_rows(&base, &[row("alpha", 100, 42)]).is_ok());
        // different result cardinality: hard fail even if work improved
        let report = check_rows(&base, &[row("alpha", 100, 41)]).unwrap_err();
        assert!(report.contains("result_rows"), "{report}");
        // missing workload: fail
        let report = check_rows(&base, &[row("other", 1000, 42)]).unwrap_err();
        assert!(report.contains("MISSING"), "{report}");
    }

    #[test]
    fn dp_losing_to_the_rewrite_order_fails_the_gate() {
        let base = parse_baseline(&to_json(99, &[row("alpha", 1000, 42)])).unwrap();
        // within per-column tolerance of the baseline, but DP measured
        // *worse* than the rewrite order — the cross-column gate fires
        let mut bad = row("alpha", 1000, 42);
        bad.join_order_work = 1001;
        bad.rewrite_order_work = 1000;
        let report = check_rows(&base, &[bad]).unwrap_err();
        assert!(report.contains("join_order_work 1001"), "{report}");
        // equal is fine (DP declined to reorder)
        assert!(check_rows(&base, &[row("alpha", 1000, 42)]).is_ok());
    }

    #[test]
    fn cost_based_losing_to_a_forced_algorithm_fails_the_gate() {
        let base = parse_baseline(&to_json(99, &[row("alpha", 1000, 42)])).unwrap();
        // within per-column tolerance of the baseline, but the
        // cost-based plan measured *worse* than forced sort-merge
        let mut bad = row("alpha", 1000, 42);
        bad.cost_based_work = 1001;
        let report = check_rows(&base, &[bad]).unwrap_err();
        assert!(report.contains("cost_based_work 1001"), "{report}");
        // equal is fine (the optimizer chose what a rule would)
        assert!(check_rows(&base, &[row("alpha", 1000, 42)]).is_ok());
        // the documented equi-join exemption holds
        let base = parse_baseline(&to_json(99, &[row("multi_join_chain", 1000, 42)])).unwrap();
        let mut exempt = row("multi_join_chain", 1000, 42);
        exempt.cost_based_work = 1001;
        assert!(check_rows(&base, &[exempt]).is_ok());
    }

    #[test]
    fn tiny_baselines_get_absolute_slack() {
        let base = parse_baseline(&to_json(1, &[row("w", 10, 1)])).unwrap();
        // 10 → 12 is +20% but within the absolute slack of 16 units
        assert!(check_rows(&base, &[row("w", 12, 1)]).is_ok());
        // 10 → 50 exceeds both
        assert!(check_rows(&base, &[row("w", 50, 1)]).is_err());
    }

    #[test]
    fn committed_baseline_parses() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_streaming.json"
        ))
        .expect("committed baseline exists");
        let base = parse_baseline(&text).expect("committed baseline parses");
        assert_eq!(base.scale, 1600);
        assert_eq!(base.workloads.len(), 9);
        for w in &base.workloads {
            assert!(w.field("result_rows").is_some(), "{w:?}");
            assert!(w.field("streaming_work").is_some(), "{w:?}");
            assert!(w.field("join_order_work").is_some(), "{w:?}");
            assert!(w.field("rewrite_order_work").is_some(), "{w:?}");
        }
    }
}
