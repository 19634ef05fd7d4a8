//! The per-cell outcome report: `results/<bin>-cells.json`.
//!
//! Every sweep bin writes one of these regardless of how its cells ended,
//! so a partially failed sweep is visible in the artifact, not just the
//! scrollback. Schema per cell: `cell`, `attempts`, `status`
//! (`ok` / `recovered` / `degraded` / `failed`), `ok`; a `degraded` cell
//! adds `degrade_reason` and `last_durable_step`; a failed cell carries a
//! typed `error` object (`kind`, `message`, optional `step`); and every
//! cell lists its runtime `events` (retries, repairs, rollbacks,
//! cancellations, degradations).

use std::fmt;
use std::path::Path;

use sops_chains::telemetry::json_escape;

use crate::runner::{CellOutcome, CellStatus};

/// Writes per-cell outcomes to `<dir>/<bin>-cells.json` and returns the
/// rendered JSON. Cell values are recorded through their `Debug` form so
/// a failed sweep still documents what the surviving cells produced.
///
/// # Panics
///
/// Panics when the report file cannot be written — a results directory
/// that rejects writes is not a per-cell failure but a broken harness.
pub fn write_cell_report<T: fmt::Debug>(
    dir: &Path,
    bin: &str,
    outcomes: &[CellOutcome<T>],
) -> String {
    let json = render_cell_report(bin, outcomes);
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("create results dir {}: {e}", dir.display()));
    let path = dir.join(format!("{bin}-cells.json"));
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  saved {}", path.display());
    json
}

/// Renders the per-cell outcome JSON without touching the filesystem.
#[must_use]
pub(crate) fn render_cell_report<T: fmt::Debug>(bin: &str, outcomes: &[CellOutcome<T>]) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"bin\": \"{}\",\n", json_escape(bin)));
    json.push_str(&format!(
        "  \"cells_failed\": {},\n",
        outcomes
            .iter()
            .filter(|o| o.status == CellStatus::Failed)
            .count()
    ));
    json.push_str(&format!(
        "  \"cells_degraded\": {},\n",
        outcomes
            .iter()
            .filter(|o| matches!(o.status, CellStatus::Degraded { .. }))
            .count()
    ));
    json.push_str(&format!(
        "  \"cells_recovered\": {},\n",
        outcomes
            .iter()
            .filter(|o| o.status == CellStatus::Recovered)
            .count()
    ));
    json.push_str("  \"cells\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        json.push_str("    {");
        json.push_str(&format!("\"cell\": \"{}\", ", json_escape(&o.cell)));
        json.push_str(&format!("\"attempts\": {}, ", o.attempts));
        json.push_str(&format!("\"status\": \"{}\", ", o.status.as_str()));
        if let CellStatus::Degraded {
            reason,
            last_durable_step,
        } = o.status
        {
            json.push_str(&format!("\"degrade_reason\": \"{}\", ", reason.code()));
            json.push_str(&format!(
                "\"last_durable_step\": {}, ",
                last_durable_step.map_or_else(|| "null".to_string(), |s| s.to_string())
            ));
        }
        json.push_str(&format!("\"ok\": {}, ", o.is_ok()));
        match (&o.result, &o.error) {
            (Some(v), _) => {
                json.push_str(&format!(
                    "\"value\": \"{}\", ",
                    json_escape(&format!("{v:?}"))
                ));
            }
            (None, Some(e)) => json.push_str(&format!("\"error\": {}, ", e.to_json())),
            (None, None) => {
                json.push_str("\"error\": {\"kind\": \"app\", \"message\": \"unknown\"}, ");
            }
        }
        let events: Vec<String> = o.events.iter().map(crate::RuntimeEvent::to_json).collect();
        json.push_str(&format!("\"events\": [{}]", events.join(", ")));
        json.push('}');
        json.push_str(if i + 1 < outcomes.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DegradeReason, JobError, RuntimeEvent};

    #[test]
    fn json_report_escapes_counts_and_reports_status() {
        let outcomes = vec![
            CellOutcome {
                cell: "ok\"cell".to_string(),
                attempts: 1,
                status: CellStatus::Ok,
                result: Some(1.5f64),
                error: None,
                events: Vec::new(),
            },
            CellOutcome::<f64> {
                cell: "bad".to_string(),
                attempts: 3,
                status: CellStatus::Failed,
                result: None,
                error: Some(JobError::Panic {
                    message: "\"boom\"\nline2".to_string(),
                }),
                events: vec![RuntimeEvent::Retry {
                    attempt: 2,
                    delay_ms: 0,
                    error_kind: "panic",
                }],
            },
            CellOutcome::<f64> {
                cell: "slow".to_string(),
                attempts: 1,
                status: CellStatus::Degraded {
                    reason: DegradeReason::DeadlineExceeded,
                    last_durable_step: Some(9_000),
                },
                result: None,
                error: Some(JobError::Cancelled {
                    reason: DegradeReason::DeadlineExceeded,
                    step: 9_500,
                }),
                events: Vec::new(),
            },
            CellOutcome {
                cell: "healed".to_string(),
                attempts: 2,
                status: CellStatus::Recovered,
                result: Some(2.5f64),
                error: None,
                events: Vec::new(),
            },
        ];
        let json = render_cell_report("test-report", &outcomes);
        assert!(json.contains("\"cells_failed\": 1"));
        assert!(json.contains("\"cells_degraded\": 1"));
        assert!(json.contains("\"cells_recovered\": 1"));
        assert!(json.contains("\"status\": \"degraded\""));
        assert!(json.contains("\"degrade_reason\": \"deadline_exceeded\""));
        assert!(json.contains("\"last_durable_step\": 9000"));
        assert!(json.contains("\"status\": \"recovered\""));
        assert!(json.contains("ok\\\"cell"));
        // The typed error object carries kind, escaped message, and step.
        assert!(json.contains("\"error\": {\"kind\": \"panic\""));
        assert!(json.contains("\\\"boom\\\"\\nline2"));
        assert!(json.contains("\"kind\": \"cancelled\""));
        assert!(json.contains("\"step\": 9500"));
        // Events are embedded per cell.
        assert!(json.contains("\"event\": \"retry\""));
        assert!(json.contains("\"attempts\": 3"));
    }
}
