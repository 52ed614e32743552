//! Hand-rolled JSONL emitter for attribution tables.
//!
//! The workspace has no serde (offline, shim-only dependencies), so the
//! export format is written by hand exactly like the `BENCH_*.json`
//! artifacts: stable key order, `NaN` serialized as `null`, and one
//! record per line so nightly artifacts stream through `jq`/`grep`.

use crate::attribution::{Attribution, TailAttribution};
use crate::recorder::NO_SERVER;

/// Escape a string for embedding in a JSON double-quoted literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A float as a JSON value: `null` when not finite.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// A server id as a JSON value: `null` for [`NO_SERVER`].
fn json_server(s: u32) -> String {
    if s == NO_SERVER {
        "null".to_string()
    } else {
        s.to_string()
    }
}

impl Attribution {
    /// One JSON object (single line, stable key order).
    pub(crate) fn to_json(self) -> String {
        format!(
            concat!(
                "{{\"request\":{},\"latency_ns\":{},\"wait_for_permit_ns\":{},",
                "\"queueing_ns\":{},\"service_ns\":{},\"chosen\":{},",
                "\"backpressured\":{},\"chosen_score\":{},\"chosen_fresh\":{},",
                "\"best_fresh\":{},\"best_server\":{},\"regret\":{},",
                "\"regret_rel\":{},\"queue_regret\":{},\"timeouts\":{},",
                "\"retries\":{},\"hedged\":{},\"hedge_won\":{},",
                "\"hedge_rescued\":{},\"hedge_saved_ns\":{},",
                "\"hedge_waste_ns\":{}}}"
            ),
            self.request,
            self.latency_ns,
            self.wait_for_permit_ns,
            self.queueing_ns,
            self.service_ns,
            json_server(self.chosen),
            self.backpressured,
            json_f64(self.chosen_score),
            json_f64(self.chosen_fresh),
            json_f64(self.best_fresh),
            json_server(self.best_server),
            json_f64(self.regret),
            json_f64(self.regret_rel),
            json_f64(self.queue_regret),
            self.timeouts,
            self.retries,
            self.hedged,
            self.hedge_won,
            self.hedge_rescued,
            self.hedge_saved_ns,
            self.hedge_waste_ns,
        )
    }
}

impl TailAttribution {
    /// JSONL: one `meta` record, then one record per tail request,
    /// worst first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            concat!(
                "{{\"kind\":\"tail_attribution\",\"scenario\":\"{}\",",
                "\"strategy\":\"{}\",\"quantile\":{},\"threshold_ns\":{},",
                "\"joined\":{},\"tail\":{},\"mean_wait_ns\":{},",
                "\"mean_queueing_ns\":{},\"mean_service_ns\":{},",
                "\"mean_regret\":{},\"mean_regret_rel\":{},",
                "\"mean_queue_regret\":{},\"body_mean_regret_rel\":{},",
                "\"hedges\":{},\"hedge_wins\":{},\"hedge_rescues\":{},",
                "\"mean_hedge_saved_ns\":{},\"mean_hedge_waste_ns\":{},",
                "\"total_timeouts\":{},\"total_retries\":{}}}\n"
            ),
            json_escape(&self.scenario),
            json_escape(&self.strategy),
            self.quantile,
            self.threshold_ns,
            self.joined,
            self.tail.len(),
            json_f64(self.mean_wait_ns),
            json_f64(self.mean_queueing_ns),
            json_f64(self.mean_service_ns),
            json_f64(self.mean_regret),
            json_f64(self.mean_regret_rel),
            json_f64(self.mean_queue_regret),
            json_f64(self.body_mean_regret_rel),
            self.hedges,
            self.hedge_wins,
            self.hedge_rescues,
            json_f64(self.mean_hedge_saved_ns),
            json_f64(self.mean_hedge_waste_ns),
            self.total_timeouts,
            self.total_retries,
        ));
        for row in &self.tail {
            out.push_str(&format!(
                "{{\"kind\":\"tail_request\",\"scenario\":\"{}\",\"strategy\":\"{}\",{}\n",
                json_escape(&self.scenario),
                json_escape(&self.strategy),
                row.to_json().split_at(1).1, // merge into one object
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }

    #[test]
    fn jsonl_merges_rows_into_flat_objects() {
        let t = TailAttribution {
            scenario: "s".into(),
            strategy: "C3".into(),
            quantile: 0.99,
            threshold_ns: 10,
            joined: 1,
            tail: vec![Attribution {
                request: 1,
                latency_ns: 10,
                wait_for_permit_ns: 1,
                queueing_ns: 9,
                service_ns: 0,
                chosen: 2,
                backpressured: false,
                chosen_score: 1.0,
                chosen_fresh: 1.0,
                best_fresh: 1.0,
                best_server: 2,
                regret: 0.0,
                regret_rel: 0.0,
                queue_regret: f64::NAN,
                timeouts: 0,
                retries: 0,
                hedged: true,
                hedge_won: true,
                hedge_rescued: false,
                hedge_saved_ns: 5,
                hedge_waste_ns: 3,
            }],
            mean_wait_ns: 1.0,
            mean_queueing_ns: 9.0,
            mean_service_ns: 0.0,
            mean_regret: 0.0,
            mean_regret_rel: 0.0,
            mean_queue_regret: f64::NAN,
            body_mean_regret_rel: f64::NAN,
            hedges: 1,
            hedge_wins: 1,
            hedge_rescues: 0,
            mean_hedge_saved_ns: 5.0,
            mean_hedge_waste_ns: 3.0,
            total_timeouts: 0,
            total_retries: 0,
        };
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"tail_attribution\""));
        assert!(lines[0].contains("\"mean_queue_regret\":null"));
        assert!(lines[1].starts_with("{\"kind\":\"tail_request\""));
        assert!(lines[1].contains("\"queue_regret\":null"));
        assert!(lines[1].ends_with('}'));
    }
}
