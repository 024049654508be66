//! Prometheus text-exposition rendering (format version 0.0.4) of a
//! [`Snapshot`].
//!
//! Mapping:
//!
//! * every metric name is prefixed `gsu_` and sanitised (characters outside
//!   `[a-zA-Z0-9_:]` become `_`, so `solver.iterations` exports as
//!   `gsu_solver_iterations`);
//! * counters and gauges export as single samples of the matching type;
//! * histograms export as native Prometheus histograms — cumulative
//!   `_bucket{le="…"}` samples (ending in `le="+Inf"`), `_sum`, and
//!   `_count` — plus `_alltime_p50` / `_alltime_p95` / `_alltime_p99`
//!   gauges carrying the bucket-estimated quantiles (the `_alltime` marker
//!   distinguishes these cumulative since-process-start quantiles from the
//!   recent-window families rendered by `gsu-serve`);
//! * span duration aggregates export as `gsu_span_*{span="<name>"}`
//!   families: `count`, `total_us` and `max_us` exact, `p50_us` / `p95_us`
//!   / `p99_us` estimated from the same log₁₀ buckets and rounded to whole
//!   µs (exact per-span timing is in the Chrome trace).

use std::fmt::Write as _;

use crate::collector::Snapshot;

/// Renders `snapshot` as a Prometheus text exposition.
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);

    // Counters named `http.responses.<status>` fold into one labelled
    // family, the conventional HTTP status breakdown.
    let mut http_statuses: Vec<(&str, u64)> = Vec::new();
    for (name, value) in &snapshot.counters {
        if let Some(status) = name.strip_prefix("http.responses.") {
            http_statuses.push((status, *value));
            continue;
        }
        let metric = sanitize(name);
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }
    if !http_statuses.is_empty() {
        let _ = writeln!(out, "# TYPE gsu_http_responses_total counter");
        for (status, value) in http_statuses {
            let _ = writeln!(
                out,
                "gsu_http_responses_total{{status=\"{}\"}} {value}",
                escape_label(status)
            );
        }
    }

    for (name, value) in &snapshot.gauges {
        let metric = sanitize(name);
        let _ = writeln!(out, "# TYPE {metric} gauge");
        let _ = writeln!(out, "{metric} {}", fmt_value(*value));
    }

    for (name, h) in &snapshot.histograms {
        let metric = sanitize(name);
        let _ = writeln!(out, "# TYPE {metric} histogram");
        let mut cum = 0u64;
        for (le, count) in &h.buckets {
            cum += count;
            let _ = writeln!(out, "{metric}_bucket{{le=\"{}\"}} {cum}", fmt_value(*le));
        }
        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{metric}_sum {}", fmt_value(h.sum));
        let _ = writeln!(out, "{metric}_count {}", h.count);
        // Exemplar as a comment line: the classic 0.0.4 text format has no
        // exemplar syntax, and comments keep every parser of this
        // exposition (including our own validator) happy.
        if let Some((trace_id, value)) = h.exemplar {
            let _ = writeln!(
                out,
                "# EXEMPLAR {metric} trace_id=\"{trace_id:016x}\" value={}",
                fmt_value(value)
            );
        }
        // Quantiles from the cumulative (since process start) buckets carry
        // an explicit `_alltime` marker so dashboards cannot mistake them
        // for the recent-window families the serving layer exposes.
        for (suffix, q) in [("p50", h.p50), ("p95", h.p95), ("p99", h.p99)] {
            let _ = writeln!(out, "# TYPE {metric}_alltime_{suffix} gauge");
            let _ = writeln!(out, "{metric}_alltime_{suffix} {}", fmt_value(q));
        }
    }

    if !snapshot.spans.is_empty() {
        for (family, kind) in [
            ("gsu_span_count", "counter"),
            ("gsu_span_total_us", "counter"),
            ("gsu_span_max_us", "gauge"),
            ("gsu_span_p50_us", "gauge"),
            ("gsu_span_p95_us", "gauge"),
            ("gsu_span_p99_us", "gauge"),
        ] {
            let _ = writeln!(out, "# TYPE {family} {kind}");
            for (name, s) in &snapshot.spans {
                let value = match family {
                    "gsu_span_count" => s.count as f64,
                    "gsu_span_total_us" => s.sum,
                    "gsu_span_max_us" => s.max,
                    "gsu_span_p50_us" => s.p50.round(),
                    "gsu_span_p95_us" => s.p95.round(),
                    _ => s.p99.round(),
                };
                let value = fmt_value(value);
                let _ = writeln!(out, "{family}{{span=\"{}\"}} {value}", escape_label(name));
            }
        }
    }

    out
}

/// Prefixes `gsu_` and maps characters outside the Prometheus metric-name
/// alphabet to `_`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("gsu_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value (backslash, double quote, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample value; Prometheus spells non-finite values `NaN`,
/// `+Inf`, and `-Inf`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;

    #[test]
    fn sanitize_prefixes_and_replaces() {
        assert_eq!(sanitize("solver.iterations"), "gsu_solver_iterations");
        assert_eq!(sanitize("a-b c"), "gsu_a_b_c");
        assert_eq!(sanitize("ok_name:x9"), "gsu_ok_name:x9");
    }

    #[test]
    fn values_use_prometheus_spellings() {
        assert_eq!(fmt_value(1.5), "1.5");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_value(f64::NAN), "NaN");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let c = Collector::new();
        for v in [0.5, 5.0, 50.0, 50.0] {
            c.observe("h", v);
        }
        let text = c.snapshot().prometheus_text();
        let bucket_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("gsu_h_bucket"))
            .collect();
        let last = bucket_lines.last().unwrap();
        assert!(last.contains("le=\"+Inf\""), "last bucket must be +Inf");
        assert!(last.ends_with(" 4"), "+Inf bucket carries the total count");
        // Cumulative counts never decrease.
        let counts: Vec<u64> = bucket_lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert!(text.contains("gsu_h_sum 105.5"));
        assert!(text.contains("gsu_h_count 4"));
        assert!(text.contains("gsu_h_alltime_p50 "));
        assert!(
            !text.contains("gsu_h_p50 "),
            "cumulative quantiles must carry the _alltime marker: {text}"
        );
    }

    #[test]
    fn span_families_carry_labels() {
        let c = Collector::new();
        c.record_span(crate::SpanRecord {
            name: "performability.evaluate".into(),
            start: std::time::Instant::now(),
            end: std::time::Instant::now(),
            tid: 1,
            depth: 0,
            trace_id: 1,
            span_id: 1,
            parent_id: 0,
            args: Vec::new(),
        });
        let text = c.snapshot().prometheus_text();
        assert!(text.contains("gsu_span_count{span=\"performability.evaluate\"} 1"));
        assert!(text.contains("# TYPE gsu_span_p99_us gauge"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn http_response_counters_fold_into_a_labelled_family() {
        let c = Collector::new();
        c.counter_add("http.responses.200", 7);
        c.counter_add("http.responses.400", 2);
        c.counter_add("serve.requests", 9);
        let text = c.snapshot().prometheus_text();
        assert!(text.contains("# TYPE gsu_http_responses_total counter"));
        assert!(text.contains("gsu_http_responses_total{status=\"200\"} 7"));
        assert!(text.contains("gsu_http_responses_total{status=\"400\"} 2"));
        assert!(
            !text.contains("gsu_http_responses_200"),
            "per-status counters must not also render flat: {text}"
        );
        assert!(text.contains("gsu_serve_requests 9"));
    }

    #[test]
    fn exemplars_render_as_comment_lines() {
        let c = Collector::new();
        let ctx = crate::TraceContext::new_root();
        {
            // The observation happens under a live trace context, so the
            // histogram captures (value, trace id) as its exemplar.
            let _attached = ctx.attach();
            c.observe("serve.request_us", 123.0);
        }
        let text = c.snapshot().prometheus_text();
        let needle = format!(
            "# EXEMPLAR gsu_serve_request_us trace_id=\"{}\" value=123",
            crate::format_trace_id(ctx.trace_id)
        );
        assert!(text.contains(&needle), "missing exemplar line in {text}");
    }
}
