//! Trace exporters: Chrome `trace_event` JSON and JSONL.
//!
//! Both are hand-rolled writers (the workspace has no serde JSON writer, by
//! design) producing deterministic byte streams from a deterministic trace.
//! The Chrome format is the subset `chrome://tracing` / Perfetto load:
//! `{"traceEvents": [...]}` with `ph:"X"` complete slices and `ph:"i"`
//! instants, timestamps in **floating-point microseconds**.

use crate::event::TraceEvent;
use crate::recorder::{QueryTrace, TraceRecord};
use crate::registry::MetricRegistry;
use crate::slo::{Alert, SloSpec};
use std::fmt::Write as _;

/// Row id (`tid`) the reconfig-step slices render on, clear of worker rows.
pub const RECONFIG_TID: u32 = 900_000;
/// Row id fault instants render on.
pub const FAULT_TID: u32 = 900_001;
/// Row id admission events (sheds) render on.
pub const ADMISSION_TID: u32 = 900_002;
/// Row id SLO alert slices and instants render on.
pub const TELEMETRY_TID: u32 = 900_003;

/// Escapes `s` into a JSON string body (no surrounding quotes).
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An incremental Chrome `trace_event` JSON builder. Event sources (the
/// query trace, SLO alert rows, …) append slices and instants; [`finish`]
/// closes the envelope.
///
/// [`finish`]: ChromeTraceWriter::finish
#[derive(Debug, Default)]
pub struct ChromeTraceWriter {
    buf: String,
    count: usize,
}

impl ChromeTraceWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        ChromeTraceWriter {
            buf: String::from("{\"traceEvents\":[\n"),
            count: 0,
        }
    }

    /// Number of events appended so far.
    #[must_use]
    pub fn events(&self) -> usize {
        self.count
    }

    fn sep(&mut self) {
        if self.count > 0 {
            self.buf.push_str(",\n");
        }
        self.count += 1;
    }

    /// Appends a `ph:"X"` complete slice (`ts`/`dur` in microseconds).
    pub fn complete_slice(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u32,
        ts_us: f64,
        dur_us: f64,
    ) {
        self.sep();
        let _ = write!(
            self.buf,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{dur_us},\"pid\":{pid},\"tid\":{tid}}}",
            escape_json(name),
            escape_json(cat),
        );
    }

    /// Appends a `ph:"i"` instant event (thread scope).
    pub fn instant(&mut self, name: &str, cat: &str, pid: u32, tid: u32, ts_us: f64) {
        self.sep();
        let _ = write!(
            self.buf,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us},\"pid\":{pid},\"tid\":{tid}}}",
            escape_json(name),
            escape_json(cat),
        );
    }

    /// Closes the envelope and returns the JSON document.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push_str("\n]}\n");
        self.buf
    }
}

/// Appends a merged trace's events to `w`: service executions as slices on
/// `(pid = lane, tid = worker)` rows, reconfig steps as slices on a
/// dedicated row, and sheds/faults/loans/degrades as instants.
pub fn write_query_trace(w: &mut ChromeTraceWriter, trace: &QueryTrace) {
    for r in trace.records() {
        let ts = r.at.as_micros_f64();
        match r.event {
            TraceEvent::ServiceStart {
                query,
                worker,
                base_ns,
                ..
            } => {
                w.complete_slice(
                    &format!("q{query}"),
                    "query",
                    r.lane,
                    worker as u32,
                    ts,
                    base_ns as f64 / 1_000.0,
                );
            }
            TraceEvent::ReconfigStep { step, downtime_ns } => {
                w.complete_slice(
                    &format!("reconfig step {step}"),
                    "reconfig",
                    r.lane,
                    RECONFIG_TID,
                    ts,
                    downtime_ns as f64 / 1_000.0,
                );
            }
            TraceEvent::Shed { model, shard } => {
                w.instant(
                    &format!("shed model{model}"),
                    "admission",
                    shard as u32,
                    ADMISSION_TID,
                    ts,
                );
            }
            TraceEvent::Fault {
                kind, shard, gpu, ..
            } => {
                w.instant(
                    &format!("{kind:?} gpu{gpu}"),
                    "fault",
                    shard as u32,
                    FAULT_TID,
                    ts,
                );
            }
            TraceEvent::Loan {
                shard, gpus_delta, ..
            } => {
                w.instant(
                    &format!("loan {gpus_delta:+}"),
                    "loan",
                    shard as u32,
                    FAULT_TID,
                    ts,
                );
            }
            TraceEvent::Degrade {
                worker,
                factor_milli,
            } => {
                w.instant(
                    &format!("degrade ×{:.2}", f64::from(factor_milli) / 1_000.0),
                    "fault",
                    r.lane,
                    worker as u32,
                    ts,
                );
            }
            TraceEvent::Alert {
                slo, group, fired, ..
            } => {
                let verb = if fired { "fire" } else { "resolve" };
                w.instant(
                    &format!("slo{slo} {verb}"),
                    "slo",
                    group as u32,
                    TELEMETRY_TID,
                    ts,
                );
            }
            _ => {}
        }
    }
}

/// Appends one slice per fired alert to `w`: the slice runs from the firing
/// bin's start to the resolving bin's start (or `horizon_ns` while still
/// firing), on `(pid = query class, tid = TELEMETRY_TID)` rows so alert
/// windows line up visually with the class's query slices.
pub fn write_alert_rows(
    w: &mut ChromeTraceWriter,
    alerts: &[Alert],
    specs: &[SloSpec],
    window_ns: u64,
    horizon_ns: u64,
) {
    for a in alerts {
        let start_ns = a.fired_bin as u64 * window_ns;
        let end_ns = match a.resolved_bin {
            Some(bin) => bin as u64 * window_ns,
            None => horizon_ns.max(start_ns),
        };
        let name = match specs.get(a.slo) {
            Some(spec) => format!("ALERT {} burn {:.1}×", spec.name, a.burn_short),
            None => format!("ALERT slo{} burn {:.1}×", a.slo, a.burn_short),
        };
        w.complete_slice(
            &name,
            "slo",
            a.group as u32,
            TELEMETRY_TID,
            start_ns as f64 / 1_000.0,
            (end_ns - start_ns) as f64 / 1_000.0,
        );
    }
}

/// Renders a full standalone Chrome trace document from a merged trace.
#[must_use]
pub fn chrome_trace_json(trace: &QueryTrace) -> String {
    let mut w = ChromeTraceWriter::new();
    write_query_trace(&mut w, trace);
    w.finish()
}

fn jsonl_fields(out: &mut String, event: &TraceEvent) {
    match *event {
        TraceEvent::Arrival {
            query,
            group,
            batch,
            dispatched_ns,
            sla_ns,
        } => {
            let _ = write!(
                out,
                "\"query\":{query},\"group\":{group},\"batch\":{batch},\"dispatched_ns\":{dispatched_ns},\"sla_ns\":{sla_ns}"
            );
        }
        TraceEvent::RouteDecision {
            model,
            shard,
            pinned,
        } => {
            let _ = write!(
                out,
                "\"model\":{model},\"shard\":{shard},\"pinned\":{pinned}"
            );
        }
        TraceEvent::Shed { model, shard } => {
            let _ = write!(out, "\"model\":{model},\"shard\":{shard}");
        }
        TraceEvent::Enqueue { query, group } | TraceEvent::Stash { query, group } => {
            let _ = write!(out, "\"query\":{query},\"group\":{group}");
        }
        TraceEvent::ServiceStart {
            query,
            worker,
            gpcs,
            clean_ns,
            base_ns,
        } => {
            let _ = write!(
                out,
                "\"query\":{query},\"worker\":{worker},\"gpcs\":{gpcs},\"clean_ns\":{clean_ns},\"base_ns\":{base_ns}"
            );
        }
        TraceEvent::ServiceAbort { query, worker } => {
            let _ = write!(out, "\"query\":{query},\"worker\":{worker}");
        }
        TraceEvent::Requeue { query } => {
            let _ = write!(out, "\"query\":{query}");
        }
        TraceEvent::Complete {
            query,
            group,
            worker,
            latency_ns,
        } => {
            let _ = write!(
                out,
                "\"query\":{query},\"group\":{group},\"worker\":{worker},\"latency_ns\":{latency_ns}"
            );
        }
        TraceEvent::ReconfigStep { step, downtime_ns } => {
            let _ = write!(out, "\"step\":{step},\"downtime_ns\":{downtime_ns}");
        }
        TraceEvent::ReconfigDone { steps, aborted } => {
            let _ = write!(out, "\"steps\":{steps},\"aborted\":{aborted}");
        }
        TraceEvent::Loan {
            shard,
            gpus_delta,
            pool_free_after,
        } => {
            let _ = write!(
                out,
                "\"shard\":{shard},\"gpus_delta\":{gpus_delta},\"pool_free_after\":{pool_free_after}"
            );
        }
        TraceEvent::Fault {
            kind,
            shard,
            gpu,
            factor_milli,
        } => {
            let _ = write!(
                out,
                "\"fault\":\"{kind:?}\",\"shard\":{shard},\"gpu\":{gpu},\"factor_milli\":{factor_milli}"
            );
        }
        TraceEvent::Degrade {
            worker,
            factor_milli,
        } => {
            let _ = write!(out, "\"worker\":{worker},\"factor_milli\":{factor_milli}");
        }
        TraceEvent::Alert {
            slo,
            group,
            fired,
            burn_milli,
        } => {
            let _ = write!(
                out,
                "\"slo\":{slo},\"group\":{group},\"fired\":{fired},\"burn_milli\":{burn_milli}"
            );
        }
    }
}

/// Renders one trace record as a single JSON line.
#[must_use]
pub fn jsonl_line(r: &TraceRecord) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(
        out,
        "{{\"at_ns\":{},\"key\":{},\"lane\":{},\"seq\":{},\"kind\":\"{}\",",
        r.at.as_nanos(),
        r.key,
        r.lane,
        r.seq,
        r.event.kind(),
    );
    jsonl_fields(&mut out, &r.event);
    out.push('}');
    out
}

/// Renders the whole trace as JSONL (one record per line, global order).
#[must_use]
pub fn jsonl(trace: &QueryTrace) -> String {
    let mut out = String::new();
    for r in trace.records() {
        out.push_str(&jsonl_line(r));
        out.push('\n');
    }
    out
}

/// Dumps a registry as JSONL: one line per series, values in bin order.
/// Floats render via Rust's shortest-round-trip `Display`, so the dump is
/// deterministic and parses back to the exact same values.
#[must_use]
pub fn metrics_jsonl(registry: &MetricRegistry) -> String {
    let mut out = String::new();
    for s in registry.series() {
        let _ = write!(
            out,
            "{{\"series\":\"{}\",\"window_ns\":{},\"values\":[",
            escape_json(&s.name),
            registry.window_ns(),
        );
        for (i, v) in s.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push_str("]}\n");
    }
    out
}

/// Dumps a registry as long-format CSV: one `series,bin,t_ns,value` row per
/// (series, bin), with a header line.
#[must_use]
pub fn metrics_csv(registry: &MetricRegistry) -> String {
    let mut out = String::from("series,bin,t_ns,value\n");
    for s in registry.series() {
        for (bin, v) in s.values.iter().enumerate() {
            let _ = writeln!(
                out,
                "{},{bin},{},{v}",
                s.name,
                bin as u64 * registry.window_ns()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FlightRecorder, TraceSink};
    use des_engine::SimTime;

    #[test]
    fn chrome_envelope_is_well_formed() {
        let mut w = ChromeTraceWriter::new();
        w.complete_slice("q\"1\"", "query", 0, 3, 1.5, 2.25);
        w.instant("shed", "admission", 1, ADMISSION_TID, 4.0);
        let doc = w.finish();
        assert!(doc.starts_with("{\"traceEvents\":[\n"));
        assert!(doc.trim_end().ends_with("]}"));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("q\\\"1\\\""), "names are escaped: {doc}");
        // Exactly one separator between the two events.
        assert_eq!(doc.matches("},\n{").count(), 1);
    }

    #[test]
    fn jsonl_round_trips_field_names() {
        let mut r = FlightRecorder::new(1);
        r.record(
            SimTime::from_nanos(42),
            7,
            TraceEvent::Complete {
                query: 7,
                group: 1,
                worker: 2,
                latency_ns: 99,
            },
        );
        let trace = QueryTrace::merge([r]);
        let line = jsonl(&trace);
        assert_eq!(
            line,
            "{\"at_ns\":42,\"key\":7,\"lane\":1,\"seq\":0,\"kind\":\"complete\",\"query\":7,\"group\":1,\"worker\":2,\"latency_ns\":99}\n"
        );
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn alert_event_renders_in_jsonl_and_chrome() {
        let mut r = FlightRecorder::new(crate::slo::ALERT_LANE);
        r.record(
            SimTime::from_nanos(2_000),
            crate::recorder::ANNOTATION_KEY,
            TraceEvent::Alert {
                slo: 0,
                group: 1,
                fired: true,
                burn_milli: 2_500,
            },
        );
        let trace = QueryTrace::merge([r]);
        let line = jsonl(&trace);
        assert!(
            line.contains(
                "\"kind\":\"alert\",\"slo\":0,\"group\":1,\"fired\":true,\"burn_milli\":2500"
            ),
            "{line}"
        );
        let doc = chrome_trace_json(&trace);
        assert!(doc.contains("slo0 fire"), "{doc}");
        assert!(doc.contains(&format!("\"tid\":{TELEMETRY_TID}")), "{doc}");
    }

    #[test]
    fn alert_rows_span_fire_to_resolve_or_horizon() {
        let alerts = vec![
            Alert {
                slo: 0,
                group: 0,
                fired_bin: 2,
                resolved_bin: Some(5),
                worst_bin: 3,
                burn_short: 2.5,
                burn_long: 1.2,
            },
            Alert {
                slo: 0,
                group: 0,
                fired_bin: 8,
                resolved_bin: None,
                worst_bin: 8,
                burn_short: 4.0,
                burn_long: 2.0,
            },
        ];
        let specs = [crate::slo::SloSpec::new("premium-avail", 0, 0.9)];
        let mut w = ChromeTraceWriter::new();
        write_alert_rows(&mut w, &alerts, &specs, 1_000, 10_000);
        assert_eq!(w.events(), 2);
        let doc = w.finish();
        // Bin width 1 µs: fired at bin 2 → ts 2 µs, resolved bin 5 → 3 µs.
        assert!(
            doc.contains("\"name\":\"ALERT premium-avail burn 2.5×\""),
            "{doc}"
        );
        assert!(doc.contains("\"ts\":2,\"dur\":3"), "{doc}");
        // Unresolved: runs to the 10 µs horizon.
        assert!(doc.contains("\"ts\":8,\"dur\":2"), "{doc}");
        assert!(doc.contains(&format!("\"tid\":{TELEMETRY_TID}")));
    }

    #[test]
    fn metrics_dumps_are_deterministic_and_parse_shaped() {
        let reg = MetricRegistry::from_parts(
            1_000,
            3,
            vec![
                crate::registry::MetricSeries {
                    name: "shard0/outstanding".to_string(),
                    values: vec![2.0, 0.5, 0.0],
                },
                crate::registry::MetricSeries {
                    name: "model1/sla_violation_rate".to_string(),
                    values: vec![0.25, 0.0, 1.0],
                },
            ],
        );
        let jl = metrics_jsonl(&reg);
        assert_eq!(
            jl,
            "{\"series\":\"shard0/outstanding\",\"window_ns\":1000,\"values\":[2,0.5,0]}\n\
             {\"series\":\"model1/sla_violation_rate\",\"window_ns\":1000,\"values\":[0.25,0,1]}\n"
        );
        let csv = metrics_csv(&reg);
        assert!(csv.starts_with("series,bin,t_ns,value\n"));
        assert!(csv.contains("shard0/outstanding,1,1000,0.5\n"), "{csv}");
        assert!(
            csv.contains("model1/sla_violation_rate,2,2000,1\n"),
            "{csv}"
        );
        assert_eq!(csv.lines().count(), 1 + 2 * 3);
    }
}
