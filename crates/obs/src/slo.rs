//! Deterministic SLO burn-rate alerting on the DES clock.
//!
//! An [`SloSpec`] declares an objective for one query class ("99 % of
//! premium queries meet their SLA") plus a multiwindow burn-rate alerting
//! policy: the alert fires only when **both** a short and a long trailing
//! window burn the error budget faster than the threshold — the short
//! window makes the alert reset quickly, the long window keeps a brief
//! blip from paging. The engine evaluates specs against the
//! `model{N}/sla_violation_rate` series of a [`MetricRegistry`] bin by
//! bin, in simulation order, so the alert log is a pure function of the
//! run: no wall clock, and bit-identical at any thread count (the registry
//! itself is invariant 13).
//!
//! Fired alerts can be stamped back onto a trace as annotation records
//! ([`alert_records`] + [`QueryTrace::annotated`]) for rendering in
//! `trace_report` and the Chrome export; the annotation lane carries no
//! lifecycle or capacity events, so the annotated trace reproduces the
//! exact same registry.
//!
//! [`QueryTrace::annotated`]: crate::recorder::QueryTrace::annotated

use crate::event::TraceEvent;
use crate::recorder::{FlightRecorder, TraceSink, ANNOTATION_KEY};
use crate::registry::MetricRegistry;
use des_engine::SimTime;

/// The lane alert annotations are stamped on — past any real shard or
/// gateway lane, so alert records sort after engine records at the same
/// instant and never collide with a lane's own series.
pub const ALERT_LANE: u32 = u32::MAX;

/// An alert fires when both windows burn the budget at ≥ this multiple of
/// the all-budget-in-period rate (1.0 = budget exactly exhausted if the
/// window rate persisted).
const BURN_THRESHOLD: f64 = 1.0;

/// One declarative service-level objective with burn-rate alert policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Human-readable name, rendered in reports and trace rows.
    pub name: String,
    /// The query class (model index) the objective covers.
    pub group: usize,
    /// Fraction of queries that must meet their SLA, e.g. `0.9` = "at most
    /// 10 % of completions may violate".
    pub objective: f64,
    /// Short trailing window, in registry bins (fast fire *and* fast
    /// resolve).
    pub short_bins: usize,
    /// Long trailing window, in registry bins (keeps blips from paging).
    pub long_bins: usize,
}

impl SloSpec {
    /// A spec for `group` with the given objective, defaulting to a
    /// 2-bin/8-bin multiwindow (alerts fire at burn rate 1.0).
    #[must_use]
    pub fn new(name: impl Into<String>, group: usize, objective: f64) -> Self {
        SloSpec {
            name: name.into(),
            group,
            objective,
            short_bins: 2,
            long_bins: 8,
        }
    }

    /// Overrides the short/long trailing windows (bins, min 1 each).
    #[must_use]
    pub fn with_windows(mut self, short_bins: usize, long_bins: usize) -> Self {
        self.short_bins = short_bins.max(1);
        self.long_bins = long_bins.max(1);
        self
    }

    /// The error budget: the violation rate the objective tolerates.
    #[must_use]
    pub fn budget(&self) -> f64 {
        1.0 - self.objective
    }

    /// The registry series this spec is evaluated against.
    #[must_use]
    pub fn series_name(&self) -> String {
        format!("model{}/sla_violation_rate", self.group)
    }
}

/// One fired alert (and its resolution, if the run lived to see it).
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Index into the spec slice the evaluation ran over.
    pub slo: usize,
    /// The spec's query class, denormalized for rendering.
    pub group: usize,
    /// Bin whose close fired the alert.
    pub fired_bin: usize,
    /// Bin whose close resolved it (`None` = still firing at end of run).
    pub resolved_bin: Option<usize>,
    /// Worst (highest-violation-rate) bin inside the long window that
    /// fired the alert — the cause window attribution digs into.
    pub worst_bin: usize,
    /// Short-window burn multiple at fire time.
    pub burn_short: f64,
    /// Long-window burn multiple at fire time.
    pub burn_long: f64,
}

/// Mean of the trailing `bins` values ending at `i` (clamped at the
/// series start), divided by `budget` — the burn-rate multiple.
fn burn_rate(values: &[f64], i: usize, bins: usize, budget: f64) -> f64 {
    let lo = (i + 1).saturating_sub(bins);
    let window = &values[lo..=i];
    let mean = window.iter().sum::<f64>() / window.len() as f64;
    if budget > 0.0 {
        mean / budget
    } else if mean > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Evaluates `specs` against `registry`, walking the grid bin by bin in
/// simulation order, and returns the alert log in deterministic
/// `(bin, spec)` fire order. Specs whose series is absent (class never
/// completed a query, or carries no SLA) simply never fire.
#[must_use]
pub fn evaluate_slos(registry: &MetricRegistry, specs: &[SloSpec]) -> Vec<Alert> {
    let mut alerts: Vec<Alert> = Vec::new();
    // Per-spec index into `alerts` while firing.
    let mut active: Vec<Option<usize>> = vec![None; specs.len()];
    for bin in 0..registry.windows() {
        for (s, spec) in specs.iter().enumerate() {
            let Some(series) = registry.get(&spec.series_name()) else {
                continue;
            };
            let values = &series.values;
            let budget = spec.budget();
            let short = burn_rate(values, bin, spec.short_bins, budget);
            match active[s] {
                None => {
                    let long = burn_rate(values, bin, spec.long_bins, budget);
                    if short >= BURN_THRESHOLD && long >= BURN_THRESHOLD {
                        let lo = (bin + 1).saturating_sub(spec.long_bins);
                        // Earliest max-violation bin in the long window.
                        let worst_bin = (lo..=bin)
                            .max_by(|&a, &b| values[a].total_cmp(&values[b]).then(b.cmp(&a)))
                            .unwrap_or(bin);
                        active[s] = Some(alerts.len());
                        alerts.push(Alert {
                            slo: s,
                            group: spec.group,
                            fired_bin: bin,
                            resolved_bin: None,
                            worst_bin,
                            burn_short: short,
                            burn_long: long,
                        });
                    }
                }
                Some(idx) => {
                    if short < BURN_THRESHOLD {
                        alerts[idx].resolved_bin = Some(bin);
                        active[s] = None;
                    }
                }
            }
        }
    }
    alerts
}

/// Renders an alert log as annotation records on [`ALERT_LANE`]: one
/// `fired` record at the firing bin's start, one `resolved` record at the
/// resolving bin's start. Merge them into a trace with
/// [`QueryTrace::annotated`](crate::recorder::QueryTrace::annotated).
#[must_use]
pub fn alert_records(alerts: &[Alert], window_ns: u64) -> FlightRecorder {
    let mut stamped: Vec<(u64, TraceEvent)> = Vec::with_capacity(alerts.len() * 2);
    for a in alerts {
        let burn_milli = if a.burn_short.is_finite() {
            (a.burn_short * 1_000.0) as u64
        } else {
            u64::MAX
        };
        stamped.push((
            a.fired_bin as u64 * window_ns,
            TraceEvent::Alert {
                slo: a.slo,
                group: a.group,
                fired: true,
                burn_milli,
            },
        ));
        if let Some(r) = a.resolved_bin {
            stamped.push((
                r as u64 * window_ns,
                TraceEvent::Alert {
                    slo: a.slo,
                    group: a.group,
                    fired: false,
                    burn_milli: 0,
                },
            ));
        }
    }
    // A recorder's records must be stamped in non-decreasing order; the
    // stable sort keeps fire-order among same-bin transitions.
    stamped.sort_by_key(|&(at, _)| at);
    let mut rec = FlightRecorder::new(ALERT_LANE);
    for (at, event) in stamped {
        rec.record(SimTime::from_nanos(at), ANNOTATION_KEY, event);
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricSeries;

    fn registry_with(values: Vec<f64>) -> MetricRegistry {
        let windows = values.len();
        MetricRegistry::from_parts(
            1_000,
            windows,
            vec![MetricSeries {
                name: "model0/sla_violation_rate".to_string(),
                values,
            }],
        )
    }

    #[test]
    fn multiwindow_fires_and_resolves() {
        // Budget 0.1; a 4-bin violation burst trips both windows, then the
        // short window clears and resolves the alert.
        let reg = registry_with(vec![0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0]);
        let specs = [SloSpec::new("p99-avail", 0, 0.9).with_windows(2, 4)];
        let alerts = evaluate_slos(&reg, &specs);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        let a = &alerts[0];
        assert_eq!(a.slo, 0);
        // Short window at bin 2 (bins 1..=2) burns at mean 0.25 / 0.1 =
        // 2.5x; long window (bins 0..=2) at (0.5/3) / 0.1 ≈ 1.67x — both
        // over threshold 1.0, so the alert fires as soon as bin 2 closes.
        assert_eq!(a.fired_bin, 2);
        assert!((a.burn_short - 2.5).abs() < 1e-9);
        assert!((a.burn_long - 0.5 / 3.0 / 0.1).abs() < 1e-9);
        assert_eq!(a.worst_bin, 2, "earliest max-violation bin");
        // Short window clears at bins 6..=7 (mean 0 < threshold).
        assert_eq!(a.resolved_bin, Some(7));
    }

    #[test]
    fn short_blip_does_not_page() {
        // One hot bin: the short window trips but the long window absorbs
        // it — the multiwindow policy's whole point.
        let reg = registry_with(vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3, 0.0, 0.0]);
        let specs = [SloSpec::new("p99-avail", 0, 0.9).with_windows(1, 8)];
        assert!(evaluate_slos(&reg, &specs).is_empty());
    }

    #[test]
    fn unresolved_alert_reports_none() {
        let reg = registry_with(vec![0.0, 0.5, 0.5, 0.5]);
        let specs = [SloSpec::new("p99-avail", 0, 0.9).with_windows(2, 2)];
        let alerts = evaluate_slos(&reg, &specs);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].resolved_bin, None, "still firing at end of run");
    }

    #[test]
    fn missing_series_never_fires() {
        let reg = registry_with(vec![1.0; 8]);
        let specs = [SloSpec::new("other-class", 7, 0.5)];
        assert!(evaluate_slos(&reg, &specs).is_empty());
    }

    #[test]
    fn alert_records_stamp_the_alert_lane_in_order() {
        let alerts = vec![
            Alert {
                slo: 0,
                group: 0,
                fired_bin: 2,
                resolved_bin: Some(5),
                worst_bin: 2,
                burn_short: 3.25,
                burn_long: 1.5,
            },
            Alert {
                slo: 1,
                group: 1,
                fired_bin: 4,
                resolved_bin: None,
                worst_bin: 4,
                burn_short: f64::INFINITY,
                burn_long: f64::INFINITY,
            },
        ];
        let rec = alert_records(&alerts, 1_000);
        assert_eq!(rec.lane(), ALERT_LANE);
        let records = rec.into_records();
        let stamps: Vec<u64> = records.iter().map(|r| r.at.as_nanos()).collect();
        assert_eq!(stamps, vec![2_000, 4_000, 5_000], "sorted by bin start");
        assert!(matches!(
            records[0].event,
            TraceEvent::Alert {
                slo: 0,
                fired: true,
                burn_milli: 3_250,
                ..
            }
        ));
        assert!(matches!(
            records[1].event,
            TraceEvent::Alert {
                slo: 1,
                fired: true,
                burn_milli: u64::MAX,
                ..
            }
        ));
        assert!(matches!(
            records[2].event,
            TraceEvent::Alert {
                slo: 0,
                fired: false,
                ..
            }
        ));
    }
}
