//! The human-readable end-of-run report.
//!
//! Everything in the report is derived from the recorded trace alone —
//! spans, point events and metric samples — so the same numbers are
//! available to anyone loading the exported trace. Sections with no data
//! (e.g. faults in a fault-free run) are omitted.

use std::collections::BTreeMap;
use std::fmt::Write;

use wadc_sim::time::SimTime;

use crate::recorder::{SeriesName, SpanKind};
use crate::tracer::{Entry, Tracer};

/// Formats a byte count as `B`, `KB` or `MB` (binary multiples, one
/// decimal above a kilobyte).
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 {
        format!("{:.1} MB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1} KB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

/// Renders the report for a recorded run.
pub fn render_report(tracer: &Tracer) -> String {
    let mut out = String::new();
    let spans = tracer.spans();
    let end = tracer
        .entries()
        .last()
        .map(|e| e.at())
        .unwrap_or(SimTime::ZERO);
    let run_span = spans.iter().find(|s| s.kind == SpanKind::Run);
    let duration = run_span
        .and_then(|s| s.duration())
        .unwrap_or_else(|| end.as_secs_f64());

    let count = |kind: SpanKind| spans.iter().filter(|s| s.kind == kind).count();
    let aborted = |kind: SpanKind| spans.iter().filter(|s| s.kind == kind && !s.ok).count();

    let _ = writeln!(out, "wadc run report");
    let _ = writeln!(out, "===============");
    let _ = writeln!(
        out,
        "run: {:.1} s simulated | {} iterations | {} transfers",
        duration,
        count(SpanKind::Iteration),
        count(SpanKind::Transfer),
    );

    // Adaptation: planner activity, change-overs, relocations.
    let planner_runs = tracer
        .entries()
        .iter()
        .filter(|e| {
            matches!(
                e,
                Entry::Instant {
                    kind: crate::recorder::EventKind::PlannerRan,
                    ..
                }
            )
        })
        .count();
    let _ = writeln!(
        out,
        "adaptation: {} planner runs | {} change-overs ({} aborted) | {} relocations ({} rolled back)",
        planner_runs,
        count(SpanKind::Changeover),
        aborted(SpanKind::Changeover),
        count(SpanKind::Relocation),
        aborted(SpanKind::Relocation),
    );

    render_residency(tracer, end, &mut out);
    render_links(tracer, duration, &mut out);
    render_monitoring(tracer, &mut out);
    render_simulator(tracer, end, &mut out);
    render_faults(tracer, &mut out);
    out
}

/// Operator residency: the fraction of the run each operator spent on
/// each host, reconstructed from the `op.K.site` gauge's sample stream.
fn render_residency(tracer: &Tracer, end: SimTime, out: &mut String) {
    // op -> [(since, site)]
    let mut histories: BTreeMap<u32, Vec<(SimTime, u32)>> = BTreeMap::new();
    for e in tracer.entries() {
        if let Entry::Sample { series, at, value } = *e {
            if let Some(info) = tracer.registry().get(series) {
                if let SeriesName::OperatorSite(op) = info.name {
                    histories.entry(op).or_default().push((at, value as u32));
                }
            }
        }
    }
    if histories.is_empty() {
        return;
    }
    let _ = writeln!(out, "operator residency:");
    for (op, hist) in &histories {
        let total = end
            .saturating_since(hist.first().map(|h| h.0).unwrap_or(SimTime::ZERO))
            .as_secs_f64();
        let mut per_host: BTreeMap<u32, f64> = BTreeMap::new();
        for (i, &(since, site)) in hist.iter().enumerate() {
            let until = hist.get(i + 1).map(|h| h.0).unwrap_or(end);
            *per_host.entry(site).or_default() += until.saturating_since(since).as_secs_f64();
        }
        let mut shares: Vec<(u32, f64)> = per_host.into_iter().collect();
        shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let rendered: Vec<String> = shares
            .iter()
            .map(|(host, secs)| {
                if total > 0.0 {
                    format!("host {} {:.1}%", host, 100.0 * secs / total)
                } else {
                    format!("host {host}")
                }
            })
            .collect();
        let _ = writeln!(out, "  op {}: {}", op, rendered.join(", "));
    }
}

/// Per-link traffic: busy time and bytes from transfer spans, one row per
/// unordered host pair, heaviest first.
/// Unordered host pair -> (busy seconds, bytes, transfers).
type LinkRow = ((u64, u64), (f64, u64, u64));

fn render_links(tracer: &Tracer, duration: f64, out: &mut String) {
    // (lo, hi) -> (busy seconds, bytes, transfers)
    let mut links: BTreeMap<(u64, u64), (f64, u64, u64)> = BTreeMap::new();
    for s in tracer.spans() {
        if s.kind != SpanKind::Transfer {
            continue;
        }
        let key = (s.args.a.min(s.args.b), s.args.a.max(s.args.b));
        let e = links.entry(key).or_default();
        e.0 += s.duration().unwrap_or(0.0);
        e.1 += s.args.c;
        e.2 += 1;
    }
    if links.is_empty() {
        return;
    }
    let mut rows: Vec<LinkRow> = links.into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(&b.0)));
    let shown = rows.len().min(10);
    let _ = writeln!(
        out,
        "per-link traffic (top {} of {} links by bytes):",
        shown,
        rows.len()
    );
    for ((a, b), (busy, bytes, n)) in rows.into_iter().take(shown) {
        let util = if duration > 0.0 {
            100.0 * busy / duration
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {a}-{b}: {} in {n} transfers, busy {busy:.1} s ({util:.1}% of run)",
            fmt_bytes(bytes as f64),
        );
    }
}

/// Bandwidth estimation quality, from the `bw.est_abs_rel_error` gauge.
fn render_monitoring(tracer: &Tracer, out: &mut String) {
    let Some((_, info)) = tracer.registry().find(SeriesName::EstAbsRelError) else {
        return;
    };
    if info.tally.count() == 0 {
        return;
    }
    let _ = writeln!(
        out,
        "bandwidth estimates: mean abs error {:.1}% | worst {:.1}% ({} samples)",
        100.0 * info.tally.mean(),
        100.0 * info.tally.max().unwrap_or(0.0),
        info.tally.count(),
    );
}

/// Simulator internals: event-queue depth and in-flight bytes.
fn render_simulator(tracer: &Tracer, end: SimTime, out: &mut String) {
    let mut parts: Vec<String> = Vec::new();
    if let Some((_, info)) = tracer.registry().find(SeriesName::QueueDepth) {
        if info.tally.count() > 0 {
            parts.push(format!(
                "event-queue depth mean {:.1} / max {:.0}",
                info.weighted.mean(end),
                info.tally.max().unwrap_or(0.0),
            ));
        }
    }
    if let Some((_, info)) = tracer.registry().find(SeriesName::InFlightBytes) {
        if info.tally.count() > 0 {
            parts.push(format!(
                "in-flight mean {} / max {}",
                fmt_bytes(info.weighted.mean(end)),
                fmt_bytes(info.tally.max().unwrap_or(0.0)),
            ));
        }
    }
    if !parts.is_empty() {
        let _ = writeln!(out, "simulator: {}", parts.join(" | "));
    }
}

/// Fault activity; omitted entirely for clean runs.
fn render_faults(tracer: &Tracer, out: &mut String) {
    let total = |name| {
        tracer
            .registry()
            .find(name)
            .map(|(_, s)| s.total)
            .unwrap_or(0.0)
    };
    let drops = total(SeriesName::Drops);
    let retx = total(SeriesName::Retransmits);
    if drops > 0.0 || retx > 0.0 {
        let _ = writeln!(out, "faults: {drops:.0} drops | {retx:.0} retransmits");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SeriesKind;
    use crate::recorder::{EventArgs, EventKind, Recorder, SpanArgs, TrackName};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn report_covers_all_sections() {
        let mut tr = Tracer::new();
        let run = tr.track(TrackName::Run);
        let planner = tr.track(TrackName::Planner);
        let host = tr.track(TrackName::Host(0));
        let op = tr.track(TrackName::Operator(1));

        let r = tr.open_span(run, SpanKind::Run, t(0), SpanArgs::default());
        let site = tr.series(SeriesKind::Gauge, SeriesName::OperatorSite(1));
        tr.sample(site, t(0), 3.0);
        tr.instant(
            planner,
            EventKind::PlannerRan,
            t(5),
            EventArgs {
                a: 1,
                x: 10.0,
                y: 8.0,
                ..Default::default()
            },
        );
        let x = tr.open_span(
            host,
            SpanKind::Transfer,
            t(5),
            SpanArgs {
                a: 0,
                b: 2,
                c: 1 << 20,
                d: 0,
            },
        );
        tr.close_span(x, t(10), true);
        let m = tr.open_span(
            op,
            SpanKind::Relocation,
            t(10),
            SpanArgs {
                a: 1,
                b: 3,
                c: 0,
                d: 0,
            },
        );
        tr.close_span(m, t(15), true);
        tr.sample(site, t(15), 0.0);
        let err = tr.series(SeriesKind::Gauge, SeriesName::EstAbsRelError);
        tr.sample(err, t(16), 0.25);
        let q = tr.series(SeriesKind::TimeWeighted, SeriesName::QueueDepth);
        tr.sample(q, t(16), 4.0);
        let d = tr.series(SeriesKind::Counter, SeriesName::Drops);
        tr.add(d, t(17), 2.0);
        tr.close_span(r, t(20), true);

        let report = render_report(&tr);
        assert!(report.contains("run: 20.0 s simulated"));
        assert!(report.contains("1 planner runs"));
        assert!(report.contains("1 relocations (0 rolled back)"));
        assert!(report.contains("op 1: host 3 75.0%, host 0 25.0%"));
        assert!(report.contains("0-2: 1.0 MB in 1 transfers"));
        assert!(report.contains("mean abs error 25.0%"));
        assert!(report.contains("event-queue depth"));
        assert!(report.contains("faults: 2 drops"));
    }

    #[test]
    fn empty_trace_renders_header_only() {
        let report = render_report(&Tracer::new());
        assert!(report.contains("wadc run report"));
        assert!(!report.contains("faults:"));
        assert!(!report.contains("operator residency"));
    }
}
