//! The observability bridge: mirrors the audit log into spans and
//! instants on an attached recorder, samples queue depth and bandwidth
//! gauges, and brackets each client iteration in a span.

use wadc_monitor::observe::EstimateGauges;
use wadc_obs::metrics::SeriesKind;
use wadc_obs::recorder::{
    EventArgs, EventKind, Obs, SeriesId, SeriesName, SpanArgs, SpanId, SpanKind, TrackId, TrackName,
};
use wadc_plan::ids::OperatorId;
use wadc_sim::time::{SimDuration, SimTime};

use super::{AuditEvent, Engine};

/// How often the run loop samples queue depth and bandwidth gauges. The
/// tick piggybacks on whatever event the loop is already processing — it
/// never schedules anything, so sampling cannot perturb the run.
const OBS_SAMPLE_EVERY: SimDuration = SimDuration::from_secs(5);

/// The attached recorder, its track and series handles, and the currently
/// open spans the audit bridge must close later. Boxed so the disabled
/// path costs one null pointer in [`Engine`].
#[derive(Debug)]
pub(super) struct ObsState {
    pub(super) recorder: Obs,
    run_span: SpanId,
    client_track: TrackId,
    planner_track: TrackId,
    /// One track per operator, indexed by operator id.
    op_tracks: Vec<TrackId>,
    /// Residency gauge per operator (value = current host index).
    op_sites: Vec<SeriesId>,
    /// Client-side iteration span currently open, if any.
    iter_span: SpanId,
    /// Barrier change-over span currently open, if any.
    changeover_span: SpanId,
    /// In-flight relocation span per operator.
    reloc_spans: Vec<SpanId>,
    s_queue_depth: SeriesId,
    s_drops: SeriesId,
    pub(super) s_retransmits: SeriesId,
    gauges: EstimateGauges,
    /// Next time the decimated sampling tick fires.
    next_sample: SimTime,
}

impl Engine {
    /// Attaches an observability recorder (see [`wadc_obs`]): registers
    /// tracks and series, opens the run span, and replays adaptation
    /// events recorded during construction (the initial placement search)
    /// so the trace covers the whole run.
    ///
    /// Instrumentation is purely observational — it draws no randomness,
    /// schedules no events and feeds nothing back into the simulation —
    /// so traced and untraced runs of the same `(seed, config)` produce
    /// byte-identical digests. A disabled `obs` is a no-op.
    pub fn attach_obs(&mut self, obs: Obs) {
        if !obs.recording() {
            return;
        }
        self.net.set_obs(obs.clone());
        let now = self.now();
        let run_track = obs.track(TrackName::Run);
        let planner_track = obs.track(TrackName::Planner);
        let client_track = obs.track(TrackName::Client);
        let n_ops = self.tree.operator_count();
        let op_tracks: Vec<TrackId> = (0..n_ops)
            .map(|i| obs.track(TrackName::Operator(i as u32)))
            .collect();
        let op_sites: Vec<SeriesId> = (0..n_ops)
            .map(|i| obs.series(SeriesKind::Gauge, SeriesName::OperatorSite(i as u32)))
            .collect();
        let s_queue_depth = obs.series(SeriesKind::TimeWeighted, SeriesName::QueueDepth);
        let s_drops = obs.series(SeriesKind::Counter, SeriesName::Drops);
        let s_retransmits = obs.series(SeriesKind::Counter, SeriesName::Retransmits);
        let gauges = EstimateGauges::new(&obs, self.roster.host_count());
        let run_span = obs.open_span(run_track, SpanKind::Run, now, SpanArgs::default());
        for (i, series) in op_sites.iter().enumerate() {
            let node = self.tree.operator_node(OperatorId::new(i));
            obs.sample(*series, now, self.nodes[node.index()].host.index() as f64);
        }
        let st = self.obs.insert(Box::new(ObsState {
            recorder: obs,
            run_span,
            client_track,
            planner_track,
            op_tracks,
            op_sites,
            iter_span: SpanId::INVALID,
            changeover_span: SpanId::INVALID,
            reloc_spans: vec![SpanId::INVALID; n_ops],
            s_queue_depth,
            s_drops,
            s_retransmits,
            gauges,
            next_sample: now,
        }));
        for e in self.audit.events() {
            st.audit(e);
        }
    }

    /// Records an adaptation event in the audit log and mirrors it into
    /// the attached recorder (if any).
    pub(super) fn record_audit(&mut self, event: AuditEvent) {
        if let Some(st) = self.obs.as_deref_mut() {
            st.audit(&event);
        }
        self.audit.record(event);
    }

    /// The decimated sampling tick: at most once per [`OBS_SAMPLE_EVERY`]
    /// of simulated time, records the event-queue depth and the per-link
    /// true/estimated bandwidth gauges. Piggybacks on the event the run
    /// loop just processed; never schedules anything.
    pub(super) fn obs_sample_tick(&mut self, now: SimTime) {
        let Some(st) = self.obs.as_deref_mut() else {
            return;
        };
        if now < st.next_sample {
            return;
        }
        st.next_sample = now + OBS_SAMPLE_EVERY;
        st.recorder
            .sample(st.s_queue_depth, now, self.queue.len() as f64);
        let client = self.roster.client();
        let view = self.net.links().oracle_at(now);
        st.gauges
            .sample(&st.recorder, &self.hosts[client.index()].cache, &view, now);
    }

    /// Opens the client-side iteration span (the client just demanded
    /// partition `iteration`).
    pub(super) fn obs_open_iteration(&mut self, iteration: u32) {
        let now = self.now();
        if let Some(st) = self.obs.as_deref_mut() {
            st.iter_span = st.recorder.open_span(
                st.client_track,
                SpanKind::Iteration,
                now,
                SpanArgs {
                    a: iteration as u64,
                    b: 0,
                    c: 0,
                    d: 0,
                },
            );
        }
    }

    /// Closes the open iteration span, if any (the partition arrived, or
    /// the run ended with one outstanding).
    pub(super) fn obs_close_iteration(&mut self, now: SimTime, ok: bool) {
        if let Some(st) = self.obs.as_deref_mut() {
            let span = std::mem::replace(&mut st.iter_span, SpanId::INVALID);
            if span != SpanId::INVALID {
                st.recorder.close_span(span, now, ok);
            }
        }
    }

    /// Closes the run's spans once the loop has stopped.
    pub(super) fn obs_finish(&mut self, completed: bool) {
        if self.obs.is_none() {
            return;
        }
        let end = self.now();
        // An incomplete run leaves the last iteration open; close it
        // `ok = false` so the trace shows where the run stalled.
        self.obs_close_iteration(end, false);
        let st = self.obs.as_deref().expect("checked above");
        // One final queue-depth sample at the exact high-water mark: zero
        // time remains, so the weighted mean is untouched while the
        // tally's max becomes the true peak.
        st.recorder
            .sample(st.s_queue_depth, end, self.queue.high_water() as f64);
        st.recorder.close_span(st.run_span, end, completed);
    }
}

impl ObsState {
    /// Bridges one [`AuditEvent`] into spans and instants: change-overs
    /// and relocations become spans (closed `ok = false` when aborted),
    /// everything else becomes a point event; relocation outcomes also
    /// move the operator's residency gauge.
    fn audit(&mut self, e: &AuditEvent) {
        let obs = &self.recorder;
        match *e {
            AuditEvent::PlannerRan {
                at,
                cost_before,
                cost_after,
                changed,
            } => obs.instant(
                self.planner_track,
                EventKind::PlannerRan,
                at,
                EventArgs {
                    a: changed as u64,
                    b: 0,
                    x: cost_before,
                    y: cost_after,
                },
            ),
            AuditEvent::ChangeoverProposed { at, version, moves } => {
                self.changeover_span = obs.open_span(
                    self.planner_track,
                    SpanKind::Changeover,
                    at,
                    SpanArgs {
                        a: version as u64,
                        b: moves as u64,
                        c: 0,
                        d: 0,
                    },
                );
            }
            AuditEvent::ChangeoverCommitted { at, .. } => {
                let span = std::mem::replace(&mut self.changeover_span, SpanId::INVALID);
                if span != SpanId::INVALID {
                    obs.close_span(span, at, true);
                }
            }
            AuditEvent::ChangeoverAborted { at, .. } => {
                let span = std::mem::replace(&mut self.changeover_span, SpanId::INVALID);
                if span != SpanId::INVALID {
                    obs.close_span(span, at, false);
                }
            }
            AuditEvent::ServerSuspended {
                at,
                server,
                reported_iteration,
                version,
            } => obs.instant(
                self.planner_track,
                EventKind::ServerSuspended,
                at,
                EventArgs {
                    a: server as u64,
                    b: version as u64,
                    x: reported_iteration as f64,
                    y: 0.0,
                },
            ),
            AuditEvent::LocalDecision {
                at, op, from, to, ..
            } => obs.instant(
                self.op_tracks[op.index()],
                EventKind::LocalDecision,
                at,
                EventArgs {
                    a: from.index() as u64,
                    b: to.index() as u64,
                    x: 0.0,
                    y: 0.0,
                },
            ),
            AuditEvent::RelocationStarted {
                at, op, from, to, ..
            } => {
                self.reloc_spans[op.index()] = obs.open_span(
                    self.op_tracks[op.index()],
                    SpanKind::Relocation,
                    at,
                    SpanArgs {
                        a: op.index() as u64,
                        b: from.index() as u64,
                        c: to.index() as u64,
                        d: 0,
                    },
                );
            }
            AuditEvent::RelocationFinished { at, op, host } => {
                let span = std::mem::replace(&mut self.reloc_spans[op.index()], SpanId::INVALID);
                if span != SpanId::INVALID {
                    obs.close_span(span, at, true);
                }
                obs.sample(self.op_sites[op.index()], at, host.index() as f64);
            }
            AuditEvent::RelocationAborted { at, op, host } => {
                let span = std::mem::replace(&mut self.reloc_spans[op.index()], SpanId::INVALID);
                if span != SpanId::INVALID {
                    obs.close_span(span, at, false);
                }
                obs.sample(self.op_sites[op.index()], at, host.index() as f64);
            }
            AuditEvent::MessageLost {
                at,
                from,
                kind,
                attempt,
                ..
            } => {
                let track = obs.track(TrackName::Host(from.index() as u32));
                obs.instant(
                    track,
                    EventKind::MessageLost,
                    at,
                    EventArgs {
                        a: kind.tag(),
                        b: attempt as u64,
                        x: 0.0,
                        y: 0.0,
                    },
                );
                obs.add(self.s_drops, at, 1.0);
            }
            AuditEvent::HostDeclaredDead { at, host, evidence } => obs.instant(
                self.planner_track,
                EventKind::HostDeclaredDead,
                at,
                EventArgs {
                    a: host.index() as u64,
                    b: evidence as u64,
                    x: 0.0,
                    y: 0.0,
                },
            ),
            AuditEvent::OperatorRespawned { at, op, to, .. } => {
                obs.instant(
                    self.op_tracks[op.index()],
                    EventKind::OperatorRespawned,
                    at,
                    EventArgs {
                        a: op.index() as u64,
                        b: to.index() as u64,
                        x: 0.0,
                        y: 0.0,
                    },
                );
                obs.sample(self.op_sites[op.index()], at, to.index() as f64);
            }
            AuditEvent::RunAborted { at, .. } => obs.instant(
                self.planner_track,
                EventKind::RunAborted,
                at,
                EventArgs::default(),
            ),
        }
    }
}
