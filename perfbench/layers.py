"""Per-layer metrics of a traced flight.

`Probes` holds the hooks that count what a span's arguments and result
show (observations, delivered messages, fixes, bank sizes) and samples
Kalman calls for the cross-check against `kalman_ref`. `layer_metrics`
turns the spans and counts into the `per_layer` metrics of BENCHMARK.json.
"""

from __future__ import annotations

import numpy as np

import kalman_ref

# The modules traced, one per layer; `geometry` holds helpers and `cli` the
# front end, neither of which is a layer.
LAYERS = ["config", "engine", "sensors", "tracking", "kalman", "ego_estimation",
          "velocity_inference", "flocking", "metrics"]
TICK = "engine.Simulation.tick"
STAGE = "engine.Simulation._stage"
# One Kalman call in this many is compared with the textbook equations.
SAMPLE_EVERY = 97


def _copy(value):
    return None if value is None else np.array(value, dtype=float)


class Probes:
    def __init__(self):
        self.counts = {"observations": 0, "delivered": 0, "fixes": 0,
                       "bank_tracks": 0, "estimates": 0}
        self.banks = {}
        self.seen = {"predict": 0, "correct": 0}
        self.samples = []

    def hooks(self) -> dict:
        counts = self.counts

        def observe(args, kwargs, result):
            counts["observations"] += len(result)

        def deliver(args, kwargs, result):
            counts["delivered"] += len(result)

        def position_fix(args, kwargs, result):
            counts["fixes"] += result is not None

        def bank_step(args, kwargs, result):
            bank = args[0]
            self.banks[id(bank)] = bank
            counts["bank_tracks"] += len(bank.tracks)

        def estimates(args, kwargs, result):
            counts["estimates"] += len(result)

        return {
            "sensors.observe": observe,
            "sensors.CommChannel.deliver": deliver,
            "ego_estimation.position_fix": position_fix,
            "tracking.TrackBank.step": bank_step,
            "velocity_inference.VelocityEstimator.update": estimates,
            "kalman.predict": self._sample_predict,
            "kalman.correct": self._sample_correct,
        }

    def _due(self, kind: str) -> bool:
        self.seen[kind] += 1
        return self.seen[kind] % SAMPLE_EVERY == 1

    def _sample_predict(self, args, kwargs, result):
        # kalman.predict(state, cov, model, control=None, name=...)
        if self._due("predict"):
            state, cov, model = args[:3]
            control = kwargs.get("control", args[3] if len(args) > 3 else None)
            self.samples.append((
                "predict",
                (_copy(state), _copy(cov), _copy(model.a), _copy(model.q),
                 _copy(model.b), _copy(control)),
                tuple(_copy(x) for x in result),
            ))

    def _sample_correct(self, args, kwargs, result):
        # kalman.correct(state, cov, meas, name=...)
        if self._due("correct"):
            state, cov, meas = args[:3]
            self.samples.append((
                "correct",
                (_copy(state), _copy(cov), _copy(meas.z), _copy(meas.h), _copy(meas.r)),
                tuple(_copy(x) for x in result),
            ))

    def crosscheck(self) -> list[str]:
        """Sampled Kalman calls that disagree with the textbook equations."""
        wrong = {}
        for kind, inputs, outputs in self.samples:
            if not kalman_ref.agrees(getattr(kalman_ref, kind)(*inputs), outputs):
                wrong[kind] = wrong.get(kind, 0) + 1
        return [
            f"kalman cross-check: {count} sampled {kind} calls disagree"
            for kind, count in wrong.items()
        ]


def layer_metrics(tracer, probes: Probes, flight, reference_rate: float) -> dict:
    """`per_layer` metrics as {name: (value, unit)} for one traced flight.
    Times are per call unless the name says otherwise; counts are totals."""
    spans = tracer.arrays()
    calls_all = tracer.totals(spans)
    index = {label: i for i, label in enumerate(tracer.labels)}

    def calls(label):
        return calls_all[label]["calls"]

    def per_call_us(label):
        entry = calls_all[label]
        return entry["total_ns"] / entry["calls"] / 1e3 if entry["calls"] else 0.0

    def total_s(label):
        return calls_all[label]["total_ns"] / 1e9

    def children(label, parent_label):
        parent = spans["parent"]
        nested = parent >= 0
        of_parent = np.zeros(len(parent), dtype=bool)
        of_parent[nested] = spans["name"][parent[nested]] == index[parent_label]
        return int(np.sum(of_parent & (spans["name"] == index[label])))

    name, start, end = spans["name"], spans["start"], spans["end"]
    ticks = name == index[TICK]
    tick_start, tick_end = start[ticks], end[ticks]
    tick_ns = float(np.sum(tick_end - tick_start))
    slot = np.searchsorted(tick_start, start, side="right") - 1
    in_tick = (slot >= 0) & (start <= tick_end[np.maximum(slot, 0)])
    stage_in_tick = np.bincount(slot[name == index[STAGE]],
                                weights=(end - start)[name == index[STAGE]],
                                minlength=len(tick_start))
    layer_self = {}
    for label, entry in tracer.totals(spans, in_tick).items():
        layer = label.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + entry["self_ns"]

    agent_ticks = calls(STAGE)
    position_corrections = children("kalman.correct", "tracking.TrackBank.ingest_position")
    velocity_corrections = children("kalman.correct", "tracking.TrackBank.ingest_velocity")
    velocity_reports = calls("tracking.TrackBank.ingest_velocity")
    traced_rate = flight.agent_ticks_done / flight.loop_s
    live = flight.live

    out = {
        "kalman.predict_calls": (calls("kalman.predict"), "count"),
        "kalman.correct_calls": (calls("kalman.correct"), "count"),
        "kalman.predict_us": (per_call_us("kalman.predict"), "us"),
        "kalman.correct_us": (per_call_us("kalman.correct"), "us"),
        "kalman.measurement_us": (per_call_us("kalman.Measurement.__init__"), "us"),
        "kalman.crosscheck_samples": (len(probes.samples), "count"),
        "tracking.step_us": (per_call_us("tracking.TrackBank.step"), "us"),
        "tracking.apply_tick_us": (per_call_us("tracking.TrackBank.apply_tick"), "us"),
        "tracking.tracks_per_bank": (
            probes.counts["bank_tracks"] / max(calls("tracking.TrackBank.step"), 1),
            "count"),
        "tracking.position_corrections": (position_corrections, "count"),
        "tracking.velocity_corrections": (velocity_corrections, "count"),
        "tracking.dropped_unknown": (
            sum(b.dropped_unknown for b in probes.banks.values()), "count"),
        "tracking.dropped_stale": (
            sum(b.dropped_stale for b in probes.banks.values()), "count"),
        "tracking.velocity_used_ratio": (
            velocity_corrections / velocity_reports if velocity_reports else 0.0,
            "ratio"),
        "sensors.observe_us": (per_call_us("sensors.observe"), "us"),
        "sensors.observations_per_agent_tick": (
            probes.counts["observations"] / max(calls("sensors.observe"), 1), "count"),
        "sensors.vio_sample_us": (per_call_us("sensors.VioEmulator.sample"), "us"),
        "sensors.comm_delivered": (probes.counts["delivered"], "count"),
        "ego_estimation.position_fix_us": (per_call_us("ego_estimation.position_fix"), "us"),
        "ego_estimation.self_filter_us": (
            per_call_us("ego_estimation.SelfStateFilter.step"), "us"),
        "ego_estimation.fusion_us": (per_call_us("ego_estimation.OdometryFusion.advance"), "us"),
        "ego_estimation.fix_ratio": (
            probes.counts["fixes"] / max(calls("ego_estimation.position_fix"), 1), "ratio"),
        "ego_estimation.self_loc_rmse_m": (live["self_loc_rmse_full"], "m"),
        "ego_estimation.dead_reckoning_rmse_m": (live["self_loc_rmse_integral"], "m"),
        "velocity_inference.update_us": (
            per_call_us("velocity_inference.VelocityEstimator.update"), "us"),
        "velocity_inference.estimates": (probes.counts["estimates"], "count"),
        "velocity_inference.flocking_replays": (
            children("flocking.flocking_command", "velocity_inference.estimate_velocities"),
            "count"),
        "velocity_inference.rmse_mps": (live["velocity_estimate_rmse"] or 0.0, "m/s"),
        "flocking.controller_us": (per_call_us("flocking.FlockingController.update"), "us"),
        "flocking.command_calls": (calls("flocking.flocking_command"), "count"),
        "flocking.desired_offset_us": (per_call_us("flocking.desired_offset"), "us"),
        "engine.tick_self_us": (
            float(np.mean(tick_end - tick_start - stage_in_tick)) / 1e3, "us"),
        "engine.detect_collisions_us": (per_call_us("engine.detect_collisions"), "us"),
        "engine.plant_us": (per_call_us("engine.AgentPlant.advance"), "us"),
        "engine.write_log_s": (total_s("engine.write_log"), "s"),
        "engine.read_log_s": (total_s("engine.read_log"), "s"),
        "engine.record_kb_per_tick": (flight.log_bytes / 1e3 / int(np.sum(ticks)), "kB"),
        "metrics.summarize_s": (per_call_us("metrics.summarize") / 1e6, "s"),
        "config.load_us": (per_call_us("config.load_scenario"), "us"),
        "engine.simulation_init_us": (per_call_us("engine.Simulation.__init__"), "us"),
        "trace.agent_ticks_per_s": (traced_rate, "1/s"),
        "trace.overhead_pct": (100.0 * (1.0 - traced_rate / reference_rate), "%"),
        "trace.span_cost_pct": (
            100.0 * int(np.sum(in_tick)) * tracer.span_cost_ns() / tick_ns, "%"),
        "trace.spans_per_agent_tick": (
            int(np.sum(in_tick)) / max(agent_ticks, 1), "count"),
    }
    for layer in LAYERS:
        if layer not in ("config", "metrics"):
            out[f"{layer}.tick_share_pct"] = (
                100.0 * layer_self.get(layer, 0.0) / tick_ns, "%")
    return out
