"""Which tropharm functions the traced run wraps, and the per-module metrics
computed from their spans.  Times are seconds per job, counts per job.

The metric names and units are the per_layer entries of BENCHMARK.json; each
metric and the end-to-end metric it should move is listed in NOTES.md.
"""
from __future__ import annotations

import json
import os

import numpy as np

from spans import outermost_total, self_times
from tropharm import cli, degeneration, forms, graph, morphisms, phase, serialize

CLI_COMMANDS = ("check", "solve", "embed", "regularity", "twists", "periods", "degenerate", "collar")
ERROR_CODES = ("BadInput", "Internal")
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def per_layer_units() -> dict[str, str]:
    with open(BENCHMARK) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def library_modules():
    return (graph, forms, morphisms, phase, degeneration, serialize, cli)


def targets(tracer):
    """(module, attribute, span name, namer, after) for every wrapped function."""

    def hausdorff_name(args, kwargs):
        # the global distance is the one taken against the emitted embedding;
        # the per-tripod ones use scenes built inside the experiment
        target = args[1] if len(args) > 1 else kwargs["target"]
        if any(target is s for s in tracer.embeddings):
            window = args[2] if len(args) > 2 else kwargs["window"]
            tracer.clouds.append((args[0].points, window))
            return "degeneration.hausdorff_global"
        return "degeneration.hausdorff_tripod"

    plain = [
        (graph, "load_graph"), (graph, "graph_from_dict"), (graph, "cycle_basis"),
        (forms, "solve_exact_form"), (forms, "form_space_dims"), (forms, "load_residues"),
        (morphisms, "build_morphism"), (morphisms, "regularity_rank"),
        (morphisms, "scene_to_dict"), (morphisms, "scene_to_svg"),
        (phase, "solve_twists"), (phase, "check_integrality"), (phase, "limit_period_matrix"),
        (degeneration, "convergence_experiment"), (degeneration, "place_tree"),
        (degeneration, "clip_scene"), (serialize, "dumps_canonical"),
    ]
    out = [(m, attr, f"{m.__name__.split('.')[-1]}.{attr}", None, None) for m, attr in plain]
    out.append((morphisms, "emit_embedding", "morphisms.emit_embedding", None, tracer.embeddings.append))
    out.append((degeneration, "hausdorff", "degeneration.hausdorff", hausdorff_name, None))
    return out


class LayerMetrics:
    """Counters gathered after each traced job, then the metric table."""

    def __init__(self):
        self.window_points = 0
        self.cloud_points = 0

    def after_job(self, tracer) -> None:
        for pts, window in tracer.clouds:
            win = np.asarray(window, dtype=float)
            inside = np.all((pts >= win[:, 0]) & (pts <= win[:, 1]), axis=1)
            self.window_points += int(inside.sum())
            self.cloud_points += pts.shape[0]
        tracer.clouds.clear()

    def metrics(self, tracer, plain, traced) -> dict:
        spans = tracer.spans
        selfs = self_times(spans)
        jobs = traced["jobs"]
        dur: dict[str, float] = {}
        own: dict[str, float] = {}
        for span, s in zip(spans, selfs):
            dur[span[0]] = dur.get(span[0], 0.0) + span[2] - span[1]
            own[span[0]] = own.get(span[0], 0.0) + s
        counts = tracer.counts

        def per_job(x):
            return x / jobs

        out = {
            "graph.load_s": per_job(outermost_total(spans, ("graph.load_graph", "graph.graph_from_dict"))),
            "graph.cycle_basis_s": per_job(dur.get("graph.cycle_basis", 0.0)),
            "graph.cycle_basis.calls": per_job(counts["graph.cycle_basis.calls"]),
            "forms.solve_exact_form_s": per_job(dur.get("forms.solve_exact_form", 0.0)),
            "forms.solve_exact_form.calls": per_job(counts["forms.solve_exact_form.calls"]),
            "forms.form_space_dims_s": per_job(dur.get("forms.form_space_dims", 0.0)),
            "forms.load_residues_s": per_job(dur.get("forms.load_residues", 0.0)),
            "morphisms.build_morphism_self_s": per_job(own.get("morphisms.build_morphism", 0.0)),
            "morphisms.regularity_rank_self_s": per_job(own.get("morphisms.regularity_rank", 0.0)),
            "morphisms.emit_s": per_job(outermost_total(spans, (
                "morphisms.emit_embedding", "morphisms.scene_to_dict", "morphisms.scene_to_svg"))),
            "phase.solve_twists_self_s": per_job(own.get("phase.solve_twists", 0.0)),
            "phase.check_integrality_s": per_job(dur.get("phase.check_integrality", 0.0)),
            "phase.limit_period_matrix_self_s": per_job(own.get("phase.limit_period_matrix", 0.0)),
            "degeneration.place_tree_s": per_job(dur.get("degeneration.place_tree", 0.0)),
            "degeneration.sample_self_s": per_job(own.get("degeneration.convergence_experiment", 0.0)),
            "degeneration.hausdorff_global_s": per_job(dur.get("degeneration.hausdorff_global", 0.0)),
            "degeneration.hausdorff_tripod_s": per_job(dur.get("degeneration.hausdorff_tripod", 0.0)),
            "degeneration.clip_scene_s": per_job(dur.get("degeneration.clip_scene", 0.0)),
            "degeneration.samples": per_job(self.cloud_points),
            "degeneration.in_window_ratio": self.window_points / self.cloud_points if self.cloud_points else 0.0,
            "degeneration.tripod_empty_ratio": traced.get("tripod_empty_ratio", 0.0),
            "serialize.dumps_canonical_s": per_job(dur.get("serialize.dumps_canonical", 0.0)),
            "serialize.bytes": per_job(counts["serialize.dumps_canonical.bytes"]),
        }
        for name in CLI_COMMANDS:
            out[f"cli.{name}_s"] = per_job(dur.get(f"cli.{name}", 0.0))
        out["cli.self_s"] = per_job(sum(own.get(f"cli.{name}", 0.0) for name in CLI_COMMANDS))
        errors = {k[len("cli.errors."):]: v for k, v in counts.items() if k.startswith("cli.errors.")}
        out["cli.errors"] = per_job(sum(errors.values()))
        for code in ERROR_CODES:
            out[f"cli.errors.{code}"] = per_job(errors.get(code, 0))
        out["cli.errors.other"] = per_job(sum(v for k, v in errors.items() if k not in ERROR_CODES))
        out["fail_frac"] = plain["fail_frac"]
        out["hausdorff_tmax"] = plain.get("hausdorff_tmax", 0.0)
        out["nonconverged_frac"] = plain.get("nonconverged_frac", 0.0)
        out["job_p50_penalised_s"] = plain["job_p50_penalised_s"]
        out["job_tail_penalised_s"] = plain["job_tail_penalised_s"]
        out["trace.overhead_s"] = traced["job_p50_s"] - plain["job_p50_s"]
        units = per_layer_units()
        if set(out) != set(units):
            raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: {sorted(set(out) ^ set(units))}")
        return {k: (float(v), units[k]) for k, v in out.items()}

