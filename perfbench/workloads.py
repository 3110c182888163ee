"""The three closed-loop workloads: one client, one job at a time.

Each workload turns a job index into input files (``prepare``, untimed), runs
the job against tropharm (``run``, timed) and checks its outputs (``check``,
untimed).  The library is always reached through module attributes, so the
tracer's wrappers see every call.

A run is a fixed number of jobs (``run.job_count``): ``nominal_rate`` jobs
per second of ``--seconds`` (about the rate of a 2-vCPU machine), rounded
to whole cycles of ``cycle`` jobs that cover the input mix once.  With
``fork_jobs`` every timed job runs in a forked child, whose peak RSS is the
job's memory; otherwise jobs run in this process, and ``memory_jobs`` jobs
from index 0 are re-run one per forked child afterwards to measure it.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import gen
from tropharm import cli, forms, graph, morphisms, phase, serialize
from tropharm.errors import TropharmError

# Failures tropharm is known to produce on these inputs (see NOTES.md).  They
# count as failed jobs; any other failure makes the run incorrect.
KNOWN_TWIST_SAMPLE = "twist sample rejected"      # roadmap item 3
KNOWN_PUNCTURES = "punctures must be pairwise distinct"  # roadmap item 2
TWIST_TOL = 1e-9  # the CLI's default --tol


@dataclass
class Outcome:
    failures: list[str] = field(default_factory=list)
    known: bool = True
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def run_cli(argv, tracer=None):
    """tropharm.cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    sid = tracer.begin(f"cli.{argv[0]}") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if tracer:
            tracer.end(sid)
    if code and tracer:
        try:
            tracer.counts["cli.errors." + json.loads(err.getvalue().splitlines()[-1])["code"]] += 1
        except (ValueError, KeyError, IndexError):
            tracer.counts["cli.errors.unparsed"] += 1
    return code, out.getvalue(), err.getvalue()


def _write(path: str, doc) -> str:
    with open(path, "w") as fh:
        fh.write(gen.dumps(doc))
    return path


class KirchhoffSession:
    """Library session on one random cubic graph: load, dimensions, then four
    residue matrices through morphism, round trip, regularity, periods and
    canonical scene JSON."""

    name = "kirchhoff-session"
    nominal_rate = 1.0
    cycle = 1
    fork_jobs = False
    memory_jobs = 5  # every session has the same size

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self, index: int):
        return gen.kirchhoff_instance(self.seed, index)

    def run(self, inst, tracer=None) -> tuple[float, dict]:
        got = {"matrices": []}
        t0 = time.perf_counter()
        try:
            mg = got["mg"] = graph.graph_from_dict(json.loads(inst["graph_text"]))
            got["dims"] = forms.form_space_dims(mg)
            for entries in inst["residues"]:
                R = forms.ResidueMatrix(np.array(entries))
                mor = morphisms.build_morphism(mg, R)
                back = morphisms.residues_of(mor)
                rep = morphisms.regularity_rank(mg, mor)
                P = phase.limit_period_matrix(mg, phase.zero_twists(mg), R, mor=mor)
                text = serialize.dumps_canonical(morphisms.scene_to_dict(morphisms.emit_embedding(mor)))
                got["matrices"].append((R, mor, back, rep, P, text))
        except TropharmError as exc:
            got["error"] = f"{exc.code}: {exc}"
        return time.perf_counter() - t0, got

    def check(self, inst, got) -> Outcome:
        out = Outcome()
        if "error" in got:
            out.failures.append(got["error"])
            out.known = False
            return out
        mg = got["mg"]
        g, n = mg.genus, mg.n_leaves
        if tuple(got["dims"]) != (n - 1, g):
            out.failures.append(f"form_space_dims {got['dims']}")
        leaf_index = {lid: j for j, lid in enumerate(mg.graph.leaf_ids)}
        for k, (R, mor, back, rep, P, text) in enumerate(got["matrices"]):
            if not np.array_equal(back.entries, R.entries):
                out.failures.append(f"matrix {k}: residues_of round trip differs")
            if not rep.rank <= R.m * g:
                out.failures.append(f"matrix {k}: rank {rep.rank} > m*g = {R.m * g}")
            for label, row in zip(P.labels, P.entries):
                if label.startswith("puncture:") and not np.array_equal(
                        row, R.entries[:, leaf_index[label.split(":", 1)[1]]].astype(complex)):
                    out.failures.append(f"matrix {k}: period row {label} is not the residue column")
            if not text.startswith("{"):
                out.failures.append(f"matrix {k}: scene JSON is not an object")
        mor = got["matrices"][0][1]
        flow = inst["oracle"]
        scale = max(1.0, max(abs(v) for v in flow.values()))
        worst = max(abs(mor.edge_slope[e][0] - v) for e, v in flow.items())
        if worst > 1e-8 * scale:
            out.failures.append(f"row 0 differs from the energy-minimising flow by {worst:.3e}")
        out.known = not out.failures
        return out


class CliTropical:
    """Nine CLI subcommands on one small tropical instance."""

    name = "cli-tropical"
    nominal_rate = 20.0
    cycle = 20  # every (genus, leaves) pair once
    fork_jobs = False
    memory_jobs = 30

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self, index: int):
        inst = gen.tropical_instance(self.seed, index)
        base = os.path.join(self.workdir, f"t{index}")
        gpath = _write(base + "-graph.json", inst["graph"])
        rpath = _write(base + "-residues.json", inst["residues"])
        # the twist to check is a point the library's own solver offers
        mg = graph.graph_from_dict(inst["graph"])
        mor = morphisms.build_morphism(mg, forms.residues_from_dict(inst["residues"], mg))
        sol = phase.solve_twists(mg, mor)
        twist = sol.sample(gen.instance_rng(self.seed, gen.TWIST_STREAM, index))
        tpath = _write(base + "-twists.json", twist.theta)
        # The sample is a sum of uniform angles times integer kernel vectors,
        # reduced mod 2*pi afterwards, so each angle carries a float error of
        # about eps * (2*pi * sum of |kernel entries|).  A loop sum multiplies
        # those errors by the slopes, which bounds what round-off can reject.
        kernel_mass = max((2 * math.pi * sum(abs(float(v[j])) for v in sol.kernel)
                           for j in range(len(sol.edge_order))), default=0.0)
        slope_mass = max(sum(abs(float(mor.edge_slope[e][k])) for e in sol.edge_order)
                         for k in range(mor.ambient_dim))
        roundoff = 2 * (len(sol.kernel) + 2) * np.finfo(float).eps * kernel_mass * slope_mass
        return {"graph": gpath, "residues": rpath, "twists": tpath, "twist_roundoff": roundoff,
                "genus": inst["genus"], "leaves": inst["leaves"], "edges": len(inst["graph"]["edges"])}

    def commands(self, inst):
        g, r, tw = inst["graph"], inst["residues"], inst["twists"]
        return {
            "check": ["check", g],
            "solve": ["solve", g, r],
            "embed": ["embed", g, r],
            "embed --svg": ["embed", g, r, "--svg"],
            "regularity": ["regularity", g, r],
            "twists solve": ["twists", g, r, "solve"],
            "twists check": ["twists", g, r, "check", "--twists", tw],
            "periods": ["periods", g, r, tw],
            "collar": ["collar", "--sweep", "1e-1..1e-8"],
        }

    def run(self, inst, tracer=None) -> tuple[float, dict]:
        results = {}
        t0 = time.perf_counter()
        for key, argv in self.commands(inst).items():
            results[key] = run_cli(argv, tracer)
        return time.perf_counter() - t0, results

    def check(self, inst, got) -> Outcome:
        out = Outcome()
        known = []
        parsed = {}
        for key, (code, stdout, stderr) in got.items():
            if code != 0:
                out.failures.append(f"{key}: exit {code} {stderr.strip()}")
            elif key in ("check", "twists solve", "twists check", "periods"):
                parsed[key] = json.loads(stdout)
        doc = parsed.get("check")
        if doc is not None and doc["dims"] != [inst["leaves"] - 1, inst["genus"]]:
            out.failures.append(f"check: dims {doc['dims']}")
        doc = parsed.get("twists solve")
        if doc is not None and doc["dimension"] != inst["edges"] - doc["rank"]:
            out.failures.append(f"twists solve: dimension {doc['dimension']} with rank {doc['rank']}")
        doc = parsed.get("twists check")
        if doc is not None:
            pairs = [(r, ok) for rs, oks in zip(doc["residuals"], doc["passes"]) for r, ok in zip(rs, oks)]
            worst = max((r for r, _ in pairs), default=0.0)
            if any(ok != (r <= TWIST_TOL) for r, ok in pairs) or doc["all_pass"] != all(ok for _, ok in pairs):
                out.failures.append("twists check: verdicts disagree with the residuals")
            elif worst > inst["twist_roundoff"] and not doc["all_pass"]:
                out.failures.append(f"twists check: residual {worst:.3e} exceeds the sample's "
                                    f"round-off bound {inst['twist_roundoff']:.3e}")
            elif not doc["all_pass"]:
                # the sampled point is exact in theory; float round-off rejects it
                known.append(f"twists check: {KNOWN_TWIST_SAMPLE}")
        doc = parsed.get("periods")
        if doc is not None and not doc["integer"]:
            # the B-rows are the sampled twist's loop sums, so a rejected
            # sample also makes them non-integer
            (known if known else out.failures).append("periods: not integer")
        out.known = not out.failures
        out.failures += known
        return out


class Degenerate:
    """``tropharm degenerate --t 1e3,1e6 --window 3`` on one random tree."""

    name = "degenerate"
    nominal_rate = 1.8
    cycle = 5  # every leaf count once
    fork_jobs = True
    T_KEYS = ("1000", "1000000")
    # A fixed window keeps the sample count of a tree near a function of its
    # leaf count; the default window follows each tree's extent, and its
    # area varied 35-fold over the trees of one run.  [-3, 3]^2 is the
    # window of the acceptance tests.
    WINDOW = "3"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self, index: int):
        inst = gen.tree_instance(self.seed, index)
        base = os.path.join(self.workdir, f"d{index}")
        return {"graph": _write(base + "-graph.json", inst["graph"]),
                "residues": _write(base + "-residues.json", inst["residues"]),
                "leaves": inst["leaves"],
                "placement_bits": gen.placement_range_bits(inst["graph"], float(self.T_KEYS[-1]))}

    def run(self, inst, tracer=None) -> tuple[float, tuple]:
        t0 = time.perf_counter()
        res = run_cli(["degenerate", inst["graph"], inst["residues"], "--t", "1e3,1e6",
                       "--window", self.WINDOW], tracer)
        return time.perf_counter() - t0, res

    def check(self, inst, got) -> Outcome:
        out = Outcome()
        code, stdout, stderr = got
        if code != 0:
            out.failures.append(f"exit {code} {stderr.strip()}")
            # known only where float64 cannot separate the punctures at all
            out.known = KNOWN_PUNCTURES in stderr and inst["placement_bits"] > 53
            return out
        results = json.loads(stdout)["results"]
        missing = [t for t in self.T_KEYS if t not in results]
        if missing:
            out.failures.append(f"t values missing from the report: {missing}")
            out.known = False
            return out
        dists = [results[t]["global_hausdorff"] for t in self.T_KEYS]
        tripods = [d for t in self.T_KEYS for d in results[t]["per_tripod"].values()]
        reported = dists + [d for d in tripods if d is not None]
        # canonical JSON writes an integral float such as 0.0 as 0
        if not all(isinstance(d, (int, float)) and math.isfinite(d) for d in reported):
            out.failures.append(f"non-finite Hausdorff distance in {dists}")
            out.known = False
            return out
        out.extra = {
            "hausdorff_tmax": dists[-1],
            "nonconverged": not dists[-1] < dists[0],
            "tripods": len(tripods),
            "tripods_empty": sum(d is None for d in tripods),
        }
        return out


WORKLOADS = {w.name: w for w in (KirchhoffSession, CliTropical, Degenerate)}
