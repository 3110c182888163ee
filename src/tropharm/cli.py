"""Command-line front end: check, solve, embed, regularity, twists, periods,
degenerate, collar.

All primary output is canonical JSON on stdout (or --out FILE); errors go to
stderr as one-line JSON {"code", "message"} with exit status 1.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import degeneration as deg
from . import forms, graph, morphisms, phase
from .errors import InputError, MinimumDensityViolationError, NonPositiveLengthError, TropharmError
from .serialize import dumps_canonical


def _emit(args, payload, text: str | None = None):
    out = text if text is not None else dumps_canonical(payload) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
        if not args.quiet:
            print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(out)


def _load_inputs(args, need_residues=True):
    mg = graph.load_graph(args.graph)
    if not need_residues:
        return mg, None
    R = forms.load_residues(args.residues, mg)
    return mg, R


def cmd_check(args):
    mg = graph.load_graph(args.graph)
    g = mg.graph
    dims = None
    if g.n_leaves >= 2:
        dims = list(forms.form_space_dims(mg))
    _emit(args, {
        "g": g.genus,
        "n": g.n_leaves,
        "edges": len(g.edges),
        "vertices": len(g.vertices),
        "dims": dims,
    })
    return 0


def cmd_solve(args):
    mg, R = _load_inputs(args)
    solved = [forms.solve_exact_form(mg, R.row(k)) for k in range(R.m)]
    bal = max(forms.balancing_residual(f) for f in solved)
    loop_res = 0.0
    for f in solved:
        for loop in mg.loops:
            loop_res = max(loop_res, abs(forms.integrate(f, loop)))
    meta = {"balancing_residual": bal, "loop_residual": loop_res}
    if R.m == 1:
        payload = {"graph": args.graph, "values": solved[0].values, "metadata": meta}
    else:
        payload = {"graph": args.graph, "forms": [f.values for f in solved], "metadata": meta}
    _emit(args, payload)
    return 0


def cmd_embed(args):
    mg, R = _load_inputs(args)
    mor = morphisms.build_morphism(mg, R, args.base_vertex)
    scene = morphisms.emit_embedding(mor, leaf_ray_length=args.ray_length)
    if args.svg:
        _emit(args, None, text=morphisms.scene_to_svg(scene))
    else:
        _emit(args, morphisms.scene_to_dict(scene))
    return 0


def cmd_regularity(args):
    mg, R = _load_inputs(args)
    mor = morphisms.build_morphism(mg, R, args.base_vertex)
    rep = morphisms.regularity_rank(mg, mor, rank_tol=args.tol)
    _emit(args, {"rank": rep.rank, "expected": rep.expected, "is_regular": rep.is_regular})
    return 0


def cmd_twists(args):
    mg, R = _load_inputs(args)
    mor = morphisms.build_morphism(mg, R)
    if args.mode == "solve":
        sol = phase.solve_twists(mg, mor, tol=args.tol)
        _emit(args, {
            "edges": list(sol.edge_order),
            "constraint_matrix": [[int(x) for x in row] for row in sol.constraint_matrix],
            "rank": sol.rank,
            "dimension": sol.dimension,
            "representative": sol.representative.theta,
        })
        return 0
    if not args.twists:
        raise TropharmError("check mode needs --twists FILE")
    import json as _json

    with open(args.twists) as fh:
        twists = phase.twists_from_dict(_json.load(fh), mg)
    chk = phase.check_integrality(mg, twists, mor, tol=args.tol)
    _emit(args, {
        "loops": [[oe.id if oe.forward else f"-{oe.id}" for oe in loop.items] for loop in chk.loops],
        "sums": [[float(x) for x in row] for row in chk.sums],
        "residuals": [[float(x) for x in row] for row in chk.residuals],
        "passes": [[bool(x) for x in row] for row in chk.passes],
        "all_pass": chk.all_pass,
    })
    return 0


def cmd_periods(args):
    mg, R = _load_inputs(args)
    import json as _json

    with open(args.twists) as fh:
        twists = phase.twists_from_dict(_json.load(fh), mg)
    basis = None
    if args.a_edges:
        base = phase.default_period_basis(mg)
        basis = phase.PeriodBasis(base.puncture_leaves, tuple(args.a_edges.split(",")), base.b_loops)
    P = phase.limit_period_matrix(mg, twists, R, basis)
    payload = phase.period_matrix_to_dict(P)
    payload["integer"] = phase.is_integer_period_matrix(P, tol=args.tol)
    _emit(args, payload)
    return 0


def cmd_degenerate(args):
    mg, R = _load_inputs(args)
    try:
        ts = [float(x) for x in args.t.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --t list {args.t!r}; expected comma-separated numbers") from exc
    window = None
    if args.window is not None:
        window = np.array([[-args.window, args.window]] * R.m)
    density = args.density
    if not (density > 0 and np.isfinite(density)):
        raise MinimumDensityViolationError(f"density must be positive and finite, got {density}")
    sampling = deg.ExperimentSampling(
        u_step=0.02 / density,
        angular_count=max(1, round(64 * density)),
        grid_count=max(1, round(32 * density)),
    )
    report = deg.convergence_experiment(
        mg, R, ts, sampling=sampling, window=window,
        base_vertex=args.base_vertex, kappa=args.kappa,
    )
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
        if not args.quiet:
            print(f"wrote {args.csv}", file=sys.stderr)
    _emit(args, report.to_dict())
    return 0


def cmd_collar(args):
    if args.l is None and args.sweep is None:
        raise TropharmError("collar needs --l VALUE or --sweep A..B")
    if args.l is not None:
        values = [args.l]
    else:
        try:
            lo_s, hi_s = args.sweep.split("..")
            lo, hi = float(lo_s), float(hi_s)
        except ValueError as exc:
            raise TropharmError(f"bad sweep range {args.sweep!r}; expected A..B") from exc
        if not (lo > 0 and hi > 0):
            raise NonPositiveLengthError(f"sweep range {args.sweep!r} must be positive")
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InputError(f"sweep range {args.sweep!r} must be finite")
        n = args.points or int(round(abs(np.log10(hi) - np.log10(lo)))) + 1
        values = list(np.geomspace(lo, hi, max(2, n)))
    _emit(args, deg.collar_sweep(values))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(dumps_canonical({"code": "BadUsage", "message": message}) + "\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance")
    common.add_argument("--out", help="write primary output to this file instead of stdout")
    common.add_argument("--quiet", action="store_true", help="suppress informational messages")

    p = _Parser(prog="tropharm", description=__doc__, parents=[common])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("check", parents=[common], help="validate a graph file and report counts and dimensions")
    sp.add_argument("graph")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("solve", parents=[common], help="solve the exact forms for a residue matrix")
    sp.add_argument("graph")
    sp.add_argument("residues")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("embed", parents=[common], help="emit the piecewise-linear image as JSON or SVG")
    sp.add_argument("graph")
    sp.add_argument("residues")
    sp.add_argument("--svg", action="store_true")
    sp.add_argument("--json", dest="svg", action="store_false")
    sp.add_argument("--base-vertex", default=None)
    sp.add_argument("--ray-length", type=float, default=3.0)
    sp.set_defaults(fn=cmd_embed, svg=False)

    sp = sub.add_parser("regularity", parents=[common], help="rank of the loop constraints against m*genus")
    sp.add_argument("graph")
    sp.add_argument("residues")
    sp.add_argument("--base-vertex", default=None)
    sp.set_defaults(fn=cmd_regularity)

    sp = sub.add_parser("twists", parents=[common], help="solve or check the loop twist congruences")
    sp.add_argument("graph")
    sp.add_argument("residues")
    sp.add_argument("mode", choices=["solve", "check"])
    sp.add_argument("--twists", help="twist file for check mode")
    sp.set_defaults(fn=cmd_twists)

    sp = sub.add_parser("periods", parents=[common], help="limit period matrix and integer verdict")
    sp.add_argument("graph")
    sp.add_argument("residues")
    sp.add_argument("twists")
    sp.add_argument("--a-edges", help="comma-separated edge ids for the A-cycles")
    sp.set_defaults(fn=cmd_periods)

    sp = sub.add_parser("degenerate", parents=[common], help="rescaled-amoeba convergence experiment")
    sp.add_argument("graph")
    sp.add_argument("residues")
    sp.add_argument("--t", default="1e3,1e4,1e5,1e6", help="comma-separated t values")
    sp.add_argument("--kappa", type=float, default=deg.FOUR_PI)
    sp.add_argument("--window", type=float, default=None, help="half-width W for the box [-W, W]^m")
    sp.add_argument("--density", type=float, default=1.0, help="sampling density multiplier")
    sp.add_argument("--base-vertex", default=None)
    sp.add_argument("--csv", help="also write (t, distance) rows to this CSV file")
    sp.set_defaults(fn=cmd_degenerate)

    sp = sub.add_parser("collar", parents=[common], help="collar width/modulus table")
    sp.add_argument("--l", type=float, default=None)
    sp.add_argument("--sweep", default=None, help="range A..B, log-spaced")
    sp.add_argument("--points", type=int, default=None)
    sp.set_defaults(fn=cmd_collar)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except TropharmError as exc:
        sys.stderr.write(dumps_canonical({"code": exc.code, "message": str(exc)}) + "\n")
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(dumps_canonical({"code": "Internal", "message": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
