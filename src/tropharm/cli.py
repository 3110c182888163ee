"""Command-line front end: check, solve, embed, regularity, twists, periods,
degenerate, collar.

All primary output is canonical JSON on stdout (or --out FILE); errors go to
stderr as one-line JSON {"code", "message"} with exit status 1.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import degeneration as deg
from . import forms, graph, morphisms, phase
from .errors import InputError, NonPositiveLengthError, SamplingTooDenseError, TropharmError
from .serialize import dumps_canonical


def _write(args, path: str, text: str):
    """Write ``text`` to the file at ``path`` and say so unless --quiet."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output file {path}: {exc}") from exc
    if not args.quiet:
        print(f"wrote {path}", file=sys.stderr)


def _emit(args, payload, text: str | None = None):
    out = text if text is not None else dumps_canonical(payload) + "\n"
    if args.out:
        _write(args, args.out, out)
    else:
        sys.stdout.write(out)


def _load_inputs(args):
    mg = graph.load_graph(args.graph)
    return mg, forms.load_residues(args.residues, mg)


def _load_twists(path: str, mg: graph.MetricGraph) -> phase.TwistAssignment:
    return phase.twists_from_dict(graph.read_json(path, "twist"), mg)


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
    loops = [graph._path_columns(mg.graph, loop) for loop in mg.loops]  # built valid: no path check
    loop_res = 0.0
    for f in solved:
        for loop in loops:
            loop_res = max(loop_res, abs(forms._integral(f, *loop)))
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
    mor = morphisms.build_morphism(mg, R)
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
        raise InputError("check mode needs --twists FILE")
    twists = _load_twists(args.twists, mg)
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
    twists = _load_twists(args.twists, mg)
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
    report = deg.convergence_experiment(mg, R, ts, args.density, window=window,
                                        base_vertex=args.base_vertex)
    if args.csv:
        _write(args, args.csv, report.to_csv())
    _emit(args, report.to_dict())
    return 0


def cmd_collar(args):
    if args.points is not None and args.points < 2:
        raise InputError(f"--points must be at least 2, got {args.points}")
    if args.l is not None:
        values = [args.l]
    else:
        try:
            lo_s, hi_s = args.sweep.split("..")
            lo, hi = float(lo_s), float(hi_s)
        except ValueError as exc:
            raise InputError(f"bad sweep range {args.sweep!r}; expected A..B") from exc
        if not (lo > 0 and hi > 0):
            raise NonPositiveLengthError(f"sweep range {args.sweep!r} must be positive")
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InputError(f"sweep range {args.sweep!r} must be finite")
        n = args.points or max(2, int(round(abs(np.log10(hi) - np.log10(lo)))) + 1)
        try:
            values = list(np.geomspace(lo, hi, n))
        except MemoryError as exc:
            raise SamplingTooDenseError(f"a sweep of {n} points does not fit in memory: {exc}") from exc
    _emit(args, deg.collar_sweep(values))
    return 0


def _tolerance(text: str) -> float:
    """A --tol value: a finite number, zero or above."""
    tol = float(text)
    if not 0.0 <= tol < np.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return tol


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(dumps_canonical({"code": "BadUsage", "message": message}) + "\n")
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every call.

    Reuse is safe because ``parse_args`` returns a fresh namespace, no
    argument has a mutable default, and error and help output look up
    ``sys.stdout``/``sys.stderr`` when they are written.  Callers must not
    add arguments to the returned parser.
    """
    def global_flags():  # one copy per parser: only the top parser's has defaults
        flags = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
        flags.add_argument("--tol", type=_tolerance, help="numeric tolerance (default 1e-9)")
        flags.add_argument("--out", help="write primary output to this file instead of stdout")
        flags.add_argument("--quiet", action="store_true", help="suppress informational messages")
        return flags

    # a subparser sets a global flag only when it follows the subcommand, so it
    # keeps one given before the subcommand
    p = _Parser(prog="tropharm", description=__doc__, parents=[global_flags()])
    p.set_defaults(tol=1e-9, out=None, quiet=False)
    common = global_flags()
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
    sp.add_argument("--window", type=float, default=None, help="half-width W for the box [-W, W]^m")
    sp.add_argument("--density", type=float, default=1.0, help="sampling density multiplier")
    sp.add_argument("--base-vertex", default=None)
    sp.add_argument("--csv", help="also write (t, distance) rows to this CSV file")
    sp.set_defaults(fn=cmd_degenerate)

    sp = sub.add_parser("collar", parents=[common], help="collar width/modulus table")
    length = sp.add_mutually_exclusive_group(required=True)
    length.add_argument("--l", type=float)
    length.add_argument("--sweep", help="range A..B, log-spaced")
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
