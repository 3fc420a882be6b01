"""Command-line front end.

Subcommands: lattice, slope, thresholds, fm, zseries, invert, selftest.
Exit codes: 0 on success, 1 when a mathematical invariant check fails,
2 on usage errors (bad flags, malformed input, unreadable files, violated
preconditions, a zseries beyond its size cap).

Every report embeds the Delta convention and normalization notes where they
apply, so downstream tables are self-describing.  The default base preset
comes from the ELLFM_BASE environment variable (falling back to F1).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
from pathlib import Path

from . import base_geometry as bg
from . import dt_invariants as dt
from . import fourier_mukai as fm
from . import jsonio
from . import modular
from . import selftest
from . import stability as st
from . import weierstrass as wx
from .errors import InvariantViolation

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2

ENV_BASE = "ELLFM_BASE"
FORMATS = ("json", "csv", "pretty")


class UsageError(ValueError):
    pass


def _load_base(label: str) -> bg.BaseSurface:
    if label.upper() in bg.preset_names():
        return bg.make_base(label)
    path = Path(label)
    if path.exists():
        return bg.base_from_json(json.loads(path.read_text()))
    raise UsageError(f"unknown base {label!r}: not a preset "
                     f"{sorted(bg.preset_names())} and not a JSON file")


def _parse_json_arg(text: str, label: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON for {label}: {exc}") from None


def _emit(report: dict, rows: list[list], fmt: str) -> None:
    """Every command produces a structured report plus a tabular view."""
    if fmt == "json":
        print(json.dumps(report, indent=2))
    elif fmt == "csv":
        csv.writer(sys.stdout).writerows(rows)
    else:
        _pretty(report)


def _pretty(value: dict | list, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                print(f"{pad}{key}:")
                _pretty(item, indent + 1)
            else:
                print(f"{pad}{key}: {item}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                _pretty(item, indent)
            else:
                print(f"{pad}- {item}")


# -- subcommands --------------------------------------------------------------

def cmd_lattice(args) -> int:
    B = _load_base(args.base)
    matrix, det = wx.intersection_matrix_X(B)
    report = {
        "base": bg.base_to_json(B),
        "k_squared": B.k_squared(),
        "matrix": [list(row) for row in matrix],
        "det": det,
        "unimodular": abs(det) == 1,
    }
    if bg.has_k3_pencil(B):
        report["pencil_relations"] = wx.k3_pencil_relations(B)
    rows = [["row", *range(len(matrix))]]
    rows += [[i, *row] for i, row in enumerate(matrix)]
    rows.append(["det", det])
    _emit(report, rows, args.fmt)
    return EXIT_OK


def cmd_slope(args) -> int:
    B = _load_base(args.base)
    gamma = jsonio.dim2_from_json(_parse_json_arg(args.gamma, "--gamma"))
    omega = st.KahlerParams(jsonio.parse_frac(args.t), jsonio.parse_frac(args.s))
    mu = st.slope_dim2(B, gamma, omega)
    chi = jsonio.parse_frac(args.chi) if args.chi is not None else st.chi_dim2(B, gamma)
    nu = st.nu_dim2(B, gamma, omega, chi=chi)
    report = {
        "base": B.name,
        "gamma": jsonio.dim2_to_json(gamma),
        "t": jsonio.frac_str(omega.t),
        "s": jsonio.frac_str(omega.s),
        "mu": jsonio.frac_str(mu),
        "nu": jsonio.frac_str(nu),
        "chi": jsonio.frac_str(chi),
        "chi_note": ("supplied" if args.chi is not None else
                     "derived via Riemann-Roch with the standard Weierstrass "
                     "second Chern class; comparisons taking chi as input do "
                     "not depend on this choice"),
    }
    rows = [["quantity", "value"], ["mu", jsonio.frac_str(mu)],
            ["nu", jsonio.frac_str(nu)], ["chi", jsonio.frac_str(chi)]]
    _emit(report, rows, args.fmt)
    return EXIT_OK


def cmd_thresholds(args) -> int:
    B = _load_base(args.base)
    if args.gammahat is None and args.k3 is None:
        raise UsageError("thresholds needs --gammahat and/or --k3 data")
    report: dict = {"base": B.name}
    rows = [["quantity", "value"]]

    if args.gammahat is not None:
        gh = jsonio.dim1_from_json(_parse_json_arg(args.gammahat, "--gammahat"))
        if gh.chi <= 0:
            raise UsageError("threshold s1 needs chi > 0")
        gamma = fm.phi_map(B, gh)
        if gh.m < 0:
            raise UsageError("threshold s1 needs n >= 0")
        s1 = st.compute_s1(B, gamma.C, gamma.k2, gamma.n)
        report["gammahat"] = jsonio.dim1_to_json(gh)
        report["s1"] = jsonio.frac_str(s1)
        rows.append(["s1", jsonio.frac_str(s1)])

    if args.k3 is not None:
        if args.s is None:
            raise UsageError("--k3 thresholds need --s")
        v = jsonio.k3_from_json(_parse_json_arg(args.k3, "--k3"))
        s = jsonio.parse_frac(args.s)
        t2 = st.compute_t2(v.r, v.n, s)
        report["k3"] = jsonio.k3_to_json(v)
        report["s"] = jsonio.frac_str(s)
        report["t2"] = jsonio.frac_str(t2)
        rows.append(["t2", jsonio.frac_str(t2)])
        delta = st.delta_discriminant(v)
        report["delta"] = jsonio.frac_str(delta)
        if delta >= 0:
            report["wall_bound_ts"] = jsonio.frac_str(st.wall_bound_ts(v.r, delta))
        walls = []
        if args.wall_candidates is not None:
            candidates = _parse_json_arg(args.wall_candidates, "--wall-candidates")
            for entry in jsonio.json_list(candidates, "--wall-candidates"):
                gp = jsonio.k3_from_json(entry)
                wall = st.eta_wall(gp, v, s)
                root = None if wall.root is None else jsonio.frac_str(wall.root)
                walls.append({"gamma_prime": jsonio.k3_to_json(gp), "root": root,
                              "identically_zero": wall.identically_zero})
                rows.append([f"wall{len(walls)}",
                             "identically zero" if wall.identically_zero else root or "none"])
        report["walls"] = walls

    report["note"] = ("the adiabatic comparison constant t1 is not "
                      "constructive; s1, t2 and the wall bounds are the "
                      "computable substitutes")
    _emit(report, rows, args.fmt)
    return EXIT_OK


def cmd_fm(args) -> int:
    B = _load_base(args.base)
    if args.direction is None:
        raise UsageError("fm needs --direction {to-X,to-Xhat} (or --to-X/--to-Xhat)")
    to_x = args.direction == "to-X"
    flag, text = ("--gammahat", args.gammahat) if to_x else ("--gamma", args.gamma)
    if text is None:
        raise UsageError(f"direction {args.direction} needs {flag}")
    if to_x:
        source = jsonio.dim1_from_json(_parse_json_arg(text, flag))
        result = fm.fm_dim1_to_dim2(B, source)
        source_json, image_json = jsonio.dim1_to_json, jsonio.dim2_to_json
    else:
        source = jsonio.dim2_from_json(_parse_json_arg(text, flag))
        result = fm.fm_dim2_to_dim1(B, source)
        source_json, image_json = jsonio.dim2_to_json, jsonio.dim1_to_json
    ok = fm.roundtrip_check(B, source)
    sheaf = image_json(result.sheaf_level)
    report = {
        "base": B.name,
        "direction": args.direction,
        "input": source_json(source),
        "sheaf_level": sheaf,
        "complex_level": image_json(result.complex_level),
    }
    if not to_x:
        report["image_effective"] = result.image_effective
    report["roundtrip"] = ok
    # the C row shows the coordinate tuple; the remaining integer fields follow
    rows = [["field", "value"], ["C", result.sheaf_level.C.coords]]
    rows += [[key, value] for key, value in sheaf.items() if key not in ("C", "alpha")]
    if not ok:
        raise InvariantViolation("transform round trip failed")
    _emit(report, rows, args.fmt)
    return EXIT_OK


def cmd_zseries(args) -> int:
    result = modular.z_series(args.r, args.k, args.order, args.delta_convention)
    series = result.series
    report = {
        "r": result.r,
        "k": result.k,
        "convention": result.convention,
        **jsonio.series_to_json(series),
        "n0_exponent": result.n0_exponent,
        "grading_shift": (None if result.grading_shift is None
                          else jsonio.frac_str(result.grading_shift)),
        "notes": list(result.notes),
    }
    rows = [["exp", "value"]]
    rows += [[int(series.offset) + i, jsonio.frac_str(c)]
             for i, c in enumerate(series.coeffs)]
    _emit(report, rows, args.fmt)
    return EXIT_OK


def cmd_invert(args) -> int:
    path = Path(args.table)
    if not path.exists():
        raise UsageError(f"table file {path} does not exist")
    table = dt.table_from_json(_parse_json_arg(path.read_text(), str(path)))
    if args.direction == "omega-to-dt":
        out = dt.dt_table_from_omega(table)
    else:
        out = dt.omega_table_from_dt(table)
    report = dt.table_to_json(out)
    rows = [["r", "n", "k", "value"]]
    rows += [[e["r"], e["n"], e["k"], e["value"]] for e in report["entries"]]
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    else:
        _emit(report, rows, args.fmt)
    return EXIT_OK


def cmd_selftest(args) -> int:
    code = EXIT_OK
    for criterion in selftest.CRITERIA:
        try:
            print(f"[PASS] {criterion.run()}")
        except Exception as exc:  # report the failure, then run the other criteria
            traceback.print_exc()
            print(f"[FAIL] {criterion.label} ({type(exc).__name__}: {exc})")
            code = EXIT_INVARIANT
    return code


# -- argument parsing ----------------------------------------------------------

def _add_shared_options(parser: argparse.ArgumentParser, base, fmt) -> None:
    parser.add_argument("--base", default=base,
                        help=f"base preset (P2, F0, F1) or JSON file [env {ENV_BASE}]")
    parser.add_argument("--format", choices=FORMATS, default=fmt, dest="fmt",
                        help="output format")


def build_parser() -> argparse.ArgumentParser:
    # shared options are accepted both before and after the subcommand; the
    # SUPPRESS defaults keep the subparser from clobbering values parsed by
    # the main parser
    shared = argparse.ArgumentParser(add_help=False)
    _add_shared_options(shared, argparse.SUPPRESS, argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="ellfm",
        description="Exact sheaf-counting numerics on elliptic Weierstrass "
                    "Calabi-Yau threefolds.")
    _add_shared_options(parser, os.environ.get(ENV_BASE, "F1"), "pretty")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("lattice", help="intersection lattice report", parents=[shared])

    p = sub.add_parser("slope", help="slope and reduced Euler characteristic",
                       parents=[shared])
    p.add_argument("--gamma", required=True, help='Dim2 invariants JSON, e.g. '
                   '\'{"C":[0,1],"alpha":[0,0],"k2":2,"n":0}\'')
    p.add_argument("--t", required=True, help="polarization t (rational)")
    p.add_argument("--s", required=True, help="polarization s (rational)")
    p.add_argument("--chi", help="explicit Euler characteristic (rational)")

    p = sub.add_parser("thresholds", help="stability thresholds s1, t2, wall data",
                       parents=[shared])
    p.add_argument("--gammahat", help='Dim1 invariants JSON {"C":...,"m":...,"chi":...}')
    p.add_argument("--k3", help='K3 invariants JSON {"r":...,"m":...,"l":...,"n":...}')
    p.add_argument("--s", help="polarization s (rational), for t2 and walls")
    p.add_argument("--wall-candidates", help="JSON list of K3 invariants gamma'")

    p = sub.add_parser("fm", help="transform numerical invariants",
                       parents=[shared])
    direction = p.add_mutually_exclusive_group()
    direction.add_argument("--direction", choices=("to-X", "to-Xhat"))
    direction.add_argument("--to-X", action="store_const", const="to-X", dest="direction",
                           help="shorthand for --direction to-X")
    direction.add_argument("--to-Xhat", action="store_const", const="to-Xhat",
                           dest="direction", help="shorthand for --direction to-Xhat")
    p.add_argument("--gammahat", help="Dim1 invariants JSON (for to-X)")
    p.add_argument("--gamma", help="Dim2 invariants JSON (for to-Xhat)")

    p = sub.add_parser("zseries", help="counting series Z_{r,k}",
                       parents=[shared])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, default=20,
                   help=f"last q-exponent; r * (order + 1) + 2 may be at most "
                        f"{modular.MAX_U_ORDER}")
    p.add_argument("--delta-convention", choices=modular.DELTA_CONVENTIONS,
                   default="cusp", dest="delta_convention")

    p = sub.add_parser("invert", help="multicover conversion of invariant tables",
                       parents=[shared])
    p.add_argument("--table", required=True, help="table JSON file")
    p.add_argument("--direction", choices=("dt-to-omega", "omega-to-dt"),
                   required=True)
    p.add_argument("--out", help="write the converted table to a file")

    sub.add_parser("selftest", help="run the acceptance criteria",
                   parents=[shared])
    return parser


_COMMANDS = {
    "lattice": cmd_lattice,
    "slope": cmd_slope,
    "thresholds": cmd_thresholds,
    "fm": cmd_fm,
    "zseries": cmd_zseries,
    "invert": cmd_invert,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
