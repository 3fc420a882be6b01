"""The three seeded workloads.

A workload is built once per run (set-up: presets, input pools, oracles,
table files) and then yields *cycles*: fixed-composition lists of
operations whose parameters come from ``random.Random(f"{seed}/{name}/{i}")``.
Every cycle has the same mix of operation kinds and size strata, so a run
that completes whole cycles measures the same work whatever the seed; the
seed only varies parameters within a stratum and the order of operations.

Each operation has a ``run`` callable, the only part that is timed, and a
``check`` that compares its output with an independent route from
``oracles`` and returns ``None`` or a description of the mismatch.  The
library is always reached through module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import ast
import csv
import functools
import io
import json
import operator
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as orc

BASES = ("P2", "F0", "F1")
FORMATS = ("json", "csv", "pretty")

# Bad-input classes whose correct outcome is exit code 2.  Both classes in
# KNOWN_DEFECTS are mishandled by the library at the commit that defined
# this benchmark (ROADMAP item 5); their failures are counted and listed,
# but do not make a run incorrect.
MALFORMED = ("malformed-json", "wrong-rank", "non-effective", "s-le-t",
             "wrong-type", "non-integral")
KNOWN_DEFECTS = {
    "malformed/wrong-type": "a JSON array or scalar where an object or vector is "
                            "expected raises TypeError out of cli.main",
    "malformed/non-integral": "int() truncates a JSON float such as 2.5 in an "
                              "integer field, so the call exits 0 with an answer",
}


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _frac(value) -> Fraction:
    return Fraction(str(value))


def _effective(rng, rank, top=3):
    """A nonzero class in the effective cone (coordinates 0..top)."""
    while True:
        c = tuple(rng.randint(0, top) for _ in range(rank))
        if any(c):
            return c


def _rational(rng, lo, hi, den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _mismatch(what, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# queries: single cli.main calls


def run_cli(cli, argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def _pretty_lines(text):
    """(depth, key, value) per line of the pretty format; list items have
    key '-', block headers value None."""
    out = []
    for line in text.splitlines():
        stripped = line.lstrip(" ")
        depth = (len(line) - len(stripped)) // 2
        if stripped.startswith("- "):
            out.append((depth, "-", stripped[2:]))
        else:
            key, _, value = stripped.partition(":")
            out.append((depth, key, value.strip() if value.strip() else None))
    return out


def _pretty_block(lines, header):
    start = next(i for i, (d, k, v) in enumerate(lines) if d == 0 and k == header)
    block = []
    for depth, key, value in lines[start + 1:]:
        if depth == 0:
            break
        block.append((depth, key, value))
    return block


def _fields(fmt, text) -> dict:
    """Top-level scalar fields in any of the three formats."""
    if fmt == "json":
        return {k: str(v) for k, v in json.loads(text).items()
                if not isinstance(v, (dict, list))}
    if fmt == "csv":
        return {row[0]: row[1] for row in csv.reader(io.StringIO(text)) if len(row) == 2}
    return {k: v for d, k, v in _pretty_lines(text) if d == 0 and v is not None}


def _series_coeffs(fmt, text) -> dict[int, Fraction]:
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return {int(e): Fraction(v) for e, v in rows}
    if fmt == "json":
        data = json.loads(text)
        pairs = [(c["exp"], c["value"]) for c in data["coeffs"]]
    else:
        lines = _pretty_lines(text)
        block = [v for d, k, v in _pretty_block(lines, "coeffs")]
        pairs = list(zip(block[0::2], block[1::2]))
    offset = int(Fraction(_fields(fmt, text)["offset"]))
    return {offset + int(e): Fraction(v) for e, v in pairs}


def _table_entries(fmt, text) -> dict:
    if fmt == "json":
        rows = [(e["r"], e["n"], e["k"], e["value"]) for e in json.loads(text)["entries"]]
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
    else:
        values = [v for d, k, v in _pretty_block(_pretty_lines(text), "entries")]
        rows = [values[i:i + 4] for i in range(0, len(values), 4)]
    return {(int(r), int(n), int(k)): Fraction(v) for r, n, k, v in rows}


def _fm_sheaf(fmt, text):
    """(C, scalar fields) of the sheaf-level image, plus the round-trip flag
    where the format carries it."""
    if fmt == "json":
        data = json.loads(text)
        sheaf = data["sheaf_level"]
        scalars = {k: str(v) for k, v in sheaf.items() if not isinstance(v, list)}
        return tuple(sheaf["C"]), scalars, data["roundtrip"]
    if fmt == "csv":
        fields = _fields(fmt, text)
        return tuple(ast.literal_eval(fields["C"])), fields, True
    C, scalars, header = [], {}, None
    for depth, key, value in _pretty_block(_pretty_lines(text), "sheaf_level"):
        if depth == 1:
            header = key
            if value is not None:
                scalars[key] = value
        elif key == "-" and header == "C":
            C.append(int(value))
    return tuple(C), scalars, _fields(fmt, text)["roundtrip"] == "True"


class Queries:
    """Single ``cli.main`` calls with captured stdout, a fixed share of
    them malformed."""

    KINDS = (["lattice"] * 3 + ["slope"] * 6 + ["s1"] * 3 + ["t2"] * 3
             + ["fm-to-X"] * 3 + ["fm-to-Xhat"] * 3 + ["invert"] * 4
             + ["zseries"] * 9 + [f"malformed/{c}" for c in MALFORMED])
    ZSERIES_STRATA = [(r, band) for r in (1, 2, 3) for band in ((2, 10), (11, 20), (21, 30))]

    def __init__(self, lib, workdir, seed):
        self.cli = lib.cli
        self.oracle = orc.ZOracle(3 * 31)
        rng = random.Random(f"{seed}/queries/tables")
        self.tables = []  # (path, direction, original entries, inverse map)
        for i in range(8):
            support = orc.closed_support(rng, rng.sample((20, 15, 10, 5), 3))
            values = {g: _rational(rng, -40, 40, 6) for g in support}
            kind, direction, back = (("Omega", "omega-to-dt", orc.moebius_inverse)
                                     if i % 2 == 0 else
                                     ("DT", "dt-to-omega", orc.multicover))
            path = workdir / f"table{i}.json"
            path.write_text(json.dumps({"kind": kind, "entries": [
                {"r": r, "n": n, "k": k, "value": str(v)} for (r, n, k), v in values.items()]}))
            self.tables.append((str(path), direction, values, back))
        self.bad_table = workdir / "bad.json"
        self.bad_table.write_text('{"kind": "Omega", "entries": [')

    def cycle(self, rng) -> list[Op]:
        kinds = list(self.KINDS)
        rng.shuffle(kinds)
        strata = rng.sample(self.ZSERIES_STRATA, len(self.ZSERIES_STRATA))
        lattice_bases = list(BASES)
        tables = rng.sample(self.tables, 4)
        shift = rng.randrange(3)
        ops = []
        for i, kind in enumerate(kinds):
            fmt = FORMATS[(i + shift) % 3]
            base = lattice_bases.pop() if kind == "lattice" else rng.choice(BASES)
            if kind == "zseries":
                argv, check = self._zseries(rng, fmt, *strata.pop())
            elif kind == "invert":
                argv, check = self._invert(fmt, tables.pop())
            else:
                method = "_" + kind.replace("-", "_").replace("/", "_")
                argv, check = getattr(self, method)(rng, base, fmt)
            # shared options go before or after the subcommand name
            shared = ["--base", base, "--format", fmt]
            argv = shared + argv if rng.random() < 0.7 else argv[:1] + shared + argv[1:]
            ops.append(self._op(kind, argv, check))
        return ops

    def _op(self, kind, argv, check):
        cli = self.cli
        expect = 2 if kind.startswith("malformed/") else 0

        def verify(result):
            rc, text = result
            if rc != expect:
                return f"exit {rc}, want {expect}"
            return check(text) if check else None

        return Op(kind, " ".join(argv), lambda: run_cli(cli, argv), verify)

    # -- well-formed calls --------------------------------------------------

    def _lattice(self, rng, base, fmt):
        rows, det = orc.lattice_matrix(base)

        def check(text):
            if fmt == "json":
                got, want = json.loads(text)["matrix"], rows
            elif fmt == "csv":
                table = list(csv.reader(io.StringIO(text)))[1:-1]
                got, want = [[int(x) for x in row[1:]] for row in table], rows
            else:  # the pretty format flattens the matrix
                block = _pretty_block(_pretty_lines(text), "matrix")
                got, want = [int(v) for _, _, v in block], [x for row in rows for x in row]
            return (_mismatch("matrix", got, want)
                    or _mismatch("det", int(_fields(fmt, text)["det"]), det))

        return ["lattice"], check

    def _slope(self, rng, base, fmt):
        rank = len(orc.PRESETS[base]["K"])
        C = _effective(rng, rank)
        if rng.random() < 0.5:
            alpha = (0,) * rank
            k2 = orc.kdot(base, C) + 2 * rng.randint(-3, 3)
        else:
            alpha = _effective(rng, rank, 2)
            alpha = tuple(a * rng.choice((1, -1)) for a in alpha)
            k2 = rng.randint(-6, 6)
        n = rng.randint(-3, 5)
        t = _rational(rng, 1, 6)
        s = t + _rational(rng, 1, 6)
        chi = _rational(rng, -5, 5, 3) if rng.random() < 1 / 3 else None
        argv = ["slope", "--gamma", json.dumps({"C": C, "alpha": alpha, "k2": k2, "n": n}),
                "--t", str(t), "--s", str(s)]
        if chi is not None:
            argv.append(f"--chi={chi}")  # a leading "-" would read as a flag
        mu, nu, chi_want = orc.slope(base, C, alpha, k2, n, t, s, chi)

        def check(text):
            f = _fields(fmt, text)
            return (_mismatch("mu", _frac(f["mu"]), mu) or _mismatch("nu", _frac(f["nu"]), nu)
                    or _mismatch("chi", _frac(f["chi"]), chi_want))

        return argv, check

    def _s1(self, rng, base, fmt):
        C = _effective(rng, len(orc.PRESETS[base]["K"]), 2)
        chi, m = rng.randint(1, 3), rng.randint(0, 2)
        want = orc.s1_brute(orc.destabilizers(base, C, chi, m)[1])
        argv = ["thresholds", "--gammahat", json.dumps({"C": C, "m": m, "chi": chi})]
        return argv, lambda text: _mismatch("s1", _frac(_fields(fmt, text)["s1"]), want)

    def _t2(self, rng, base, fmt):
        r, m, l, n = rng.randint(1, 4), rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 3)
        s = _rational(rng, 1, 9)
        argv = ["thresholds", "--k3", json.dumps({"r": r, "m": m, "l": l, "n": n}),
                "--s", str(s)]
        if rng.random() < 0.5:
            cand = {"r": rng.randint(1, 3), "m": rng.randint(-2, 2), "l": rng.randint(-2, 2),
                    "n": rng.randint(0, 2)}
            argv += ["--wall-candidates", json.dumps([cand])]
        t2, delta = orc.t2(r, n, s), orc.k3_delta(r, m, l, n)

        def check(text):
            f = _fields(fmt, text)
            return _mismatch("t2", _frac(f["t2"]), t2) or (
                None if fmt == "csv" else _mismatch("delta", _frac(f["delta"]), delta))

        return argv, check

    def _fm_to_X(self, rng, base, fmt):
        C = _effective(rng, len(orc.PRESETS[base]["K"]))
        m, chi = rng.randint(-3, 3), rng.randint(-3, 3)
        flag = rng.choice((["--to-X"], ["--direction", "to-X"]))
        argv = ["fm", *flag, "--gammahat", json.dumps({"C": C, "m": m, "chi": chi})]

        def check(text):
            # round trip: the inverse map (k2 - K.C)/2 = chi, n = m recovers the input
            got_C, f, roundtrip = _fm_sheaf(fmt, text)
            k2, n = int(f["k2"]), int(f["n"])
            return (_mismatch("C", got_C, C) or _mismatch("chi", (k2 - orc.kdot(base, C)) // 2, chi)
                    or _mismatch("parity", (k2 - orc.kdot(base, C)) % 2, 0)
                    or _mismatch("m", n, m) or _mismatch("roundtrip", roundtrip, True))

        return argv, check

    def _fm_to_Xhat(self, rng, base, fmt):
        C = _effective(rng, len(orc.PRESETS[base]["K"]))
        k2 = orc.kdot(base, C) + 2 * rng.randint(-3, 3)
        n = rng.randint(0, 4)
        flag = rng.choice((["--to-Xhat"], ["--direction", "to-Xhat"]))
        gamma = {"C": C, "alpha": (0,) * len(C), "k2": k2, "n": n}
        argv = ["fm", *flag, "--gamma", json.dumps(gamma)]

        def check(text):
            # round trip: the forward map k2 = 2 chi + K.C, n = m recovers the input
            got_C, f, roundtrip = _fm_sheaf(fmt, text)
            return (_mismatch("C", got_C, C)
                    or _mismatch("k2", 2 * int(f["chi"]) + orc.kdot(base, C), k2)
                    or _mismatch("n", int(f["m"]), n) or _mismatch("roundtrip", roundtrip, True))

        return argv, check

    def _zseries(self, rng, fmt, r, band):
        order = rng.randint(*band)
        conv = rng.choice(("cusp", "paper"))
        argv = ["zseries", "--r", str(r), "--k", str(rng.randint(1, 3)), "--order", str(order),
                "--delta-convention", conv]
        oracle = self.oracle

        def check(text):
            got = _series_coeffs(fmt, text)
            if max(got) != order:
                return f"window ends at q^{max(got)}, want q^{order}"
            want = {e: oracle.zr(conv, r, e) for e in got}
            return _mismatch("coefficients", got, want)

        return argv, check

    def _invert(self, fmt, table):
        path, direction, original, back = table
        argv = ["invert", "--table", path, "--direction", direction]
        return argv, lambda text: _mismatch("round trip", back(_table_entries(fmt, text)), original)

    # -- malformed calls: the correct outcome is exit 2 ---------------------

    def _valid_gamma(self, rng, base):
        C = _effective(rng, len(orc.PRESETS[base]["K"]))
        return {"C": C, "alpha": (0,) * len(C), "k2": orc.kdot(base, C) + 2 * rng.randint(0, 3),
                "n": rng.randint(0, 3)}

    def _malformed_malformed_json(self, rng, base, fmt):
        gamma = json.dumps(self._valid_gamma(rng, base))
        choices = [
            ["slope", "--gamma", gamma[:-1], "--t", "1", "--s", "2"],
            ["thresholds", "--gammahat", '{"C": [1], "m": 1, "chi": 1'],
            ["fm", "--to-X", "--gammahat", '{"C": [0, 1] "m": 1, "chi": 1}'],
            ["thresholds", "--k3", '{"r": 2, "m": 0, "l": 0, "n": 1,}', "--s", "2"],
            ["invert", "--table", str(self.bad_table), "--direction", "omega-to-dt"],
        ]
        return rng.choice(choices), None

    def _malformed_wrong_rank(self, rng, base, fmt):
        rank = len(orc.PRESETS[base]["K"])
        C = (1,) * (3 - rank)  # rank 2 on P2, rank 1 on F0/F1
        choices = [
            ["slope", "--gamma", json.dumps({"C": C, "k2": 1, "n": 0}), "--t", "1", "--s", "2"],
            ["thresholds", "--gammahat", json.dumps({"C": C, "m": 1, "chi": 1})],
            ["fm", "--to-X", "--gammahat", json.dumps({"C": C, "m": 0, "chi": 2})],
            ["fm", "--to-Xhat", "--gamma", json.dumps({"C": C, "k2": 0, "n": 1})],
        ]
        return rng.choice(choices), None

    def _malformed_non_effective(self, rng, base, fmt):
        rank = len(orc.PRESETS[base]["K"])
        C = [rng.randint(1, 2) for _ in range(rank)]
        C[rng.randrange(rank)] = -rng.randint(1, 2)
        k2 = orc.kdot(base, C) + 2 * rng.randint(0, 2)
        choices = [
            ["slope", "--gamma", json.dumps({"C": C, "alpha": [0] * rank, "k2": k2, "n": 1}),
             "--t", "1", "--s", "2"],
            ["thresholds", "--gammahat", json.dumps({"C": C, "m": 1, "chi": 1})],
        ]
        return rng.choice(choices), None

    def _malformed_s_le_t(self, rng, base, fmt):
        t = _rational(rng, 1, 6)
        s = t - _rational(rng, 0, 2) if rng.random() < 0.7 else t
        argv = ["slope", "--gamma", json.dumps(self._valid_gamma(rng, base)),
                f"--t={t}", f"--s={s}"]
        return argv, None

    def _malformed_wrong_type(self, rng, base, fmt):
        choices = [
            ["slope", "--gamma", "[1,2]", "--t", "1", "--s", "2"],
            ["slope", "--gamma", '{"C": 3, "k2": 1, "n": 0}', "--t", "1", "--s", "2"],
            ["thresholds", "--gammahat", "[1, 2]"],
            ["fm", "--to-X", "--gammahat", '"C"'],
            ["thresholds", "--k3", "7", "--s", "2"],
        ]
        return rng.choice(choices), None

    def _malformed_non_integral(self, rng, base, fmt):
        gamma = self._valid_gamma(rng, base)
        # +-0.5 away from zero, so truncation lands on the valid value
        gamma["k2"] += 0.5 if gamma["k2"] >= 0 else -0.5
        choices = [
            ["slope", "--gamma", json.dumps(gamma), "--t", "1", "--s", "2"],
            ["thresholds", "--k3", json.dumps({"r": rng.randint(1, 3) + 0.5, "m": 0, "l": 0,
                                               "n": 1}), "--s", "3"],
            ["fm", "--to-X", "--gammahat", json.dumps(
                {"C": gamma["C"], "m": 1, "chi": rng.randint(1, 3) + 0.5})],
            ["thresholds", "--gammahat", json.dumps(
                {"C": gamma["C"], "m": rng.randint(0, 1) + 0.5, "chi": 1})],
        ]
        return rng.choice(choices), None


# ---------------------------------------------------------------------------
# series: z_series sweeps and multicover round trips


class Series:
    """One sweep per cycle: both conventions, r = 1..4 at a common q-order,
    each result read into a GV table and relabeled, interleaved with
    Omega -> DT -> Omega round trips."""

    ORDERS = (44, 47)           # q-order range of a sweep
    MULTIPLES = (60, 50, 50, 40)  # per-direction gcd ranges: 200 entries

    def __init__(self, lib, workdir, seed):
        self.modular, self.dt = lib.modular, lib.dt
        self.oracle = orc.ZOracle(4 * (self.ORDERS[1] + 1))

    def cycle(self, rng) -> list[Op]:
        order = rng.randint(*self.ORDERS)
        sweep = [self._z(rng, r, order, conv)
                 for conv in rng.sample(("cusp", "paper"), 2) for r in range(1, 5)]
        trips = [self._round_trip(rng) for _ in range(len(sweep) + 1)]
        # a round trip before every z_series call and one after the last
        return [op for pair in zip(trips, sweep) for op in pair] + trips[len(sweep):]

    def _z(self, rng, r, order, conv):
        modular, dt, oracle = self.modular, self.dt, self.oracle
        k = rng.randint(1, 3)

        def run():
            z = modular.z_series(r, k, order, conv)
            gv = dt.gv_from_z(z)
            return z, gv, dt.fm_relabel(gv)

        def check(result):
            z, gv, relabeled = result
            series = z.series
            if series.last_exponent != order:
                return f"window ends at q^{series.last_exponent}, want q^{order}"
            lo = int(series.offset)
            got = {lo + i: c for i, c in enumerate(series.coeffs)}
            want = {e: oracle.zr(conv, r, e) for e in got}
            if got != want:
                return _mismatch("Z_r[n] vs Z_1[rn]", got, want)
            n0 = next(e for e in range(lo, order + 1) if want[e])
            counts = {(r, n, 1): want[n0 + n] for n in range(order - n0 + 1)}
            return (_mismatch("gv_from_z", gv.entries, counts)
                    or _mismatch("fm_relabel", relabeled.entries,
                                 {(a, c, b): v for (a, b, c), v in counts.items()}))

        return Op("z_series", f"z_series(r={r}, k={k}, order={order}, {conv})", run, check)

    def _round_trip(self, rng):
        dt = self.dt
        support = orc.closed_support(rng, rng.sample(self.MULTIPLES, len(self.MULTIPLES)))
        values = {g: _rational(rng, -50, 50, 6) for g in support}
        omega = dt.InvariantTable("Omega", values)

        def run():
            dtab = dt.dt_table_from_omega(omega)
            return dtab, dt.omega_table_from_dt(dtab)

        def check(result):
            dtab, back = result
            return (_mismatch("multicover sum", dtab.entries, orc.multicover(values))
                    or _mismatch("round trip", back.entries, values))

        return Op("multicover", f"Omega->DT->Omega on {len(values)} entries", run, check)


# ---------------------------------------------------------------------------
# sweeps: destabilizer contexts, t2 grid points, rational series checks


class Sweeps:
    """Verification ops: destabilizer contexts in cost bands, t2 grid points
    up to r = 7, and property checks on rational QSeries.

    The composition puts dense clusters where the percentiles fall: op_p50_ms
    among the small contexts and the series inverses, op_p90_ms among the
    r = 7 t2 points, with only the two anchor contexts above them.
    """

    # (lowest, highest modelled ms, contexts per cycle)
    BANDS = ((4, 7, 10), (20, 80, 4), (0.7, 1.5, 2))
    # the largest context (F1, C = 3(-K), chi = n = 4, |S'| = 840) and the
    # one modelled closest to 800 ms, in every cycle
    ANCHOR_MS = 800
    T2_RANKS = (1, 2, 3, 4, 5, 6, 7, 7, 7, 7)

    def __init__(self, lib, workdir, seed):
        self.st, self.qs = lib.st, lib.qs
        self.bases = {name: lib.bg.make_base(name) for name in BASES}
        self.BaseClass = lib.bg.BaseClass
        # every context with C <= 3(-K), chi in 1..4, n in 0..4, costed by a
        # model fitted at the defining commit: enumerate_S runs |S'| + 3
        # times, each paying per sub-effective class of C, per element of S,
        # and a fixed effectivity check
        self.bands = [{base: [] for base in BASES} for _ in self.BANDS]
        costed = []
        for base in BASES:
            top = tuple(-3 * k for k in orc.PRESETS[base]["K"])
            for C in orc.sub_classes(top):
                if not any(C):
                    continue
                kc = abs(orc.kdot(base, C))
                kcps = [abs(orc.kdot(base, Cp)) for Cp in orc.sub_classes(C)]
                for chi in range(1, 5):
                    ls = sum(kcp * chi // kc + 1 for kcp in kcps)
                    lps = sum((kcp * chi - 1) // kc + 1 for kcp in kcps if kcp * chi >= 1)
                    for n in range(5):
                        size, sprime = ls * (n + 1), lps * (n + 1)
                        ms = (sprime + 3) * (0.0238 * len(kcps) + 0.00132 * size + 0.094)
                        context = (base, C, chi, n)
                        costed.append((ms, context))
                        for band, (lo, hi, _) in zip(self.bands, self.BANDS):
                            if lo <= ms <= hi:
                                band[base].append(context)
        costed.sort()
        self.anchors = [costed[-1][1],
                        min(costed, key=lambda c: abs(c[0] - self.ANCHOR_MS))[1]]

    def cycle(self, rng) -> list[Op]:
        ops = [self._context(anchor) for anchor in self.anchors]
        for band, (*_, count) in zip(self.bands, self.BANDS):
            shift = rng.randrange(3)  # spread each band's picks evenly over the bases
            ops += [self._context(rng.choice(band[BASES[(i + shift) % 3]]))
                    for i in range(count)]
        ops += [self._t2(rng, r) for r in self.T2_RANKS]
        ops += [self._inverse(rng), self._inverse(rng), self._sieve(rng), self._collapse(rng)]
        rng.shuffle(ops)
        return ops

    def _context(self, context):
        base, C, chi, n = context
        st, B = self.st, self.bases[base]
        cls = self.BaseClass(C)
        k2 = 2 * chi + orc.kdot(base, C)

        def run():
            S = st.enumerate_S(B, cls, k2, n)
            Sp = st.enumerate_Sprime(B, cls, k2, n)
            s1 = st.compute_s1(B, cls, k2, n)
            return len(S), Sp, s1, [st.f_s_value(B, s1 + 1, e, cls, k2, n) for e in Sp]

        def check(result):
            size, Sp, s1, values = result
            want_size, want_sp = orc.destabilizers(base, C, chi, n)
            want_s1 = orc.s1_brute(want_sp)
            got = {(tuple(e.Cprime.coords), e.l, e.m): v for e, v in zip(Sp, values)}
            want = {(Cp, l, m): orc.f_s(want_s1 + 1, d1, d2) for Cp, l, m, d1, d2 in want_sp}
            return (_mismatch("|S|", size, want_size) or _mismatch("s1", s1, want_s1)
                    or _mismatch("f_s on S' at s1 + 1", got, want)
                    or next((f"f_s({k}) = {v} >= 0" for k, v in got.items() if v >= 0), None))

        return Op("context", f"{base} C={C} chi={chi} n={n}", run, check)

    def _t2(self, rng, r):
        st = self.st
        n, s = rng.randint(0, 3), _rational(rng, 1, 12, 6)
        want = orc.t2(r, n, s)
        return Op("t2", f"compute_t2({r}, {n}, {s})", lambda: st.compute_t2(r, n, s),
                  lambda got: _mismatch("t2", got, want))

    def _rational_series(self, rng, offset, order):
        lead = Fraction(rng.choice((2, 3, 5, 7)) * rng.choice((1, -1)), rng.choice((1, 4, 9)))
        coeffs = [lead] + [_rational(rng, -9, 9, 9) for _ in range(order)]
        return self.qs.QSeries(offset, coeffs)

    def _inverse(self, rng):
        offset = Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 4, 6, 8, 12, 24)))
        f = self._rational_series(rng, offset, 30)

        def run():
            g = f.inverse()
            return g, f * g

        def check(result):
            g, product = result
            one = [Fraction(1)] + [Fraction(0)] * f.order
            return (_mismatch("offset of f^-1", g.offset, -f.offset)
                    or _mismatch("f * f^-1", (product.offset, list(product.coeffs)), (0, one))
                    or _mismatch("convolution", orc.convolve(f.coeffs, g.coeffs, f.order), one))

        return Op("qseries", f"inverse, offset {offset}", run, check)

    def _sieve(self, rng):
        qs = self.qs
        f = self._rational_series(rng, rng.randint(-5, 5), 60)
        r = rng.randint(2, 6)
        base = int(f.offset)

        def run():
            parts = [qs.sieve(f, r, k) for k in range(r)]
            return parts, functools.reduce(operator.add, parts)

        def check(result):
            parts, total = result
            for k, part in enumerate(parts):
                want = [c if (base + i) % r == k else 0 for i, c in enumerate(f.coeffs)]
                if list(part.coeffs) != want:
                    return f"sieve residue {k} mod {r} keeps the wrong coefficients"
            return _mismatch("sum of sieves", (total.offset, total.coeffs), (f.offset, f.coeffs))

        return Op("qseries", f"sieve partition mod {r}", run, check)

    def _collapse(self, rng):
        qs = self.qs
        f = self._rational_series(rng, rng.randint(-5, 5), 60)
        r = rng.randint(2, 6)
        base = int(f.offset)
        lo, hi = -(-base // r), (base + f.order) // r

        def check(h):
            want = [f.coeffs[e * r - base] for e in range(lo, hi + 1)]
            return _mismatch("collapse", (h.offset, list(h.coeffs)), (lo, want))

        return Op("qseries", f"collapse mod {r}", lambda: qs.collapse(qs.sieve(f, r, 0), r),
                  check)


WORKLOADS = {"queries": Queries, "series": Series, "sweeps": Sweeps}
