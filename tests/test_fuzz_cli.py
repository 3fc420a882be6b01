"""Seeded fuzz of every subcommand.

Inputs mix valid data with malformed JSON, wrong ranks, extreme rationals,
huge sizes (r, C, --order, multicover gcds), repeated table entries and
rational tables under gcds with many divisors.  Every call must exit 0 or
2 with no traceback, and two runs of the same input must print the same.
"""

import contextlib
import io
import json
import random

from ellfm import cli

SEED = 20240605
CASES = 200

INTS = [0, 1, -1, 2, 3, 7, -13, 10 ** 6, 10 ** 30, -10 ** 30]
NOT_INTS = [1.5, 2.0, True, None, "3", [1]]
RATIONALS = ["3", "7/2", "-7/3", "0", "1/0", "1e40", "1e999999999", "nan", "inf", "",
             "1/3/4", " 5 ", "99999999999999999999/7", "1" * 5000, "2.5"]
BASES = {
    "quadric": {"name": "quadric", "gram": [[0, 1], [1, 0]], "canonical": [-2, -2],
                "effective": [[1, 0], [0, 1]]},
    "rank3": {"gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]], "canonical": [-3, 1, 1],
              "effective": [[0, 1, 0], [0, 0, 1], [1, -1, -1]]},
    "rank12": {"gram": [[int(i == j) for j in range(12)] for i in range(12)],
               "canonical": [-1] * 12,
               "effective": [[int(i == j) for j in range(12)] for i in range(12)]},
    "ragged": {"gram": [[1, 0], [0]], "canonical": [-3], "effective": [[1]]},
    "not_unimodular": {"gram": [[2]], "canonical": [-3], "effective": [[1]]},
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses bad flags with exit 2
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _extreme(rng):
    """A value for an integer field: huge, negative, not an integer, or a
    vector of the wrong rank."""
    roll = rng.random()
    if roll < 0.6:
        return rng.choice(INTS)
    if roll < 0.85:
        return rng.choice(NOT_INTS)
    return [rng.choice(INTS) for _ in range(rng.choice([0, 1, 3]))]


def _mutate(rng, obj):
    """obj unchanged about half the time; otherwise one field dropped or set
    to an extreme value."""
    roll = rng.random()
    key = rng.choice(sorted(obj))
    if roll < 0.1:
        obj.pop(key)
    elif roll < 0.5:
        obj[key] = _extreme(rng)
    return obj


def _json(rng, obj):
    """obj as JSON text, sometimes truncated, cut or replaced by junk."""
    text = json.dumps(obj)
    roll = rng.random()
    if roll < 0.1:
        return text[:rng.randrange(len(text))]
    if roll < 0.15:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice("{}[],:\"x") + text[i + 1:]
    if roll < 0.2:
        return rng.choice(["", "[]", "7", "null", '"C"', "{", "[{}]"])
    return text


def _rational(rng):
    return str(rng.randint(1, 9)) if rng.random() < 0.6 else rng.choice(RATIONALS)


def _effective(rng, rank):
    # even coordinates and an even k2 satisfy the parity rule on every preset
    return [2 * rng.randint(0, 2) for _ in range(rank)] or [2]


def _gamma(rng, rank):
    return _json(rng, _mutate(rng, {"C": _effective(rng, rank), "alpha": [0] * rank,
                                    "k2": 2 * rng.randint(-2, 3), "n": rng.randint(0, 3)}))


def _gammahat(rng, rank):
    return _json(rng, _mutate(rng, {"C": _effective(rng, rank), "m": rng.randint(0, 3),
                                    "chi": rng.randint(1, 3)}))


def _k3(rng):
    return _mutate(rng, {"r": rng.randint(1, 4), "m": rng.randint(-2, 2),
                         "l": rng.randint(-2, 2), "n": rng.randint(0, 3)})


def make_case(rng, tmp_path, index):
    """One argv for a random subcommand; file inputs are written under tmp_path."""
    command = rng.choice(["lattice", "slope", "thresholds", "thresholds", "fm", "zseries",
                          "invert", "selftest"])
    argv = ["--format", rng.choice(cli.FORMATS)]
    rank = 2
    if rng.random() < 0.15:
        name = rng.choice(sorted(BASES))
        path = tmp_path / f"base{index}.json"
        path.write_text(_json(rng, BASES[name]))
        argv += ["--base", str(path)]
    else:
        base = rng.choice(["P2", "F0", "F1", "P2", "F0", "F1", "f1", "E8"])
        rank = 1 if base == "P2" else 2
        argv += ["--base", base]
    argv.append(command)
    if command == "slope":
        argv += ["--gamma", _gamma(rng, rank), "--t", "1", "--s", _rational(rng)]
        if rng.random() < 0.3:
            argv += ["--chi", _rational(rng)]
    elif command == "thresholds":
        if rng.random() < 0.6:
            argv += ["--gammahat", _gammahat(rng, rank)]
        if rng.random() < 0.6:
            argv += ["--k3", _json(rng, _k3(rng)), "--s", _rational(rng)]
            if rng.random() < 0.4:
                argv += ["--wall-candidates", _json(rng, [_k3(rng) for _ in range(2)])]
    elif command == "fm":
        if rng.random() < 0.5:
            argv += ["--to-X", "--gammahat", _gammahat(rng, rank)]
        else:
            argv += ["--direction", "to-Xhat", "--gamma", _gamma(rng, rank)]
    elif command == "zseries":
        argv += ["--r", str(rng.choice([1, 2, 3, 0, -3, 1000, 10 ** 12])),
                 "--k", str(rng.choice([1, 2, -5, 10 ** 30])),
                 "--order", rng.choice(["1", "5", "20", "0", "-5", "1998", "2.5",
                                        str(10 ** 40)])]
        if rng.random() < 0.3:
            argv += ["--delta-convention", rng.choice(["cusp", "paper", "other"])]
    elif command == "invert":
        entries = []
        for _ in range(rng.randint(0, 4)):
            entry = _mutate(rng, {"r": 1, "n": rng.randint(0, 3), "k": rng.randint(1, 3),
                                  "value": _rational(rng)})
            if rng.random() < 0.15:  # a multicover gcd far beyond the cap
                entry["r"] = entry["k"] = rng.choice([10 ** 12, (10 ** 5 + 1) ** 2])
            entries.append(entry)
        if entries and rng.random() < 0.2:  # a repeated (r, n, k)
            entries.append(dict(rng.choice(entries)))
        if rng.random() < 0.2:  # a divisor-closed chain under a gcd with many divisors
            g = rng.choice([60, 720, 5040])
            entries += [{"r": m, "n": 0, "k": m,
                         "value": f"{rng.randint(-99, 99)}/{rng.choice([1, 7, 60, 720])}"}
                        for m in range(1, g + 1) if g % m == 0]
        kind, direction = rng.choice([("Omega", "omega-to-dt"), ("DT", "dt-to-omega")])
        if rng.random() < 0.3:
            kind = rng.choice(["Omega", "DT", "GV", "BPS", 5])
        if rng.random() < 0.1:
            direction = "sideways"
        path = tmp_path / f"table{index}.json"
        path.write_text(_json(rng, {"kind": kind, "entries": entries}))
        argv += ["--table", str(path), "--direction", direction]
    elif command == "selftest":
        # a valid selftest runs for seconds; only its argument errors are fuzzed
        argv += [rng.choice(["--seed", "--bogus", "extra"])]
    return argv


def test_fuzz_every_subcommand(tmp_path):
    rng = random.Random(SEED)
    outcomes = set()
    for index in range(CASES):
        argv = make_case(rng, tmp_path, index)
        first = run_cli(argv)
        code, _, err = first
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err, (argv, err)
        assert run_cli(argv) == first, argv
        outcomes.add((argv[4], code))
    commands = {"lattice", "slope", "thresholds", "fm", "zseries", "invert"}
    assert outcomes == {(c, code) for c in commands for code in (0, 2)} | {("selftest", 2)}
