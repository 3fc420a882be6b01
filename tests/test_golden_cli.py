"""Byte-exact CLI outputs, recorded once in ``golden_cli.json``.

Every subcommand except ``selftest`` runs in all three output formats, on
every preset base where it takes one.  The recorded stdout is the contract
that refactors must keep.  ``python tests/test_golden_cli.py`` prints the
file's contents as the current code produces them; regenerate only when an
output change is intended.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from ellfm.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
FORMATS = ("json", "csv", "pretty")
ENTRIES = [
    {"r": 1, "n": 0, "k": 1, "value": "3"},
    {"r": 2, "n": 0, "k": 2, "value": "-7/2"},
    {"r": 1, "n": 1, "k": 1, "value": "-2"},
    {"r": 3, "n": 3, "k": 3, "value": "5/6"},
    {"r": 1, "n": 2, "k": 1, "value": "1/4"},
    {"r": 2, "n": 4, "k": 2, "value": "1"},
]
# per base: vertical gamma, non-vertical gamma, gammahat
INPUTS = {
    "P2": ({"C": [1], "alpha": [0], "k2": 1, "n": 0},
           {"C": [2], "alpha": [1], "k2": 3, "n": 1},
           {"C": [2], "m": 1, "chi": 2}),
    "F0": ({"C": [1, 1], "alpha": [0, 0], "k2": 2, "n": 3},
           {"C": [1, 2], "alpha": [1, -1], "k2": 3, "n": 1},
           {"C": [1, 1], "m": 2, "chi": 1}),
    "F1": ({"C": [0, 1], "alpha": [0, 0], "k2": 0, "n": 2},
           {"C": [1, 2], "alpha": [-1, 2], "k2": -5, "n": 2},
           {"C": [1, 2], "m": 2, "chi": 3}),
}
K3 = {"r": 2, "m": 1, "l": 0, "n": 3}
WALLS = [{"r": 1, "m": 1, "l": 0, "n": 0}, {"r": 1, "m": 0, "l": 0, "n": 0},
         {"r": 1, "m": 0, "l": 1, "n": 0}]


def cases() -> dict[str, list[str]]:
    """Case name -> argv; ``{Omega}`` and ``{DT}`` stand for table files."""
    out = {}
    for fmt in FORMATS:
        for base, (vertical, general, gammahat) in INPUTS.items():
            pre = ["--base", base, "--format", fmt]
            out[f"lattice/{base}/{fmt}"] = [*pre, "lattice"]
            out[f"slope/{base}/{fmt}"] = [*pre, "slope", "--gamma", json.dumps(general),
                                          "--t", "1/2", "--s", "5/3"]
            out[f"slope-chi/{base}/{fmt}"] = [*pre, "slope", "--gamma", json.dumps(vertical),
                                              "--t", "1", "--s", "2", "--chi", "7/3"]
            out[f"thresholds-gammahat/{base}/{fmt}"] = [
                *pre, "thresholds", "--gammahat", json.dumps(gammahat)]
            out[f"thresholds-k3/{base}/{fmt}"] = [
                *pre, "thresholds", "--k3", json.dumps(K3), "--s", "5/2",
                "--wall-candidates", json.dumps(WALLS)]
            for spelling in (["--to-X"], ["--direction", "to-X"]):
                out[f"fm{spelling[-1]}/{base}/{fmt}"] = [
                    *pre, "fm", *spelling, "--gammahat", json.dumps(gammahat)]
            for spelling in (["--to-Xhat"], ["--direction", "to-Xhat"]):
                out[f"fm{spelling[-1]}/{base}/{fmt}"] = [
                    *pre, "fm", *spelling, "--gamma", json.dumps(vertical)]
        for convention in ("cusp", "paper"):
            for r, order in ((1, 10), (2, 8), (3, 6)):
                out[f"zseries-r{r}/{convention}/{fmt}"] = [
                    "--format", fmt, "zseries", "--r", str(r), "--k", "1",
                    "--order", str(order), "--delta-convention", convention]
        for kind, direction in (("Omega", "omega-to-dt"), ("DT", "dt-to-omega")):
            out[f"invert/{direction}/{fmt}"] = [
                "--format", fmt, "invert", "--table", f"{{{kind}}}", "--direction", direction]
    return out


def write_tables(directory: Path) -> dict[str, str]:
    """Placeholder -> path of the ENTRIES table written as each kind."""
    paths = {}
    for kind in ("Omega", "DT"):
        path = directory / f"{kind}.json"
        path.write_text(json.dumps({"kind": kind, "entries": ENTRIES}))
        paths[f"{{{kind}}}"] = str(path)
    return paths


def run_case(argv: list[str], tables: dict[str, str]) -> tuple[int, str]:
    argv = [tables.get(a, a) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


CASES = cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    return write_tables(tmp_path_factory.mktemp("golden"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, golden, tables):
    code, out = run_case(CASES[name], tables)
    assert code == 0
    assert out == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tables = write_tables(Path(tmp))
        recorded = {}
        for name, argv in CASES.items():
            code, out = run_case(argv, tables)
            if code != 0:
                sys.exit(f"{name}: exit {code}")
            recorded[name] = out
    print(json.dumps(recorded, indent=1, sort_keys=True))
