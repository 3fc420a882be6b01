import json

import pytest

from ellfm import selftest
from ellfm.cli import main
from ellfm.errors import InvariantViolation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code == 0, err
    return json.loads(out)


def test_lattice_f1(capsys):
    report = run_json(capsys, "--base", "F1", "lattice")
    assert report["unimodular"] is True
    assert abs(report["det"]) == 1
    assert len(report["matrix"]) == 3
    assert report["k_squared"] == 8
    assert len(report["pencil_relations"]) == 6


def test_lattice_p2(capsys):
    report = run_json(capsys, "--base", "P2", "lattice")
    assert report["matrix"] == [[1, -3], [0, 1]]
    assert "pencil_relations" not in report


def test_invalid_base_exits_2(capsys):
    code, out, err = run(capsys, "--base", "E6", "lattice")
    assert code == 2
    assert "unknown base" in err


def test_fm_to_x_example(capsys):
    report = run_json(capsys, "fm", "--to-X",
                      "--gammahat", '{"C":[0,1],"m":2,"chi":1}')
    assert report["sheaf_level"] == {"C": [0, 1], "alpha": [0, 0], "k2": 0, "n": 2}
    assert report["roundtrip"] is True


def test_fm_to_dual(capsys):
    report = run_json(capsys, "fm", "--direction", "to-Xhat",
                      "--gamma", '{"C":[0,1],"alpha":[0,0],"k2":0,"n":2}')
    assert report["sheaf_level"] == {"C": [0, 1], "m": 2, "chi": 1}
    assert report["image_effective"] is True


def test_fm_needs_direction(capsys):
    code, _, err = run(capsys, "fm", "--gammahat", '{"C":[0,1],"m":2,"chi":1}')
    assert code == 2


def test_fm_conflicting_directions_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fm", "--to-X", "--direction", "to-Xhat",
              "--gammahat", '{"C":[0,1],"m":2,"chi":1}'])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_slope_command(capsys):
    report = run_json(capsys, "slope",
                      "--gamma", '{"C":[0,1],"alpha":[0,0],"k2":2,"n":0}',
                      "--t", "1", "--s", "2")
    assert report["mu"] == "1/3"
    assert report["chi_note"].startswith("derived")


def test_thresholds_s1(capsys):
    report = run_json(capsys, "thresholds",
                      "--gammahat", '{"C":[0,1],"m":1,"chi":1}')
    assert report["s1"] == "1"
    assert "not constructive" in report["note"]


def test_thresholds_t2_and_walls(capsys):
    report = run_json(capsys, "thresholds",
                      "--k3", '{"r":2,"m":0,"l":0,"n":1}', "--s", "3",
                      "--wall-candidates",
                      '[{"r":1,"m":1,"l":0,"n":0}, {"r":1,"m":0,"l":0,"n":0}]')
    assert report["t2"] == "2/3"
    roots = [w["root"] for w in report["walls"]]
    assert roots[0] is not None
    assert report["walls"][1]["identically_zero"] is True


def test_thresholds_chi_zero_errors(capsys):
    code, _, err = run(capsys, "thresholds",
                       "--gammahat", '{"C":[0,1],"m":1,"chi":0}')
    assert code == 2
    assert "chi > 0" in err


def test_zseries_banner_and_count(capsys):
    report = run_json(capsys, "zseries", "--r", "1", "--k", "1", "--order", "10")
    assert report["convention"] == "cusp"
    assert len(report["coeffs"]) == 12  # window [-1, 10]
    assert report["offset"] == "-1"
    values = {report["offset"]: None}
    assert report["coeffs"][0] == {"exp": 0, "value": "-2"}
    assert report["coeffs"][1] == {"exp": 1, "value": "480"}
    assert any("Delta convention" in note for note in report["notes"])


def test_zseries_paper_convention(capsys):
    report = run_json(capsys, "zseries", "--r", "1", "--k", "1", "--order", "5",
                      "--delta-convention", "paper")
    assert report["convention"] == "paper"
    assert report["offset"] == "1"


def test_invert_round_trip(tmp_path, capsys):
    table = {
        "kind": "Omega",
        "entries": [
            {"r": 1, "n": 0, "k": 1, "value": "3"},
            {"r": 2, "n": 0, "k": 2, "value": "-7/2"},
        ],
    }
    src = tmp_path / "omega.json"
    src.write_text(json.dumps(table))
    mid = tmp_path / "dt.json"
    code, out, _ = run(capsys, "invert", "--table", str(src),
                       "--direction", "omega-to-dt", "--out", str(mid))
    assert code == 0
    back = tmp_path / "omega2.json"
    code, out, _ = run(capsys, "invert", "--table", str(mid),
                       "--direction", "dt-to-omega", "--out", str(back))
    assert code == 0
    original = {(e["r"], e["n"], e["k"]): e["value"] for e in table["entries"]}
    restored = {(e["r"], e["n"], e["k"]): e["value"]
                for e in json.loads(back.read_text())["entries"]}
    assert restored == original


def test_invert_missing_file(capsys):
    code, _, err = run(capsys, "invert", "--table", "/nonexistent.json",
                       "--direction", "omega-to-dt")
    assert code == 2


def test_csv_format(capsys):
    code, out, _ = run(capsys, "--format", "csv", "zseries",
                       "--r", "1", "--k", "1", "--order", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "exp,value"
    assert lines[1] == "-1,-2"


def test_pretty_format(capsys):
    code, out, _ = run(capsys, "--base", "F0", "lattice")
    assert code == 0
    assert "unimodular: True" in out


def test_determinism(capsys):
    a = run(capsys, "--format", "json", "zseries", "--r", "2", "--k", "1",
            "--order", "8")
    b = run(capsys, "--format", "json", "zseries", "--r", "2", "--k", "1",
            "--order", "8")
    assert a == b


def test_zseries_size_cap_exits_2(capsys):
    code, out, err = run(capsys, "zseries", "--r", "1", "--k", "1", "--order", "1998")
    assert code == 2 and out == ""
    assert "u-order r * (order + 1) + 2 = 2001 exceeds the cap 2000" in err
    code, _, err = run(capsys, "--format", "csv", "zseries", "--r", "999", "--k", "1",
                       "--order", "1")
    assert code == 0, err


GOOD_GAMMA = '{"C":[0,1],"alpha":[0,0],"k2":2,"n":0}'
K3 = '{"r":2,"m":0,"l":0,"n":1}'


@pytest.mark.parametrize("argv, field", [
    # a JSON value of the wrong type where an object is expected
    (["slope", "--gamma", "[1,2]", "--t", "1", "--s", "2"], "must be a JSON object"),
    (["thresholds", "--k3", "7", "--s", "2"], "must be a JSON object"),
    (["fm", "--to-X", "--gammahat", '"C"'], "must be a JSON object"),
    # ... where a vector or a list is expected
    (["slope", "--gamma", '{"C": 3, "k2": 1, "n": 0}', "--t", "1", "--s", "2"], "C must be"),
    (["thresholds", "--k3", K3, "--s", "2", "--wall-candidates", "5"], "--wall-candidates"),
    # floats and booleans in integer fields
    (["slope", "--gamma", '{"C":[0,1],"k2":2.7,"n":0}', "--t", "1", "--s", "2"], "'k2'"),
    (["slope", "--gamma", '{"C":[0,1],"k2":true,"n":0}', "--t", "1", "--s", "2"], "'k2'"),
    (["thresholds", "--gammahat", '{"C":[0,1],"m":0.5,"chi":1}'], "'m'"),
    (["fm", "--to-X", "--gammahat", '{"C":[0,1],"m":1,"chi":1.5}'], "'chi'"),
    (["thresholds", "--k3", '{"r":2.5,"m":0,"l":0,"n":1}', "--s", "3"], "'r'"),
    (["thresholds", "--k3", '{"r":2,"m":0,"l":0.5,"n":1}', "--s", "3"], "'l'"),
    (["slope", "--gamma", GOOD_GAMMA.replace('"n":0', '"n":1.0'), "--t", "1", "--s", "2"],
     "'n'"),
])
def test_malformed_input_exits_2(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, text, field", [
    ("table", "[1, 2]", "table must be a JSON object"),
    ("table", '{"kind": "Omega", "entries": [7]}', "table entry must be"),
    ("table", '{"kind": "Omega", "entries": [{"r": 1.5, "n": 0, "k": 1, "value": "3"}]}',
     "'r'"),
    ("base", "[1]", "base must be a JSON object"),
    ("base", '{"gram": [[1.5]], "canonical": [-3], "effective": [[1]]}', "gram"),
    ("base", '{"gram": 3, "canonical": [-3], "effective": [[1]]}', "gram"),
    ("base", "", "Expecting value"),
])
def test_malformed_files_exit_2(tmp_path, capsys, name, text, field):
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    if name == "table":
        argv = ["invert", "--table", str(path), "--direction", "omega-to-dt"]
    else:
        argv = ["--base", str(path), "lattice"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_unreadable_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "--base", str(tmp_path), "lattice")  # a directory
    assert code == 2
    assert "Traceback" not in err


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("[PASS]") == 11
    assert "[FAIL]" not in out


def test_selftest_failure_exits_1(capsys, monkeypatch):
    def broken():
        raise InvariantViolation("deliberate failure")

    monkeypatch.setattr(selftest, "CRITERIA", (
        selftest.Criterion(1, "fine", "always passes", 1.0, lambda: "nothing to do"),
        selftest.Criterion(2, "broken", "always fails", 1.0, broken),
    ))
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    passed, failed = out.splitlines()
    assert passed.startswith("[PASS] criterion 1: always passes (nothing to do; ")
    assert failed == "[FAIL] criterion 2: always fails (InvariantViolation: deliberate failure)"


def test_lattice_pencil_from_lattice_data(tmp_path, capsys, quadric_json, f1_he_json):
    path = tmp_path / "quadric.json"
    path.write_text(json.dumps(quadric_json))
    report = run_json(capsys, "--base", str(path), "lattice")
    assert report["pencil_relations"] == \
        run_json(capsys, "--base", "F0", "lattice")["pencil_relations"]
    # F1 in the (h, e) basis has no (C0, Xi) basis, whatever its name
    path = tmp_path / "f1_he.json"
    path.write_text(json.dumps(f1_he_json))
    report = run_json(capsys, "--base", str(path), "lattice")
    assert report["base"]["name"] == "F1"
    assert "pencil_relations" not in report


def test_env_var_default_base(capsys, monkeypatch):
    monkeypatch.setenv("ELLFM_BASE", "P2")
    report = run_json(capsys, "lattice")
    assert report["base"]["name"] == "P2"


def test_flags_after_subcommand(capsys):
    code, out, _ = run(capsys, "lattice", "--base", "F1", "--format", "json")
    assert code == 0
    assert json.loads(out)["unimodular"] is True
