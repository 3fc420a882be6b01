"""The public surface stays what some path needs.

The package namespace is empty, so ``import ellfm`` loads no submodule;
``import ellfm.cli`` loads every library layer, but not the acceptance
criteria (``ellfm.selftest``), ``pathlib`` or ``random``; and every
module-level public function is named somewhere besides its own definition:
in another part of ``src/ellfm``, in the README or in the benchmark
(``bench/*.py``).  Acceptance criteria are reached through the
``@criterion`` registry and are exempt.  The lattice layers import no
``fractions``.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_import_ellfm_loads_no_submodule():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import ellfm; "
             "print(sorted(m for m in sys.modules if m.startswith('ellfm.')))")
    out = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_import_ellfm_cli_is_lean():
    layers = ("cli", "jsonio", "base_geometry", "weierstrass", "fourier_mukai",
              "stability", "qseries", "modular", "dt_invariants")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import ellfm.cli; "
             "print(' '.join(sys.modules))")
    loaded = set(subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC)],
                                capture_output=True, text=True, check=True).stdout.split())
    assert {f"ellfm.{layer}" for layer in layers} <= loaded
    assert loaded.isdisjoint({"ellfm.selftest", "pathlib", "random"})


def test_lattice_layers_do_not_import_fractions():
    """Lattice classes and the ring are integral: base_geometry and
    weierstrass have no rational path, so they never import fractions."""
    for layer in ("base_geometry", "weierstrass"):
        tree = ast.parse((SRC / "ellfm" / f"{layer}.py").read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "fractions" not in imported, layer


def _registered_criterion(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "criterion"
               for d in node.decorator_list)


def test_every_public_function_is_named_outside_its_def():
    modules = {path: path.read_text() for path in sorted((SRC / "ellfm").glob("*.py"))}
    outside = [(ROOT / "README.md").read_text()]
    outside += [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    unreached = []
    for path, text in modules.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if (not isinstance(node, ast.FunctionDef) or node.name.startswith("_")
                    or _registered_criterion(node)):
                continue
            # the module without the function's own lines, then everything else
            rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            texts = [rest, *(t for p, t in modules.items() if p != path), *outside]
            name = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(name.search(t) for t in texts):
                unreached.append(f"{path.name}:{node.name}")
    assert unreached == []
