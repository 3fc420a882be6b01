"""Layer spans recorded from outside the library.

``Tracer.install`` replaces the public functions of each ellfm module (and
the arithmetic methods of ``QSeries``) with wrappers that record a span:
name, start, end, parent span and whether it raised.  Every module-level
name that binds a wrapped function is patched, in all loaded ellfm modules, so
calls through ``from .x import f`` bindings and through dispatch tables are
seen too.  ``uninstall`` restores the originals.

Hot leaf helpers are deliberately left unwrapped: their own cost is a few
microseconds, so a wrapper would dominate what it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYERS = ("cli", "jsonio", "base_geometry", "weierstrass", "fourier_mukai",
          "stability", "qseries", "modular", "dt_invariants")

# called per coordinate, per pairing or per coefficient
HOT_LEAVES = {"base_geometry": {"pair_base", "zero_class", "preset_names"}}

QSERIES_METHODS = {"__mul__": "mul", "__add__": "add", "inverse": "inverse",
                   "pow": "pow", "scale": "scale", "shift": "shift",
                   "truncate": "truncate"}


def _len(args, result):
    return len(result)


def _term_products(args, result):
    # pairs (i, j) with i + j <= n that the schoolbook product visits when
    # no coefficient is zero; computed from the operand orders
    n = min(args[0].order, args[1].order)
    return (n + 1) * (n + 2) // 2


# per-span work counts, computed from arguments and result
MEASURES = {
    "qseries.mul": _term_products,
    "qseries.inverse": lambda args, result: len(result.coeffs),
    "modular.z_series": lambda args, result: len(result.series.coeffs),
    "dt_invariants.dt_table_from_omega": lambda args, result: len(result.entries),
    "dt_invariants.omega_table_from_dt": lambda args, result: len(result.entries),
    "stability.enumerate_S": _len,
    "stability.enumerate_Gamma": _len,
    "base_geometry.enumerate_subeffective": _len,
}


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, child_ns, ok, count)
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        measure = MEASURES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            ok, count = False, 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                if measure is not None:
                    count = measure(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name, start, end, parent, frame[1], ok, count)

        return wrapper

    def install(self, package) -> None:
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        originals = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__
                        and attr not in HOT_LEAVES.get(layer, ())):
                    originals[obj] = self._wrap(f"{layer}.{attr}", obj)
        qseries_cls = modules["qseries"].QSeries
        for attr, short in QSERIES_METHODS.items():
            fn = vars(qseries_cls)[attr]
            self._set(qseries_cls, attr, self._wrap(f"qseries.{short}", fn), fn)
        # rebind every name (and dispatch-table entry) that holds an original
        prefix = package.__name__ + "."
        for module in [m for name, m in list(sys.modules.items())
                       if name == package.__name__ or name.startswith(prefix)]:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in originals:
                    self._set(module, attr, originals[obj], obj)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and value in originals:
                            obj[key] = originals[value]
                            self._patches.append((obj, key, value, True))

    def _set(self, target, attr, new, old) -> None:
        setattr(target, attr, new)
        self._patches.append((target, attr, old, False))

    def uninstall(self) -> None:
        for target, key, old, is_item in reversed(self._patches):
            if is_item:
                target[key] = old
            else:
                setattr(target, key, old)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start/end in ns, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent, _, ok, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, ok]) + "\n")


def layer_metrics(spans) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics named in BENCHMARK.json.

    ``<layer>.calls`` and ``<layer>.errors`` count calls entering a layer
    from outside it (and those that raised back out); ``self_s`` is span
    time minus the time covered by child spans.
    """
    stats: dict[str, float] = {}

    def add(key, value):
        stats[key] = stats.get(key, 0) + value

    f_s_calls = 0
    s_elements_in_f_s = 0
    for name, start, end, parent, child_ns, ok, count in spans:
        layer = name.split(".", 1)[0]
        parent_name = spans[parent][0] if parent >= 0 else ""
        self_s = (end - start - child_ns) / 1e9
        add(f"{layer}.self_s", self_s)
        add(f"{name}.self_s", self_s)
        add(f"{name}.calls", 1)
        add(f"{name}.count", count)
        if parent_name.split(".", 1)[0] != layer:
            add(f"{layer}.calls", 1)
            add(f"{layer}.errors", 0 if ok else 1)
        if name == "stability.f_s_value":
            f_s_calls += 1
        if name == "stability.enumerate_S" and parent_name == "stability.f_s_value":
            s_elements_in_f_s += count
    get = stats.get
    out = {}
    for layer in LAYERS:
        for stat in ("calls", "self_s", "errors"):
            out[f"{layer}.{stat}"] = get(f"{layer}.{stat}", 0)
    for name in ("cli.build_parser", "base_geometry.make_base", "modular.z_series",
                 "modular.eisenstein", "modular.inv_eta24", "modular.eta24",
                 "qseries.mul", "qseries.inverse", "stability.f_s_value",
                 "stability.compute_s1", "stability.enumerate_Gamma",
                 "stability.compute_t2"):
        out[f"{name}.self_s"] = get(f"{name}.self_s", 0)
    for name in ("base_geometry.make_base", "stability.slope_dim2", "qseries.mul",
                 "qseries.inverse", "qseries.sieve", "stability.enumerate_S",
                 "stability.f_s_value"):
        out[f"{name}.calls"] = get(f"{name}.calls", 0)
    out["qseries.mul.term_products"] = get("qseries.mul.count", 0)
    out["qseries.inverse.coeffs"] = get("qseries.inverse.count", 0)
    out["modular.z_series.coeffs_out"] = get("modular.z_series.count", 0)
    out["dt_invariants.entries_converted"] = (
        get("dt_invariants.dt_table_from_omega.count", 0)
        + get("dt_invariants.omega_table_from_dt.count", 0))
    out["stability.enumerate_S.elements"] = get("stability.enumerate_S.count", 0)
    out["stability.S_elements_per_f_s"] = (s_elements_in_f_s / f_s_calls
                                           if f_s_calls else 0)
    out["stability.enumerate_Gamma.elements"] = get("stability.enumerate_Gamma.count", 0)
    out["base_geometry.enumerate_subeffective.classes"] = get(
        "base_geometry.enumerate_subeffective.count", 0)
    return out
