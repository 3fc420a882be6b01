"""Benchmark for the ellfm toolkit.

    python3 bench/run.py --workload {queries,series,sweeps} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  One
client runs the workload's operations in a closed loop, one at a time, in
this process.  Whole cycles of operations (see ``workloads.py``) run until
at least ``--seconds`` of operation time and at least 100 operations have
been measured.  Every output is checked against an independent route after
its timed interval ends.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
number of cycles twice, once plain and once with the layer wrappers of
``tracer.py`` installed (alternating which goes first), and reports the
per-layer metrics and the tracing overhead; the spans are written to
``bench/out/``.  Human-readable lines come first; the last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 100
WARMUP_S = 1.0
SETUP_SPAWNS = 9

# One cycle's duration at the commit that defined the benchmark (2 cores,
# CPython 3.11); the traced run covers about --seconds of work with them.
NOMINAL_CYCLE_S = {"queries": 0.2, "series": 0.85, "sweeps": 5.0}

# A fresh interpreter imports the CLI and builds the three presets.  It runs
# with -I -S, so the figure is the interpreter plus ellfm, not the site hooks
# of whatever Python installation runs the benchmark.
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import ellfm.cli; "
               "from ellfm.base_geometry import make_base; "
               "[make_base(p) for p in ('P2', 'F0', 'F1')]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ellfm" / "__init__.py").is_file():
        print(f"error: no ellfm package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import ellfm
    from ellfm import base_geometry, cli, dt_invariants, modular, qseries, stability
    import tracer
    from workloads import KNOWN_DEFECTS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    lib = argparse.Namespace(cli=cli, modular=modular, dt=dt_invariants, st=stability,
                             bg=base_geometry, qs=qseries)
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir) as tmp:
        workload = WORKLOADS[args.workload](lib, Path(tmp), args.seed)
        runner = Runner(workload, args.workload, args.seed)
        runner.run_ops(runner.cycle(-1), budget=WARMUP_S, record=False)
        if args.trace:
            metrics = runner.traced(ellfm, tracer, args.seconds, outdir)
        else:
            metrics = runner.measured(args.seconds)
    return runner.report(metrics, args, KNOWN_DEFECTS)


class Runner:
    def __init__(self, workload, name, seed):
        self.workload, self.name, self.seed = workload, name, seed
        self.records = []     # (kind, seconds, failure or None)
        self.rates = []       # correct ops per second of op time, per cycle
        self.cycles = 0
        self.notes = {}

    def cycle(self, index):
        return self.workload.cycle(random.Random(f"{self.seed}/{self.name}/{index}"))

    def run_ops(self, ops, budget=None, record=True) -> float:
        """Run ops one after another; each check runs after its op's timed
        interval.  Returns the summed operation time."""
        clock = time.perf_counter
        total = 0.0
        for op in ops:
            start = clock()
            try:
                result, failure = op.run(), None
            except Exception as exc:  # the failure is reported, the run goes on
                result, failure = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = clock() - start
            if failure is None:
                failure = op.check(result)
            total += elapsed
            if record:
                self.records.append((op.kind, elapsed, failure and f"{op.label}: {failure}"))
            if budget is not None and total >= budget:
                break
        return total

    def measured(self, seconds) -> dict:
        setup = [spawn_setup() for _ in range(SETUP_SPAWNS + 1)][1:]
        timed = 0.0
        while timed < seconds or len(self.records) < MIN_OPS:
            done = len(self.records)
            elapsed = self.run_ops(self.cycle(self.cycles))
            ok = sum(failure is None for *_, failure in self.records[done:])
            self.rates.append(ok / elapsed)
            timed += elapsed
            self.cycles += 1
        latencies = sorted(seconds for _, seconds, _ in self.records)
        ok = sum(failure is None for *_, failure in self.records)
        p90 = statistics.quantiles(latencies, n=10)[8]
        self.notes = {
            "setup_s": f"median of {SETUP_SPAWNS} interpreter spawns",
            "ops_per_s": f"median over {self.cycles} cycles; {ok} correct ops in "
                         f"{timed:.3f} s of op time",
            "op_p50_ms": f"n={len(latencies)}",
            "op_p90_ms": f"n={len(latencies)}, {sum(x > p90 for x in latencies)} beyond",
            "success_rate": f"{ok} of {len(latencies)} ops correct",
        }
        return {
            "ops_per_s": (statistics.median(self.rates), "ops/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_p90_ms": (p90 * 1e3, "ms"),
            "success_rate": (ok / len(latencies), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }

    def traced(self, package, tracer, seconds, outdir) -> dict:
        pairs = max(1, round(seconds / (2 * NOMINAL_CYCLE_S[self.name])))
        trace = tracer.Tracer()
        plain = wrapped = 0.0
        for index in range(pairs):
            ops = self.cycle(index)
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    trace.install(package)
                    try:
                        wrapped += self.run_ops(ops)
                    finally:
                        trace.uninstall()
                else:
                    plain += self.run_ops(ops)
        self.cycles = 2 * pairs
        trace.dump(outdir / f"spans-{self.name}-seed{self.seed}.jsonl")
        metrics = {name: (value, None) for name, value in tracer.layer_metrics(trace.spans).items()}
        metrics["trace.overhead_ratio"] = (wrapped / plain - 1, "ratio")
        self.notes = {"trace.overhead_ratio": f"traced {wrapped:.3f} s vs plain {plain:.3f} s "
                                              f"over the same {pairs} cycles"}
        return metrics

    def report(self, metrics, args, known_defects) -> int:
        failures = {}
        for kind, _, failure in self.records:
            if failure:
                failures.setdefault(kind, []).append(failure)
        unexpected = sum(len(v) for k, v in failures.items() if k not in known_defects)
        attempted = len(self.records)
        print("provenance " + json.dumps(provenance(args, attempted, self.cycles)))
        for name, (value, unit) in metrics.items():
            note = self.notes.get(name)
            print(f"{name} = {value:.6g}{' ' + unit if unit else ''}"
                  + (f"  ({note})" if note else ""))
        failed = sum(len(v) for v in failures.values())
        print(f"error_rate = {failed / attempted:.6g}  ({failed} failed of {attempted} attempted;"
              f" {failed - unexpected} in listed known defects)")
        for kind, messages in sorted(failures.items()):
            tag = "known defect: " + known_defects[kind] if kind in known_defects else "UNEXPECTED"
            print(f"failures {kind}: {len(messages)} [{tag}]; e.g. {messages[0][:300]}")
        units = unit_table()
        result = {
            "correct": unexpected == 0,
            "attempted": attempted,
            "failed": unexpected,
            "metrics": {name: {"value": value, "unit": unit or units[name]}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0


def spawn_setup() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", SETUP_PROBE, str(SRC)], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


def unit_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def provenance(args, ops, cycles) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ellfm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": cycles,
        "ops": ops,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


if __name__ == "__main__":
    sys.exit(main())
