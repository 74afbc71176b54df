"""heisencheck benchmark: one run of one workload.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Operations run back to back while one of median length still ends within
``--seconds`` (at least one operation; with ``--trace 1`` at least one
untraced and one traced, taken in turn).  Every output is checked against
its expected value.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` (operations whose output was wrong or that raised; the error
rate is failed / attempted) and ``metrics``: the end-to-end metrics of
BENCHMARK.json from the untraced operations with ``--trace 0``, its
per-layer metrics from the traced operations with ``--trace 1``.  The line
before it is a ``record`` with the samples, quartiles, the tracing overhead,
every recorded span and the environment (git SHA, source digest, Python,
numpy, nproc, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracer import EXACT
from workloads import ROOT, SRC, WORKLOADS, run_child

SETUP_SAMPLES = 9


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def setup_seconds() -> list[float]:
    """Cold process to heisencheck.cli imported, several times."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = run_child([sys.executable, "-c", "import heisencheck.cli"], 60)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"importing heisencheck.cli failed: {done.stderr[-2000:]}")
    return samples


def environment(seed: int) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    package = SRC / "heisencheck"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    ops = []
    deadline = time.perf_counter() + seconds
    # start another operation only if one of typical length still ends in time
    while (len(ops) < (2 if trace else 1) or time.perf_counter()
           + statistics.median(op["wall_s"] for op in ops) <= deadline):
        traced = trace and len(ops) % 2 == 1
        cpu0, t0 = cpu_seconds(who), time.perf_counter()
        error = None
        try:
            output, layers = workload.run(traced)
            ok = workload.check(output)
        except Exception as exc:  # a raising operation counts as failed
            ok, layers, error = False, None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        ops.append({"traced": traced, "wall_s": wall, "cpu_s": cpu_seconds(who) - cpu0,
                    "ok": ok, "error": error, "layers": layers})
    peak_kib = resource.getrusage(who).ru_maxrss
    failed = sum(not op["ok"] for op in ops)
    return {"ops": ops, "failed": failed, "peak_rss_mb": peak_kib / 1024}


def layer_metrics(ops: list[dict]) -> dict:
    """Counts from the first traced operation, times as medians over all."""
    traced = [op["layers"] for op in ops if op["traced"] and op["layers"] is not None]
    if not traced:
        return {}
    out = {}
    for name, first in traced[0].items():
        if isinstance(first, float):
            out[name] = statistics.median(m[name] for m in traced)
        else:
            out[name] = first
    untraced = statistics.median(op["wall_s"] for op in ops if not op["traced"])
    traced_wall = statistics.median(op["wall_s"] for op in ops if op["traced"])
    out["trace.untraced_wall_s"] = untraced
    out["trace.traced_wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heisencheck" / "__init__.py").is_file():
        print(f"benchmark: no heisencheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    trace = bool(args.trace)

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              **environment(args.seed)}
    setup = [] if trace else setup_seconds()
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm()
    result = measure(workload, args.seconds, trace)
    ops, failed = result["ops"], result["failed"]
    untraced = [op for op in ops if not op["traced"]]
    wall = quartiles([op["wall_s"] for op in untraced])

    record.update({
        "operations": len(ops),
        "error_rate": failed / len(ops),
        "errors": sorted({op["error"] for op in ops if op["error"]}),
        "wall_s": wall,
        "cpu_s": quartiles([op["cpu_s"] for op in untraced]),
        "samples": [{k: op[k] for k in ("traced", "wall_s", "cpu_s", "ok")} for op in ops],
        "peak_rss_mb": result["peak_rss_mb"],
    })
    if hasattr(workload, "points"):
        record["points_per_s"] = workload.points() / wall["median"]
    if hasattr(workload, "pairs"):
        record["pairs"] = workload.pairs

    if trace:
        layers = layer_metrics(ops)
        record["layers"] = layers
        record["exact"] = list(EXACT)
        wanted = spec["per_layer"]
        # with no traced operation that succeeded there is nothing to report
        values = {m["name"]: layers[m["name"]] if layers else 0 for m in wanted}
    else:
        setup_stats = quartiles(setup)
        record["setup_s"] = setup_stats
        values = {
            "setup_s": setup_stats["median"],
            "wall_s": wall["median"],
            "cpu_s": record["cpu_s"]["median"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
