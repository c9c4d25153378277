"""The mixeuler benchmark: four closed-loop workloads, timed end to end and,
in a separate traced run, layer by layer.

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                       # every workload, one row each

Run from the root of a source checkout; the package is imported from
./src and nothing is installed. Standard library only.

A run repeats rounds of the workload's fixed op list, one client in one
process and thread, each round in a fresh interpreter (perfbench/round.py),
while the next round is expected to end within --seconds; it always runs
at least one. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced rounds and prints per-layer
self time, calls, failures and counts, plus the tracing overhead against
the untraced rounds. Spans are written under .perfbench_out/. Every time
is reported at a fixed reference host speed, measured by a kernel run
between ops (perfbench/speed.py).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The exit code is 1 when any op returned a wrong value
or raised anything but its known failure, and 2 when the benchmark itself
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table", "crosscheck", "invariants", "cli")
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
ROUND_TIMEOUT = 120

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# (layer, extra per-layer metrics besides calls, busy_s and fails)
LAYERS = [
    ("bench", ()),
    ("matroid.build", ()),
    ("matroid.minor", ()),
    ("matroid.lattice", ()),
    ("matroid_json.load", ()),
    ("expansion.degree_oi", ("p50_ms",)),
    ("expansion.degree_mult", ("p50_ms",)),
    ("expansion.pvol", ()),
    ("expansion.expand", ()),
    ("localization.degree", ("p50_ms",)),
    ("recursion.eulerian", ()),
    ("recursion.delcon", ()),
    ("recursion.convolution", ()),
    ("recursion.classify", ()),
    ("tutte.tutte", ()),
    ("tutte.charpoly", ()),
    ("pmd.profile", ()),
    ("pmd.lopsided", ()),
    ("trees.enumerate", ()),
    ("trees.aggregate", ()),
] + [
    (f"cli.{sub}", ("p50_ms",))
    for sub in ("degree", "table", "tutte", "charpoly", "cvpoly", "pvol", "remixed", "trees", "check")
]
COUNTS = ("matroid.flats", "expansion.expand.terms", "trees.count")
UNITS = {"calls": "count", "busy_s": "s", "fails": "count", "p50_ms": "ms"}


def per_layer_names() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer, extras in LAYERS:
        for field in ("calls", "busy_s", "fails") + extras:
            out[f"{layer}.{field}"] = UNITS[field]
    for name in COUNTS:
        out[name] = "count"
    out["cli.import_s"] = "s"
    out["host.kernel_ms"] = "ms"
    out["trace.overhead"] = "ratio"
    out["trace.base_wall_s"] = "s"
    out["trace.spans"] = "count"
    return out


class BenchError(Exception):
    pass


def _spawn(args):
    """Run a child interpreter from the checkout root; return its last line
    of output as JSON and the monotonic time just before it started.

    The child gets its own process group, so a timeout also stops the
    `mixeuler` processes that a `cli` round starts.
    """
    started = time.monotonic()
    with subprocess.Popen(
        [sys.executable] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=ROUND_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(args)} ran past {ROUND_TIMEOUT} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(lines[-1]), started


def _round(workload, seed, mode, spans_path=None):
    args = [os.path.join(HERE, "round.py"), workload, str(seed), mode]
    if spans_path:
        args.append(spans_path)
    out, started = _spawn(args)
    out["setup_s"] = (out["first_op"] - started) * out["setup_scale"]
    return out


def _import_time() -> float:
    code = (
        "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter();"
        " import mixeuler.cli; print(time.perf_counter() - t)"
    )
    return _spawn(["-c", code])[0]


def run_workload(workload, seed, seconds, trace) -> dict:
    _import_time()  # compiles the package once, as an installed copy would be
    modes = ["plain", "traced"] if trace else ["plain"]
    rounds = []
    begin = time.monotonic()
    spans_dir = os.path.join(os.getcwd(), ".perfbench_out")
    while True:
        mode = modes[len(rounds) % len(modes)]
        spans_path = None
        if mode == "traced":
            os.makedirs(spans_dir, exist_ok=True)
            spans_path = os.path.join(spans_dir, f"{workload}-seed{seed}-round{len(rounds)}.spans.jsonl")
        start = time.monotonic()
        rounds.append(dict(_round(workload, seed, mode, spans_path), mode=mode))
        took = time.monotonic() - start
        if len(rounds) >= len(modes) and time.monotonic() - begin + took > seconds:
            break
    return _summarize(workload, seed, rounds, trace)


def _summarize(workload, seed, rounds, trace) -> dict:
    plain = [r for r in rounds if r["mode"] == "plain"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["raised"] + r["wrong_count"] for r in rounds)
    errors = sum((Counter(r["errors"]) for r in rounds), Counter())
    fixed = sum((Counter(r["fixed"]) for r in rounds), Counter())
    if trace:
        metrics = _per_layer(plain, [r for r in rounds if r["mode"] == "traced"])
    else:
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_round(workload, seed, "setup")["setup_s"])
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "op_p50_ms": statistics.median(r["p50_ms"] for r in plain),
            "op_p90_ms": statistics.median(r["p90_ms"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {
        "workload": workload,
        "rounds": len(rounds),
        "correct": all(r["wrong_count"] == 0 for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "fixed": fixed,
        "wrong": [msg for r in rounds for msg in r["wrong"]][:10],
        "metrics": metrics,
    }


def _per_layer(plain, traced) -> dict:
    values = {}
    first = traced[0]
    for layer, extras in LAYERS:
        rows = [r["layers"].get(layer) for r in traced]
        row = first["layers"].get(layer) or {"calls": 0, "fails": 0}
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.busy_s"] = statistics.median(x["busy_s"] if x else 0.0 for x in rows)
        values[f"{layer}.fails"] = row["fails"]
        for extra in extras:
            values[f"{layer}.{extra}"] = statistics.median(x.get(extra, 0.0) if x else 0.0 for x in rows)
    for name in COUNTS:
        values[name] = first["counts"].get(name, 0)
    values["cli.import_s"] = statistics.median(_import_time() for _ in range(IMPORT_SAMPLES))
    values["host.kernel_ms"] = statistics.median(r["kernel_s"] for r in plain) * 1000
    base = statistics.median(r["wall_s"] for r in plain)
    values["trace.overhead"] = statistics.median(r["wall_s"] for r in traced) / base
    values["trace.base_wall_s"] = base
    values["trace.spans"] = first["spans"]
    units = per_layer_names()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _row(result) -> str:
    cells = [f"{result['workload']:<11}"]
    for name, m in result["metrics"].items():
        cells.append(f"{name}={m['value']:.6g} {m['unit']}")
    cells.append(f"ops={result['attempted']} failed={result['failed']} rounds={result['rounds']}")
    return "  ".join(cells)


def _report(result):
    """Failures and wrong values go to standard error, error class first."""
    for key, n in sorted(result["errors"].items()):
        print(f"{result['workload']}: {n} failed op(s) raised the known {key}", file=sys.stderr)
    for key, n in sorted(result["fixed"].items()):
        print(f"{result['workload']}: {n} op(s) expected to raise {key} did not", file=sys.stderr)
    for msg in result["wrong"]:
        print(f"{result['workload']}: WRONG VALUE {msg}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "mixeuler", "__init__.py")):
        print("error: run from the root of a mixeuler checkout (no src/mixeuler here)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            _report(result)
            print(_row(result), file=sys.stderr if args.workload != "all" else sys.stdout, flush=True)
            results.append(result)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = all(r["correct"] for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
