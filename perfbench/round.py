"""One round of one workload, in a fresh interpreter.

    python3 perfbench/round.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is `setup` (stop after set-up), `plain` (time the op list) or `traced`
(time it with a span around every library call). Run from the root of a
checkout; the package is imported from ./src. Prints one JSON line.

An op that raises its known failure (workloads.SIZE_LIMIT and the like) is
a failed op, counted under `raised` and `errors`. Any other raise, and any
value its check rejects, is a wrong value. A known failure that did not
happen is listed under `fixed`; its value is checked as usual.

Every round starts in a new interpreter, so module-level caches in the
package (localization._CLASS_CACHE, localization._SIGN_CHECKED,
pmd._REMIXED_CACHE) start empty, as they do for a command-line user.

Every time the round reports is scaled to the reference host speed
(speed.py): each op and span by the kernel samples near it, `wall_s`'s
time outside ops by the factor for the whole round, and the set-up by
`setup_scale`, from kernel samples taken right after it. `kernel_s` is the
round's median kernel time and `first_op` the unscaled clock reading.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

from speed import Calibrator

sys.path.insert(0, os.path.abspath("src"))

from workloads import WORKLOADS  # noqa: E402  (needs src on the path)

SETUP_KERNELS = 15


class Tracer:
    """Spans around the benchmark's calls into the package, kept in memory.

    A span is [name, start, end, parent span index, op id, error class].
    Layer spans are children of the op span they ran in; set-up calls have
    no parent. With tracing off, `call` is a plain call.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans = []
        self.counts = {}
        self._op_span = None
        self._op_id = None

    def call(self, layer, fn, *args):
        if not self.on:
            return fn(*args)
        span = [layer, time.perf_counter(), None, self._op_span, self._op_id, None]
        self.spans.append(span)
        try:
            return fn(*args)
        except Exception as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[2] = time.perf_counter()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def begin_op(self, op_id, start):
        if self.on:
            self._op_id = op_id
            self._op_span = len(self.spans)
            self.spans.append(["op", start, None, None, op_id, None])

    def end_op(self, end, error):
        if self.on:
            span = self.spans[self._op_span]
            span[2], span[5] = end, error
            self._op_span = self._op_id = None

    def layers(self, scale_at) -> dict:
        """Per layer: calls, self time, failed calls, median call time, each
        span's time multiplied by `scale_at(start, end)`.

        Self time is a span's duration minus that of its children. Op spans
        are reported as layer `bench`: one call per op, and their self time
        is the benchmark's own work between library calls.
        """
        scaled = [(end - start) * scale_at(start, end) for _, start, end, *_ in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += scaled[i]
        out = {}
        durations = {}
        for i, (name, start, end, _, _, error) in enumerate(self.spans):
            layer = "bench" if name == "op" else name
            row = out.setdefault(layer, {"calls": 0, "busy_s": 0.0, "fails": 0})
            row["calls"] += 1
            row["busy_s"] += scaled[i] - child_time[i]
            row["fails"] += error is not None
            durations.setdefault(layer, []).append(scaled[i])
        for layer, row in out.items():
            row["p50_ms"] = statistics.median(durations[layer]) * 1000
        return out


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    tracer = Tracer(mode == "traced")
    stream = WORKLOADS[workload](seed, tracer)
    op = next(stream, None)  # runs the workload's set-up
    first_op = time.monotonic()
    speed = Calibrator()
    speed.sample(SETUP_KERNELS)
    setup_scale = speed.scale()
    if mode == "setup":
        print(json.dumps({"first_op": first_op, "setup_scale": setup_scale}))
        return 0

    results = []
    intervals = []
    errors = {}
    wrong = []
    begin = time.perf_counter()
    while op is not None:
        speed.maybe_sample()
        thunk, check, known = op if len(op) == 3 else (*op, None)
        start = time.perf_counter()
        tracer.begin_op(len(intervals), start)
        error = None
        try:
            results.append((check, thunk(), known))
        except Exception as exc:
            error = type(exc).__name__
            key = f"{error}: {exc}"
            if key == known:
                errors[key] = errors.get(key, 0) + 1
            else:
                wrong.append(f"op {len(intervals)} raised {key[:200]}")
        end = time.perf_counter()
        tracer.end_op(end, error)
        intervals.append((start, end))
        op = next(stream, None)
    speed.sample()
    between_ops = time.perf_counter() - begin - speed.spent - sum(end - start for start, end in intervals)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss

    fixed = {}
    for check, value, known in results:
        try:
            msg = check(value)
        except Exception as exc:
            msg = f"unreadable value: {type(exc).__name__}: {exc}"
        if msg:
            wrong.append(msg)
        if known:
            fixed[known] = fixed.get(known, 0) + 1

    scale = speed.scale()
    latencies = [(end - start) * speed.scale_at(start, end) for start, end in intervals]
    out = {
        "first_op": first_op,
        "setup_scale": setup_scale,
        "kernel_s": speed.kernel_s(),
        "wall_s": sum(latencies) + between_ops * scale,
        "p50_ms": statistics.median(latencies) * 1000,
        "p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1000,
        "peak_rss_mb": peak_kb / 1024,
        "attempted": len(latencies),
        "raised": sum(errors.values()),
        "errors": errors,
        "fixed": fixed,
        "wrong": wrong[:20],
        "wrong_count": len(wrong),
    }
    if tracer.on:
        out["layers"] = tracer.layers(speed.scale_at)
        out["counts"] = tracer.counts
        out["spans"] = len(tracer.spans)
        if len(argv) > 3:
            with open(argv[3], "w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
