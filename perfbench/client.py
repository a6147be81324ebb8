"""One benchmark client: set up, run a closed loop of operations, check them.

Started by ``run.py``; prints one JSON object on its last stdout line.
The client is a single caller that waits for each operation before it
starts the next.  It takes the batch's inputs in turn from ``--start``,
wrapping round, until its budget is spent, and runs at least one.
Without ``--trace`` it reports the moment it became ready (interpreter
start, imports, input generation and warm-up done), the wall time of
every operation and the batch index it served.  With ``--trace`` it runs
each input in-process twice, untraced and traced, and reports the
per-layer metrics of the traced runs.  With ``--indices`` it runs just
those inputs once each, so that a run checks every input of its batch.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import traceback

from workloads import SRC, WORKLOADS, clear_caches

sys.path.insert(0, SRC)

import qkepler  # noqa: E402,F401
import qkepler.cli  # noqa: E402,F401


def _timed(run, spec) -> tuple:
    """One operation: (output, error text or None, wall seconds)."""
    t0 = time.perf_counter()
    try:
        out, err = run(spec), None
    except Exception as exc:  # an operation that raises is a failed one
        out, err = None, "".join(traceback.format_exception_only(exc))
    return out, err, time.perf_counter() - t0


def _op(wl, run, i: int) -> tuple:
    """Batch input ``i`` from cold package caches: (i, out, err, seconds)."""
    if not wl.subprocess:
        clear_caches()  # a fresh `qkepler` process starts with them empty
    return (i, *_timed(run, wl.batch[i]))


def _loop(wl, start: int, budget: float) -> tuple[list, float]:
    """Closed loop over the batch from ``start`` until the budget is spent."""
    records = []
    t0 = time.perf_counter()
    while not records or time.perf_counter() - t0 < budget:
        records.append(_op(wl, wl.run, (start + len(records))
                           % len(wl.batch)))
    return records, time.perf_counter() - t0


def _trace_loop(wl, start: int, budget: float) -> tuple:
    """Run each input untraced and traced, alternating which goes first.

    Both runs of an input start from empty caches and do the same work,
    so their difference is the tracing overhead.
    """
    from tracing import Tracer, install, layer_metrics
    run = wl.run_inprocess if wl.subprocess else wl.run
    t0 = time.perf_counter()
    _timed(run, wl.batch[start])  # fill lazy set-up before timing anything
    tracer = Tracer()
    plain, traced = [], []
    while not plain or time.perf_counter() - t0 < budget:
        i = (start + len(plain)) % len(wl.batch)
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_trace in order:
            if not with_trace:
                plain.append(_op(wl, run, i))
                continue
            tracer.begin_op()
            restore = install(tracer)
            try:
                traced.append(_op(wl, run, i))
            finally:
                restore()
    metrics = layer_metrics(tracer, len(traced))
    kernel = getattr(wl, "kernel", None)
    if kernel is not None:
        # ROADMAP kernel rows, traced apart from the workload's operations
        ktracer = Tracer()
        restore = install(ktracer)
        try:
            krecords = [(i, *_timed(kernel.run, case))
                        for i, case in enumerate(kernel.batch)]
        finally:
            restore()
        kmetrics = layer_metrics(ktracer, len(krecords))
        metrics.update({k: v for k, v in kmetrics.items()
                        if k.startswith(("rep.weyl_dim.self_s.",
                                         "spectral.genfunc_check."))})
    else:
        krecords = []
    return plain, traced, krecords, metrics


def _checked(wl, records) -> list[dict]:
    """Each record's batch index, seconds, failure classes and digest."""
    out = []
    for i, res, err, secs in records:
        fails, digest = [], None
        if err is not None:
            fails = [f"{wl.name}.raised"]
        else:
            try:
                fails = wl.check(wl.batch[i], res)
                digest = wl.digest(res)
            except Exception as exc:  # a malformed output fails its check
                err = "".join(traceback.format_exception_only(exc))
                fails = [f"{wl.name}.unreadable_output"]
        out.append({"i": i, "s": secs, "fails": fails, "digest": digest,
                    "error": err})
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--indices", default="")
    args = ap.parse_args()

    rng = random.Random(f"{args.workload}:{args.seed}")
    wl = WORKLOADS[args.workload](args.seed, rng)
    if not args.indices:
        wl.warm_up()
    ready = time.perf_counter()

    result = {"batch": len(wl.batch)}
    if args.indices:
        records = [_op(wl, wl.run, int(i)) for i in args.indices.split(",")]
        result["records"] = _checked(wl, records)
    elif args.trace:
        plain, traced, krecords, metrics = _trace_loop(wl, args.start,
                                                       args.budget)
        result.update(records=_checked(wl, plain + traced),
                      kernel=_checked(wl.kernel, krecords)
                      if krecords else [],
                      ops=len(traced), metrics=metrics,
                      untraced_op_s=sum(r[3] for r in plain) / len(plain),
                      traced_op_s=sum(r[3] for r in traced) / len(traced))
    else:
        records, loop_s = _loop(wl, args.start, args.budget)
        result.update(records=_checked(wl, records), ready=ready,
                      loop_s=loop_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
