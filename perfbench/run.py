"""qkepler benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 35 --trace 0

Run from the root of a qkepler checkout; the package is imported from
its ``src/`` directory and nothing is installed.  Without ``--trace``
the run starts ``CLIENTS`` fresh client processes one after another,
each setting up and then running its share of the timed loop over the
seeded batch of inputs, and prints the end-to-end metrics of
BENCHMARK.json.  Inputs no timed loop reached are then run once, untimed,
so that every run checks its whole batch.  With ``--trace 1`` it
prints the per-layer metrics instead, from one in-process client that
runs each input both untraced and traced.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it record the machine, the environment
and the details behind each number.  Every child process inherits BLAS
thread limits set here; no machine setting is touched.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracing import IMPORTS, parse_importtime  # noqa: E402
from workloads import KNOWN, WORKLOADS  # noqa: E402

CLIENTS = 5           # set-ups per untraced run; setup_s is their median
IMPORT_PROBES = 3     # `python -X importtime` children per traced run
BLAS_THREADS = 1      # at most nproc; one thread keeps timings steady
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_GRACE_S = 90.0  # a client may overrun its budget by one slow op
TRACE_LOOP_SHARE = 0.7  # the rest pays for import probes and output checks
GATE_SHARE_BASELINE = 0.75  # geom + qlinalg share of `verify all` (ROADMAP)
SETUP_IMPORTS = "import qkepler, qkepler.cli"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({v: str(BLAS_THREADS) for v in BLAS_VARS})
    return env


def _child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def _validate() -> None:
    """Fail unless qkepler imports from this checkout's src/.

    The import also writes the bytecode caches, so it is the build step.
    """
    if not os.path.isdir(os.path.join(SRC, "qkepler")):
        raise BenchError(f"no qkepler package under {SRC}")
    proc = _child(["-c", f"{SETUP_IMPORTS}; print(qkepler.__file__)"],
                  timeout=60)
    where = proc.stdout.strip()
    if proc.returncode != 0 or not where.startswith(SRC + os.sep):
        raise BenchError(f"qkepler does not import from {SRC}: "
                         f"{proc.stderr.strip() or where}")


def _client(args, budget: float, start: int = 0,
            indices: list[int] | None = None) -> tuple[dict, float]:
    """Run one client; returns its result and the moment it was started."""
    argv = [os.path.join(HERE, "client.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--start", str(start),
            "--budget", repr(budget)]
    if indices:
        argv += ["--indices", ",".join(map(str, indices))]
    else:
        argv += ["--trace", str(args.trace)]
    spawned = time.perf_counter()
    proc = _child(argv, timeout=budget + CHILD_GRACE_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"client failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def _cover(args, batch: int, records: list[dict]) -> list[dict]:
    """Run, once each, the batch inputs the timed loop did not reach."""
    missing = sorted(set(range(batch)) - {r["i"] for r in records})
    if not missing:
        return []
    res, _ = _client(args, 0.0, indices=missing)
    return res["records"]


def _verdicts(name: str, batch: int, records: list[dict]) -> dict:
    """Failures per batch input: an input fails if any of its runs fails.

    Every run of one input must also give the same output; `verify all`
    with one seed must print the same bytes every time.
    """
    fails = {i: set() for i in range(batch)}
    digests = {i: set() for i in range(batch)}
    unexpected = []
    for r in records:
        fails[r["i"]].update(r["fails"])
        if r["digest"] is not None:
            digests[r["i"]].add(r["digest"])
        odd = [c for c in r["fails"] if c not in KNOWN]
        if odd and len(unexpected) < 5:
            unexpected.append({"classes": odd, "input": r["i"],
                               "error": r["error"]})
    classes: dict[str, int] = {}
    for i in range(batch):
        if len(digests[i]) > 1:
            fails[i].add(f"{name}.output_differs")
        for c in fails[i]:
            classes[c] = classes.get(c, 0) + 1
    return {"attempted": batch, "failed": sum(bool(f) for f in fails.values()),
            "classes": classes, "unexpected": unexpected,
            "runs_per_input": len(records) / batch}


def _untraced(args) -> tuple[dict, dict]:
    records, setups = [], []
    loop_s, cursor = 0.0, 0
    for i in range(CLIENTS):
        # a client that overran shortens the later ones; each runs >= 1 op
        share = max(args.seconds - loop_s, 0.0) / (CLIENTS - i)
        res, spawned = _client(args, max(share, 1e-3), start=cursor)
        batch = res["batch"]
        records += res["records"]
        setups.append(res["ready"] - spawned)
        loop_s += res["loop_s"]
        cursor = (cursor + len(res["records"])) % batch
    durations = [r["s"] for r in records]
    extra = _cover(args, batch, records)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(durations), "s"),
        "ops_per_s": (len(durations) / loop_s, "1/s"),
    }
    details = {"op_samples": len(durations), "setup_samples": setups,
               "loop_s": loop_s, "untimed_inputs": len(extra),
               "op_s": durations}
    return metrics, {**_verdicts(args.workload, batch, records + extra),
                     **details}


def _import_times() -> dict:
    """Median self and cumulative import seconds of the set-up imports."""
    probes = []
    for _ in range(IMPORT_PROBES):
        proc = _child(["-X", "importtime", "-c", SETUP_IMPORTS], timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()[-2000:]}")
        probes.append(parse_importtime(proc.stderr))
    metrics = {}
    for mod in IMPORTS:
        for i, quantity in enumerate(("self_s", "cumulative_s")):
            vals = [p[mod][i] if mod in p else 0.0 for p in probes]
            metrics[f"setup.import.{mod}.{quantity}"] = (
                statistics.median(vals), "s")
    return metrics


def _traced(args) -> tuple[dict, dict]:
    res, _ = _client(args, TRACE_LOOP_SHARE * args.seconds)
    metrics = {k: tuple(v) for k, v in res.pop("metrics").items()}
    metrics.update(_import_times())
    metrics["trace.overhead_s"] = (res["traced_op_s"] - res["untraced_op_s"],
                                   "s")
    details = {k: res[k] for k in ("ops", "untraced_op_s", "traced_op_s")}
    if args.workload == "gate":
        details["geom_qlinalg_share"] = {
            "traced": metrics["cli.verify.geom_qlinalg.share"][0],
            "roadmap_baseline": GATE_SHARE_BASELINE}
    records = res["records"]
    extra = _cover(args, res["batch"], records)
    verdicts = _verdicts(args.workload, res["batch"], records + extra)
    if res["kernel"]:
        kernel = _verdicts("kernel", len(res["kernel"]), res["kernel"])
        for key in ("attempted", "failed"):
            verdicts[key] += kernel[key]
        verdicts["classes"].update(kernel["classes"])
        verdicts["unexpected"] += kernel["unexpected"]
    details["untimed_inputs"] = len(extra)
    return metrics, {**verdicts, **details}


def _machine(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "blas_threads": BLAS_THREADS,
            "blas_vars": list(BLAS_VARS), "commit": commit,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "clients": 1 if args.trace else CLIENTS, "loop": "closed"}


def _declared(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        declared = _declared(args.trace)
        _validate()
        metrics, details = (_traced if args.trace else _untraced)(args)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    got = {k: u for k, (_, u) in metrics.items()}
    if got != declared:
        print(f"benchmark error: metrics {sorted(set(got) ^ set(declared))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2

    print(json.dumps({"machine": _machine(args)}))
    print(json.dumps({"details": details}))
    unexpected = [c for c in details["classes"] if c not in KNOWN]
    print(json.dumps({
        "correct": not unexpected,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
