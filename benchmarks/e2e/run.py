#!/usr/bin/env python3
"""The e2e wall-clock benchmark: five workloads, end to end and per layer.

One run of one workload (what the benchmark driver calls)::

    python benchmarks/e2e/run.py --workload batch-add --seed 1 \
        --seconds 20 --trace 0

generates the workload from the seed, warms up on a 50-vertex input,
repeats fresh-engine iterations for ``--seconds``, checks every answer,
prints each metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
measures the end-to-end metrics with no instrumentation; ``--trace 1``
wraps the public functions of each layer (from ``spans.py``, never
``src/``), derives the per-layer metrics and writes the spans to
``out/trace-<workload>.json``.

A full set (what a developer runs between two commits)::

    python benchmarks/e2e/run.py [--seed N] [--workload NAME] \
        [--repeats K] [--trace] [--smoke] [--out FILE]
    python benchmarks/e2e/run.py --compare A.json B.json

runs every workload K times, each in a fresh subprocess, one at a time,
and writes median/min/max per metric to a result file; ``--compare``
applies the bounds to two such files.  See README.md.
"""

from __future__ import annotations

import os

# one thread per process: the pool workload brings its own parallelism,
# and BLAS/OpenMP teams would make the others depend on the core count
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, sleep  # noqa: E402
from typing import (  # noqa: E402
    Any, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: iterations a run needs before its medians mean anything (a traced
#: run needs them twice: untraced reference iterations, then traced ones)
MIN_ITERATIONS = 3
MIN_ITERATIONS_TRACED = 2
#: share of a traced run's time spent on untraced reference iterations
UNTRACED_SHARE = 0.4


class HarnessError(RuntimeError):
    """The benchmark itself is broken (not a metric, not a failed op)."""


# ----------------------------------------------------------------------
# processes: whatever a run starts is stopped and waited for before it ends
# ----------------------------------------------------------------------
PR_SET_CHILD_SUBREAPER = 36
#: how long stragglers get to end on their own before they are killed
REAP_GRACE_S = 5.0


def _adopt_descendants() -> None:
    """Make this process the reaper of all its descendants (Linux).

    A descendant whose parent has died is then re-parented to this
    process, not to init, so the final sweep can still wait for it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: direct children only
        pass


def _child_pids() -> List[int]:
    """Live or zombie processes whose parent is this process."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:  # gone in the meantime
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return found


def _stop_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    ``backend="process"`` keeps one pool per process until the
    interpreter exits, and shared memory starts a resource tracker that
    outlives its parent and is then never reaped: shut the pool down,
    stop the tracker, then wait for (and after a grace period kill)
    whatever is still a child of this process.
    """
    backend = sys.modules.get("repro.runtime.backends.process")
    pool = getattr(backend, "_POOL", None)
    if pool is not None:
        pool.shutdown(wait=True)
        backend._POOL, backend._POOL_SIZE = None, 0
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    deadline = perf_counter() + REAP_GRACE_S
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            return
        if pid:
            continue
        if perf_counter() > deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        sleep(0.01)


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    """High-water RSS of this process plus its live (pool) children."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Done(NamedTuple):
    """One completed iteration and what the tracer recorded during it."""

    it: Any
    spans: List[list]
    counters: Any


def _measure(
    inp: Any, seconds: float, min_iterations: int, tracer: Any = None
) -> Tuple[List[Done], Optional[Exception], float]:
    """Iterate until ``seconds`` have passed (and the minimum is met).

    Returns the completed iterations, the exception that ended the run
    early (a failed op, reported as such) if any, and the peak RSS once
    the minimum was met: the high-water mark after a fixed amount of
    work, so that how many more iterations fit in the time cannot move
    the metric.
    """
    import workloads

    done: List[Done] = []
    error: Optional[Exception] = None
    rss_mb = 0.0
    start = perf_counter()
    while len(done) < min_iterations or perf_counter() - start < seconds:
        try:
            it = workloads.run_iteration(inp)
        except Exception as exc:
            error = exc
            break
        finally:
            spans, counters = tracer.take() if tracer is not None else ([], None)
        done.append(Done(it, spans, counters))
        if len(done) == min_iterations:
            rss_mb = _peak_rss_mb()
    return done, error, rss_mb or _peak_rss_mb()


def _end_to_end(spec: Any, inp: Any, its: List[Any]) -> Dict[str, float]:
    """The six end-to-end metrics of one run (medians over iterations)."""
    setup = statistics.median(it.setup_s for it in its)
    converge = statistics.median(it.converge_s for it in its)
    if spec.name == "serve-churn":
        ticks = sorted(t for it in its for t in it.tick_ms)
        p50, p95 = _percentile(ticks, 0.50), _percentile(ticks, 0.95)
        rate = statistics.median(inp.items / it.feed_s for it in its)
    else:
        # no tick loop here: the one "tick" is the whole iteration, from
        # constructing the engine to holding the result (README, aliases)
        whole = statistics.median(it.setup_s + it.converge_s for it in its)
        p50 = p95 = whole * 1e3
        rate = inp.items / whole
    return {
        "setup_s": setup,
        "converge_s": converge,
        "tick_p50_ms": p50,
        "tick_p95_ms": p95,
        "events_per_s": rate,
    }


def _fingerprint(inp: Any, it: Any) -> Dict[str, Any]:
    """What must repeat exactly for one (workload, seed)."""
    import workloads

    return {
        "input_hash": inp.input_hash,
        "engine.rc_steps": it.counts["engine.rc_steps"],
        "engine.modeled_s": float(it.counts["engine.modeled_s"]).hex(),
        "cluster.boundary_words": it.counts["cluster.boundary_words"],
        "serve.batches": it.counts["serve.batches"],
        "closeness": workloads.closeness_digest(it.closeness),
    }


def _host() -> Dict[str, Any]:
    import numpy
    import scipy

    from repro.runtime.kernels import HAS_NUMBA

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "HAS_NUMBA": HAS_NUMBA,
        "machine": platform.machine(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Run one workload once; returns the process exit code."""
    import metrics
    import spans as sp
    import workloads

    spec = workloads.WORKLOADS[name]
    scale = "smoke" if smoke else "full"
    inp = workloads.generate(spec, seed, scale)
    workloads.run_iteration(workloads.generate(spec, seed, "warm"))

    traced: List[Done] = []
    if trace:
        k = MIN_ITERATIONS_TRACED
        plain, error, rss_mb = _measure(inp, seconds * UNTRACED_SHARE, k)
        if error is None:
            with sp.SpanTracer(spec.tick_span) as tracer:
                traced, error, _ = _measure(
                    inp, seconds * (1 - UNTRACED_SHARE), k, tracer
                )
    else:
        plain, error, rss_mb = _measure(inp, seconds, MIN_ITERATIONS)

    # ---- ops, answers, determinism (the clock is off from here) -------
    check = workloads.AnswerCheck(inp)
    attempted = failed = 0
    prints: List[Dict[str, Any]] = []
    if error is not None:
        attempted = failed = 1
        print(f"FAILED op: {type(error).__name__}: {error}", file=sys.stderr)
    for it in (d.it for d in plain + traced):
        attempted += it.ops
        errors = check.errors(it)
        for err in errors:
            print(f"FAILED op: {err}", file=sys.stderr)
        if errors:
            failed += 1
        else:
            prints.append(_fingerprint(inp, it))
    if not plain or (trace and not traced):
        print("error: no iteration completed", file=sys.stderr)
        return 1
    if any(p != prints[0] for p in prints):
        raise HarnessError(f"{name}: iterations of one input disagree: {prints}")
    its = [d.it for d in plain]

    # ---- metrics -------------------------------------------------------
    OUT.mkdir(exist_ok=True)
    e2e = _end_to_end(spec, inp, its)
    e2e["peak_rss_mb"] = rss_mb
    layers: Dict[str, float] = {}
    if trace:
        per_it = [metrics.layer_metrics(d.spans, d.counters, d.it.counts)
                  for d in traced]
        for d in traced:
            sp.check_tree(d.spans)
        for key in metrics.EXACT:
            if any(m[key] != per_it[0][key] for m in per_it):
                raise HarnessError(f"{name}: count {key} differs between iterations")
        layers = {k: statistics.median(m[k] for m in per_it) for k in per_it[0]}
        primary = spec.primary
        traced_s = statistics.median(getattr(d.it, primary) for d in traced)
        layers["trace_overhead_frac"] = traced_s / e2e[primary] - 1.0
        # root spans are engine.setup / engine.run / serve.*: what they
        # cover of the whole iteration is what the layer self times add to
        layers["trace_coverage_frac"] = statistics.median(
            sp.root_time(d.spans, until=d.it.ended)
            / (d.it.setup_s + d.it.converge_s)
            for d in traced
        )
        out_metrics = {
            n: {"value": layers[n], "unit": u} for n, u, *_ in metrics.PER_LAYER
        }
        _out_path(f"trace-{name}", smoke).write_text(json.dumps({
            "workload": name,
            "seed": seed,
            "columns": ["name", "parent", "tick", "start", "end"],
            "iterations": [d.spans for d in traced],
        }))
    else:
        out_metrics = {
            m.name: {"value": e2e[m.name], "unit": m.unit}
            for m in metrics.END_TO_END
        }

    for metric_name, cell in out_metrics.items():
        print(f"{name:13s} {metric_name:34s} {cell['value']:.6g} {cell['unit']}")
    n_ticks = sum(len(it.tick_ms) for it in its)
    print(f"{name}: {len(its)} untraced + {len(traced)} traced"
          f" iterations, {n_ticks} tick samples, ops {attempted - failed}/"
          f"{attempted} ok, input {inp.input_hash[:12]}")

    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "host": _host(),
        "config": {
            "backend": spec.backend,
            "kernel_tier": spec.kernel_tier,
            "nprocs": spec.nprocs,
        },
        "fingerprint": prints[0] if prints else {},
        "ops_attempted": attempted,
        "ops_failed": failed,
        "iterations": len(its),
        "tick_samples": n_ticks,
        "end_to_end": e2e,
        "per_layer": layers,
        "samples": {
            "setup_s": [it.setup_s for it in its],
            "converge_s": [it.converge_s for it in its],
        },
    }
    _detail_path(name, seed, trace, smoke).write_text(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 1 if failed else 0


def _out_path(stem: str, smoke: bool) -> Path:
    """Smoke-scale files carry a tag so tests never clobber real results."""
    return OUT / f"{stem}{'-smoke' if smoke else ''}.json"


def _detail_path(name: str, seed: int, trace: bool, smoke: bool) -> Path:
    return _out_path(f"run-{name}-seed{seed}-trace{int(trace)}", smoke)


# ----------------------------------------------------------------------
# a full set: K fresh-process runs per workload (+ one traced)
# ----------------------------------------------------------------------
def _spawn(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise HarnessError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(_detail_path(name, seed, trace, smoke).read_text())


def run_set(
    names: Sequence[str], seed: int, seconds: float, repeats: int,
    trace: bool, smoke: bool, out: Path,
) -> int:
    import metrics

    started = perf_counter()
    result: Dict[str, Any] = {
        "schema": 1, "seed": seed, "repeats": repeats, "seconds": seconds,
        "smoke": smoke, "host": _host(), "workloads": {},
    }
    units = {n: u for n, u, *_ in metrics.PER_LAYER}
    for name in names:
        runs = [_spawn(name, seed, seconds, False, smoke) for _ in range(repeats)]
        traced = _spawn(name, seed, seconds, True, smoke) if trace else None
        prints = [r["fingerprint"] for r in runs + ([traced] if traced else [])]
        if any(p != prints[0] for p in prints):
            raise HarnessError(f"{name}: repeats of seed {seed} disagree: {prints}")
        entry: Dict[str, Any] = {
            "config": runs[0]["config"],
            "fingerprint": prints[0] if prints else {},
            "ops_attempted": sum(r["ops_attempted"] for r in runs),
            "ops_failed": sum(r["ops_failed"] for r in runs),
            "end_to_end": {},
            "per_layer": {},
        }
        for m in metrics.END_TO_END:
            cell = metrics.summarize([r["end_to_end"][m.name] for r in runs])
            cell.update(unit=m.unit, native=name in m.native)
            entry["end_to_end"][m.name] = cell
        if traced:
            entry["ops_attempted"] += traced["ops_attempted"]
            entry["ops_failed"] += traced["ops_failed"]
            entry["per_layer"] = {
                n: {"value": v, "unit": units[n]}
                for n, v in traced["per_layer"].items()
            }
        result["workloads"][name] = entry
        print(f"== {name}  ({entry['ops_attempted'] - entry['ops_failed']}/"
              f"{entry['ops_attempted']} ops ok, K={repeats})")
        for m in metrics.END_TO_END:
            c = entry["end_to_end"][m.name]
            alias = "" if c["native"] else "  (alias)"
            print(f"  {m.name:14s} median {c['median']:.6g}  min {c['min']:.6g}"
                  f"  max {c['max']:.6g}  k {c['k']}  {m.unit}{alias}")
        for n, c in entry["per_layer"].items():
            print(f"  {n:34s} {c['value']:.6g} {c['unit']}")

    solve, pool = (result["workloads"].get(n) for n in ("static-solve", "static-pool"))
    if solve and pool:
        twin = ("engine.rc_steps", "engine.modeled_s", "closeness")
        if any(solve["fingerprint"][k] != pool["fingerprint"][k] for k in twin):
            raise HarnessError("static-solve and static-pool computed different"
                               f" things: {solve['fingerprint']} vs"
                               f" {pool['fingerprint']}")
    result["set_wall_s"] = perf_counter() - started
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    _write_ledger(result)
    failed = sum(w["ops_failed"] for w in result["workloads"].values())
    print(f"wrote {out}  (set wall {result['set_wall_s']:.1f} s,"
          f" {failed} failed ops)")
    return 1 if failed else 0


def _write_ledger(result: Dict[str, Any]) -> None:
    """The same medians as normalized ledger records (one fresh file)."""
    from repro.obs.history import append_records, records_from_rows

    rows = [
        {"workload": name, **{m: c["median"] for m, c in w["end_to_end"].items()
                              if c["native"]}}
        for name, w in result["workloads"].items()
    ]
    context = {
        "seed": str(result["seed"]),
        "k": str(result["repeats"]),
        "scale": "smoke" if result["smoke"] else "full",
        "cpu_count": str(result["host"]["cpu_count"]),
    }
    ledger = OUT / "e2e.ledger.jsonl"
    ledger.unlink(missing_ok=True)
    append_records(ledger, records_from_rows("e2e", rows, context=context))


# ----------------------------------------------------------------------
# compare two result files
# ----------------------------------------------------------------------
def run_compare(path_a: Path, path_b: Path) -> int:
    import metrics

    rows = metrics.compare(
        json.loads(path_a.read_text()), json.loads(path_b.read_text())
    )
    print(f"{'metric':14s} {'workload':13s} {'verdict':10s} {'B/A':>7s}"
          f"  {'A median [min, max] k':34s} B median [min, max] k")
    for r in rows:
        sides = [
            f"{s['median']:.5g} [{s['min']:.5g}, {s['max']:.5g}] {s['k']}"
            for s in (r["base"], r["new"])
        ]
        print(f"{r['metric']:14s} {r['workload']:13s} {r['verdict']:10s}"
              f" {r['ratio']:7.3f}  {sides[0]:34s} {sides[1]}"
              f"  {r['unit']} (bound {r['bound']:.0%} of A)")
    worse = [r for r in rows if r["verdict"] == "worse"]
    print(f"{len(rows)} rows, {len(worse)} worse,"
          f" {sum(r['verdict'] == 'unresolved' for r in rows)} unresolved")
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    sys.path.insert(0, str(HERE))
    import metrics

    names = sorted(metrics.ALL)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measuring time per run (default {metrics.RUN_SECONDS},"
                    " 1 with --smoke)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="traced run: per-layer metrics")
    ap.add_argument("--repeats", type=int, default=None, metavar="K",
                    help="run a set: K fresh-process runs per workload")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (tests)")
    ap.add_argument("--out", type=Path, default=None, help="result file of a set")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)

    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(metrics.RUN_SECONDS)
    try:
        if args.compare:
            return run_compare(*args.compare)
        if not (ROOT / "src" / "repro").is_dir():
            print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark"
                  " measures the repro package of its checkout", file=sys.stderr)
            return 3
        sys.path.insert(0, str(ROOT / "src"))
        if args.workload and args.repeats is None:
            return run_one(
                args.workload, args.seed, seconds, bool(args.trace), args.smoke
            )
        from workloads import WORKLOADS  # table order, not alphabetical

        chosen = [args.workload] if args.workload else list(WORKLOADS)
        out = args.out or OUT / f"result-seed{args.seed}.json"
        return run_set(chosen, args.seed, seconds, args.repeats or 5,
                       bool(args.trace), args.smoke, out)
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    _adopt_descendants()
    try:
        code = main()
    finally:  # on every way out, also an exception or argparse's exit
        _stop_processes()
    sys.exit(code)
