"""Kernel tiers: IA wall-clock by tier, bitwise-pinned to the oracle.

Runs the same scenarios under the ``numpy`` oracle tier and the
source-chunked ``scipy`` tier and records, per point,

* the initial-approximation (IA) wall time for the serial oracle, the
  process backend under the oracle tier (one task per rank), and the
  process backend under the scipy tier (one task per source chunk, so a
  single large rank fans out across every pool slot),
* the recompute (RC) wall time on a dynamic vertex-addition stream,
* the IA speedup of ``scipy``/process over the serial oracle and over
  ``numpy``/process (the latter isolates what chunking itself buys),

and verifies the acceptance criterion: the scipy tier's closeness must
be **bitwise identical** to the numpy oracle.

The ``>= 5x`` IA speedup floor at 20k vertices only makes sense with
the cores to back it: the gate is enforced only when ``cpu_count >=
GATED_NPROCS`` at full scale; otherwise the speedups are informational
— on a single-core container the pool measures orchestration overhead,
not parallelism.

Writes ``benchmarks/results/BENCH_kernel_tiers.json`` and exits
non-zero if any enforced criterion fails, so CI can gate on it::

    PYTHONPATH=src python benchmarks/bench_kernel_tiers.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.bench.workloads import incremental_stream
from repro.graph import barabasi_albert

RESULTS = Path(__file__).parent / "results" / "BENCH_kernel_tiers.json"

#: hard floor on IA speedup (scipy tier on the process backend over the
#: serial numpy oracle) at the gated nprocs
REQUIRED_IA_SPEEDUP = 5.0

#: the nprocs value the speedup gate applies to
GATED_NPROCS = 8

#: full-scale static graph (the acceptance scale); smoke shrinks this
FULL_STATIC_N = 20_000
SMOKE_STATIC_N = 400

#: dynamic (RC) scenario scale — kept moderate: RC folds the whole
#: local APSP per superstep
FULL_DYNAMIC_N = 600
SMOKE_DYNAMIC_N = 200


def closeness_bits(closeness: Dict[int, float]) -> List[Tuple[int, bytes]]:
    return [(v, struct.pack("<d", closeness[v])) for v in sorted(closeness)]


def phase_walls(engine: AnytimeAnywhereCloseness) -> Dict[str, float]:
    walls = {"ia": 0.0, "rc": 0.0, "other": 0.0}
    for rec in engine.cluster.tracer.to_json()["records"]:
        if rec["name"] == "initial_approximation":
            walls["ia"] += rec["wall_seconds"]
        elif rec["name"] == "rc_step":
            walls["rc"] += rec["wall_seconds"]
        else:
            walls["other"] += rec["wall_seconds"]
    return walls


def run_case(
    backend: str,
    tier: str,
    nprocs: int,
    graph: Any,
    changes: Any,
    strategy: Optional[str],
    ia_only: bool,
) -> Dict[str, Any]:
    config = AnytimeConfig(
        nprocs=nprocs,
        seed=11,
        collect_snapshots=False,
        backend=backend,
        kernel_tier=tier,
    )
    engine = AnytimeAnywhereCloseness(graph.copy(), config)
    t0 = time.perf_counter()
    engine.setup()
    if ia_only:
        closeness = engine.current_closeness()
        modeled: Optional[float] = None
    else:
        kwargs: Dict[str, Any] = {}
        if changes is not None:
            kwargs["changes"] = changes
            kwargs["strategy"] = strategy
        result = engine.run(**kwargs)
        closeness = result.closeness
        modeled = result.modeled_seconds
    wall = time.perf_counter() - t0
    walls = phase_walls(engine)
    engine.cluster.close()
    return {
        "backend": backend,
        "tier": tier,
        "nprocs": nprocs,
        "ia_wall_seconds": walls["ia"],
        "rc_wall_seconds": walls["rc"],
        "total_wall_seconds": wall,
        "modeled_seconds": modeled,
        "bits": closeness_bits(closeness),
    }


def run_point(
    nprocs: int,
    graph: Any,
    changes: Any,
    strategy: Optional[str],
    ia_only: bool,
) -> Dict[str, Any]:
    cases = {
        "numpy_serial": run_case(
            "serial", "numpy", nprocs, graph, changes, strategy, ia_only
        ),
        "numpy_process": run_case(
            "process", "numpy", nprocs, graph, changes, strategy, ia_only
        ),
        "scipy_process": run_case(
            "process", "scipy", nprocs, graph, changes, strategy, ia_only
        ),
    }
    oracle_bits = cases["numpy_serial"]["bits"]
    point = {
        "nprocs": nprocs,
        "scipy_bitwise_identical": (
            cases["scipy_process"]["bits"] == oracle_bits
        ),
        "numpy_process_bitwise_identical": (
            cases["numpy_process"]["bits"] == oracle_bits
        ),
        "ia_speedup_scipy_vs_serial": (
            cases["numpy_serial"]["ia_wall_seconds"]
            / max(cases["scipy_process"]["ia_wall_seconds"], 1e-9)
        ),
        "ia_speedup_scipy_vs_numpy_process": (
            cases["numpy_process"]["ia_wall_seconds"]
            / max(cases["scipy_process"]["ia_wall_seconds"], 1e-9)
        ),
    }
    for key, case in cases.items():
        case.pop("bits")
        point[key] = case
    return point


def run_scenario(
    name: str, nprocs_list: List[int], smoke: bool
) -> Dict[str, Any]:
    ia_only = False
    if name == "static":
        n = SMOKE_STATIC_N if smoke else FULL_STATIC_N
        graph = barabasi_albert(n, 3, seed=11)
        changes = None
        strategy = None
        ia_only = not smoke
    elif name == "dynamic":
        n = SMOKE_DYNAMIC_N if smoke else FULL_DYNAMIC_N
        per_step = 8 if smoke else 20
        steps = 4 if smoke else 6
        workload = incremental_stream(n, per_step, steps, seed=11)
        graph = workload.base
        changes = workload.stream
        strategy = "cutedge"
    else:
        raise ValueError(f"unknown scenario {name!r}")

    points = [
        run_point(nprocs, graph, changes, strategy, ia_only)
        for nprocs in nprocs_list
    ]
    return {
        "name": name,
        "n_vertices": n,
        "ia_only": ia_only,
        "points": points,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small CI-friendly scale"
    )
    parser.add_argument(
        "--out", type=str, default=str(RESULTS), help="output JSON path"
    )
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    nprocs_list = [2] if args.smoke else [4, 8]
    scenarios = [
        run_scenario(s, nprocs_list, args.smoke)
        for s in ("static", "dynamic")
    ]

    gate_active = cpu_count >= GATED_NPROCS and not args.smoke

    failures: List[str] = []
    for sc in scenarios:
        for pt in sc["points"]:
            where = f"{sc['name']} nprocs={pt['nprocs']}"
            if not pt["scipy_bitwise_identical"]:
                failures.append(
                    f"{where}: scipy tier closeness differs from the"
                    " numpy oracle"
                )
            if not pt["numpy_process_bitwise_identical"]:
                failures.append(
                    f"{where}: process backend differs from serial under"
                    " the numpy tier"
                )
    if gate_active:
        static = next(s for s in scenarios if s["name"] == "static")
        gated = next(
            (p for p in static["points"] if p["nprocs"] == GATED_NPROCS),
            None,
        )
        if (
            gated is None
            or gated["ia_speedup_scipy_vs_serial"] < REQUIRED_IA_SPEEDUP
        ):
            got = (
                "n/a"
                if gated is None
                else f"{gated['ia_speedup_scipy_vs_serial']:.2f}x"
            )
            failures.append(
                f"static: scipy-tier IA speedup at nprocs={GATED_NPROCS}"
                f" is {got}, below the {REQUIRED_IA_SPEEDUP:.0f}x floor"
            )

    report = {
        "bench": "kernel_tiers",
        "smoke": args.smoke,
        "cpu_count": cpu_count,
        "gate_active": gate_active,
        "required_ia_speedup": REQUIRED_IA_SPEEDUP,
        "gated_nprocs": GATED_NPROCS,
        "scenarios": scenarios,
        "failures": failures,
        "pass": not failures,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for sc in scenarios:
        for pt in sc["points"]:
            print(
                f"{sc['name']:>8} nprocs={pt['nprocs']}:"
                f" IA oracle {pt['numpy_serial']['ia_wall_seconds']:.3f}s,"
                f" numpy/proc {pt['numpy_process']['ia_wall_seconds']:.3f}s,"
                f" scipy/proc {pt['scipy_process']['ia_wall_seconds']:.3f}s"
                f" (x{pt['ia_speedup_scipy_vs_serial']:.2f} vs serial,"
                f" x{pt['ia_speedup_scipy_vs_numpy_process']:.2f} vs"
                " numpy/proc),"
                f" scipy_bitwise={pt['scipy_bitwise_identical']}"
            )
    print(
        f"cpu_count={cpu_count}, gate_active={gate_active};"
        f" report written to {out}"
    )
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("all enforced criteria met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
