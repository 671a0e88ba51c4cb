"""Self-tests of the e2e benchmark harness, at ``--smoke`` scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (not part
of tier-1: ``testpaths = ["tests"]``).  They check the harness, not the
program: every metric is emitted with its unit, span trees are sound,
tracing leaves no wrapper behind, and the compare rule tells an inflated
copy from an identical one.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import spans as sp  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
E2E = {m.name: m.unit for m in metrics.END_TO_END}
LAYERS = {name: unit for name, unit, *_ in metrics.PER_LAYER}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory) -> dict:
    """One smoke-scale set: every workload once untraced, once traced."""
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    proc = _run("--smoke", "--repeats", "1", "--trace", "--seconds", "0.3",
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(out.read_text())


def test_set_reports_every_metric_with_unit(smoke_set):
    assert list(smoke_set["workloads"]) == list(workloads.WORKLOADS)
    for name, wl in smoke_set["workloads"].items():
        assert wl["ops_failed"] == 0 and wl["ops_attempted"] >= 2, name
        assert {k: c["unit"] for k, c in wl["end_to_end"].items()} == E2E
        assert {k: c["unit"] for k, c in wl["per_layer"].items()} == LAYERS
        for cell in wl["end_to_end"].values():
            assert cell["k"] == 1 and cell["min"] <= cell["median"] <= cell["max"]
            assert cell["median"] > 0  # end-to-end metrics are never 0
        assert set(wl["config"]) == {"backend", "kernel_tier", "nprocs"}
        assert len(wl["fingerprint"]["input_hash"]) == 64
    host = smoke_set["host"]
    assert {"cpu_count", "python", "numpy", "scipy", "HAS_NUMBA"} <= set(host)
    assert smoke_set["set_wall_s"] > 0 and smoke_set["repeats"] == 1


def test_layers_show_up_where_they_should(smoke_set):
    """A layer's metric is non-zero on the workload that uses it and
    zero on the one that bypasses it."""
    val = lambda w, m: smoke_set["workloads"][w]["per_layer"][m]["value"]  # noqa: E731
    assert val("static-solve", "kernels.minplus_fold_s") > 0
    assert val("static-solve", "strategies.apply_calls") == 0
    assert val("static-solve", "serve.ticks") == 0
    assert val("static-pool", "backends.superstep_s") > 0
    assert val("static-pool", "shm.alloc_bytes") > 0
    assert val("static-pool", "kernels.minplus_fold_calls") == 0  # in children
    assert val("static-solve", "shm.alloc_bytes") == 0
    assert val("setup-large", "partition.partition_s") > 0
    assert val("setup-large", "cluster.exchange_calls") == 0
    assert val("batch-add", "worker.relax_edge_rows_calls") > 0
    assert val("batch-add", "strategies.apply_calls") == 1
    assert val("batch-add", "strategies.edge_deletion_calls") == 0
    assert val("serve-churn", "strategies.edge_deletion_calls") > 0
    assert val("serve-churn", "serve.batches") > 0
    assert val("serve-churn", "obs.snapshot_s") > 0
    for name in smoke_set["workloads"]:
        assert val(name, "trace_coverage_frac") >= 0.9, name
    # the twins computed the same thing
    for key in ("engine.rc_steps", "engine.modeled_s", "cluster.boundary_words"):
        assert val("static-solve", key) == val("static-pool", key)


def test_ledger_is_valid(smoke_set):
    ledger = HERE / "out" / "e2e.ledger.jsonl"
    lines = [json.loads(x) for x in ledger.read_text().splitlines()]
    assert {r["case"] for r in lines} == {
        f"workload={w}" for w in workloads.WORKLOADS
    }
    assert all(r["bench"] == "e2e" and r["context"]["scale"] == "smoke"
               for r in lines)
    validator = ROOT / "tools" / "validate_bench_record.py"
    if validator.exists():
        proc = subprocess.run(
            [sys.executable, str(validator), str(ledger)],
            cwd=validator.parent, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


def test_span_trees_are_balanced(smoke_set):
    for name in workloads.WORKLOADS:
        trace = json.loads((HERE / "out" / f"trace-{name}-smoke.json").read_text())
        assert trace["workload"] == name and trace["iterations"]
        for spans in trace["iterations"]:
            sp.check_tree(spans)  # closed, nested, children fit in parents
            ticks = [s[sp.TICK] for s in spans]
            assert ticks == sorted(ticks)  # spans of one tick are contiguous
            own = sp.self_times(spans)
            assert sum(own.values()) == pytest.approx(sp.root_time(spans))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_contract_last_line(trace):
    proc = _run("--workload", "batch-add", "--seed", "2", "--seconds", "0.2",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    want = LAYERS if trace == "1" else E2E
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    # every metric is also printed by name with its unit
    for name, unit in want.items():
        assert any(
            line.split()[1:2] == [name] and line.endswith(" " + unit)
            for line in proc.stdout.splitlines()[:-1]
        ), name


def test_same_seed_same_inputs():
    assert set(workloads.WORKLOADS) == metrics.ALL
    for name, spec in workloads.WORKLOADS.items():
        a = workloads.generate(spec, 3, "smoke").input_hash
        assert a == workloads.generate(spec, 3, "smoke").input_hash
        assert a != workloads.generate(spec, 4, "smoke").input_hash, name


def test_tracing_restores_the_original_functions():
    points = sp.wrap_points()
    assert len(points) > 60
    originals = [(o, a, o.__dict__[a]) for o, a, *_ in points]
    inp = workloads.generate(workloads.WORKLOADS["serve-churn"], 1, "warm")
    tracer = sp.SpanTracer("serve.feed")
    with tracer:
        assert all(o.__dict__[a] is not fn for o, a, fn in originals)
        workloads.run_iteration(inp)
        spans, _counters = tracer.take()
    assert spans
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr}"
    # timed runs execute unpatched code: nothing is recorded any more
    workloads.run_iteration(inp)
    assert tracer.take()[0] == []


def test_wrong_answer_is_a_failed_op():
    inp = workloads.generate(workloads.WORKLOADS["static-solve"], 1, "warm")
    it = workloads.run_iteration(inp)
    check = workloads.AnswerCheck(inp)
    assert check.errors(it) == []
    v = next(iter(it.closeness))
    it.closeness[v] *= 1 + 1e-6
    assert check.errors(it)
    it.converged = False
    assert "run did not converge" in check.errors(it)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _result(scale: float = 1.0) -> dict:
    """A synthetic result file: 5 runs per cell, 2 % apart."""
    wls = {}
    for name in workloads.WORKLOADS:
        cells = {}
        for i, m in enumerate(metrics.END_TO_END):
            base = 1.0 + i
            cell = metrics.summarize([base * (1 + 0.01 * k) for k in range(5)])
            cell.update(unit=m.unit, native=name in m.native)
            cells[m.name] = cell
        wls[name] = {"ops_attempted": 5, "ops_failed": 0, "end_to_end": cells}
    return {"workloads": wls}


def test_compare_passes_identical_and_flags_inflated(tmp_path):
    a = _result()
    rows = metrics.compare(a, copy.deepcopy(a))
    native = sum(len(m.native) for m in metrics.END_TO_END)
    assert len(rows) == native and {r["verdict"] for r in rows} == {"same"}

    b = copy.deepcopy(a)
    cell = b["workloads"]["batch-add"]["end_to_end"]["converge_s"]
    cell.update(metrics.summarize([v * 1.30 for v in cell["values"]]))
    flagged = [r for r in metrics.compare(a, b) if r["verdict"] != "same"]
    assert [(r["metric"], r["workload"], r["verdict"]) for r in flagged] == [
        ("converge_s", "batch-add", "worse")
    ]
    assert flagged[0]["ratio"] == pytest.approx(1.30)

    # the command line agrees, and exits non-zero only for the bad copy
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert _run("--compare", str(pa), str(pa)).returncode == 0
    bad = _run("--compare", str(pa), str(pb))
    assert bad.returncode == 1 and "worse" in bad.stdout


def test_compare_verdicts():
    m = {x.name: x for x in metrics.END_TO_END}
    lower, higher = m["converge_s"], m["events_per_s"]
    tight = [1.0, 1.01, 1.02]
    faster = [0.5, 0.51, 0.52]
    assert metrics.verdict(lower, tight, faster)[0] == "better"
    assert metrics.verdict(higher, tight, faster)[0] == "worse"
    # spread wider than the bound and overlapping runs decide nothing
    noisy = [0.6, 1.0, 1.6, 2.2]
    assert metrics.verdict(lower, noisy, [0.9, 1.5, 2.0, 2.6])[0] == "unresolved"
    # a tiny setup that moves by a few ms is not a regression
    setup = m["setup_s"]
    assert metrics.verdict(setup, [0.010] * 3, [0.020] * 3)[0] == "same"
    assert metrics.verdict(setup, [1.0] * 3, [1.5] * 3)[0] == "worse"
    # a failed op misses every bound
    a, b = _result(), _result()
    b["workloads"]["serve-churn"]["ops_failed"] = 1
    rows = [r for r in metrics.compare(a, b) if r["workload"] == "serve-churn"]
    assert rows and {r["verdict"] for r in rows} == {"worse"}


# ----------------------------------------------------------------------
# the driver's view of the repository
# ----------------------------------------------------------------------
def test_benchmark_json_mirrors_the_tables():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json in this checkout")
    spec = json.loads(path.read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["run_seconds"] == metrics.RUN_SECONDS
    assert spec["workloads"] == [
        {"name": s.name, "why": s.why} for s in workloads.WORKLOADS.values()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, *_ in metrics.PER_LAYER
    ]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "static-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_pool_run_leaves_no_process_behind(trace):
    """The pool children and the shared-memory resource tracker are
    stopped and reaped before run.py exits: nothing, not even a zombie,
    is left in the session the run was started in."""
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc")
    proc = subprocess.Popen(
        [*RUN, "--workload", "static-pool", "--seed", "1", "--seconds", "0.3",
         "--trace", trace, "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err + out
    left = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == proc.pid:  # session id
            left.append((int(entry), fields[0]))
    assert left == []
