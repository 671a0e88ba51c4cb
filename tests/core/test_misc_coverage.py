"""Coverage for smaller behaviors not exercised elsewhere."""

import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.bench import ScenarioScale, figure6
from repro.core.snapshots import take_snapshot
from repro.errors import ConfigurationError
from repro.graph import barabasi_albert
from repro.model import DEFAULT_COST
from repro.runtime import Cluster, GlobalIndex, Worker
from repro.runtime.metrics import snapshot_load

from ..conftest import path_graph


def test_worker_speed_scales_charges():
    idx = GlobalIndex([0, 1])
    w = Worker(0, 1, idx, DEFAULT_COST)
    w._charge(2.0)
    base = w.take_compute_seconds()
    w.speed = 4.0
    w._charge(2.0)
    assert w.take_compute_seconds() == pytest.approx(base / 4.0)


def test_wf_improved_snapshot():
    g = path_graph(5)
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=2, wf_improved=True)
    )
    engine.setup()
    result = engine.run()
    # wf closeness of an end vertex of P5: (n-1)/sum(d) = 4/(1+2+3+4)
    assert result.closeness[0] == pytest.approx(4 / 10)


def test_config_defaults_are_constructed():
    cfg = AnytimeConfig(nprocs=3)
    assert cfg.partitioner is not None
    assert cfg.cutedge_partitioner is not None
    assert cfg.schedule is not None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"nprocs": 0},
        {"max_rc_steps": 0},
        {"repartition_threshold": 2.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        AnytimeConfig(**kwargs)


def test_figure6_scenario_small():
    rows = figure6(ScenarioScale.small())
    assert {r["strategy"] for r in rows} == {
        "repartition",
        "cutedge",
        "roundrobin",
    }
    assert all(r["modeled_minutes"] > 0 for r in rows)


def test_snapshot_on_empty_worker():
    """A cluster where some worker owns nothing must still snapshot."""
    g = path_graph(3)
    cluster = Cluster(g, 4)
    from repro.partition import RoundRobinPartitioner

    cluster.decompose(RoundRobinPartitioner())
    cluster.run_initial_approximation()
    snap = take_snapshot(cluster, 0)
    assert set(snap.closeness) == {0, 1, 2}


def test_cluster_load_report_keys():
    g = barabasi_albert(30, 2, seed=1)
    cluster = Cluster(g, 2)
    from repro.partition import MultilevelPartitioner

    cluster.decompose(MultilevelPartitioner(seed=1))
    report = snapshot_load(cluster)
    assert sum(report.vertices) == 30
    assert sum(report.cut_edges) == 2 * report.total_cut_edges > 0
