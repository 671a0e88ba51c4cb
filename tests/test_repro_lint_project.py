"""Tests for the whole-program layer of repro-lint.

Covers the call-graph builder on the repo's tricky shapes (``self``
methods, strategy-registry indirection, backend dispatch through an
abstract base), the seed-lineage dataflow (RPL008), interprocedural
charge coverage (RPL009), shared-memory phase discipline (RPL010), the
multi-line pragma-extent fix, and the SARIF/baseline/cache plumbing.

Fixture projects are written under ``tmp_path/src/repro/...`` so the
default path scoping (``repro/`` target, ``repro/runtime/`` wire
packages) applies exactly as it does for the real tree.
"""

from __future__ import annotations

import json
import textwrap
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

from repro_lint import LintConfig, lint_paths
from repro_lint.callgraph import ProjectContext
from repro_lint.cli import main as lint_main
from repro_lint.core import Finding, collect_suppressions
from repro_lint.dataflow import lineage_for
from repro_lint.summaries import effects_for


def write_project(
    tmp_path: Path, files: Dict[str, str]
) -> List[Path]:
    """Write fixture files (with package ``__init__.py``s) and return
    their paths in a stable order."""
    out: List[Path] = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        out.append(path)
        # package markers so absolute imports resolve
        parent = path.parent
        while parent != tmp_path and parent.name != "src":
            marker = parent / "__init__.py"
            if not marker.exists():
                marker.write_text("", encoding="utf-8")
            parent = parent.parent
    return sorted(set(out) | set(tmp_path.rglob("__init__.py")))


def lint_project(
    tmp_path: Path,
    files: Dict[str, str],
    *,
    select: Optional[List[str]] = None,
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    paths = write_project(tmp_path, files)
    return lint_paths(paths, config or LintConfig(), select=select)


def build_project(
    tmp_path: Path,
    files: Dict[str, str],
    config: Optional[LintConfig] = None,
) -> ProjectContext:
    paths = write_project(tmp_path, files)
    parsed = []
    for p in paths:
        source = p.read_text(encoding="utf-8")
        import ast

        parsed.append((p, source, ast.parse(source)))
    return ProjectContext.build(parsed, config or LintConfig())


def codes(findings: List[Finding]) -> List[str]:
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# call-graph builder
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_self_method_resolution(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "src/repro/runtime/w.py": """
                    class Worker:
                        def outer(self):
                            self.inner()
                        def inner(self):
                            pass
                """
            },
        )
        sites = project.call_sites["repro.runtime.w.Worker.outer"]
        assert sites[0].receiver == "self"
        assert sites[0].targets == ("repro.runtime.w.Worker.inner",)

    def test_self_method_through_base_class(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "src/repro/runtime/w.py": """
                    class Base:
                        def helper(self):
                            pass
                    class Child(Base):
                        def run(self):
                            self.helper()
                """
            },
        )
        sites = project.call_sites["repro.runtime.w.Child.run"]
        assert sites[0].targets == ("repro.runtime.w.Base.helper",)

    def test_backend_dispatch_override_family(self, tmp_path: Path) -> None:
        """An abstract-base call fans out to every subclass override —
        the runtime/backends/base.py shape."""
        project = build_project(
            tmp_path,
            {
                "src/repro/runtime/backends/base.py": """
                    class ExecutionBackend:
                        def run_ia(self, tasks):
                            raise NotImplementedError
                        def drive(self, tasks):
                            return self.run_ia(tasks)
                """,
                "src/repro/runtime/backends/serial.py": """
                    from .base import ExecutionBackend
                    class SerialBackend(ExecutionBackend):
                        def run_ia(self, tasks):
                            return [t() for t in tasks]
                """,
                "src/repro/runtime/backends/process.py": """
                    from .base import ExecutionBackend
                    class ProcessBackend(ExecutionBackend):
                        def run_ia(self, tasks):
                            return list(tasks)
                """,
            },
        )
        sites = project.call_sites[
            "repro.runtime.backends.base.ExecutionBackend.drive"
        ]
        assert set(sites[0].targets) == {
            "repro.runtime.backends.base.ExecutionBackend.run_ia",
            "repro.runtime.backends.serial.SerialBackend.run_ia",
            "repro.runtime.backends.process.ProcessBackend.run_ia",
        }

    def test_strategy_registry_indirection(self, tmp_path: Path) -> None:
        """make_strategy(name) reaches every @register-ed factory."""
        project = build_project(
            tmp_path,
            {
                "src/repro/core/strategies/registry.py": """
                    STRATEGIES = {}
                    def register(name):
                        def deco(fn):
                            STRATEGIES[name] = fn
                            return fn
                        return deco
                    def make_strategy(name, config):
                        return STRATEGIES[name](config)
                """,
                "src/repro/core/strategies/ldg.py": """
                    from .registry import register
                    @register("ldg")
                    def make_ldg(config):
                        return object()
                """,
                "src/repro/core/strategies/adaptive.py": """
                    from .registry import register
                    @register("adaptive")
                    def make_adaptive(config):
                        return object()
                """,
                "src/repro/core/engine.py": """
                    from .strategies.registry import make_strategy
                    def build(config):
                        return make_strategy("ldg", config)
                """,
            },
        )
        sites = project.call_sites["repro.core.engine.build"]
        targets = set(sites[0].targets)
        assert "repro.core.strategies.ldg.make_ldg" in targets
        assert "repro.core.strategies.adaptive.make_adaptive" in targets
        # the factory itself is also a target (direct resolution)
        assert (
            "repro.core.strategies.registry.make_strategy" in targets
        )

    def test_relative_import_resolution(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "src/repro/model/cost.py": """
                    def scan_time(ops):
                        return ops * 1e-9
                """,
                "src/repro/runtime/cluster.py": """
                    from ..model.cost import scan_time
                    def charge(ops):
                        return scan_time(ops)
                """,
            },
        )
        sites = project.call_sites["repro.runtime.cluster.charge"]
        assert sites[0].targets == ("repro.model.cost.scan_time",)

    def test_super_resolves_to_base_not_cha(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "src/repro/errors.py": """
                    class Base:
                        def __init__(self, seed):
                            self.seed = seed
                    class Unrelated:
                        def __init__(self, seed):
                            self.seed = seed
                    class Child(Base):
                        def __init__(self):
                            super().__init__(0)
                """
            },
        )
        sites = project.call_sites["repro.errors.Child.__init__"]
        init_sites = [s for s in sites if s.attr == "__init__"]
        assert init_sites[0].receiver == "super"
        assert init_sites[0].targets == ("repro.errors.Base.__init__",)

    def test_dunder_attribute_calls_never_fan_out(
        self, tmp_path: Path
    ) -> None:
        project = build_project(
            tmp_path,
            {
                "src/repro/a.py": """
                    class Holder:
                        def __init__(self, seed):
                            self.seed = seed
                    def poke(obj):
                        obj.__init__(3)
                """
            },
        )
        sites = project.call_sites["repro.a.poke"]
        assert sites[0].targets == ()

    def test_module_level_calls_are_sites(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "src/repro/boot.py": """
                    def setup():
                        pass
                    setup()
                """
            },
        )
        sites = project.call_sites["repro.boot.<module>"]
        assert sites[0].targets == ("repro.boot.setup",)

    def test_constructor_edge_to_init(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "src/repro/p.py": """
                    class Partitioner:
                        def __init__(self, seed):
                            self.seed = seed
                    def build():
                        return Partitioner(7)
                """
            },
        )
        sites = project.call_sites["repro.p.build"]
        assert sites[0].targets == ("repro.p.Partitioner.__init__",)


# ----------------------------------------------------------------------
# pragma statement extents (multi-line suppression bugfix)
# ----------------------------------------------------------------------
class TestPragmaExtent:
    def test_decorated_def_pragma_on_decorator_line(self) -> None:
        source = (
            "@deco  # repro-lint: disable=RPL003\n"
            "def f(\n"
            "    x,\n"
            "):\n"
            "    pass\n"
        )
        sup = collect_suppressions(source)
        # decorator through signature (lines 1-4), body excluded
        assert sup.get(2) == {"RPL003"}
        assert sup.get(4) == {"RPL003"}
        assert 5 not in sup

    def test_multiline_call_pragma_on_first_line(self) -> None:
        source = (
            "value = compute(  # repro-lint: disable=RPL001\n"
            "    1,\n"
            "    2,\n"
            ")\n"
        )
        sup = collect_suppressions(source)
        for line in (1, 2, 3, 4):
            assert sup.get(line) == {"RPL001"}

    def test_multiline_call_pragma_on_last_line(self) -> None:
        source = (
            "value = compute(\n"
            "    1,\n"
            ")  # repro-lint: disable=RPL004\n"
        )
        sup = collect_suppressions(source)
        assert sup.get(1) == {"RPL004"}

    def test_standalone_pragma_covers_following_statement(self) -> None:
        source = (
            "# repro-lint: disable=RPL001\n"
            "value = compute(\n"
            "    1,\n"
            ")\n"
        )
        sup = collect_suppressions(source)
        for line in (2, 3, 4):
            assert sup.get(line) == {"RPL001"}

    def test_def_pragma_does_not_silence_body(self) -> None:
        source = (
            "def f():  # repro-lint: disable=all\n"
            "    risky()\n"
        )
        sup = collect_suppressions(source)
        assert sup.get(1) == {"ALL"}
        assert 2 not in sup

    def test_single_line_behaviour_unchanged(self) -> None:
        sup = collect_suppressions("x = 1  # repro-lint: disable=RPL001\n")
        assert sup == {1: {"RPL001"}}

    def test_multiline_statement_suppression_end_to_end(
        self, tmp_path: Path
    ) -> None:
        """A finding on line 1 of a three-line call is suppressed by a
        pragma on the closing paren — the original bug."""
        files = {
            "src/repro/runtime/x.py": """
                import random
                v = random.randint(
                    0,
                    3,
                )  # repro-lint: disable=RPL001
            """
        }
        assert lint_project(tmp_path, files, select=["RPL001"]) == []


# ----------------------------------------------------------------------
# RPL008 seed lineage
# ----------------------------------------------------------------------
class TestSeedLineage:
    SELECT = ["RPL008"]

    def test_constant_seed_flagged(self, tmp_path: Path) -> None:
        files = {
            "src/repro/r.py": """
                import numpy as np
                def build():
                    return np.random.default_rng(42)
            """
        }
        assert codes(
            lint_project(tmp_path, files, select=self.SELECT)
        ) == ["RPL008"]

    def test_config_seed_clean(self, tmp_path: Path) -> None:
        files = {
            "src/repro/r.py": """
                import numpy as np
                def build(config):
                    return np.random.default_rng(config.seed)
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_derived_arithmetic_clean(self, tmp_path: Path) -> None:
        files = {
            "src/repro/r.py": """
                import numpy as np
                def build(self):
                    return np.random.default_rng(self.seed + 1)
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_seed_list_mixing_clean(self, tmp_path: Path) -> None:
        files = {
            "src/repro/r.py": """
                import numpy as np
                def stream(seed, tag):
                    return np.random.default_rng([seed, tag])
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_seed_param_suffix_clean(self, tmp_path: Path) -> None:
        files = {
            "src/repro/r.py": """
                import numpy as np
                def chaos(chaos_seed):
                    return np.random.default_rng(chaos_seed)
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_unrelated_value_flagged(self, tmp_path: Path) -> None:
        files = {
            "src/repro/r.py": """
                import numpy as np
                import time
                def build():
                    return np.random.default_rng(int(time.time()))
            """
        }
        assert codes(
            lint_project(tmp_path, files, select=self.SELECT)
        ) == ["RPL008"]

    def test_seed_kwarg_constant_flagged(self, tmp_path: Path) -> None:
        """Dataclass constructors have no visible __init__; the seed=
        keyword check still catches them."""
        files = {
            "src/repro/s.py": """
                from dataclasses import dataclass
                @dataclass
                class Partitioner:
                    seed: int = 0
                def fallback():
                    return Partitioner(seed=1)
            """
        }
        assert codes(
            lint_project(tmp_path, files, select=self.SELECT)
        ) == ["RPL008"]

    def test_seed_kwarg_derived_clean(self, tmp_path: Path) -> None:
        files = {
            "src/repro/s.py": """
                from dataclasses import dataclass
                @dataclass
                class Partitioner:
                    seed: int = 0
                def build(config):
                    return Partitioner(seed=config.seed + 1)
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_positional_seed_to_project_function_flagged(
        self, tmp_path: Path
    ) -> None:
        files = {
            "src/repro/f.py": """
                import numpy as np
                def make_rng(seed):
                    return np.random.default_rng(seed)
                def build():
                    return make_rng(1234)
            """
        }
        found = lint_project(tmp_path, files, select=self.SELECT)
        assert codes(found) == ["RPL008"]
        assert "make_rng" in found[0].message

    def test_derived_through_helper_fixpoint(self, tmp_path: Path) -> None:
        """A helper whose returns are derived propagates lineage to its
        callers — requires the cross-function fixpoint."""
        files = {
            "src/repro/f.py": """
                import numpy as np
                def mix(seed):
                    return seed * 2 + 1
                def build(config):
                    return np.random.default_rng(mix(config.seed))
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_generator_over_bitgen_clean(self, tmp_path: Path) -> None:
        files = {
            "src/repro/f.py": """
                from numpy.random import Generator, PCG64
                def build(seed):
                    return Generator(PCG64(seed))
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_rng_or_default_fallback_flagged(self, tmp_path: Path) -> None:
        """``rng or default_rng(0)``: the fallback branch severs
        lineage — the refine_level shape."""
        files = {
            "src/repro/f.py": """
                import numpy as np
                def refine(rng=None):
                    rng = rng or np.random.default_rng(0)
                    return rng
            """
        }
        assert codes(
            lint_project(tmp_path, files, select=self.SELECT)
        ) == ["RPL008"]

    def test_none_seed_not_ours(self, tmp_path: Path) -> None:
        """An explicit None seed is RPL001's finding, not RPL008's."""
        files = {
            "src/repro/f.py": """
                import numpy as np
                def build():
                    return np.random.default_rng(None)
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_documented_stream_escape_hatch(self, tmp_path: Path) -> None:
        config = LintConfig(documented_seed_streams=("worker_stream",))
        files = {
            "src/repro/f.py": """
                import numpy as np
                def build(rank):
                    return np.random.default_rng(worker_stream(rank))
            """
        }
        assert (
            lint_project(tmp_path, files, select=self.SELECT, config=config)
            == []
        )

    def test_pragma_suppresses_project_finding(self, tmp_path: Path) -> None:
        files = {
            "src/repro/f.py": """
                import numpy as np
                def build():
                    return np.random.default_rng(42)  # repro-lint: disable=RPL008
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_out_of_target_ignored(self, tmp_path: Path) -> None:
        files = {
            "scripts/tool.py": """
                import numpy as np
                def build():
                    return np.random.default_rng(42)
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []


# ----------------------------------------------------------------------
# RPL009 charge coverage
# ----------------------------------------------------------------------
class TestChargeCoverage:
    SELECT = ["RPL009"]

    def test_uncovered_send_flagged(self, tmp_path: Path) -> None:
        files = {
            "src/repro/runtime/c.py": """
                def exchange(workers, rows):
                    workers[0].receive_rows(rows)
            """
        }
        found = lint_project(tmp_path, files, select=self.SELECT)
        assert codes(found) == ["RPL009"]
        assert "receive_rows" in found[0].message

    def test_same_body_charge_clean(self, tmp_path: Path) -> None:
        files = {
            "src/repro/runtime/c.py": """
                def exchange(self, workers, rows):
                    self.charge_comm_words([(0, 1, len(rows))])
                    workers[0].receive_rows(rows)
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_charge_in_caller_covers_helper(self, tmp_path: Path) -> None:
        """The interprocedural case RPL004 cannot see: charge lives in
        the caller, the payload copy in a helper."""
        files = {
            "src/repro/runtime/c.py": """
                def exchange(self, workers, rows):
                    self.charge_comm_words([(0, 1, len(rows))])
                    _deliver(workers, rows)
                def _deliver(workers, rows):
                    workers[0].receive_rows(rows)
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_charge_in_callee_covers_send(self, tmp_path: Path) -> None:
        files = {
            "src/repro/runtime/c.py": """
                def exchange(self, workers, rows):
                    _charge_it(self, rows)
                    workers[0].receive_rows(rows)
                def _charge_it(self, rows):
                    self.charge_comm_words([(0, 1, len(rows))])
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_uncharged_caller_chain_flagged(self, tmp_path: Path) -> None:
        files = {
            "src/repro/runtime/c.py": """
                def outer(workers, rows):
                    _deliver(workers, rows)
                def _deliver(workers, rows):
                    workers[0].receive_rows(rows)
            """
        }
        found = lint_project(tmp_path, files, select=self.SELECT)
        assert codes(found) == ["RPL009"]
        assert "_deliver" in found[0].message

    def test_one_uncharged_caller_flagged(self, tmp_path: Path) -> None:
        """Coverage needs *every* caller to charge, not just one."""
        files = {
            "src/repro/runtime/c.py": """
                def good(self, workers, rows):
                    self.charge_comm_words([(0, 1, len(rows))])
                    _deliver(workers, rows)
                def bad(workers, rows):
                    _deliver(workers, rows)
                def _deliver(workers, rows):
                    workers[0].receive_rows(rows)
            """
        }
        assert codes(
            lint_project(tmp_path, files, select=self.SELECT)
        ) == ["RPL009"]

    def test_transitive_caller_charge_covers(self, tmp_path: Path) -> None:
        files = {
            "src/repro/runtime/c.py": """
                def entry(self, workers, rows):
                    self.charge_comm_words([(0, 1, len(rows))])
                    middle(workers, rows)
                def middle(workers, rows):
                    _deliver(workers, rows)
                def _deliver(workers, rows):
                    workers[0].receive_rows(rows)
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_self_receive_not_a_send(self, tmp_path: Path) -> None:
        """receive_packet delegating to self.receive_rows is a local
        hand-off, not a wire copy."""
        files = {
            "src/repro/runtime/c.py": """
                class Worker:
                    def receive_packet(self, packet):
                        self.receive_rows(packet.rows)
                    def receive_rows(self, rows):
                        self.ext = rows
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_recursion_with_charging_entry_clean(
        self, tmp_path: Path
    ) -> None:
        """A retry cycle below a charging entry point stays covered —
        the greatest fixpoint must not demote cycles reachable only
        through charging callers."""
        files = {
            "src/repro/runtime/c.py": """
                def entry(self, workers, rows):
                    self.charge_comm_words([(0, 1, len(rows))])
                    _try_send(workers, rows, 3)
                def _try_send(workers, rows, budget):
                    workers[0].receive_rows(rows)
                    if budget:
                        _retry(workers, rows, budget - 1)
                def _retry(workers, rows, budget):
                    _try_send(workers, rows, budget)
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_outside_wire_package_ignored(self, tmp_path: Path) -> None:
        files = {
            "src/repro/model/c.py": """
                def exchange(workers, rows):
                    workers[0].receive_rows(rows)
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []


# ----------------------------------------------------------------------
# RPL010 phase discipline
# ----------------------------------------------------------------------
def phase_config(**extra: object) -> LintConfig:
    registry = extra.pop("phase_registry", {})
    return LintConfig(phase_registry=dict(registry), **extra)  # type: ignore[arg-type]


class TestPhaseDiscipline:
    SELECT = ["RPL010"]

    def test_unregistered_subscript_store_flagged(
        self, tmp_path: Path
    ) -> None:
        files = {
            "src/repro/runtime/w.py": """
                class Worker:
                    def sneak(self, rows):
                        self.dv[0, :] = rows
            """
        }
        found = lint_project(tmp_path, files, select=self.SELECT)
        assert codes(found) == ["RPL010"]
        assert "'dv'" in found[0].message

    def test_unregistered_rebind_flagged(self, tmp_path: Path) -> None:
        files = {
            "src/repro/runtime/w.py": """
                import numpy as np
                class Worker:
                    def reset(self, n):
                        self.local_apsp = np.zeros((n, n))
            """
        }
        assert codes(
            lint_project(tmp_path, files, select=self.SELECT)
        ) == ["RPL010"]
        # an outside writer is reported; the same write through a
        # registered Worker method is not
        outside = {
            "src/repro/runtime/faults.py": """
                def restore(w, apsp):
                    w.local_apsp = apsp.copy()
            """
        }
        found = lint_project(tmp_path / "outside", outside, select=self.SELECT)
        assert codes(found) == ["RPL010"]
        assert "restore" in found[0].message
        through_worker = {
            "src/repro/runtime/w.py": """
                class Worker:
                    def restore_state(self, apsp):
                        self.local_apsp = apsp.copy()
                def restore(w, apsp):
                    w.restore_state(apsp)
            """
        }
        config = phase_config(phase_registry={"Worker.restore_state": "recovery"})
        assert lint_project(
            tmp_path / "through", through_worker, select=self.SELECT, config=config
        ) == []

    def test_alias_mutation_flagged(self, tmp_path: Path) -> None:
        """The add_local_edge idiom: mutate through a local alias."""
        files = {
            "src/repro/runtime/w.py": """
                class Worker:
                    def relax(self, cand, improved):
                        a = self.local_apsp
                        a[improved] = cand[improved]
            """
        }
        assert codes(
            lint_project(tmp_path, files, select=self.SELECT)
        ) == ["RPL010"]

    def test_inplace_numpy_call_flagged(self, tmp_path: Path) -> None:
        files = {
            "src/repro/runtime/w.py": """
                import numpy as np
                class Worker:
                    def zero_diag(self):
                        np.fill_diagonal(self.local_apsp, 0.0)
            """
        }
        assert codes(
            lint_project(tmp_path, files, select=self.SELECT)
        ) == ["RPL010"]

    def test_out_kwarg_flagged(self, tmp_path: Path) -> None:
        files = {
            "src/repro/runtime/w.py": """
                import numpy as np
                class Worker:
                    def fold(self, saved, n):
                        np.minimum(self.dv[:, :n], saved, out=self.dv[:, :n])
            """
        }
        assert codes(
            lint_project(tmp_path, files, select=self.SELECT)
        ) == ["RPL010"]

    def test_registered_phase_clean(self, tmp_path: Path) -> None:
        config = phase_config(
            phase_registry={"Worker.apply_rows": "coordinator"}
        )
        files = {
            "src/repro/runtime/w.py": """
                class Worker:
                    def apply_rows(self, rows):
                        self.dv[0, :] = rows
            """
        }
        assert (
            lint_project(tmp_path, files, select=self.SELECT, config=config)
            == []
        )

    def test_interprocedural_mutation_via_kernel_flagged(
        self, tmp_path: Path
    ) -> None:
        """Passing self.dv into a param-mutating callee is a mutation of
        the shared array at the call site."""
        files = {
            "src/repro/runtime/w.py": """
                def fold(dv, rows):
                    dv[0, :] = rows
                class Worker:
                    def run(self, rows):
                        fold(self.dv, rows)
            """
        }
        found = lint_project(tmp_path, files, select=self.SELECT)
        assert codes(found) == ["RPL010"]
        assert "via fold" in found[0].message
        assert "Worker.run" in found[0].message

    def test_interprocedural_two_hops(self, tmp_path: Path) -> None:
        """Param mutation propagates through a wrapper (fixpoint)."""
        files = {
            "src/repro/runtime/w.py": """
                def inner(dv, rows):
                    dv[0, :] = rows
                def outer(dv, rows):
                    inner(dv, rows)
                class Worker:
                    def run(self, rows):
                        outer(self.dv, rows)
            """
        }
        assert codes(
            lint_project(tmp_path, files, select=self.SELECT)
        ) == ["RPL010"]

    def test_kernel_mutating_params_clean(self, tmp_path: Path) -> None:
        config = phase_config(phase_registry={"w.fold": "kernel"})
        files = {
            "src/repro/runtime/w.py": """
                def fold(dv, rows):
                    dv[0, :] = rows
            """
        }
        assert (
            lint_project(tmp_path, files, select=self.SELECT, config=config)
            == []
        )

    def test_kernel_touching_self_flagged(self, tmp_path: Path) -> None:
        """Location transparency: a kernel-phase function must not reach
        through self for shared arrays."""
        config = phase_config(
            phase_registry={"Worker.kernel_step": "kernel"}
        )
        files = {
            "src/repro/runtime/w.py": """
                class Worker:
                    def kernel_step(self, rows):
                        self.dv[0, :] = rows
            """
        }
        found = lint_project(
            tmp_path, files, select=self.SELECT, config=config
        )
        assert codes(found) == ["RPL010"]
        assert "location transparency" in found[0].message

    def test_kernel_calling_coordinator_mutator_flagged(
        self, tmp_path: Path
    ) -> None:
        config = phase_config(
            phase_registry={
                "w.kernel_fn": "kernel",
                "Worker.apply_rows": "coordinator",
            }
        )
        files = {
            "src/repro/runtime/w.py": """
                class Worker:
                    def apply_rows(self, rows):
                        self.dv[0, :] = rows
                def kernel_fn(worker, rows):
                    worker.apply_rows(rows)
            """
        }
        found = lint_project(
            tmp_path, files, select=self.SELECT, config=config
        )
        assert codes(found) == ["RPL010"]
        assert "coordinator" in found[0].message

    def test_store_arrays_stay_guarded_under_the_project_registry(
        self, tmp_path: Path
    ) -> None:
        """The project's registry admits the entry store's own shape
        methods, and nothing else: a whole-array write to the store's
        arrays from an unregistered function — in the store or in the
        worker — is still reported."""
        from repro_lint.config import load_config

        root = Path(__file__).resolve().parent.parent
        config = replace(load_config(root / "pyproject.toml"), baseline_file="")
        files = {
            "src/repro/runtime/entries.py": """
                import numpy as np
                class EntryStore:
                    def reset(self, n_local, n_cols):
                        self.dv = np.full((n_local, n_cols), np.inf)
                    def adopt_apsp(self, apsp, csr=None):
                        self.local_apsp = apsp
                    def shrink(self):
                        self.dv = self.dv[:, :-1]
            """,
            "src/repro/runtime/worker.py": """
                import numpy as np
                class Worker:
                    def wipe(self, n_cols):
                        self.entries.dv = np.full((self.n_local, n_cols), np.inf)
                        self.entries.local_apsp[...] = 0.0
            """,
        }
        found = [
            f for f in lint_project(tmp_path, files, select=self.SELECT, config=config)
            if f.path != "pyproject.toml"  # the fixture lacks most registered names
        ]
        assert sorted(
            (f.message.split()[0], f.message.split("'")[1]) for f in found
        ) == [
            ("EntryStore.shrink", "dv"),
            ("Worker.wipe", "dv"),
            ("Worker.wipe", "local_apsp"),
        ]

    def test_stale_registry_key_flagged(self, tmp_path: Path) -> None:
        """A key that matches no function (the code was removed or the
        name became a plain attribute) is a finding of its own."""
        config = phase_config(
            phase_registry={
                "Worker.apply_rows": "coordinator",
                "Worker.gone": "init",
                "OldTier.fold": "kernel",
            }
        )
        files = {
            "src/repro/runtime/w.py": """
                class Worker:
                    def apply_rows(self, rows):
                        self.dv[0, :] = rows
            """
        }
        found = lint_project(
            tmp_path, files, select=self.SELECT, config=config
        )
        assert codes(found) == ["RPL010", "RPL010"]
        assert [f.path for f in found] == ["pyproject.toml"] * 2
        assert "'OldTier.fold' matches no function" in found[0].message
        assert "'Worker.gone' matches no function" in found[1].message

    def test_reads_are_clean(self, tmp_path: Path) -> None:
        files = {
            "src/repro/runtime/w.py": """
                class Worker:
                    def snapshot(self):
                        return self.dv.copy(), self.local_apsp.sum()
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_unshared_names_clean(self, tmp_path: Path) -> None:
        files = {
            "src/repro/runtime/w.py": """
                import numpy as np
                class Worker:
                    def scratch(self, n):
                        buf = np.zeros(n)
                        buf[0] = 1.0
                        self.other[0] = 2.0
            """
        }
        assert lint_project(tmp_path, files, select=self.SELECT) == []

    def test_view_writeback_flagged(self, tmp_path: Path) -> None:
        """relax_with_edge_rows shape: write through an np.ix_ view."""
        files = {
            "src/repro/runtime/w.py": """
                import numpy as np
                class Worker:
                    def relax(self, rows, cols, cand):
                        sub = self.dv[np.ix_(rows, cols)]
                        sub[:] = cand
            """
        }
        assert codes(
            lint_project(tmp_path, files, select=self.SELECT)
        ) == ["RPL010"]


# ----------------------------------------------------------------------
# effect summaries / lineage internals
# ----------------------------------------------------------------------
class TestAnalysisInternals:
    def test_may_charge_closure(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "src/repro/runtime/c.py": """
                    def leaf(self, msgs):
                        self.charge_comm_words(msgs)
                    def middle(self, msgs):
                        leaf(self, msgs)
                    def top(self, msgs):
                        middle(self, msgs)
                """
            },
        )
        effects = effects_for(project)
        assert effects.summaries["repro.runtime.c.leaf"].may_charge
        assert effects.summaries["repro.runtime.c.top"].may_charge

    def test_returns_derived_fixpoint(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "src/repro/f.py": """
                    def double(seed):
                        return seed * 2
                    def wrap(seed):
                        return double(seed)
                """
            },
        )
        lineage = lineage_for(project)
        assert lineage.taint_of("repro.f.double").returns_derived
        assert lineage.taint_of("repro.f.wrap").returns_derived


# ----------------------------------------------------------------------
# SARIF / baseline / cache plumbing
# ----------------------------------------------------------------------
def run_cli(
    args: List[str], capsys
) -> tuple[int, str]:
    rc = lint_main(args)
    out = capsys.readouterr().out
    return rc, out


class TestSarifOutput:
    def test_sarif_document_shape(self, tmp_path: Path, capsys) -> None:
        write_project(
            tmp_path,
            {
                "src/repro/runtime/x.py": (
                    "import random\nrandom.random()\n"
                )
            },
        )
        rc, out = run_cli(
            [
                str(tmp_path / "src/repro"),
                "--format",
                "sarif",
                "--no-config",
            ],
            capsys,
        )
        assert rc == 1
        doc = json.loads(out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "RPL008" in rule_ids and "RPL010" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "RPL001"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("x.py")
        assert loc["region"]["startLine"] == 2

    def test_sarif_clean_run_has_empty_results(
        self, tmp_path: Path, capsys
    ) -> None:
        write_project(tmp_path, {"src/repro/ok.py": "X = 1\n"})
        rc, out = run_cli(
            [
                str(tmp_path / "src/repro"),
                "--format",
                "sarif",
                "--no-config",
            ],
            capsys,
        )
        assert rc == 0
        assert json.loads(out)["runs"][0]["results"] == []


class TestBaseline:
    def _dirty(self, tmp_path: Path) -> Path:
        write_project(
            tmp_path,
            {
                "src/repro/runtime/x.py": (
                    "import random\nrandom.random()\n"
                )
            },
        )
        return tmp_path / "src/repro"

    def test_write_then_clean(self, tmp_path: Path, capsys) -> None:
        target = self._dirty(tmp_path)
        baseline = tmp_path / "baseline.json"
        rc, _ = run_cli(
            [
                str(target),
                "--no-config",
                "--baseline",
                str(baseline),
                "--write-baseline",
            ],
            capsys,
        )
        assert rc == 0
        data = json.loads(baseline.read_text())
        assert data["findings"][0]["code"] == "RPL001"
        rc, _ = run_cli(
            [str(target), "--no-config", "--baseline", str(baseline)],
            capsys,
        )
        assert rc == 0

    def test_baseline_survives_line_shift(
        self, tmp_path: Path, capsys
    ) -> None:
        """Fingerprints exclude line numbers: editing above an accepted
        finding must not resurrect it."""
        target = self._dirty(tmp_path)
        baseline = tmp_path / "baseline.json"
        run_cli(
            [
                str(target),
                "--no-config",
                "--baseline",
                str(baseline),
                "--write-baseline",
            ],
            capsys,
        )
        src = tmp_path / "src/repro/runtime/x.py"
        src.write_text(
            "import random\n\n\nrandom.random()\n", encoding="utf-8"
        )
        rc, _ = run_cli(
            [str(target), "--no-config", "--baseline", str(baseline)],
            capsys,
        )
        assert rc == 0

    def test_no_baseline_flag_reports_everything(
        self, tmp_path: Path, capsys
    ) -> None:
        target = self._dirty(tmp_path)
        baseline = tmp_path / "baseline.json"
        run_cli(
            [
                str(target),
                "--no-config",
                "--baseline",
                str(baseline),
                "--write-baseline",
            ],
            capsys,
        )
        rc, out = run_cli(
            [
                str(target),
                "--no-config",
                "--baseline",
                str(baseline),
                "--no-baseline",
            ],
            capsys,
        )
        assert rc == 1
        assert "RPL001" in out

    def test_new_findings_still_fail(self, tmp_path: Path, capsys) -> None:
        target = self._dirty(tmp_path)
        baseline = tmp_path / "baseline.json"
        run_cli(
            [
                str(target),
                "--no-config",
                "--baseline",
                str(baseline),
                "--write-baseline",
            ],
            capsys,
        )
        (tmp_path / "src/repro/runtime/y.py").write_text(
            "import random\nrandom.randint(0, 2)\n", encoding="utf-8"
        )
        rc, out = run_cli(
            [str(target), "--no-config", "--baseline", str(baseline)],
            capsys,
        )
        assert rc == 1
        assert "y.py" in out


class TestIncrementalCache:
    def test_cache_round_trip_serves_stored_findings(
        self, tmp_path: Path, capsys
    ) -> None:
        """Prove the second run is served from the cache by poisoning
        the stored entries and watching the poison come back."""
        write_project(
            tmp_path,
            {
                "src/repro/runtime/x.py": (
                    "import random\nrandom.random()\n"
                )
            },
        )
        target = str(tmp_path / "src/repro")
        cache = tmp_path / "cache.json"
        rc, out = run_cli(
            [target, "--no-config", "--cache", str(cache)], capsys
        )
        assert rc == 1 and cache.is_file()
        data = json.loads(cache.read_text())
        for entries in data["entries"].values():
            for entry in entries:
                entry["message"] = "FROM-THE-CACHE"
        cache.write_text(json.dumps(data), encoding="utf-8")
        rc, out = run_cli(
            [target, "--no-config", "--cache", str(cache)], capsys
        )
        assert rc == 1
        assert "FROM-THE-CACHE" in out

    def test_content_change_invalidates(
        self, tmp_path: Path, capsys
    ) -> None:
        write_project(
            tmp_path,
            {
                "src/repro/runtime/x.py": (
                    "import random\nrandom.random()\n"
                )
            },
        )
        target = str(tmp_path / "src/repro")
        cache = tmp_path / "cache.json"
        run_cli([target, "--no-config", "--cache", str(cache)], capsys)
        data = json.loads(cache.read_text())
        for entries in data["entries"].values():
            for entry in entries:
                entry["message"] = "FROM-THE-CACHE"
        cache.write_text(json.dumps(data), encoding="utf-8")
        # content change: the poisoned entries must not be served
        (tmp_path / "src/repro/runtime/x.py").write_text(
            "import random\nrandom.randint(1, 5)\n", encoding="utf-8"
        )
        rc, out = run_cli(
            [target, "--no-config", "--cache", str(cache)], capsys
        )
        assert rc == 1
        assert "FROM-THE-CACHE" not in out
        assert "randint" in out or "RPL001" in out

    def test_corrupt_cache_is_ignored(self, tmp_path: Path, capsys) -> None:
        write_project(tmp_path, {"src/repro/ok.py": "X = 1\n"})
        cache = tmp_path / "cache.json"
        cache.write_text("{not json", encoding="utf-8")
        rc, _ = run_cli(
            [
                str(tmp_path / "src/repro"),
                "--no-config",
                "--cache",
                str(cache),
            ],
            capsys,
        )
        assert rc == 0


# ----------------------------------------------------------------------
# self-check: the real tree against the real config
# ----------------------------------------------------------------------
class TestRealTreeSelfCheck:
    REPO_ROOT = Path(__file__).resolve().parent.parent

    def test_src_repro_clean_with_project_rules(self) -> None:
        from repro_lint.config import load_config

        config = load_config(self.REPO_ROOT / "pyproject.toml")
        findings = lint_paths(
            [self.REPO_ROOT / "src" / "repro"],
            config,
            select=["RPL008", "RPL009", "RPL010"],
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_baseline_entries_are_current(self) -> None:
        """Every committed baseline entry still matches a real finding —
        stale entries mean the underlying code was fixed and the
        baseline should be refreshed."""
        from repro_lint.config import load_config
        from repro_lint.core import fingerprint

        config = load_config(self.REPO_ROOT / "pyproject.toml")
        baseline_path = Path(config.baseline_file)
        assert baseline_path.is_file()
        recorded = {
            e["fingerprint"]
            for e in json.loads(baseline_path.read_text())["findings"]
        }
        live = lint_paths(
            [self.REPO_ROOT / "src" / "repro"], config, baseline=set()
        )
        live_fps = {fingerprint(f) for f in live}
        assert recorded == live_fps
