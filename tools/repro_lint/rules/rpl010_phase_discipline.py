"""RPL010 — shared-memory phase discipline (whole-program).

The process backend maps ``Worker.dv`` and ``Worker.local_apsp`` into
shared memory; kernels on the pool mutate them concurrently with the
coordinator process.  The protocol that keeps this race-free is
structural: arrays are only written during declared *phases* —
coordinator-side phases run while no kernel is in flight, and
kernel-phase functions receive the arrays as parameters (never through
``self``), so the backend controls exactly which memory they touch.

RPL010 makes the protocol machine-checked against the effect
summaries.  A *mutation* is a subscript store, an attribute rebind, an
in-place numpy call (``fill_diagonal``/``copyto``/``out=``/``.fill()``)
— including through local aliases and views — or passing a shared
array into a callee parameter the callee mutates (interprocedurally).

Four findings:

1. a function with a shared-array mutation that is not registered in
   the phase registry (``[tool.repro-lint.phase-registry]``) — an
   undeclared writer is a latent race with the process backend;
2. a ``kernel``-phase function mutating an attribute-rooted shared
   array — kernels must stay location-transparent (arrays arrive as
   parameters; ``self.dv`` would bypass the backend's shared-memory
   adoption);
3. a ``kernel``-phase function calling a mutator registered in a
   non-kernel phase — coordinator-phase writes must never run under a
   kernel;
4. a registry key that matches no linted function — a stale entry
   declares a phase for code that no longer exists (or was renamed),
   so the registry stops describing the tree.  Reported against
   ``pyproject.toml``; lint the whole target tree to check it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional

from ..callgraph import FunctionInfo, ProjectContext
from ..core import Finding, ProjectRule, Registry
from ..summaries import effects_for


def _matches(key: str, suffix: str) -> bool:
    return key == suffix or key.endswith("." + suffix)


def _phase_of(
    project: ProjectContext, fn: FunctionInfo
) -> Optional[str]:
    """Registered phase for a function, by qualname-suffix match."""
    registry = project.config.phase_registry
    for suffix, phase in registry.items():
        if _matches(fn.key, suffix):
            return str(phase)
    return None


@Registry.register
class PhaseDisciplineRule(ProjectRule):
    code = "RPL010"
    name = "phase-discipline"
    description = (
        "shared worker arrays (dv/local_apsp) may only be mutated by"
        " functions registered in the phase registry, and kernel-phase"
        " functions must stay location-transparent; an undeclared"
        " writer is a latent race under the process backend"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        effects = effects_for(project)
        for key in sorted(project.functions):
            fn = project.functions[key]
            if not project.config.in_target(fn.path):
                continue
            summary = effects.summaries[key]
            phase = _phase_of(project, fn)
            if summary.mutations and phase is None:
                seen = set()
                for site in summary.mutations:
                    marker = (site.array, getattr(site.node, "lineno", 0))
                    if marker in seen:
                        continue
                    seen.add(marker)
                    how = (
                        f" (via {site.via.split(':', 1)[1]})"
                        if site.via.startswith("callee:")
                        else ""
                    )
                    yield self.finding_at(
                        fn.path,
                        site.node,
                        self.code,
                        f"{fn.qualname} mutates shared array"
                        f" '{site.array}'{how} but is not registered in"
                        " the phase registry; declare its phase in"
                        " [tool.repro-lint.phase-registry] or move the"
                        " write into a registered phase function",
                    )
            if phase == "kernel":
                for site in summary.mutations:
                    yield self.finding_at(
                        fn.path,
                        site.node,
                        self.code,
                        f"kernel-phase {fn.qualname} mutates"
                        f" '{site.array}' through an attribute; kernels"
                        " must receive arrays as parameters (location"
                        " transparency) so the backend controls the"
                        " shared-memory mapping",
                    )
                yield from self._check_kernel_calls(project, effects, fn)
        for suffix in sorted(project.config.phase_registry):
            if not any(_matches(key, suffix) for key in project.functions):
                yield self.finding_at(
                    Path("pyproject.toml"),
                    None,
                    self.code,
                    f"phase-registry key '{suffix}' matches no function;"
                    " remove or rename the stale entry in"
                    " [tool.repro-lint.phase-registry]",
                )

    def _check_kernel_calls(
        self, project: ProjectContext, effects, fn: FunctionInfo
    ) -> Iterator[Finding]:
        for site in project.call_sites.get(fn.key, []):
            for tgt in site.targets:
                callee = project.functions.get(tgt)
                if callee is None:
                    continue
                callee_phase = _phase_of(project, callee)
                if callee_phase is None or callee_phase == "kernel":
                    continue
                tsum = effects.summaries[tgt]
                if not (tsum.mutations or tsum.mutated_params):
                    continue
                yield self.finding_at(
                    fn.path,
                    site.node,
                    self.code,
                    f"kernel-phase {fn.qualname} calls"
                    f" {callee.qualname}, a mutator registered in phase"
                    f" '{callee_phase}'; coordinator-phase writes must"
                    " not run while a kernel holds the shared arrays",
                )
