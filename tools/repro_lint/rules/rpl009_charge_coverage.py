"""RPL009 — LogP charge coverage (whole-program).

RPL004 flags a send primitive with no charge *in the same body* —
sound only for straight-line code.  The runtime increasingly factors
exchange paths into helpers (``Worker.receive_packet``, recovery
re-sends, speculative re-execution), where the charge legitimately
lives in the caller or in a callee.  RPL009 checks the property that
actually matters: **every call path from an entry point to a payload
copy passes a LogP charge**.

Using the effect summaries, a send site inside function ``f`` is
covered when either

* ``f`` *may charge* — its own body or any transitively reachable
  callee charges the modeled clock (least fixpoint), or
* every caller of ``f`` (transitively, greatest fixpoint) may charge —
  the charge precedes the send further up the stack.

Anything else means some execution path ships words for free, and the
modeled-time results in the paper's LogP comparison become silently
optimistic.  Path-insensitivity is deliberate: a function that charges
*somewhere* is treated as covered, matching RPL004's contract.
"""

from __future__ import annotations

from typing import Iterator

from ..callgraph import ProjectContext
from ..core import Finding, ProjectRule, Registry
from ..summaries import effects_for


@Registry.register
class ChargeCoverageRule(ProjectRule):
    code = "RPL009"
    name = "charge-coverage"
    description = (
        "every call path from a boundary-exchange entry point to a"
        " payload copy must pass a LogP charge; an uncharged path makes"
        " the modeled communication time silently optimistic"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        effects = effects_for(project)
        for key in sorted(project.functions):
            fn = project.functions[key]
            if not project.config.in_wire_package(fn.path):
                continue
            summary = effects.summaries[key]
            if not summary.send_sites:
                continue
            if summary.may_charge:
                continue
            if effects.covered_by_callers(key):
                continue
            callers = project.callers.get(key, set())
            via = (
                "and no caller charges before reaching it"
                if callers
                else "and it has no charging caller (entry point)"
            )
            for send in summary.send_sites:
                yield self.finding_at(
                    fn.path,
                    send.node,
                    self.code,
                    f"payload copy '{send.primitive}' in {fn.qualname}"
                    f" is reachable without a LogP charge: the function"
                    f" never charges the modeled clock {via}; route the"
                    " transfer through charge_comm_words/add_comm",
                )
