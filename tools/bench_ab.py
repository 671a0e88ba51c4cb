#!/usr/bin/env python3
"""Paired A/B of two commits on the e2e wall-clock benchmark.

Usage::

    python tools/bench_ab.py BASE HEAD --workload W
        [--pairs 10] [--seed 1] [--claim METRIC]

Exports both commits (``git archive``, so nothing is left in ``.git``
and uncommitted work can be judged as ``$(git stash create)``) into
temporary directories and runs ``--pairs`` pairs of each side's own,
unmodified ``benchmarks/e2e/run.py --workload W --seed S --seconds N
--trace 0``, alternating which side goes first.  ``N`` and the
end-to-end metrics with their bounds come from ``BENCHMARK.json``.

A run that ends with a failed operation or a wrong answer (exit 1 after
its result line) is a sample like any other and is judged by the failed
share below; a run with no result (harness error, crash) aborts the A/B.

Prints, per end-to-end metric, both medians, both quartile pairs and
wins/pairs, and exits 1 when

* any metric's HEAD median is worse than BASE's by more than its bound,
  or HEAD failed a larger share of operations, or
* ``--claim METRIC`` is given and the gain rule (``choosing-metrics``
  section 8) is not met: at least ten pairs, HEAD better in at least
  nine tenths of all pairs run (ties count for neither side), and the
  medians apart by more than the distance between BASE's own quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

__all__ = [
    "ClaimVerdict",
    "failed_verdict",
    "judge_claim",
    "main",
    "parse_result",
    "quartiles",
    "worse_by",
]

#: pairs below which no gain may be claimed
MIN_CLAIM_PAIRS = 10

_RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class ClaimVerdict(NamedTuple):
    """Outcome of the gain rule on one metric's paired samples."""

    pairs: int
    wins: int
    losses: int
    base_median: float
    head_median: float
    base_iqr: float
    met: bool


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge_claim(
    base: Sequence[float], head: Sequence[float], better: str
) -> ClaimVerdict:
    """The gain rule on paired samples (``base[i]`` ran beside ``head[i]``).

    ``better`` is ``"lower"`` or ``"higher"``.  Ties are pairs run that
    neither side wins, so they count against the nine-tenths share.
    """
    if len(base) != len(head) or not base:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    q1, base_median, q3 = quartiles(base)
    head_median = quartiles(head)[1]
    met = (
        len(base) >= MIN_CLAIM_PAIRS
        and 10 * wins >= 9 * len(base)
        and sign * (head_median - base_median) > q3 - q1
    )
    return ClaimVerdict(
        len(base), wins, losses, base_median, head_median, q3 - q1, met
    )


def worse_by(base_median: float, head_median: float, better: str) -> float:
    """How much worse HEAD's median is, as a share of BASE's (<= 0: not)."""
    if base_median == 0:
        return 0.0 if head_median == base_median else float("inf")
    change = (head_median - base_median) / abs(base_median)
    return change if better == "lower" else -change


def failed_verdict(
    base: Sequence[Dict[str, Any]], head: Sequence[Dict[str, Any]]
) -> Tuple[float, float, int, bool]:
    """``(base share, head share, head wrong answers, HEAD is worse)``.

    The share is failed over attempted operations across a side's runs;
    HEAD is worse when its share is larger or any of its runs reported a
    wrong answer.
    """
    shares = [
        sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
        for runs in (base, head)
    ]
    incorrect = sum(not r["correct"] for r in head)
    return shares[0], shares[1], incorrect, shares[1] > shares[0] or incorrect > 0


# ----------------------------------------------------------------------
# running the two sides
# ----------------------------------------------------------------------
def _export(commit: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", "--format=tar", commit],
        check=True, capture_output=True,
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def parse_result(returncode: int, stdout: str) -> Dict[str, Any]:
    """The result object of one benchmark run (its last stdout line).

    Exit 1 with a result line is a run that finished with a failed
    operation or a wrong answer: it is returned, so the failed-share rule
    can judge it.  Anything else — exit 2 (harness error), 3 (no
    program), a crash, no parsable line — is a ``RuntimeError``.
    """
    lines = stdout.strip().splitlines()
    result: Any = None
    if returncode in (0, 1) and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if not isinstance(result, dict) or not _RESULT_KEYS <= result.keys():
        raise RuntimeError(f"benchmark exited {returncode} without a result line")
    return result


def _run_once(
    checkout: Path, command: List[str], workload: str, seed: int, seconds: float
) -> Dict[str, Any]:
    """One untraced benchmark run."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    try:
        return parse_result(proc.returncode, proc.stdout)
    except RuntimeError as exc:
        raise RuntimeError(f"{checkout.name}: {exc}\n{proc.stderr}") from exc


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", metavar="BASE", help="parent commit")
    ap.add_argument("head", metavar="HEAD", help="commit under test")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, default=MIN_CLAIM_PAIRS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--claim", choices=sorted(metrics), metavar="METRIC",
                    help="end-to-end metric HEAD claims to improve")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    sides = ("base", "head")
    runs: Dict[str, List[Dict[str, Any]]] = {s: [] for s in sides}
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        checkouts = {s: Path(tmp) / s for s in sides}
        for side in sides:
            checkouts[side].mkdir()
            _export(getattr(args, side), checkouts[side])
        for pair in range(args.pairs):
            for side in sides if pair % 2 == 0 else sides[::-1]:
                runs[side].append(_run_once(
                    checkouts[side], spec["command"], args.workload,
                    args.seed, spec["run_seconds"],
                ))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload}  seed {args.seed}  {args.pairs} pairs"
          f"  base={args.base}  head={args.head}")
    print(f"{'metric':14s} {'base median [q1, q3]':32s}"
          f" {'head median [q1, q3]':32s} {'head wins':>9s}  change")
    failed = False
    claim_judged = args.claim is None
    for name, meta in metrics.items():
        samples = {
            s: [r["metrics"][name]["value"] for r in runs[s]
                if name in r["metrics"]]
            for s in sides
        }
        if len(samples["base"]) != args.pairs or len(samples["head"]) != args.pairs:
            continue  # the workload does not report this metric
        verdict = judge_claim(samples["base"], samples["head"], meta["better"])
        worse = worse_by(verdict.base_median, verdict.head_median, meta["better"])
        notes = []
        if worse > meta["bound"]:
            notes.append(f"WORSE by more than the {meta['bound']:.0%} bound")
            failed = True
        if name == args.claim:
            claim_judged = True
            notes.append(
                f"claim {'MET' if verdict.met else 'NOT MET'} (median gap"
                f" {abs(verdict.head_median - verdict.base_median):.5g} vs base"
                f" IQR {verdict.base_iqr:.5g})"
            )
            failed |= not verdict.met
        print(f"{name:14s} {_fmt(quartiles(samples['base'])):32s}"
              f" {_fmt(quartiles(samples['head'])):32s}"
              f" {verdict.wins:4d}/{verdict.pairs:<4d}"
              f"  {worse if meta['better'] == 'lower' else -worse:+.1%}"
              f" {meta['unit']}  {'; '.join(notes)}")
    if not claim_judged:
        print(f"claim NOT MET: {args.workload} does not report {args.claim}")
        failed = True
    base_share, head_share, incorrect, ops_worse = failed_verdict(
        runs["base"], runs["head"]
    )
    print(f"failed ops: base {base_share:.2%}, head {head_share:.2%};"
          f" head runs with a wrong answer: {incorrect}")
    failed |= ops_worse
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
