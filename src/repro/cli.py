"""Command-line interface: regenerate any figure of the paper.

Examples::

    python -m repro figure5
    python -m repro figure8 --n-base 800 --nprocs 16
    python -m repro all --markdown --out results.md
    python -m repro partition --n 1000 --nparts 8
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from .bench.reporting import format_table, summary_rows, to_markdown
from .bench.scenarios import (
    ScenarioScale,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    scaling,
)
from .runtime.backends import available_backends
from .runtime.kernels import available_tiers

__all__ = ["main", "build_parser"]

_FIG_COLUMNS = {
    "figure4": ["inject_step", "strategy", "modeled_minutes", "rc_steps",
                "new_cut_edges", "wall_seconds"],
    "figure5": ["batch_size", "strategy", "modeled_minutes", "rc_steps",
                "new_cut_edges", "wall_seconds"],
    "figure6": ["batch_size", "strategy", "modeled_minutes", "rc_steps",
                "new_cut_edges", "wall_seconds"],
    "figure7": ["batch_size", "strategy", "new_cut_edges"],
    "figure8": ["per_step", "cumulative", "strategy", "modeled_minutes",
                "rc_steps", "wall_seconds"],
    "scaling": ["nprocs", "modeled_seconds", "comm_seconds", "comm_fraction",
                "speedup", "rc_steps"],
}

_FIGS: Dict[str, Callable[..., List[dict]]] = {
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "scaling": scaling,
}


def _add_chaos_args(p: argparse.ArgumentParser) -> None:
    """The seeded fault-injection / self-healing flag group."""
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="run under seeded fault injection (message loss"
                        " + duplication) to exercise the chaos metrics")
    p.add_argument("--chaos-crash", type=str, action="append", default=None,
                   metavar="STEP:RANK",
                   help="crash RANK at superstep STEP (repeatable);"
                        " implies fault injection")
    p.add_argument("--chaos-straggler", type=str, action="append",
                   default=None, metavar="RANK:FACTOR",
                   help="slow RANK down by FACTOR (repeatable);"
                        " implies fault injection")
    p.add_argument("--chaos-loss", type=float, default=None,
                   metavar="P", help="message loss probability")
    p.add_argument("--chaos-dup", type=float, default=None,
                   metavar="P", help="message duplication probability")
    p.add_argument("--recovery", type=str, default=None,
                   choices=["warm", "checkpoint", "redistribute",
                            "escalate"],
                   help="crash recovery policy (escalate climbs the"
                        " warm -> checkpoint -> redistribute ladder)")
    p.add_argument("--health", action="store_true",
                   help="attach the health monitor: deadline tracking,"
                        " speculative straggler mitigation, seeded"
                        " backoff, graceful degradation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the evaluation of 'Efficient Anytime Anywhere"
            " Algorithms for Vertex Additions in Large and Dynamic Graphs'"
            " (IPDPS-W 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n-base", type=int, default=None,
                       help="base graph size (default scenario scale)")
        p.add_argument("--nprocs", type=int, default=None,
                       help="simulated processors (paper: 16)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--small", action="store_true",
                       help="tiny smoke-test scale")
        p.add_argument("--verify", action="store_true",
                       help="validate final results against exact closeness")
        p.add_argument("--markdown", action="store_true",
                       help="emit a markdown table instead of plain text")
        p.add_argument("--out", type=str, default=None,
                       help="write the table to this file as well")

    for name in list(_FIGS) + ["all"]:
        p = sub.add_parser(
            name,
            help=(
                "run every figure" if name == "all"
                else f"regenerate the paper's {name}"
            ),
        )
        add_scale_args(p)

    pp = sub.add_parser("partition", help="partition a random graph and report quality")
    pp.add_argument("--n", type=int, default=1000)
    pp.add_argument("--m", type=int, default=3)
    pp.add_argument("--nparts", type=int, default=8)
    pp.add_argument("--seed", type=int, default=0)

    tp = sub.add_parser(
        "trace",
        help="run a dynamic analysis and print the per-phase time breakdown",
    )
    tp.add_argument("--n-base", type=int, default=400)
    tp.add_argument("--batch", type=int, default=40,
                    help="vertices added at the injection step")
    tp.add_argument("--inject-step", type=int, default=2)
    tp.add_argument("--nprocs", type=int, default=8)
    tp.add_argument("--strategy", type=str, default="cutedge")
    tp.add_argument("--seed", type=int, default=7)
    tp.add_argument("--backend", type=str, default=None,
                    choices=available_backends(),
                    help="execution backend (default: REPRO_BACKEND or"
                         " serial); results are bitwise-identical either"
                         " way, only wall time differs")
    tp.add_argument("--kernel-tier", type=str, default=None,
                    choices=available_tiers(),
                    help="kernel tier (default: REPRO_KERNEL_TIER or"
                         " numpy); scipy chunks the IA Dijkstra across"
                         " the process pool")
    tp.add_argument("--json", type=str, default=None,
                    help="also dump the full trace to this JSON file")
    tp.add_argument("--trace-out", type=str, action="append", default=None,
                    metavar="FORMAT:PATH",
                    help="attach a trace exporter (repeatable):"
                         " jsonl:PATH, perfetto:PATH, or prom:PATH")
    tp.add_argument("--probe-convergence", action="store_true",
                    help="attach the per-superstep convergence probe")
    _add_chaos_args(tp)

    fp = sub.add_parser(
        "profile",
        help="fold an exported JSONL trace into deterministic"
             " cost-attribution tables: modeled time per phase, rank,"
             " and kernel tier, hot paths, wall-vs-modeled skew",
    )
    fp.add_argument("trace", type=str,
                    help="path to a jsonl trace written by --trace-out")
    fp.add_argument("--top", type=int, default=10,
                    help="hot paths to keep (default 10)")
    fp.add_argument("--json", type=str, default=None,
                    help="also dump the folded profile as JSON")
    fp.add_argument("--perfetto-out", type=str, default=None,
                    help="write the aggregated Perfetto view (one slice"
                         " per phase, one track per rank)")
    fp.add_argument("--no-wall", action="store_true",
                    help="omit the wall-clock annotation columns and the"
                         " skew section (fully deterministic output)")
    fp.add_argument("--out", type=str, default=None,
                    help="write the rendered profile to this file as well")

    rp = sub.add_parser(
        "report",
        help="render a run's exported JSONL trace into a per-phase and"
             " convergence summary",
    )
    rp.add_argument("trace", type=str,
                    help="path to a jsonl trace written by --trace-out")
    rp.add_argument("--out", type=str, default=None,
                    help="write the report to this file as well")

    vp = sub.add_parser(
        "serve",
        help="drive the streaming update service over a churn trace:"
             " admission-batched feed, signal-driven strategy selection,"
             " periodic report-style summaries",
    )
    vp.add_argument("--shape", type=str, default=None,
                    choices=["bursty-communities", "skew-grow",
                             "steady-small"],
                    help="synthesize a churn trace of this shape")
    vp.add_argument("--trace", type=str, default=None,
                    help="replay a JSONL change trace file instead of"
                         " synthesizing one (the base graph is rebuilt"
                         " from --n-base/--seed)")
    vp.add_argument("--n-base", type=int, default=120,
                    help="base graph size (barabasi-albert, m=2)")
    vp.add_argument("--ticks", type=int, default=24,
                    help="service ticks the synthesized trace spans")
    vp.add_argument("--nprocs", type=int, default=8)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--strategy", type=str, default="auto",
                    help="strategy name for admitted batches; 'auto'"
                         " picks per batch from live signals")
    vp.add_argument("--backend", type=str, default=None,
                    choices=available_backends())
    vp.add_argument("--kernel-tier", type=str, default=None,
                    choices=available_tiers())
    vp.add_argument("--max-events", type=int, default=8,
                    help="admission: full-batch size trigger")
    vp.add_argument("--max-delay-ticks", type=int, default=4,
                    help="admission: staleness bound in service ticks")
    vp.add_argument("--summary-every", type=int, default=8,
                    help="emit a report-style summary every N ticks"
                         " (0 = only the final one)")
    vp.add_argument("--save-trace", type=str, default=None,
                    help="write the synthesized trace as JSONL and exit")
    vp.add_argument("--out", type=str, default=None,
                    help="write the serve log to this file as well")
    vp.add_argument("--trace-out", type=str, action="append", default=None,
                    metavar="FORMAT:PATH",
                    help="attach a trace exporter (repeatable):"
                         " jsonl:PATH, perfetto:PATH, or prom:PATH")
    vp.add_argument("--slo", type=str, default=None, metavar="SPECS.json",
                    help="load SLO specs and judge every tick; alert"
                         " transitions print as canonical slo= lines")
    vp.add_argument("--slo-out", type=str, default=None, metavar="PATH",
                    help="write the alert transitions as trace-event"
                         " JSONL (schema-validatable)")
    _add_chaos_args(vp)
    return parser


def _parse_pairs(
    specs: Optional[List[str]], flag: str, second: type
) -> tuple:
    """Parse repeatable ``A:B`` pair flags like ``--chaos-crash 2:1``."""
    out = []
    for spec in specs or []:
        try:
            a, b = spec.split(":", 1)
            out.append((int(a), second(b)))
        except ValueError:
            raise SystemExit(
                f"{flag} expects A:B (got {spec!r})"
            ) from None
    return tuple(out)


def _fault_plan_from_args(args: argparse.Namespace):
    """Build a FaultPlan from the --chaos-* flags, or None if absent."""
    crashes = _parse_pairs(args.chaos_crash, "--chaos-crash", int)
    stragglers = _parse_pairs(
        args.chaos_straggler, "--chaos-straggler", float
    )
    # --chaos-seed alone keeps its historical meaning: a light mixed
    # loss/duplication plan for exercising the chaos metrics
    implied = crashes or stragglers or (
        args.chaos_loss is not None or args.chaos_dup is not None
    )
    if args.chaos_seed is None and not implied:
        return None
    from .runtime.chaos import FaultPlan

    if implied:
        loss = args.chaos_loss or 0.0
        dup = args.chaos_dup or 0.0
    else:
        loss, dup = 0.05, 0.05
    return FaultPlan(
        seed=args.chaos_seed if args.chaos_seed is not None else 0,
        crashes=crashes,
        stragglers=stragglers,
        loss_prob=loss,
        dup_prob=dup,
    )


def _scale_from_args(args: argparse.Namespace) -> ScenarioScale:
    scale = ScenarioScale.small() if args.small else ScenarioScale()
    overrides = {}
    if args.n_base is not None:
        overrides["n_base"] = args.n_base
    if args.nprocs is not None:
        overrides["nprocs"] = args.nprocs
    if args.seed is not None:
        overrides["seed"] = args.seed
    return replace(scale, **overrides) if overrides else scale


def _emit(name: str, rows: List[dict], args: argparse.Namespace) -> str:
    cols = _FIG_COLUMNS[name]
    if not args.verify and "max_error" in cols:
        cols = [c for c in cols if c != "max_error"]
    table = to_markdown(rows, cols) if args.markdown else format_table(rows, cols)
    return f"== {name} ==\n{table}\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "partition":
        from .graph.generators import barabasi_albert
        from .partition import (
            BFSGrowingPartitioner,
            HashPartitioner,
            MultilevelPartitioner,
            RoundRobinPartitioner,
            SpectralPartitioner,
            partition_report,
        )

        g = barabasi_albert(args.n, args.m, seed=args.seed)
        rows = []
        for part in (
            MultilevelPartitioner(seed=args.seed),
            SpectralPartitioner(seed=args.seed),
            BFSGrowingPartitioner(seed=args.seed),
            HashPartitioner(),
            RoundRobinPartitioner(),
        ):
            rep = partition_report(g, part.partition(g, args.nparts))
            rows.append(
                {
                    "partitioner": part.name,
                    "edge_cut": rep["edge_cut"],
                    "balance": rep["balance"],
                    "cut_imbalance": rep["cut_imbalance"],
                }
            )
        print(format_table(rows))
        return 0

    if args.command == "profile":
        from .obs import load_events
        from .obs.profile import (
            dump_profile,
            fold_events,
            profile_to_perfetto,
            render_profile,
        )

        prof = fold_events(load_events(args.trace), top=args.top)
        text = render_profile(prof, include_wall=not args.no_wall)
        print(text, end="")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        if args.json:
            dump_profile(prof, args.json, include_wall=not args.no_wall)
            print(f"profile written to {args.json}")
        if args.perfetto_out:
            import json as _json

            with open(args.perfetto_out, "w", encoding="utf-8") as fh:
                _json.dump(profile_to_perfetto(prof), fh)
            print(f"aggregated perfetto view written to {args.perfetto_out}")
        return 0

    if args.command == "report":
        from .obs import load_events, render_report

        text = render_report(load_events(args.trace))
        print(text, end="")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0

    if args.command == "trace":
        from . import AnytimeAnywhereCloseness, AnytimeConfig, ResilienceConfig
        from .bench.workloads import community_workload

        workload = community_workload(
            args.n_base, args.batch, seed=args.seed,
            inject_step=args.inject_step,
        )
        cfg_kwargs: Dict[str, object] = {}
        if args.backend is not None:
            cfg_kwargs["backend"] = args.backend
        if args.kernel_tier is not None:
            cfg_kwargs["kernel_tier"] = args.kernel_tier
        observers: List[str] = list(args.trace_out or [])
        if args.probe_convergence:
            observers.append("convergence")
        if observers:
            cfg_kwargs["observers"] = tuple(observers)
        if args.health:
            from .runtime.health import HealthPolicy

            cfg_kwargs["health"] = HealthPolicy()
        fault_plan = _fault_plan_from_args(args)
        if fault_plan is not None or args.recovery is not None:
            cfg_kwargs["resilience"] = ResilienceConfig(
                recovery=args.recovery or "warm", fault_plan=fault_plan
            )
        with AnytimeAnywhereCloseness(
            workload.base,
            AnytimeConfig(nprocs=args.nprocs, seed=args.seed,
                          collect_snapshots=False, **cfg_kwargs),
        ) as engine:
            engine.setup()
            result = engine.run(
                changes=workload.stream, strategy=args.strategy,
            )
            tracer = engine.cluster.tracer
        rows = [
            {"phase": name, "modeled_seconds": secs}
            for name, secs in sorted(
                tracer.by_phase().items(), key=lambda t: -t[1]
            )
        ]
        print(format_table(rows))
        summary = result.summary()
        print(
            "\n"
            + format_table(
                summary_rows([result]),
                [
                    "rc_steps",
                    "modeled_seconds",
                    "wall_seconds",
                    "wire_format",
                    "wire_words",
                    "boundary_words",
                    "boundary_rows_dense",
                    "boundary_rows_sparse",
                ],
            )
        )
        print(
            f"\ntotal modeled {summary['modeled_seconds']:.4f}s over"
            f" {summary['rc_steps']} RC steps"
            f" ({tracer.total_messages} messages,"
            f" {summary['wire_words']:,} words on the wire);"
            f" wall {summary['wall_seconds']:.2f}s"
        )
        if result.faults_injected or result.retries:
            print(
                f"chaos: {result.faults_injected} faults injected,"
                f" {result.retries} retries,"
                f" {result.recoveries} recoveries"
            )
        if result.recoveries_by_rung:
            rungs = ", ".join(
                f"{rung}={n} (mttr {result.mttr_by_rung[rung]:.4g}s)"
                for rung, n in sorted(result.recoveries_by_rung.items())
            )
            print(f"recovery ladder: {rungs}")
        if result.missed_deadlines or result.speculations:
            print(
                f"health: {result.missed_deadlines} missed deadlines,"
                f" {result.speculations} speculative re-executions,"
                f" {result.backoff_modeled_seconds:.4g}s modeled backoff"
            )
        if result.degraded:
            quality = ", ".join(
                f"{k}={v:.4g}" for k, v in sorted(result.quality.items())
            )
            print(
                f"DEGRADED ({result.degraded_reason}): partial anytime"
                f" result returned; quality: {quality}"
            )
        if result.convergence:
            for probe, sample in sorted(result.convergence.items()):
                pairs = ", ".join(
                    f"{k}={v:.4g}" for k, v in sorted(sample.items())
                )
                print(f"{probe}: {pairs}")
        for spec in observers:
            if ":" in spec:
                print(f"trace exported to {spec}")
        if args.json:
            tracer.save(args.json)
            print(f"full trace written to {args.json}")
        return 0

    if args.command == "serve":
        from . import AnytimeConfig
        from .graph.generators import barabasi_albert
        from .serve import (
            HybridAdmission,
            load_change_trace,
            save_change_trace,
            session,
            synthesize_churn,
        )

        if (args.shape is None) == (args.trace is None):
            raise SystemExit("serve needs exactly one of --shape / --trace")
        if args.shape is not None:
            churn = synthesize_churn(
                args.shape, n_base=args.n_base, ticks=args.ticks,
                seed=args.seed,
            )
            base, events, ticks = churn.base, list(churn.events), churn.ticks
        else:
            events = load_change_trace(args.trace)
            base = barabasi_albert(args.n_base, 2, seed=args.seed)
            ticks = max((t for t, _ in events), default=0) + 1
        if args.save_trace:
            save_change_trace(args.save_trace, events)
            print(f"trace written to {args.save_trace} ({len(events)} events)")
            return 0

        cfg_kwargs = {}
        if args.backend is not None:
            cfg_kwargs["backend"] = args.backend
        if args.kernel_tier is not None:
            cfg_kwargs["kernel_tier"] = args.kernel_tier
        if args.trace_out:
            cfg_kwargs["observers"] = tuple(args.trace_out)
        if args.health:
            from .runtime.health import HealthPolicy

            cfg_kwargs["health"] = HealthPolicy()
        fault_plan = _fault_plan_from_args(args)
        if fault_plan is not None or args.recovery is not None:
            from . import ResilienceConfig

            cfg_kwargs["resilience"] = ResilienceConfig(
                recovery=args.recovery or "warm", fault_plan=fault_plan
            )
        slo_specs = None
        if args.slo is not None:
            from .obs.slo import load_slo_specs

            slo_specs = load_slo_specs(args.slo)
        config = AnytimeConfig(
            nprocs=args.nprocs, seed=args.seed, collect_snapshots=False,
            **cfg_kwargs,
        )
        lines: List[str] = []
        if slo_specs is not None:
            for spec in slo_specs:
                lines.append(f"slo loaded: {spec.describe()}")
        with session(
            base, config,
            admission=HybridAdmission(args.max_events, args.max_delay_ticks),
            strategy=args.strategy,
            summary_interval=args.summary_every,
            slo=slo_specs,
        ) as s:
            svc = s.service
            for t in range(ticks):
                at_t = [ev for at, ev in events if at == t]
                if at_t:
                    s.feed(at_t)
                seen = len(svc.summaries)
                alerts_seen = len(svc.slo_alerts)
                lines.append(s.step().line())
                for alert in svc.slo_alerts[alerts_seen:]:
                    lines.append(alert.line())
                for summ in svc.summaries[seen:]:
                    lines.extend(summ.lines())
            result = s.result()
            final = svc.summarize(result)
            alerts = list(svc.slo_alerts)
            slo_status = svc.slo.status() if svc.slo is not None else []
        lines.append("serve drained; final state:")
        lines.extend(final.lines()[1:])
        if slo_specs is not None:
            firing = [row["slo"] for row in slo_status
                      if row["state"] == "firing"]
            lines.append(
                f"slo: {len(alerts)} alert transition(s);"
                f" firing at exit: {', '.join(firing) if firing else 'none'}"
            )
            if args.slo_out:
                from .obs.events import SpanEvent

                with open(args.slo_out, "w", encoding="utf-8") as fh:
                    for i, alert in enumerate(alerts):
                        ev = SpanEvent(
                            seq=i, kind="alert", level="slo",
                            name=alert.slo, t=alert.t, step=alert.tick,
                            attrs=alert.attrs(),
                        )
                        fh.write(ev.to_json() + "\n")
                lines.append(f"slo alerts written to {args.slo_out}")
        text = "\n".join(lines) + "\n"
        print(text, end="")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0

    scale = _scale_from_args(args)
    names = list(_FIGS) if args.command == "all" else [args.command]
    output: List[str] = []
    fig5_rows: Optional[List[dict]] = None
    for name in names:
        fn = _FIGS[name]
        if name == "figure7":
            # figure 7 derives from a figure-5 sweep; reuse it when `all`
            # already ran one instead of repeating the experiment
            rows = fn(scale, rows=fig5_rows)
        else:
            rows = fn(scale, verify=args.verify)
            if name == "figure5":
                fig5_rows = rows
        output.append(_emit(name, rows, args))
    text = "\n".join(output)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
