"""Regenerate every paper table/figure and write EXPERIMENTS.md.

Usage::

    python -m repro regen [output.md] [--jobs N]

(The ``repro regen`` subcommand calls :func:`regenerate`; this module is
harness-internal plumbing, like :mod:`repro.harness._runner`.)

Set ``REPRO_WORKLOADS=smoke`` (or a comma list) to restrict scope.
Expect ~15-40 minutes for the full 22-workload suite on one core;
``--jobs N`` fans the sweep out over N worker processes.  Completed runs
persist in the content-addressed result store, so an interrupted sweep
resumes where it stopped and a warm rerun simulates nothing (the final
``executor:`` line reports the run counter).
"""

from __future__ import annotations

import sys
import time

from . import experiments as ex
from .executor import simulator_digest
from .tables import format_table


_PAPER_NOTES = {
    "fig2": "paper: spills/fills are 40.4% of in-core L1D accesses (V100 average)",
    "fig8": "paper: CARS geomean +26%, beating IdealVW / 10MB-L1 / Best-SWL",
    "fig9": "paper: spill/fill share of accesses drops by ~40 points; globals unchanged",
    "fig10": "paper: ALL-HIT tracks (and stays below) CARS on bandwidth-bound apps",
    "fig11": "paper: CARS raises PTA's average global bandwidth by 98%",
    "fig12": "paper: 35% average MPKI reduction",
    "fig13": "paper: spill/fill instruction share shrinks; CARS adds cheap stack ops",
    "fig14": "paper: over half of PTA kernels show no difference; only K1 context-switches",
    "fig15": "paper: 28% better energy efficiency (geomean)",
    "fig16": "paper: LTO +28% vs CARS +26%; LTO loses on front-end-pressured apps",
    "fig17": "paper: more L1 ports give the baseline only 1.02-1.03x; CARS stays ~1.28x",
    "fig18": "paper: CARS speedups are resilient on Ampere (MST flips to Low-watermark)",
    "tab1": "paper: Table I call depth / CPKI per workload",
    "tab2": "paper: Table II main speedup factor per workload",
    "tab3": "paper: only PTA traps: 0.014% of functions, 0.78 B spilled/filled per call",
    "rivals": "related work: RegDem (arXiv 1907.02894) and a register-file "
              "cache (arXiv 2310.17501) vs CARS on the identical model",
}


def generate_markdown() -> str:
    """Run every experiment and render EXPERIMENTS.md."""
    names = ex.workload_names()
    out = []
    out.append("# EXPERIMENTS — paper vs. measured (scaled simulator)\n")
    out.append(
        f"Workloads in scope: {', '.join(names)}\n\n"
        "All speedups are normalized to the baseline (spills/fills ABI) on\n"
        "the identical scaled configuration; see DESIGN.md for scaling and\n"
        "fidelity notes. Regenerate with `python -m repro regen`.\n"
    )

    def section(tag: str, title: str, body: str) -> None:
        out.append(f"\n## {title}\n")
        out.append(f"*{_PAPER_NOTES[tag]}*\n")
        out.append("```\n" + body + "```\n")

    section("fig2", "Fig 2 — Baseline L1D access mix",
            format_table(ex.fig2_baseline_access_mix(names)))
    out.append("\n## Fig 4 — Call-graph analysis example\n")
    out.append("*paper: Low-watermark 30 registers, High-watermark 56*\n")
    out.append("```\n" + str(ex.fig4_callgraph_example()) + "\n```\n")
    out.append("\n## Fig 5 — Dynamic reservation state machine demo\n")
    out.append("```\n" + str(ex.fig5_policy_demo()) + "\n```\n")
    out.append("\n## Fig 6 — Circular-stack wrap-around demo\n")
    out.append("```\n" + str(ex.fig6_wraparound_demo()) + "\n```\n")
    section("fig8", "Fig 8 — Performance vs idealized configurations",
            format_table(ex.fig8_performance(names)))
    section("fig9", "Fig 9 — Memory-access reduction with CARS",
            format_table(ex.fig9_access_reduction(names)))
    section("fig10", "Fig 10 — ALL-HIT study",
            format_table(ex.fig10_allhit(names)))
    fig11 = ex.fig11_bandwidth_timeline()
    section("fig11", "Fig 11 — PTA bandwidth timeline (averages)",
            format_table({
                "baseline": {"avg_global_sectors_per_cycle":
                             fig11["baseline_avg_global_bw"]},
                "cars": {"avg_global_sectors_per_cycle":
                         fig11["cars_avg_global_bw"]},
                "cars/baseline": {"avg_global_sectors_per_cycle":
                                  fig11["cars_avg_global_bw"]
                                  / max(1e-12, fig11["baseline_avg_global_bw"])},
            }))
    section("fig12", "Fig 12 — L1D MPKI", format_table(ex.fig12_mpki(names)))
    section("fig13", "Fig 13 — Instruction mix (normalized to baseline)",
            format_table(ex.fig13_instruction_mix(names)))
    section("fig14", "Fig 14 — PTA allocation mechanisms (per kernel)",
            format_table(ex.fig14_pta_allocation()))
    section("fig15", "Fig 15 — Energy efficiency",
            format_table(ex.fig15_energy(names)))
    section("fig16", "Fig 16 — Fully-inlined (LTO) vs CARS",
            format_table(ex.fig16_lto(names)))
    section("fig17", "Fig 17 — L1 bandwidth scaling",
            format_table(ex.fig17_port_scaling(names)))
    section("fig18", "Fig 18 — Ampere (RTX 3070-like)",
            format_table(ex.fig18_ampere(names)))
    section("tab1", "Table I — Workload characteristics",
            format_table(ex.table1_workloads(names)))
    section("tab2", "Table II — Main speedup factors",
            format_table(ex.table2_speedup_factors(names)))
    section("tab3", "Table III — Software-trap frequency/severity",
            format_table(ex.table3_trap_stats(names), float_fmt="{:.4f}"))
    section("rivals", "Rival arms — CARS vs RegDem vs register-file cache",
            format_table(ex.table_rivals(names)))

    # The footer names what produced the tables, not how long it took,
    # so a warm rerun writes the same bytes as the cold run.
    stats = ex.get_executor().stats
    out.append(
        f"\n---\nSimulator digest `{simulator_digest()}`; "
        f"{stats.executed + stats.store_hits} distinct cells "
        f"(simulated or read from the result store).\n"
    )
    return "".join(out)


def _progress(done: int, total: int, request, source: str) -> None:
    print(f"  [{done}/{total}] {request.workload:>14s} "
          f"{request.technique:<12s} ({source})", file=sys.stderr)


def regenerate(
    output: str = "EXPERIMENTS.md",
    *,
    jobs: int = 1,
    quiet: bool = False,
) -> None:
    """Write EXPERIMENTS.md to *output* over *jobs* worker processes;
    *quiet* drops per-run progress."""
    t0 = time.perf_counter()
    executor = ex.configure_executor(
        jobs=jobs, progress=None if quiet else _progress
    )
    markdown = generate_markdown()
    with open(output, "w") as handle:
        handle.write(markdown)
    print(f"wrote {output} in {time.perf_counter() - t0:.0f}s")
    print(f"executor: {executor.stats.summary()} "
          f"(store: {executor.store.info()['entries']} entries at "
          f"{executor.store.root})")
