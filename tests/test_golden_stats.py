"""Golden-statistics regression snapshots.

The full :meth:`SimStats.to_dict` payload of three small workloads, under
the baseline ABI, CARS, and the three rival plugin arms (RegDem, the
register-file cache, and static register compression), is pinned in
``tests/golden/``.  Any timing-model
change that shifts a cycle count, a cache counter, or a CPI bucket shows
up here as a readable diff instead of a silent drift in the paper
figures.

Intentional changes are re-baselined with::

    pytest tests/test_golden_stats.py --update-golden

which rewrites the snapshots from the current simulator (review the git
diff of ``tests/golden/`` like any other code change).
"""

import json
from pathlib import Path

import pytest

from repro.core.techniques import BASELINE, CARS
from repro.harness._runner import run_workload
from repro.spill import REGCOMP, REGDEM, RFCACHE
from repro.workloads import make_workload

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Small, fast workloads covering the three bottleneck classes.
GOLDEN_WORKLOADS = ("SSSP", "MST", "FIB")
GOLDEN_TECHNIQUES = {
    "baseline": BASELINE,
    "cars": CARS,
    "regdem": REGDEM,
    "rfcache": RFCACHE,
    "regcomp": REGCOMP,
}


def _flat_diff(expected, actual, prefix=""):
    """Human-readable key-level differences between two nested dicts."""
    diffs = []
    for key in sorted(set(expected) | set(actual)):
        path = f"{prefix}{key}"
        if key not in expected:
            diffs.append(f"  {path}: (absent) -> {actual[key]!r}")
        elif key not in actual:
            diffs.append(f"  {path}: {expected[key]!r} -> (absent)")
        elif isinstance(expected[key], dict) and isinstance(actual[key], dict):
            diffs.extend(_flat_diff(expected[key], actual[key], f"{path}."))
        elif expected[key] != actual[key]:
            diffs.append(f"  {path}: {expected[key]!r} -> {actual[key]!r}")
    return diffs


# Cell ids lead with the timing core the snapshots pin ("event", the
# event-driven GPU), e.g. ``test_stats_match_golden[event-FIB-cars]``.
@pytest.mark.parametrize("technique_name", sorted(GOLDEN_TECHNIQUES))
@pytest.mark.parametrize("workload_name", GOLDEN_WORKLOADS,
                         ids=lambda name: f"event-{name}")
def test_stats_match_golden(workload_name, technique_name, request):
    result = run_workload(
        make_workload(workload_name), GOLDEN_TECHNIQUES[technique_name]
    )
    actual = result.stats.to_dict()
    path = GOLDEN_DIR / f"{workload_name}_{technique_name}.json"

    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        return

    assert path.exists(), (
        f"missing snapshot {path.name}; generate it with "
        f"`pytest {Path(__file__).name} --update-golden`"
    )
    expected = json.loads(path.read_text())
    if expected != actual:
        diffs = _flat_diff(expected, actual)
        pytest.fail(
            f"{path.name} drifted ({len(diffs)} fields; intentional "
            f"changes: rerun with --update-golden):\n" + "\n".join(diffs[:40])
        )


def test_golden_snapshots_conserve_cycles():
    """The pinned snapshots themselves satisfy the CPI invariant (guards
    against hand-edited or stale golden files)."""
    # cli_*.json are the CLI payload snapshots (tests/test_golden_cli.py)
    # and trace_digests.json the emulator digests (tests/test_differential.py),
    # not SimStats dumps; only the latter carry a CPI stack.
    paths = sorted(p for p in GOLDEN_DIR.glob("*.json")
                   if not p.name.startswith("cli_")
                   and p.name != "trace_digests.json")
    assert paths, "no golden snapshots checked in"
    for path in paths:
        data = json.loads(path.read_text())
        assert sum(data["cpi_stack"].values()) == data["cycles"], path.name
