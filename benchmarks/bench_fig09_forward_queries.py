"""Figure 9: the cost of forward queries.

Paper shape: with only forward queries (no updates), exploiting the GMR
is a factor ~4-5 gain, and cost grows linearly with the query count for
both versions.

The layout gate below additionally runs the sweep under both physical
GMR layouts and writes ``BENCH_fig09.json`` at the repository root so
the forward-query cost trajectory (rows vs. columnar) is tracked across
PRs, in simulated cost and in wall-clock seconds per point.  CI runs
this module as the perf-smoke job and fails when the columnar store's
gain over WithoutGMR drops below 5x, when columnar regresses the rows
layout on any sweep point, or when a keyed forward query with the GMR
is less than 3x faster in wall-clock than without it (same-run ratio,
so machine speed cancels out).
"""

import json
import os
import platform
import statistics
from time import perf_counter_ns

from _support import run_once, total_costs, total_seconds

from repro.bench.cuboid import CuboidApplication, CuboidConfig, run_figure09
from repro.bench.runner import WITH_GMR, WITHOUT_GMR
from repro.util.rng import DeterministicRng

_BENCH_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_fig09.json",
)

#: Columnar must beat the unsupported version by at least this factor
#: on total simulated cost (the ISSUE gate; rows measures ~17x and
#: columnar ~18x at smoke scale, so 5x leaves headroom for CI noise
#: without ever letting a real hot-path regression through).
COLUMNAR_MIN_GAIN = 5.0
#: Per-point tolerance for "columnar never loses to rows": the two
#: layouts share the page-cost model, so anything beyond rounding noise
#: is a genuine regression.
_EPS = 1e-6

_SWEEP = dict(cuboids=250, max_queries=200, step=50)

#: A keyed forward query (``c.CuboidID = k``) answered from the GMR must
#: be at least this much faster in wall-clock than direct evaluation.
#: The paper reports 4-5x (and so does the ROADMAP target); the gate
#: leaves headroom for machine noise and the measured ratio is recorded.
KEYED_MIN_GAIN = 3.0
_KEYED_WARMUP, _KEYED_ROUNDS = 50, 400


def keyed_query_us(cuboids: int) -> dict:
    """Median µs of the Fig. 9 keyed query, with and without the GMR.

    The two versions run interleaved on the same keys (alternating which
    goes first), so drift in machine speed hits both alike.
    """
    apps = {
        "with_gmr": CuboidApplication(WITH_GMR, CuboidConfig(cuboids=cuboids)),
        "without_gmr": CuboidApplication(WITHOUT_GMR, CuboidConfig(cuboids=cuboids)),
    }
    rngs = {name: DeterministicRng(11) for name in apps}
    samples: dict[str, list[float]] = {name: [] for name in apps}
    order = list(apps)
    for round_index in range(_KEYED_WARMUP + _KEYED_ROUNDS):
        for name in order:
            start = perf_counter_ns()
            apps[name].q_forward(rngs[name])
            elapsed = (perf_counter_ns() - start) / 1000.0
            if round_index >= _KEYED_WARMUP:
                samples[name].append(elapsed)
        order.reverse()
    medians = {name: statistics.median(values) for name, values in samples.items()}
    return {
        "cuboids": cuboids,
        "rounds": _KEYED_ROUNDS,
        "with_gmr": round(medians["with_gmr"], 1),
        "without_gmr": round(medians["without_gmr"], 1),
        "gain": round(medians["without_gmr"] / medians["with_gmr"], 2),
    }


def test_fig09_sweep(benchmark):
    result = run_once(benchmark, run_figure09, **_SWEEP)
    totals = total_costs(result)
    assert totals["WithGMR"] < totals["WithoutGMR"]
    # The paper reports a gain of about a factor 4 to 5; our simulator
    # measures ~17x at this scale (the simulated buffer keeps the whole
    # GMR hot).  The band is pinned well above the paper's figure so a
    # hot-path regression that halves the gain still fails loudly.
    gain = totals["WithoutGMR"] / max(totals["WithGMR"], 1e-9)
    assert gain > 12.0

    # Linear growth: the last point costs roughly 4x the first
    # (4x as many queries) for the unsupported version.
    series = result.series_by_name("WithoutGMR")
    first, last = series.points[0], series.points[-1]
    assert last.logical_reads > 3 * first.logical_reads


def test_fig09_layout_gate(benchmark):
    """Rows vs. columnar on the identical Fig. 9 sweep, with the CI gate.

    Emits ``BENCH_fig09.json`` as a side effect so the measured band is
    committed alongside the code that produced it.
    """
    results = {
        layout: run_figure09(layout=layout, **_SWEEP)
        for layout in ("rows", "columnar")
    }
    # This timing is informational; the gates below are on simulated
    # cost and on the same-run keyed-query ratio.
    benchmark.pedantic(
        lambda: run_figure09(layout="columnar", **_SWEEP),
        rounds=1,
        iterations=1,
    )

    payload = {
        "benchmark": "fig09_forward_queries",
        "schema_version": 2,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "sweep": dict(_SWEEP),
        "layouts": {},
    }
    gains = {}
    for layout, result in results.items():
        totals = total_costs(result)
        seconds = total_seconds(result)
        gains[layout] = totals["WithoutGMR"] / max(totals["WithGMR"], 1e-9)
        payload["layouts"][layout] = {
            "totals": {name: round(v, 4) for name, v in totals.items()},
            "gain": round(gains[layout], 2),
            "seconds": {name: round(v, 4) for name, v in seconds.items()},
            "seconds_gain": round(_median_point_gain(result), 2),
            "with_gmr_points": _points(result, "WithGMR"),
            "without_gmr_points": _points(result, "WithoutGMR"),
        }
    keyed = keyed_query_us(_SWEEP["cuboids"])
    payload["keyed_query_us"] = keyed
    with open(_BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    # Gate 1: the columnar layout must keep the materialized forward
    # query at least 5x cheaper than evaluating from scratch.
    assert gains["columnar"] >= COLUMNAR_MIN_GAIN, (
        f"columnar gain {gains['columnar']:.2f}x fell below the "
        f"{COLUMNAR_MIN_GAIN}x floor"
    )
    # Gate 2: columnar never regresses rows on any sweep point.
    rows_points = results["rows"].series_by_name("WithGMR").points
    col_points = results["columnar"].series_by_name("WithGMR").points
    for rows_pt, col_pt in zip(rows_points, col_points):
        assert col_pt.sim_cost <= rows_pt.sim_cost * (1.0 + _EPS), (
            f"columnar costs {col_pt.sim_cost} at x={col_pt.x}, "
            f"rows costs {rows_pt.sim_cost}"
        )
    # The baseline never touches a GMR: its cost must be bit-identical
    # across layouts (anything else means the layout knob leaked into
    # the unsupported version).
    assert [p.sim_cost for p in results["rows"].series_by_name("WithoutGMR").points] == [
        p.sim_cost for p in results["columnar"].series_by_name("WithoutGMR").points
    ]
    # Gate 3 (wall-clock, same run): the keyed forward query with the
    # GMR beats direct evaluation by at least KEYED_MIN_GAIN.
    assert keyed["gain"] >= KEYED_MIN_GAIN, (
        f"keyed query with GMR {keyed['with_gmr']} us vs "
        f"{keyed['without_gmr']} us without: {keyed['gain']}x < "
        f"{KEYED_MIN_GAIN}x"
    )


def _median_point_gain(result) -> float:
    """Wall-clock WithoutGMR/WithGMR per sweep point, median over points:
    one GC pause inside a few-millisecond point would swing a ratio of
    totals."""
    return statistics.median(
        without.seconds / with_gmr.seconds
        for with_gmr, without in zip(
            result.series_by_name("WithGMR").points,
            result.series_by_name("WithoutGMR").points,
        )
    )


def _points(result, version: str) -> list[dict]:
    return [
        {"x": p.x, "sim_cost": round(p.sim_cost, 4), "seconds": round(p.seconds, 6)}
        for p in result.series_by_name(version).points
    ]


def test_fig09_single_forward_query(benchmark, cuboid_app_factory):
    from repro.bench.runner import WITH_GMR
    from repro.util.rng import DeterministicRng

    application = cuboid_app_factory(WITH_GMR)
    rng = DeterministicRng(3)
    benchmark(lambda: application.q_forward(rng))


def test_fig09_single_forward_query_without_gmr(benchmark, cuboid_app_factory):
    from repro.bench.runner import WITHOUT_GMR
    from repro.util.rng import DeterministicRng

    application = cuboid_app_factory(WITHOUT_GMR)
    rng = DeterministicRng(3)
    benchmark(lambda: application.q_forward(rng))
