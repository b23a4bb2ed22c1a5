"""NoREC oracle: a planned query answers exactly what a scan answers.

Non-optimizing reference engine construction (Rigger & Su; SQLancer):
run each query once as the planner would (GMR backward plan or
attribute-index plan for the outermost range variable) and once forced
onto the extension scan, and require the same multiset of rows.  The
scan is forced by patching ``executor._plan_candidates`` to return
``None`` for the second run only — the library has no switch for it.

Configuration diffing cannot see planner bugs, because every
configuration shares the planner; this oracle can.  It runs over every
query step of the regression corpus, a fixed set of generated fuzz
scripts, and the Fig. 7 cuboid and Fig. 13/14 company query shapes,
under both physical GMR layouts.
"""

import os
from unittest import mock

import pytest

from repro.bench.cuboid import CuboidApplication, CuboidConfig
from repro.bench.runner import LAZY, WITH_GMR
from repro.bench.workload import OperationMix
from repro.domains.company import build_company_schema, populate_company
from repro.errors import QueryError
from repro.fuzz import generate_script, script_from_json
from repro.fuzz.replay import Replayer, results_equal
from repro.gom.database import ObjectBase
from repro.gomql import executor
from repro.observe.config import MaterializationConfig
from repro.util.rng import DeterministicRng

LAYOUTS = ("rows", "columnar")
CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(
    name for name in os.listdir(CORPUS_DIR) if name.endswith(".json")
)
GENERATED = [(seed, domain) for seed in range(8) for domain in ("geometry", "company")]

_plan = executor._plan_candidates


class _PlanSpy:
    """Counts the queries whose outermost variable actually got a plan."""

    def __init__(self) -> None:
        self.planned = 0

    def __call__(self, *args, **kwargs):
        candidates = _plan(*args, **kwargs)
        if candidates is not None:
            self.planned += 1
        return candidates


def _answer(db, text, params, canonical):
    try:
        result = executor.run_statement(db, text, params)
    except QueryError as exc:
        return {"kind": "error", "type": type(exc).__name__}
    if isinstance(result, list):
        rows = sorted((canonical(row) for row in result), key=repr)
        return {"kind": "rows", "rows": rows}
    return {"kind": "scalar", "value": canonical(result)}


def check_norec(db, text, canonical, params=None, spy=None):
    """Run ``text`` planned, then forced to scan; fail on any difference."""
    with mock.patch.object(executor, "_plan_candidates", spy or _plan):
        planned = _answer(db, text, params, canonical)
    with mock.patch.object(executor, "_plan_candidates", lambda *a, **k: None):
        scanned = _answer(db, text, params, canonical)
    assert results_equal(planned, scanned), (
        f"NoREC: {text!r} with {params!r}\n"
        f"  planned: {planned!r}\n  scanned: {scanned!r}"
    )


class _NoRECReplayer(Replayer):
    """Replays a fuzz script, checking NoREC on every query step."""

    def __init__(self, script, layout: str, spy: _PlanSpy) -> None:
        super().__init__(script, config=MaterializationConfig(layout=layout))
        self.spy = spy
        self.queries_checked = 0

    def _op_query(self, step: dict) -> None:
        check_norec(self.db, step["text"], self._canonical, spy=self.spy)
        self.queries_checked += 1


def _replay(script, layout):
    spy = _PlanSpy()
    replayer = _NoRECReplayer(script, layout, spy)
    result = replayer.run()
    assert result.violations == []
    return replayer.queries_checked, spy.planned


def _corpus_script(name):
    with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as fh:
        return script_from_json(fh.read())


@pytest.mark.parametrize("layout", LAYOUTS)
class TestScripts:
    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_corpus(self, layout, name):
        checked, _planned = _replay(_corpus_script(name), layout)
        assert checked > 0

    def test_generated_scripts_exercise_the_planner(self, layout):
        planned_total = 0
        for seed, domain in GENERATED:
            _checked, planned = _replay(generate_script(seed, domain), layout)
            planned_total += planned
        # The oracle is vacuous unless some steps took a planned path.
        assert planned_total > 0


def _plain(value):
    if isinstance(value, (list, tuple)):
        return tuple(_plain(item) for item in value)
    return getattr(value, "oid", value)


@pytest.mark.parametrize("layout", LAYOUTS)
class TestFig7CuboidShapes:
    @pytest.fixture
    def app(self, layout):
        application = CuboidApplication(
            WITH_GMR,
            CuboidConfig(
                cuboids=60, seed=5, materialization=MaterializationConfig(layout=layout)
            ),
        )
        mix = OperationMix(
            queries=[(0.5, "Qbw"), (0.5, "Qfw")],
            updates=[(0.3, "I"), (0.3, "S"), (0.2, "R"), (0.2, "D")],
            update_probability=0.6,
            operations=60,
        )
        application.run_mix(mix, DeterministicRng(5).fork(1000))
        return application

    def test_keyed_forward_query(self, app):
        spy = _PlanSpy()
        keys = app.cuboid_ids[::5] + [10_000]  # the last key matches nothing
        for key in keys:
            check_norec(
                app.db,
                "range c: Cuboid retrieve c.volume where c.CuboidID = k",
                _plain,
                {"k": key},
                spy,
            )
        assert spy.planned == len(keys)

    def test_backward_range_query(self, app):
        spy = _PlanSpy()
        volumes = sorted(c.volume() for c in app.cuboids)
        # Exact result values as bounds exercise the exclusive edges.
        bounds = [(volumes[3], volumes[20]), (0.0, 1000.0), (volumes[7], volumes[7])]
        for lo, hi in bounds:
            for text in (
                "range c: Cuboid retrieve c where c.volume > lo and c.volume < hi",
                "range c: Cuboid retrieve c where c.volume >= lo and c.volume <= hi",
                "range c: Cuboid retrieve count(c) "
                "where c.volume >= lo and c.Value > 20.0",
            ):
                check_norec(app.db, text, _plain, {"lo": lo, "hi": hi}, spy)
        assert spy.planned == 9

    def test_backward_query_over_invalid_entries(self, layout):
        # A lazy GMR starting all-invalid: the backward plan must
        # revalidate entries before answering, exactly as the scan does.
        lazy = CuboidApplication(
            LAZY,
            CuboidConfig(
                cuboids=40, seed=9, materialization=MaterializationConfig(layout=layout)
            ),
        )
        assert lazy.gmr.invalid_args(lazy.gmr.fids[0])
        check_norec(
            lazy.db,
            "range c: Cuboid retrieve c.CuboidID "
            "where c.volume > 50.0 and c.volume < 400.0",
            _plain,
        )


@pytest.mark.parametrize("layout", LAYOUTS)
def test_company_ranking_shapes(layout):
    db = ObjectBase(config=MaterializationConfig(layout=layout))
    build_company_schema(db)
    fixture = populate_company(
        db,
        DeterministicRng(11),
        departments=3,
        employees_per_department=8,
        projects=30,
        jobs_per_employee=3,
    )
    db.create_attr_index("Employee", "EmpNo")
    db.materialize([("Employee", "ranking")])
    rng = DeterministicRng(12)
    for _ in range(10):  # promotions move some rankings
        job = rng.choice(rng.choice(fixture.employees).JobHistory.elements())
        job.set_OnTime(not job.OnTime)
    spy = _PlanSpy()
    for employee in fixture.employees[::4]:
        check_norec(
            db,
            "range e: Employee retrieve e.ranking where e.EmpNo = k",
            _plain,
            {"k": employee.EmpNo},
            spy,
        )
    rankings = sorted(e.ranking() for e in fixture.employees)
    for lo, hi in [(rankings[2], rankings[-3]), (-1.0, 100.0)]:
        check_norec(
            db,
            "range e: Employee retrieve e where e.ranking > lo and e.ranking < hi",
            _plain,
            {"lo": lo, "hi": hi},
            spy,
        )
    assert spy.planned == len(fixture.employees[::4]) + 2
