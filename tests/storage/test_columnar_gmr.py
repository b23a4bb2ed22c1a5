"""Layout differential suite: columnar vs. rows, same logical GMR.

The columnar store is a physical re-layout of the GMR — bit-for-bit
logical equivalence with the row store is its entire contract.  This
suite replays the Fig. 7 cuboid workload and every checked-in fuzz
corpus script under ``layout="columnar"`` and ``layout="rows"`` and
requires identical extensions, identical ``explain()`` rows, and
identical checkpoint → crash → recover digests.
"""

import dataclasses

import pytest

from repro.bench.cuboid import CuboidApplication, CuboidConfig
from repro.bench.runner import WITH_GMR
from repro.bench.workload import OperationMix
from repro.core.gmr import GMR
from repro.errors import GMRDefinitionError
from repro.gom.database import ObjectBase
from repro.observe.config import MaterializationConfig
from repro.persistence import base_state, verify_recovery
from repro.storage.gmr_store import ColumnarGMRStore, GMRStore
from repro.util.rng import DeterministicRng
from tests.storage.test_gmr_store import (
    assert_backward_scans_no_entries,
    assert_partial_set_tracked,
    random_store_ops,
)

LAYOUTS = ("rows", "columnar")


def _layout_config(layout: str, **kwargs) -> MaterializationConfig:
    return MaterializationConfig(layout=layout, **kwargs)


def _store_digest(gmr) -> dict:
    """Everything the logical GMR contract promises, canonically ordered."""
    rows = []
    for row in sorted(gmr.store.rows(), key=lambda r: repr(r.args)):
        rows.append(
            (
                row.args,
                tuple(row.results),
                tuple(row.valid),
                tuple(row.error),
            )
        )
    n_fids = len(gmr.fids)
    return {
        "len": len(gmr.store),
        "rows": rows,
        "args": sorted(gmr.store.args(), key=repr),
        "invalid": [
            sorted(gmr.store.invalid_args(i), key=repr)
            for i in range(n_fids)
        ],
        "errors": [
            sorted(gmr.store.error_args(i), key=repr) for i in range(n_fids)
        ],
    }


def _explain_digest(gmr) -> list:
    report = gmr.explain()
    return [
        (
            section.fid,
            section.valid,
            section.invalid,
            section.error,
            sorted(
                (row.args, row.state, row.note) for row in section.rows
            ),
        )
        for section in report.fids
    ]


# ---------------------------------------------------------------------------
# Store selection
# ---------------------------------------------------------------------------


class TestLayoutSelection:
    def test_layout_picks_the_store_class(self):
        db_rows = ObjectBase(config=_layout_config("rows"))
        db_col = ObjectBase(config=_layout_config("columnar"))
        from repro.domains.geometry import build_geometry_schema

        for db, store_cls in (
            (db_rows, GMRStore),
            (db_col, ColumnarGMRStore),
        ):
            build_geometry_schema(db)
            gmr = db.materialize([("Cuboid", "volume")])
            assert type(gmr.store) is store_cls
            assert gmr.layout == gmr.store.layout

    def test_unknown_layout_is_rejected(self):
        with pytest.raises(ValueError):
            MaterializationConfig(layout="diagonal")
        db = ObjectBase()
        from repro.domains.geometry import build_geometry_schema

        build_geometry_schema(db)
        with pytest.raises(GMRDefinitionError):
            db.materialize([("Cuboid", "volume")], layout="diagonal")


# ---------------------------------------------------------------------------
# Fig. 7 cuboid workload, both layouts in lockstep
# ---------------------------------------------------------------------------


def _run_fig7_app(layout: str) -> CuboidApplication:
    application = CuboidApplication(
        WITH_GMR,
        CuboidConfig(
            cuboids=60,
            seed=7,
            materialization=_layout_config(layout),
        ),
    )
    mix = OperationMix(
        queries=[(0.5, "Qbw"), (0.5, "Qfw")],
        updates=[(0.5, "I"), (0.5, "S")],
        update_probability=0.5,
        operations=80,
    )
    application.run_mix(mix, DeterministicRng(7).fork(1000))
    return application


class TestFig7Differential:
    @pytest.fixture(scope="class")
    def apps(self):
        return {layout: _run_fig7_app(layout) for layout in LAYOUTS}

    def test_extensions_identical(self, apps):
        digests = {
            layout: _store_digest(app.gmr) for layout, app in apps.items()
        }
        assert digests["columnar"] == digests["rows"]

    def test_explain_rows_identical(self, apps):
        explains = {
            layout: _explain_digest(app.gmr) for layout, app in apps.items()
        }
        assert explains["columnar"] == explains["rows"]

    def test_queries_agree_after_the_mix(self, apps):
        rng = {layout: DeterministicRng(99) for layout in LAYOUTS}
        for _ in range(25):
            answers = {
                layout: (
                    app.q_forward(rng[layout]),
                    app.q_backward(rng[layout]),
                )
                for layout, app in apps.items()
            }
            assert answers["columnar"] == answers["rows"]

    def test_backward_index_agrees(self, apps):
        backwards = {
            layout: sorted(
                (args for args, _row in app.gmr.store.backward(0, 100.0, 400.0)),
                key=repr,
            )
            for layout, app in apps.items()
        }
        assert backwards["columnar"] == backwards["rows"]


# ---------------------------------------------------------------------------
# Fuzz corpus, both layouts in lockstep
# ---------------------------------------------------------------------------


def _corpus_scripts():
    import os

    corpus = os.path.join(
        os.path.dirname(__file__), os.pardir, "gomql", "corpus"
    )
    return sorted(
        name for name in os.listdir(corpus) if name.endswith(".json")
    )


class TestCorpusDifferential:
    @pytest.mark.parametrize("name", _corpus_scripts())
    def test_corpus_replay_layout_invariant(self, name):
        import os

        from repro.fuzz import script_from_json
        from repro.fuzz.replay import Replayer, results_equal

        path = os.path.join(
            os.path.dirname(__file__), os.pardir, "gomql", "corpus", name
        )
        with open(path, encoding="utf-8") as fh:
            script = script_from_json(fh.read())
        results = {
            layout: Replayer(
                script, config=_layout_config(layout, workers=0)
            ).run()
            for layout in LAYOUTS
        }
        rows_result, col_result = results["rows"], results["columnar"]
        assert col_result.violations == rows_result.violations == []
        assert len(col_result.queries) == len(rows_result.queries)
        for i, (col, ref) in enumerate(
            zip(col_result.queries, rows_result.queries)
        ):
            assert results_equal(col, ref), f"query #{i} diverged in {name}"
        assert results_equal(
            {"extensions": col_result.extensions},
            {"extensions": rows_result.extensions},
        ), f"extensions diverged in {name}"


# ---------------------------------------------------------------------------
# Durability: checkpoint → crash → recover
# ---------------------------------------------------------------------------


def _build_geometry_base(layout: str) -> ObjectBase:
    from repro.domains.geometry import (
        build_geometry_schema,
        create_cuboid,
        create_material,
    )

    db = ObjectBase(config=_layout_config(layout))
    build_geometry_schema(db)
    iron = create_material(db, "iron", 0.78)
    db._cuboids = [
        create_cuboid(
            db,
            origin=(float(i), 0.0, 0.0),
            dims=(1.0 + i % 3, 2.0, 1.0),
            material=iron,
            value=float(i),
            cuboid_id=i,
        )
        for i in range(12)
    ]
    db.materialize(
        [("Cuboid", "volume"), ("Cuboid", "weight")],
    )
    return db


def _mutate(db: ObjectBase) -> None:
    from repro.domains.geometry import create_vertex

    factor = create_vertex(db, 1.5, 1.0, 1.0)
    for cuboid in db._cuboids[::3]:
        cuboid.scale(factor)


class TestRecoveryDifferential:
    def test_recovery_preserves_columnar_layout(self):
        from repro.domains.geometry import build_geometry_schema

        db = _build_geometry_base("columnar")
        recovered = verify_recovery(
            db, build_geometry_schema, mutate=_mutate
        )
        for gmr in recovered.gmr_manager.gmrs():
            assert type(gmr.store) is ColumnarGMRStore
            assert gmr.layout == "columnar"

    def test_recovered_digests_identical_across_layouts(self):
        from repro.domains.geometry import build_geometry_schema

        digests = {}
        for layout in LAYOUTS:
            db = _build_geometry_base(layout)
            recovered = verify_recovery(
                db, build_geometry_schema, mutate=_mutate
            )
            digests[layout] = base_state(recovered)
        assert digests["columnar"] == digests["rows"]


# ---------------------------------------------------------------------------
# The tracked partial-row set, both layouts
# ---------------------------------------------------------------------------


class TestPartialRowSet:
    """The columnar twin of ``test_gmr_store.TestPartialRowSet``."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("fct_count", [1, 2, 3])
    def test_tracked_set_matches_full_scan(self, seed, fct_count):
        store = ColumnarGMRStore("p", arg_count=1, fct_count=fct_count, storage="mds")
        random_store_ops(store, seed)

    def test_backward_scans_no_slots(self):
        store = ColumnarGMRStore("p", arg_count=1, fct_count=2, storage="mds")
        assert_backward_scans_no_entries(store, "_slots")


def _build_partial_base(db: ObjectBase) -> None:
    """The geometry schema plus ``corner``, a non-scalar (object) result."""
    from repro.domains.geometry import build_geometry_schema

    build_geometry_schema(db)
    db.define_operation("Cuboid", "corner", [], "Vertex", lambda self: self.V1)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_partial_rows_survive_checkpoint_and_recover(layout):
    from repro.core.strategies import Strategy
    from repro.domains.geometry import create_cuboid, create_material, create_vertex

    db = ObjectBase(config=_layout_config(layout))
    _build_partial_base(db)
    iron = create_material(db, "iron", 0.78)
    gold = create_material(db, "gold", 1.93)
    cuboids = [
        create_cuboid(
            db,
            origin=(float(i), 0.0, 0.0),
            dims=(1.0 + i % 3, 2.0, 1.0),
            material=iron if i % 2 else gold,
            value=float(i),
            cuboid_id=i,
        )
        for i in range(12)
    ]
    # Lazy, so invalidated columns stay invalid: a volume with an invalid
    # weight beside it is partial.  ``corner`` results are never scalar,
    # so every valid entry of that GMR is partial.
    scalar = db.materialize(
        [("Cuboid", "volume"), ("Cuboid", "weight")], strategy=Strategy.LAZY
    )
    mixed = db.materialize(
        [("Cuboid", "height"), ("Cuboid", "corner")], strategy=Strategy.LAZY
    )
    iron.set_SpecWeight(0.8)
    factor = create_vertex(db, 1.0, 1.0, 1.5)
    cuboids[0].scale(factor)
    assert scalar.store._partial[0] and mixed.store._partial[1]
    for gmr in (scalar, mixed):
        assert_partial_set_tracked(gmr.store)

    def mutate(live):
        gold.set_SpecWeight(2.0)
        cuboids[3].scale(factor)
        live.delete(cuboids[5])

    recovered = verify_recovery(db, _build_partial_base, mutate=mutate)
    by_name = {gmr.name: gmr for gmr in recovered.gmr_manager.gmrs()}
    for gmr in (scalar, mixed):
        twin = by_name[gmr.name].store
        assert twin.layout == layout
        assert_partial_set_tracked(twin)
        assert [set(p) for p in twin._partial] == [set(p) for p in gmr.store._partial]
