"""The GOMql read path: lazy range domains and the parsed-statement cache.

A planned access path (attribute index or GMR backward plan) must cost
O(answer): it may not build a handle per object of the range's
extension.  Only unplanned ranges scan.  Statement texts are parsed once
and their ASTs shared.
"""

import pytest

from repro.errors import ParseError
from repro.gom.database import ObjectBase
from repro.gomql import executor, run_statement
from repro.gomql.parser import PARSE_CACHE_SIZE, parse_statement


@pytest.fixture
def extension_calls(monkeypatch):
    """Type names passed to ``ObjectBase.extension``, in call order."""
    calls: list[str] = []
    original = ObjectBase.extension

    def spy(self, type_name):
        calls.append(type_name)
        return original(self, type_name)

    monkeypatch.setattr(ObjectBase, "extension", spy)
    return calls


@pytest.fixture
def indexed_db(geometry_db):
    db, fixture = geometry_db
    db.create_attr_index("Cuboid", "CuboidID")
    db.materialize([("Cuboid", "volume")])
    return db, fixture


class TestLazyDomains:
    def test_keyed_query_builds_no_extension(self, indexed_db, extension_calls):
        db, _ = indexed_db
        result = run_statement(
            db, "range c: Cuboid retrieve c.volume where c.CuboidID = k", {"k": 2}
        )
        assert result == [pytest.approx(200.0)]
        assert extension_calls == []

    def test_backward_query_builds_no_extension(self, indexed_db, extension_calls):
        db, fixture = indexed_db
        result = run_statement(
            db,
            "range c: Cuboid retrieve c where c.volume > lo and c.volume < hi",
            {"lo": 150.0, "hi": 350.0},
        )
        assert sorted(h.oid for h in result) == sorted(
            c.oid for c in fixture.cuboids[:2]
        )
        assert extension_calls == []

    def test_unplanned_predicate_scans(self, indexed_db, extension_calls):
        db, _ = indexed_db
        result = db.query("range c: Cuboid retrieve c.CuboidID where c.Value > 0.0")
        assert sorted(result) == [1, 2, 3]
        assert extension_calls == ["Cuboid"]

    def test_second_range_variable_scans(self, indexed_db, extension_calls):
        db, _ = indexed_db
        rows = run_statement(
            db,
            "range a: Cuboid, b: Cuboid retrieve a.CuboidID, b.CuboidID "
            "where a.CuboidID = k and a.Mat = b.Mat",
            {"k": 1},
        )
        assert sorted(rows) == [(1, 1), (1, 2)]
        # ``a`` is planned by the index; only ``b`` scans.
        assert extension_calls == ["Cuboid"]

    def test_bound_collection_scans(self, indexed_db, extension_calls, monkeypatch):
        db, fixture = indexed_db
        planned = []
        monkeypatch.setattr(
            executor, "_plan_candidates", lambda *a: planned.append(a)
        )
        member = list(fixture.valuables)[0]
        total = run_statement(
            db,
            "range c: MyValuables retrieve sum(c.weight) where c.CuboidID = k",
            {"MyValuables": fixture.valuables, "k": member.CuboidID},
        )
        assert total == pytest.approx(member.weight())
        # The collection's own members are the candidates: no plan, no
        # type extension.
        assert planned == [] and extension_calls == []


class TestParseCache:
    def test_same_text_same_ast(self):
        text = "range c: Cuboid retrieve c.volume where c.CuboidID = 17"
        assert parse_statement(text) is parse_statement(text)

    def test_executor_shares_the_cached_ast(self, indexed_db, monkeypatch):
        db, _ = indexed_db
        seen = []
        execute = executor.execute

        def spy(db, stmt, params):
            seen.append(stmt)
            return execute(db, stmt, params)

        monkeypatch.setattr(executor, "execute", spy)
        text = "range c: Cuboid retrieve c.CuboidID where c.CuboidID = k"
        assert run_statement(db, text, {"k": 1}) == [1]
        assert run_statement(db, text, {"k": 3}) == [3]
        assert seen[0] is seen[1] is parse_statement(text)

    def test_parse_error_raises_every_time(self):
        parse_statement.cache_clear()
        for _ in range(3):
            with pytest.raises(ParseError):
                parse_statement("range c: Cuboid retrieve where")
        assert parse_statement.cache_info().currsize == 0

    def test_cache_stays_at_its_bound(self):
        parse_statement.cache_clear()
        texts = [
            f"range c: Cuboid retrieve c where c.CuboidID = {i}"
            for i in range(PARSE_CACHE_SIZE + 40)
        ]
        for text in texts:
            parse_statement(text)
        assert parse_statement.cache_info().currsize == PARSE_CACHE_SIZE
        # Least recently used first out: the newest text is still shared,
        # the oldest is parsed afresh.
        newest = parse_statement(texts[-1])
        assert parse_statement(texts[-1]) is newest
        misses = parse_statement.cache_info().misses
        parse_statement(texts[0])
        assert parse_statement.cache_info().misses == misses + 1
        assert parse_statement.cache_info().currsize == PARSE_CACHE_SIZE
