"""Unit tests for the GMR physical store (both MDS and column modes)."""

import random

import pytest

from repro.storage.gmr_store import GMRStore, MDS_DIMENSION_LIMIT, in_range


@pytest.fixture(params=["mds", "columns"])
def store(request):
    return GMRStore("test", arg_count=1, fct_count=2, storage=request.param)


class TestRowLifecycle:
    def test_ensure_row_starts_invalid(self, store):
        row = store.ensure_row(("o1",))
        assert row.valid == [False, False]
        assert row.results == [None, None]
        assert store.invalid_args(0) == {("o1",)}

    def test_ensure_row_idempotent(self, store):
        first = store.ensure_row(("o1",))
        second = store.ensure_row(("o1",))
        assert first is second
        assert len(store) == 1

    def test_get_missing(self, store):
        assert store.get(("nope",)) is None

    def test_remove_row(self, store):
        store.set_result(("o1",), 0, 1.0)
        assert store.remove_row(("o1",)) is True
        assert store.get(("o1",)) is None
        assert store.remove_row(("o1",)) is False

    def test_remove_clears_invalid_tracking(self, store):
        store.ensure_row(("o1",))
        store.remove_row(("o1",))
        assert store.invalid_args(0) == set()


class TestValidity:
    def test_set_result_validates(self, store):
        store.set_result(("o1",), 0, 10.0)
        row = store.get(("o1",))
        assert row.valid == [True, False]
        assert row.results[0] == 10.0
        assert not store.has_invalid(0)

    def test_mark_invalid(self, store):
        store.set_result(("o1",), 0, 10.0)
        assert store.mark_invalid(("o1",), 0) is True
        assert store.get(("o1",)).valid[0] is False
        assert store.invalid_args(0) == {("o1",)}

    def test_mark_invalid_already_invalid(self, store):
        store.ensure_row(("o1",))
        assert store.mark_invalid(("o1",), 0) is False

    def test_mark_invalid_missing_row(self, store):
        assert store.mark_invalid(("ghost",), 0) is False

    def test_revalidation_roundtrip(self, store):
        store.set_result(("o1",), 0, 1.0)
        store.mark_invalid(("o1",), 0)
        store.set_result(("o1",), 0, 2.0)
        assert store.get(("o1",)).results[0] == 2.0
        assert store.get(("o1",)).valid[0] is True


class TestBackward:
    @pytest.fixture(params=["mds", "columns"])
    def filled(self, request):
        store = GMRStore("bw", arg_count=1, fct_count=2, storage=request.param)
        for index in range(20):
            store.set_result((f"o{index}",), 0, float(index))
            store.set_result((f"o{index}",), 1, float(index * 10))
        return store

    def test_range(self, filled):
        hits = sorted(value for value, _ in filled.backward(0, 5.0, 8.0))
        assert hits == [5.0, 6.0, 7.0, 8.0]

    def test_exclusive_bounds(self, filled):
        hits = sorted(
            value
            for value, _ in filled.backward(
                0, 5.0, 8.0, include_low=False, include_high=False
            )
        )
        assert hits == [6.0, 7.0]

    def test_second_function_column(self, filled):
        hits = sorted(value for value, _ in filled.backward(1, 100.0, 120.0))
        assert hits == [100.0, 110.0, 120.0]

    def test_invalid_rows_not_returned(self, filled):
        filled.mark_invalid(("o6",), 0)
        hits = sorted(value for value, _ in filled.backward(0, 5.0, 8.0))
        assert hits == [5.0, 7.0, 8.0]

    def test_partially_valid_row_still_found(self, filled):
        # Invalidate f1 but not f0: f0's backward query must still see it.
        filled.mark_invalid(("o6",), 1)
        hits = sorted(value for value, _ in filled.backward(0, 5.0, 8.0))
        assert hits == [5.0, 6.0, 7.0, 8.0]

    def test_update_moves_entry(self, filled):
        filled.set_result(("o6",), 0, 100.0)
        hits = [value for value, _ in filled.backward(0, 99.0, 101.0)]
        assert hits == [100.0]
        assert all(value != 6.0 for value, _ in filled.backward(0, 5.0, 8.0))

    def test_removed_row_not_returned(self, filled):
        filled.remove_row(("o6",))
        hits = sorted(value for value, _ in filled.backward(0, 5.0, 8.0))
        assert hits == [5.0, 7.0, 8.0]


class TestStorageSelection:
    def test_auto_prefers_mds_for_low_arity(self):
        store = GMRStore("x", arg_count=1, fct_count=2, storage="auto")
        assert store.storage == "mds"
        assert 1 + 2 <= MDS_DIMENSION_LIMIT

    def test_auto_uses_columns_for_high_arity(self):
        store = GMRStore("x", arg_count=3, fct_count=3, storage="auto")
        assert store.storage == "columns"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            GMRStore("x", arg_count=1, fct_count=1, storage="magic")

    def test_non_scalar_results_supported(self):
        store = GMRStore("x", arg_count=1, fct_count=1, storage="mds")
        store.set_result(("o1",), 0, ("complex", "value"))
        assert store.get(("o1",)).results[0] == ("complex", "value")
        # Non-scalar results are simply absent from range queries.
        assert list(store.backward(0, None, None)) == []


# ---------------------------------------------------------------------------
# The tracked partial-row set (MDS mode)
# ---------------------------------------------------------------------------


def _brute_partial(store, fct_index):
    """Args valid for ``fct_index`` but without an MDS point, by full scan."""
    partial = set()
    for row in store.rows():
        in_mds = all(row.valid) and all(
            isinstance(r, (int, float, str, bool)) for r in row.results
        )
        if row.valid[fct_index] and not in_mds:
            partial.add(row.args)
    return partial


def _brute_backward(store, fct_index, low, high, include_low, include_high):
    """``backward()`` by full scan: every valid scalar result in range."""
    return sorted(
        (row.results[fct_index], row.args)
        for row in store.rows()
        if row.valid[fct_index]
        and in_range(
            row.results[fct_index],
            low,
            high,
            include_low=include_low,
            include_high=include_high,
        )
    )


def _bounds(store, fct_index):
    """Range bounds on stored values, so the exclusive edges hit results."""
    values = sorted(
        {
            row.results[fct_index]
            for row in store.rows()
            if isinstance(row.results[fct_index], (int, float))
        }
    )
    bounds = [(None, None), (2.0, 5.0)]
    if values:
        low, high = values[len(values) // 4], values[(3 * len(values)) // 4]
        bounds += [(low, high), (None, low), (high, None), (low, low)]
    return bounds


def assert_partial_set_tracked(store):
    """The incremental partial set and ``backward()`` match a full scan."""
    for fct_index in range(store.fct_count):
        assert set(store._partial[fct_index]) == _brute_partial(store, fct_index)
        for low, high in _bounds(store, fct_index):
            for include_low in (True, False):
                for include_high in (True, False):
                    got = sorted(
                        store.backward(
                            fct_index,
                            low,
                            high,
                            include_low=include_low,
                            include_high=include_high,
                        )
                    )
                    assert got == _brute_backward(
                        store, fct_index, low, high, include_low, include_high
                    )


def random_store_ops(store, seed, steps=150):
    """Drive ``store`` through a seeded mix of every mutator."""
    rng = random.Random(seed)
    keys = [(f"o{i}",) for i in range(8)]
    for _ in range(steps):
        args = rng.choice(keys)
        fct_index = rng.randrange(store.fct_count)
        op = rng.choice(
            ("ensure", "set", "set", "set", "invalid", "error", "remove")
        )
        if op == "ensure":
            store.ensure_row(args)
        elif op == "set":
            # Integral values so range bounds hit results exactly; one in
            # five results is non-scalar (never indexed).
            value = (
                ("complex", rng.randrange(3))
                if rng.random() < 0.2
                else float(rng.randrange(7))
            )
            store.set_result(args, fct_index, value)
        elif op == "invalid":
            store.mark_invalid(args, fct_index)
        elif op == "error":
            store.mark_error(args, fct_index)
        else:
            store.remove_row(args)
        assert_partial_set_tracked(store)


class TestPartialRowSet:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("fct_count", [1, 2, 3])
    def test_tracked_set_matches_full_scan(self, seed, fct_count):
        store = GMRStore("p", arg_count=1, fct_count=fct_count, storage="mds")
        random_store_ops(store, seed)

    def test_backward_scans_no_rows(self):
        store = GMRStore("p", arg_count=1, fct_count=2, storage="mds")
        assert_backward_scans_no_entries(store, "_rows")


class _NoScan(dict):
    """An entry table that allows point lookups but fails any scan."""

    def _scan(self, *args):
        pytest.fail("backward() scanned the whole entry table")

    __iter__ = items = keys = values = _scan


def assert_backward_scans_no_entries(store, table):
    """Partial entries are answered without a scan of ``store.<table>``."""
    for index in range(50):
        store.set_result((f"o{index}",), 0, float(index))
        store.set_result((f"o{index}",), 1, float(index))
    store.mark_invalid(("o7",), 1)  # o7 is now partial for column 0
    store.set_result(("o6",), 1, ("complex", 1))  # o6 too
    setattr(store, table, _NoScan(getattr(store, table)))
    hits = sorted(value for value, _ in store.backward(0, 5.0, 8.0))
    assert hits == [5.0, 6.0, 7.0, 8.0]
