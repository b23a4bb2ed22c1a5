"""Per-layer span ledger for the traced run.

``Ledger.install`` replaces public entry points of each layer with span
recorders (class attributes for methods, module attributes for the
functions ``repro.gomql.executor`` and ``repro.persistence`` look up by
name).  Every span knows its parent through a stack, so a layer's *self*
time is its duration minus the time its child spans cover; the op call
the benchmark makes is the root span, and the root's self time is the
time spent inside no layer span ("unattributed").  Self times therefore
partition the traced wall time exactly.  Spans are folded into per-name
totals in memory and read once the run ends.

Generator functions (``GMRStore.backward``, ``BPlusTree.range_scan``) are
timed per resumption, so the consumer's work between items is not
charged to them.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter_ns

import repro.gomql.executor as gomql_executor
import repro.persistence as persistence
from repro.core.manager import GMRManager
from repro.gom.database import ObjectBase
from repro.storage.btree import BPlusTree
from repro.storage.gmr_store import GMRStore
from repro.storage.wal import WriteAheadLog

_GMR_STORE_ACCESSORS = (
    "get", "ensure_row", "remove_row", "set_result", "mark_invalid",
    "mark_error", "support_state", "set_support_state", "probe",
    "entry_cell", "lookup_many", "mark_invalid_many", "backward",
)

#: (owner, attribute, span name, layer).  ``ObjectBase._read_attr`` is the
#: one funnel of attribute reads: handle reads bypass ``read_attr``.
SPANS = (
    [
        (gomql_executor, "parse_statement", "gomql.parse", "gomql"),
        (gomql_executor, "find_index_plan", "gomql.plan", "gomql"),
        (gomql_executor, "find_backward_plan", "gomql.plan", "gomql"),
        (gomql_executor, "execute", "gomql.execute", "gomql"),
        (ObjectBase, "extension", "gom.extension", "gom"),
        (ObjectBase, "_read_attr", "gom.read_attr", "gom"),
        (ObjectBase, "set_attr", "gom.set_attr", "gom"),
        (ObjectBase, "invoke", "gom.invoke", "gom"),
        (ObjectBase, "call_function", "core.call_function", "core"),
        (GMRManager, "invalidate", "core.invalidate", "core"),
        (GMRManager, "retrieve_forward", "core.retrieve_forward", "core"),
        (GMRManager, "backward_query", "core.backward_query", "core"),
        (BPlusTree, "search", "storage.btree_search", "storage"),
        (BPlusTree, "range_scan", "storage.btree_search", "storage"),
        (BPlusTree, "insert", "storage.btree_write", "storage"),
        (BPlusTree, "remove", "storage.btree_write", "storage"),
        (WriteAheadLog, "append", "storage.wal_append", "storage"),
        (persistence, "to_document", "persistence.to_document", "persistence"),
        (persistence, "load_object_base", "persistence.load", "persistence"),
        (persistence, "read_records_merged", "persistence.read_wal", "persistence"),
    ]
    + [(GMRStore, name, "storage.gmr_store", "storage") for name in _GMR_STORE_ACCESSORS]
)

ROOT = "op"


class Ledger:
    def __init__(self) -> None:
        #: One child-time accumulator per open span.
        self.stack: list[list[int]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: Handles returned by ``ObjectBase.extension``.
        self.extension_handles = 0
        self.layer_of = {name: layer for _, _, name, layer in SPANS}
        self.layer_of[ROOT] = "unattributed"
        self._restore: list[tuple] = []

    def reset(self) -> None:
        self.self_ns.clear()
        self.incl_ns.clear()
        self.calls.clear()
        self.extension_handles = 0

    # -- spans -------------------------------------------------------------

    def _close(self, name: str, frame: list[int], elapsed: int) -> None:
        stack = self.stack
        stack.pop()
        self.self_ns[name] += elapsed - frame[0]
        self.incl_ns[name] += elapsed
        if stack:
            stack[-1][0] += elapsed

    def root(self, call, op):
        """Run ``call(op)`` as the root span of one measured op."""
        frame = [0]
        self.stack.append(frame)
        start = perf_counter_ns()
        try:
            return call(op)
        finally:
            self._close(ROOT, frame, perf_counter_ns() - start)
            self.calls[ROOT] += 1

    def _wrap(self, original, name: str):
        ledger = self
        if inspect.isgeneratorfunction(original):
            def span_gen(*args, **kwargs):
                ledger.calls[name] += 1
                iterator = original(*args, **kwargs)
                while True:
                    frame = [0]
                    ledger.stack.append(frame)
                    start = perf_counter_ns()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        ledger._close(name, frame, perf_counter_ns() - start)
                        return
                    except BaseException:
                        ledger._close(name, frame, perf_counter_ns() - start)
                        raise
                    ledger._close(name, frame, perf_counter_ns() - start)
                    yield item
            return span_gen

        def span(*args, **kwargs):
            frame = [0]
            ledger.stack.append(frame)
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                ledger._close(name, frame, perf_counter_ns() - start)
                ledger.calls[name] += 1

        if name == "gom.extension":
            def extension_span(*args, **kwargs):
                handles = span(*args, **kwargs)
                ledger.extension_handles += len(handles)
                return handles
            return extension_span
        return span

    def install(self) -> None:
        for owner, attr, name, _layer in SPANS:
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def by_layer(self) -> dict[str, int]:
        """Self time per layer in ns (``unattributed`` = root self)."""
        totals: dict[str, int] = defaultdict(int)
        for name, value in self.self_ns.items():
            totals[self.layer_of[name]] += value
        return dict(totals)
