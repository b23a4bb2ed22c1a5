"""Run one benchmark workload against the public API and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cuboid-update --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable report and a ``# record`` line with the
noise record.  See ``perfbench/README.md`` for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import copy
import gc
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Checkpoints and recoveries take turns between the windows of the
#: measured phase while their time so far is below this share of the
#: phase's, so that they sample the whole run as the ops do.  ``--seconds``
#: covers both: the ops get two thirds of it, the one-shots a third.
ONE_SHOT_SHARE = 0.5
#: Set-ups per end-to-end run; ``setup_s`` is their median.  Two build
#: the bases the run uses; the others are spread evenly over the
#: measured phase, so that they sample the run's stretches of machine
#: speed as the checkpoints and recoveries do, and are dropped at once.
SETUPS = 5
#: The measured phase is cut into windows of whole decks lasting at least
#: this many seconds.
WINDOW_S = 0.3
#: The phase metrics are read over this share of the windows, the ones
#: with the fewest ops per second.  The shared machine runs at a slow
#: baseline speed with bursts of up to 1.7x more speed lasting seconds,
#: at times minutes; a figure over the whole run follows how much of it
#: the bursts covered.
SLOW_SHARE = 0.25
#: A checkpoint or recovery is reported at this quantile of its
#: repeats, for the same reason.
SLOW_QUANTILE = 0.9
#: Forward and backward queries checked against direct evaluation.
CHECK_QUERIES = 40

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s",
    "qfw_p50_us": "us", "qfw_p95_us": "us",
    "qbw_p50_us": "us", "qbw_p95_us": "us",
    "update_p50_us": "us", "update_p95_us": "us",
    "checkpoint_s": "s", "recover_s": "s", "peak_rss_mb": "MB",
}

#: The op codes behind each latency class.
CLASS_CODES = {
    "qfw": ("Qfw", "Qsel"),
    "qbw": ("Qbw",),
    "update": ("S", "T", "R", "I", "D", "P", "N", "X"),
}


def latency_class(code: str) -> str:
    return next(cls for cls, codes in CLASS_CODES.items() if code in codes)


def calibrate() -> float:
    """Milliseconds of a fixed pure-Python loop (median of three)."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc, table = 0, {}
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 1023] = acc
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


def quantile(values: list, q: float):
    """Nearest-rank quantile of ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def pooled(windows: list) -> dict[str, list[int]]:
    """Latency samples (ns) by class over ``windows`` of a phase."""
    return {cls: [ns for window in windows for ns in window[2][cls]] for cls in CLASS_CODES}


def phase_metrics(windows: list, every: list) -> dict[str, float]:
    """``ops_per_s`` and each latency class's p50 (us) over ``windows``
    of a phase, and its p95 over ``every`` window of it: the upper tail
    of a whole run already comes from its slow stretches, and rests
    there on four times the samples of the slow quarter."""
    metrics = {"ops_per_s": sum(w[0] for w in windows) / sum(w[1] for w in windows)}
    some, all_ = pooled(windows), pooled(every)
    for cls in CLASS_CODES:
        metrics[f"{cls}_p50_us"] = quantile(some[cls], 0.50) / 1e3
        metrics[f"{cls}_p95_us"] = quantile(all_[cls], 0.95) / 1e3
    return metrics


class Phase:
    """The measured phase on one base: one untimed warm-up deck, then
    whole decks, each generated before its timing starts."""

    def __init__(self, run: "Run", base, ledger=None) -> None:
        self.run = run
        self.base = base
        self.ledger = ledger
        self.stream = workloads.DeckStream(run.workload, run.seed * 1_000_003 + 17)
        run.run_ops(base, self.stream.next_deck())
        if ledger is not None:
            ledger.reset()
        db = base.db
        self._stats = copy.copy(db.gmr_manager.stats)
        self._buffer = db.buffer.stats.snapshot()
        self._cost = db.simulated_cost()
        self._wal_size = os.path.getsize(db.wal.path)
        #: Closed windows, each [ops, seconds, latency samples (ns) by class].
        self.windows: list[list] = []
        self._window = self._new_window()
        self.wall = 0.0
        self.op_ns = 0
        self.ops = 0
        self.decks = 0

    @staticmethod
    def _new_window() -> list:
        return [0, 0.0, {cls: [] for cls in CLASS_CODES}]

    def run_deck(self) -> None:
        deck = self.stream.next_deck()
        window = self._window
        start = perf_counter()
        self.op_ns += self.run.run_ops(self.base, deck, window[2], self.ledger)
        elapsed = perf_counter() - start
        self.wall += elapsed
        self.ops += len(deck)
        self.decks += 1
        window[0] += len(deck)
        window[1] += elapsed
        if window[1] >= WINDOW_S:
            self.windows.append(window)
            self._window = self._new_window()

    def samples(self) -> dict[str, list[int]]:
        """Every latency sample by class, the unfinished window's too."""
        return pooled(self.windows + [self._window])

    def slow_windows(self) -> list:
        """The ``SLOW_SHARE`` of the windows with the fewest ops per second."""
        ordered = sorted(self.windows, key=lambda window: window[0] / window[1])
        return ordered[:max(1, round(SLOW_SHARE * len(ordered)))]

    def deltas(self) -> dict:
        """Manager counters, buffer counters, simulated cost and WAL bytes
        over the measured decks."""
        db = self.base.db
        after = db.gmr_manager.stats
        return {
            "stats": {name: getattr(after, name) - value for name, value in vars(self._stats).items()},
            "buffer": db.buffer.stats.delta(self._buffer),
            "cost": db.simulated_cost() - self._cost,
            "wal_bytes": os.path.getsize(db.wal.path) - self._wal_size,
        }


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload, seed: int, seconds: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        self.checkpoint_times: list[float] = []
        self.recover_times: list[float] = []
        self.base_pages = 0
        self.buffer_pages = 0
        self.snapshot_bytes = 0
        self.records_replayed = 0
        #: Persistence span totals of the traced durability cycle.
        self.spans: dict[str, float] = {}
        self.report: dict = {}

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    # -- building blocks -----------------------------------------------

    def setup(self):
        """Build a base (timed): schema, population, indexes, GMRs."""
        gc.collect()
        start = perf_counter()
        base = workloads.build_base(self.workload, self.seed)
        self.setup_times.append(perf_counter() - start)
        self.base_pages = len(base.db.page_store)
        self.buffer_pages = base.db.buffer.capacity
        return base

    def attach_wal(self, base, name: str) -> str:
        path = str(self.workdir / f"{name}.wal")
        base.db.attach_wal(WriteAheadLog(path, fsync=False))
        return path

    def checkpoint(self, base, name: str) -> str:
        """Checkpoint the base (timed); returns the checkpoint path."""
        path = str(self.workdir / f"{name}.json")
        gc.collect()
        start = perf_counter()
        checkpoint(base.db, path)
        self.checkpoint_times.append(perf_counter() - start)
        self.snapshot_bytes = os.path.getsize(path)
        return path

    def recover(self, ckpt_path: str, wal_path: str):
        """Recover checkpoint + WAL into a fresh base (timed); returns it."""
        gc.collect()
        fresh = workloads.empty_base(self.workload)
        start = perf_counter()
        report = recover(fresh, ckpt_path, wal_path)
        self.recover_times.append(perf_counter() - start)
        self.records_replayed = report.records_replayed
        return fresh

    def run_ops(self, base, ops, samples=None, ledger=None) -> int:
        """Closed loop over ``ops``; returns the summed op time in ns."""
        call = base.run
        total = 0
        for op in ops:
            self.attempted += 1
            start = perf_counter_ns()
            try:
                result = ledger.root(call, op) if ledger is not None else call(op)
            except Exception:
                total += perf_counter_ns() - start
                self.failed += 1
                if self.failed <= 3:
                    traceback.print_exc(file=sys.stderr)
                continue
            elapsed = perf_counter_ns() - start
            total += elapsed
            if not base.result_ok(op, result):
                self.failed += 1
                if self.failed <= 3:
                    print(f"wrong result for {op!r}: {result!r}", file=sys.stderr)
            if samples is not None:
                samples[latency_class(op[0])].append(elapsed)
        return total

    def check_invariants(self, phase: Phase) -> None:
        """Def. 3.2 consistency of every GMR, RRR/ObjDepFct lockstep,
        sampled queries against direct evaluation, and (company-maint) at
        least one delta patch."""
        base = phase.base
        manager = base.db.gmr_manager
        for gmr in manager.gmrs():
            for violation in gmr.check_consistency(base.db)[:3]:
                self.fail(f"Def. 3.2: {violation}")
        for violation in manager.verify_lockstep()[:3]:
            self.fail(f"lockstep: {violation}")
        rng = random.Random(self.seed * 7 + 3)
        self.attempted += 2 * CHECK_QUERIES
        errors = base.check_queries(rng, CHECK_QUERIES)
        self.failed += len(errors)
        for error in errors[:3]:
            self.fail(f"sampled query: {error}")
        if base.db.config.maintenance == "delta" and phase.deltas()["stats"]["delta_patches"] == 0:
            self.fail(f"{self.workload.name} ran no delta patch: it measured the recompute path")

    def durability(self, base, ledger=None) -> tuple[str, str]:
        """Checkpoint the base right after its set-up, run a fixed tail of
        updates, recover checkpoint + WAL into a fresh base and compare
        ``base_state`` digests.  The base stays live, without a WAL.
        Returns the paths, so later recoveries can repeat this one."""
        db = base.db
        if ledger is not None:
            ledger.install()
        wal_path = self.attach_wal(base, "durability")
        ckpt_path = self.checkpoint(base, "durability")
        if ledger is not None:
            self.spans["to_document_us"] = ledger.incl_ns["persistence.to_document"] / 1e3
        tail = workloads.DeckStream(self.workload, self.seed * 1_000_003 + 29).update_deck()
        self.run_ops(base, tail)
        db.detach_wal().close()
        live = base_state(db)
        if ledger is not None:
            ledger.reset()
        fresh = self.recover(ckpt_path, wal_path)
        if ledger is not None:
            ledger.uninstall()
            self.spans["load_us"] = ledger.incl_ns["persistence.load"] / 1e3
            self.spans["replay_us"] = (self.recover_times[-1] * 1e6 - self.spans["load_us"]
                                       - ledger.incl_ns["persistence.read_wal"] / 1e3)
        workloads.after_recover(fresh)
        recovered = base_state(fresh)
        if fresh.config.maintenance == "delta":
            # Replay runs before delta handlers can be re-declared, so a
            # patched update replays as invalidate + remat by design (the
            # data agrees; the work counters cannot).
            counters = [k for k in live["stats"] if live["stats"][k] != recovered["stats"][k]]
            if counters:
                print(f"note: replay-dependent counters differ: {counters}", file=sys.stderr)
            del live["stats"], recovered["stats"]
        diverging = [key for key in live if live[key] != recovered.get(key)]
        if diverging:
            self.fail(f"recovered base_state differs in {diverging}")
        return ckpt_path, wal_path

    # -- the two kinds of run -------------------------------------------

    def end_to_end(self) -> dict:
        """Base 1 gets the durability cycle; base 2 runs the measured
        phase, with checkpoints of base 1 and recoveries of its files
        between the phase's windows, and the further set-ups."""
        fixed = self.setup()
        paths = self.durability(fixed)
        base = self.setup()
        self.attach_wal(base, "phase")
        phase = Phase(self, base)
        del base
        one_shots = itertools.cycle([lambda: self.checkpoint(fixed, "fixed"),
                                     lambda: self.recover(*paths)])
        setup_at = [self.seconds * k / (SETUPS - 1) for k in range(1, SETUPS - 1)]
        gc.collect()
        one_shot_s = 0.0
        while phase.wall + one_shot_s < self.seconds:
            windows = len(phase.windows)
            phase.run_deck()
            if len(phase.windows) == windows:
                continue
            if setup_at and phase.wall + one_shot_s >= setup_at[0]:
                setup_at.pop(0)
                self.setup()
                gc.collect()
            elif one_shot_s < ONE_SHOT_SHARE * phase.wall:
                start = perf_counter()
                next(one_shots)()
                one_shot_s += perf_counter() - start
        for _ in setup_at:
            self.setup()
        self.check_invariants(phase)
        phase.base.db.detach_wal().close()

        slow = phase.slow_windows()
        metrics = {
            "setup_s": statistics.median(self.setup_times),
            "checkpoint_s": quantile(self.checkpoint_times, SLOW_QUANTILE),
            "recover_s": quantile(self.recover_times, SLOW_QUANTILE),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **phase_metrics(slow, phase.windows),
        }
        every = phase.samples()
        self.report = {
            "samples": {cls: len(values) for cls, values in every.items()},
            "slow_samples": {cls: len(values) for cls, values in pooled(slow).items()},
            "windows": len(phase.windows), "slow_windows": len(slow),
            "checkpoints": len(self.checkpoint_times), "recoveries": len(self.recover_times),
            "ops": phase.ops, "decks": phase.decks, "phase_s": phase.wall,
            # ops_per_s and the p50s over the whole phase, and medians of
            # the one-shot repeats, to compare how steady each reading is.
            "run_wide": {
                "checkpoint_s": statistics.median(self.checkpoint_times),
                "recover_s": statistics.median(self.recover_times),
                **phase_metrics(phase.windows, phase.windows),
            },
        }
        return {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}

    def per_layer(self) -> dict:
        """Bases 1 and 2 run the same decks in alternation, base 2 with
        the span recorders installed for its decks only.  Base 3: the
        traced durability cycle."""
        from ledger import Ledger

        base = self.setup()
        self.attach_wal(base, "reference")
        reference = Phase(self, base)
        base = self.setup()
        self.attach_wal(base, "traced")
        ledger = Ledger()
        ledger.install()
        try:
            traced = Phase(self, base, ledger)
        finally:
            ledger.uninstall()
        del base
        gc.collect()
        while reference.wall + traced.wall < self.seconds:
            reference.run_deck()
            ledger.install()
            try:
                traced.run_deck()
            finally:
                ledger.uninstall()
        reference.base.db.detach_wal().close()
        reference.base = None
        self_us = {name: ns / 1e3 for name, ns in ledger.self_ns.items()}
        incl_us = {name: ns / 1e3 for name, ns in ledger.incl_ns.items()}
        calls = dict(ledger.calls)
        extension_handles = ledger.extension_handles
        layers_us = {layer: ns / 1e3 for layer, ns in ledger.by_layer().items()}
        deltas = traced.deltas()
        self.check_invariants(traced)
        traced.base.db.detach_wal().close()
        traced.base = None

        ledger.reset()
        try:
            self.durability(self.setup(), ledger)
        finally:
            ledger.uninstall()

        ops = traced.ops
        samples = traced.samples()
        queries = len(samples["qfw"]) + len(samples["qbw"])
        updates = len(samples["update"])
        stats = deltas["stats"]
        buffer = deltas["buffer"]
        remats = stats["rematerializations"]
        patches = stats["delta_patches"]
        root_us = incl_us.get("op", 0.0)

        def per_op(name: str) -> float:
            return self_us.get(name, 0.0) / ops

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        metrics = {
            "gomql.parse_us": (per_op("gomql.parse"), "us/op"),
            "gomql.plan_us": (per_op("gomql.plan"), "us/op"),
            "gomql.execute_self_us": (per_op("gomql.execute"), "us/op"),
            "gom.extension_us": (per_op("gom.extension"), "us/op"),
            "gom.extension_handles_per_query": (ratio(extension_handles, queries), "count"),
            "gom.read_attr_calls_per_op": (ratio(calls.get("gom.read_attr", 0), ops), "count"),
            "gom.read_attr_us": (per_op("gom.read_attr"), "us/op"),
            "gom.set_attr_calls_per_update": (ratio(calls.get("gom.set_attr", 0), updates), "count"),
            "gom.set_attr_self_us": (per_op("gom.set_attr"), "us/op"),
            "gom.invoke_self_us": (per_op("gom.invoke"), "us/op"),
            "core.retrieve_forward_self_us": (per_op("core.retrieve_forward"), "us/op"),
            "core.forward_hit_ratio": (ratio(stats["forward_hits"], stats["forward_hits"] + stats["forward_computes"]), "ratio"),
            "core.backward_query_self_us": (per_op("core.backward_query"), "us/op"),
            "core.invalidate_self_us": (per_op("core.invalidate"), "us/op"),
            "core.entries_invalidated_per_update": (ratio(stats["entries_invalidated"], updates), "count"),
            "core.remats_per_update": (ratio(remats, updates), "count"),
            "core.remat_body_us": (incl_us.get("core.call_function", 0.0) / ops, "us/op"),
            "core.delta_patches": (patches, "count"),
            "core.delta_fallbacks": (stats["delta_fallbacks"], "count"),
            "core.patch_ratio": (ratio(patches, patches + remats), "ratio"),
            "storage.btree_search_us": (per_op("storage.btree_search"), "us/op"),
            "storage.btree_write_us": (per_op("storage.btree_write"), "us/op"),
            "storage.gmr_store_self_us": (per_op("storage.gmr_store"), "us/op"),
            "storage.wal_appends_per_update": (ratio(calls.get("storage.wal_append", 0), updates), "count"),
            "storage.wal_bytes_per_update": (ratio(deltas["wal_bytes"], updates), "B"),
            "storage.wal_append_us": (per_op("storage.wal_append"), "us/op"),
            "storage.buffer_hit_ratio": (ratio(buffer.hits, buffer.hits + buffer.misses), "ratio"),
            "storage.page_misses_per_op": (ratio(buffer.misses, ops), "count"),
            "storage.sim_cost_per_op": (ratio(deltas["cost"], ops), "cost"),
            "storage.base_pages_per_buffer_page": (ratio(self.base_pages, self.buffer_pages), "ratio"),
            "persistence.to_document_us": (self.spans["to_document_us"], "us"),
            "persistence.snapshot_bytes": (self.snapshot_bytes, "B"),
            "persistence.load_us": (self.spans["load_us"], "us"),
            "persistence.replay_us": (self.spans["replay_us"], "us"),
            "persistence.records_replayed": (self.records_replayed, "count"),
            "trace.overhead_frac": (ratio(traced.op_ns, reference.op_ns) - 1.0, "ratio"),
            "trace.unattributed_frac": (ratio(self_us.get("op", 0.0), root_us), "ratio"),
        }
        # The layers' self times add up to the root spans by construction;
        # held against the op time run_ops measured around them, they show
        # time the ledger lost or counted twice.  The slack covers the root
        # wrapper's own call.
        traced_wall_us = traced.op_ns / 1e3
        reconcile_error = sum(layers_us.values()) - traced_wall_us
        self.report = {"ops": ops, "decks": traced.decks, "layers_us": layers_us,
                       "traced_wall_us": traced_wall_us, "reconcile_error_us": reconcile_error}
        if abs(reconcile_error) > 0.02 * traced_wall_us:
            self.fail(f"layer self times do not reconcile with traced wall time: {self.report}")
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global workloads, WriteAheadLog, checkpoint, recover, base_state
    import workloads
    from repro.persistence import base_state, checkpoint, recover
    from repro.storage.wal import WriteAheadLog

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    workdir = HERE / f".work-{os.getpid()}"
    workdir.mkdir()
    calibration_before = calibrate()
    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, workdir)
    try:
        raw = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calibration_after = calibrate()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "wal": "flush on every append, fsync=False",
        "calibration_ms": {"before": round(calibration_before, 3),
                           "after": round(calibration_after, 3)},
        "base_pages": run.base_pages, "buffer_pages": run.buffer_pages,
        "setup_times_s": [round(t, 4) for t in run.setup_times],
        "checkpoint_times_s": [round(t, 4) for t in run.checkpoint_times],
        "recover_times_s": [round(t, 4) for t in run.recover_times],
        **run.report,
    }
    for name, (value, unit) in raw.items():
        print(f"{name:40s} {value:16.4f} {unit}")
    print("# record " + json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
