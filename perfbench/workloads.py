"""The three benchmark workloads: base builders, op generators, op runners.

A workload is a seeded base plus a seeded, pre-generated op stream.  The
generator tracks the live keys itself (inserts add a key, deletes remove
one), so nothing it emits reads the object base; the runner only turns an
op tuple into public calls.  Bases are built from the ``repro.domains``
schema builders and the public ``ObjectBase`` API, never from the figure
harness in ``repro.bench``.

Ops are drawn in *decks*: each deck holds every op code exactly in the
mix's share (largest-remainder rounding) in seeded random order.  The
expected mix equals an independent draw per op, but the count of each
code inside a timed window no longer varies with the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro import ObjectBase
from repro.domains.company import (
    build_company_schema,
    define_company_deltas,
    populate_company,
)
from repro.domains.geometry import (
    build_geometry_schema,
    create_cuboid,
    create_material,
    create_vertex,
)
from repro.gomql import run_statement
from repro.observe.config import MaterializationConfig
from repro.util.rng import DeterministicRng

_CUBOID_QFW = "range c: Cuboid retrieve c.volume where c.CuboidID = k"
_CUBOID_QBW = "range c: Cuboid retrieve c where c.volume > lo and c.volume < hi"
_RANKING_QFW = "range e: Employee retrieve e.ranking where e.EmpNo = k"
_RANKING_QBW = "range e: Employee retrieve e where e.ranking > lo and e.ranking < hi"

#: Parameter vertices created with the base: ``S`` and ``T`` pass one of
#: them to ``Cuboid.scale`` / ``Cuboid.translate`` so the timed call is
#: exactly the public update, with no setter calls in front of it.
_PARAM_VERTICES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    #: Update probability Pup and the weighted codes of each side.
    pup: float
    queries: tuple
    updates: tuple
    #: Ops per deck; the measured phase ends on a deck boundary.
    deck: int
    #: Updates replayed by the durability cycle (a fixed WAL tail).
    durability_updates: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cuboid-read",
            pup=0.05,
            queries=((0.7, "Qfw"), (0.3, "Qbw")),
            updates=((1.0, "S"), (1.0, "I"), (1.0, "D")),
            deck=60,
            durability_updates=150,
        ),
        Workload(
            name="cuboid-update",
            pup=0.9,
            # Qbw keeps the backward query measured on the write path's
            # GMR store (3% of ops).
            queries=((0.7, "Qfw"), (0.3, "Qbw")),
            updates=((0.4, "R"), (0.3, "S"), (0.1, "T"), (0.1, "I"), (0.1, "D")),
            deck=100,
            durability_updates=300,
        ),
        Workload(
            name="company-maint",
            pup=0.5,
            queries=((0.4, "Qfw"), (0.3, "Qbw"), (0.3, "Qsel")),
            # Drop-project (X) in place of hire, which recomputes the
            # whole matrix; N and X in equal shares keep the matrix's size
            # steady (see README).
            updates=((0.6, "P"), (0.2, "N"), (0.2, "X")),
            deck=60,
            # One promote: an N or X replays as a full matrix recompute,
            # because delta handlers are declared after recovery.
            durability_updates=1,
        ),
    )
}


def deck_counts(workload: Workload) -> dict[str, int]:
    """Exact per-code counts of one deck (largest-remainder rounding)."""
    shares: dict[str, float] = {}
    for side, weight in ((workload.queries, 1.0 - workload.pup),
                         (workload.updates, workload.pup)):
        total = sum(w for w, _ in side)
        for w, code in side:
            shares[code] = shares.get(code, 0.0) + weight * w / total
    exact = {code: share * workload.deck for code, share in shares.items()}
    counts = {code: math.floor(value) for code, value in exact.items()}
    short = workload.deck - sum(counts.values())
    by_remainder = sorted(exact, key=lambda c: (counts[c] - exact[c], c))
    for code in by_remainder[:short]:
        counts[code] += 1
    return counts


def update_deck_counts(workload: Workload) -> dict[str, int]:
    """Per-code counts of an updates-only deck of ``durability_updates``."""
    updates_only = Workload(
        name=workload.name, pup=1.0, queries=(),
        updates=workload.updates, deck=workload.durability_updates,
        durability_updates=0,
    )
    return deck_counts(updates_only)


# ---------------------------------------------------------------------------
# Cuboid application
# ---------------------------------------------------------------------------


class CuboidBase:
    """A Cuboid base (Sec. 7.1) with ``volume`` materialized."""

    def __init__(self, cuboids: int, seed: int) -> None:
        rng = DeterministicRng(seed)
        self.db = db = ObjectBase()
        build_geometry_schema(db)
        self.materials = [
            create_material(db, "Iron", 7.86),
            create_material(db, "Gold", 19.0),
            create_material(db, "Copper", 8.96),
        ]
        self.cuboids: dict[int, object] = {}
        for key in range(1, cuboids + 1):
            self.cuboids[key] = create_cuboid(
                db,
                origin=(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50)),
                dims=(rng.uniform(1, 10), rng.uniform(1, 10), rng.uniform(1, 10)),
                material=rng.choice(self.materials),
                value=rng.uniform(1.0, 100.0),
                cuboid_id=key,
            )
        self.scale_params = [
            create_vertex(db, rng.uniform(0.8, 1.25), rng.uniform(0.8, 1.25), rng.uniform(0.8, 1.25))
            for _ in range(_PARAM_VERTICES)
        ]
        self.translate_params = [
            create_vertex(db, rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
            for _ in range(_PARAM_VERTICES)
        ]
        db.create_attr_index("Cuboid", "CuboidID")
        self.volume = db.materialize([("Cuboid", "volume")]).function("Cuboid.volume")

    def run(self, op: tuple):
        """Execute one op through the public API; return its result."""
        code = op[0]
        db = self.db
        if code == "Qfw":
            return run_statement(db, _CUBOID_QFW, {"k": op[1]})
        if code == "Qbw":
            return run_statement(db, _CUBOID_QBW, {"lo": op[1], "hi": op[2]})
        if code == "S":
            return self.cuboids[op[1]].scale(self.scale_params[op[2]])
        if code == "T":
            return self.cuboids[op[1]].translate(self.translate_params[op[2]])
        if code == "R":
            return self.cuboids[op[1]].rotate(op[2], op[3])
        if code == "I":
            _, key, origin, dims, material, value = op
            self.cuboids[key] = create_cuboid(
                db, origin=origin, dims=dims,
                material=self.materials[material], value=value, cuboid_id=key,
            )
            return None
        if code == "D":
            return db.delete(self.cuboids.pop(op[1]))
        raise ValueError(f"unknown cuboid op {code!r}")

    @staticmethod
    def result_ok(op: tuple, result) -> bool:
        """Shape check made on every measured query (outside timing)."""
        if op[0] == "Qfw":
            return len(result) == 1 and isinstance(result[0], float)
        if op[0] == "Qbw":
            return isinstance(result, list)
        return True

    def check_queries(self, rng: random.Random, count: int) -> list[str]:
        """Sampled forward/backward queries vs direct ``call_function``."""
        volumes = {
            key: self.db.call_function(self.volume, (handle.oid,))
            for key, handle in self.cuboids.items()
        }
        keys = sorted(volumes)
        errors = []
        for _ in range(count):
            key = rng.choice(keys)
            got = run_statement(self.db, _CUBOID_QFW, {"k": key})
            if len(got) != 1 or not math.isclose(got[0], volumes[key], rel_tol=1e-12):
                errors.append(f"Qfw k={key}: {got!r} != {volumes[key]!r}")
            center = rng.uniform(0.0, 1000.0)
            lo, hi = center - 5.0, center + 5.0
            got_keys = sorted(
                h.CuboidID for h in run_statement(self.db, _CUBOID_QBW, {"lo": lo, "hi": hi})
            )
            want = sorted(k for k, v in volumes.items() if lo < v < hi)
            if got_keys != want:
                errors.append(f"Qbw ({lo:.3f},{hi:.3f}): {got_keys} != {want}")
        return errors


class KeyPool:
    """The live keys of a generator: a seeded pick, a new key (one above
    every key so far) and the removal of a picked key."""

    def __init__(self, keys) -> None:
        self.keys = list(keys)
        self.slot = {key: index for index, key in enumerate(self.keys)}
        self.next_key = max(self.keys) + 1

    def pick(self, rng: random.Random) -> int:
        return self.keys[rng.randrange(len(self.keys))]

    def add(self) -> int:
        key = self.next_key
        self.next_key += 1
        self.slot[key] = len(self.keys)
        self.keys.append(key)
        return key

    def remove(self, rng: random.Random) -> int:
        key = self.pick(rng)
        index = self.slot.pop(key)
        last = self.keys.pop()
        if last != key:
            self.keys[index] = last
            self.slot[last] = index
        return key


class CuboidGenerator:
    """Seeded cuboid op stream; tracks the live CuboidIDs itself."""

    def __init__(self, cuboids: int, rng: random.Random) -> None:
        self.rng = rng
        self.live = KeyPool(range(1, cuboids + 1))

    def _key(self) -> int:
        return self.live.pick(self.rng)

    def op(self, code: str) -> tuple:
        rng = self.rng
        if code == "Qfw":
            return ("Qfw", self._key())
        if code == "Qbw":
            center = rng.uniform(0.0, 1000.0)
            return ("Qbw", center - 5.0, center + 5.0)
        if code == "S":
            return ("S", self._key(), rng.randrange(_PARAM_VERTICES))
        if code == "T":
            return ("T", self._key(), rng.randrange(_PARAM_VERTICES))
        if code == "R":
            return ("R", self._key(), rng.choice("xyz"), rng.uniform(0.0, 3.14))
        if code == "I":
            key = self.live.add()
            origin = (rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50))
            dims = (rng.uniform(1, 10), rng.uniform(1, 10), rng.uniform(1, 10))
            return ("I", key, origin, dims, rng.randrange(3), rng.uniform(1.0, 100.0))
        if code == "D":
            return ("D", self.live.remove(rng))
        raise ValueError(f"unknown cuboid op {code!r}")


# ---------------------------------------------------------------------------
# Company application
# ---------------------------------------------------------------------------

_DEPARTMENTS = 10
_EMPLOYEES_PER_DEPARTMENT = 40
_PROJECTS = 300
#: Three jobs per employee keeps the base inside the 150-page buffer.
_JOBS_PER_EMPLOYEE = 3
_NEW_PROJECT_STAFF = 5


class CompanyBase:
    """A Company base (Sec. 7.2) with ``ranking`` and ``matrix``
    materialized under ``maintenance="delta"`` with the domain's deltas."""

    def __init__(self, seed: int) -> None:
        self.db = db = ObjectBase(config=MaterializationConfig(maintenance="delta"))
        build_company_schema(db)
        fixture = populate_company(
            db, DeterministicRng(seed),
            departments=_DEPARTMENTS,
            employees_per_department=_EMPLOYEES_PER_DEPARTMENT,
            projects=_PROJECTS,
            jobs_per_employee=_JOBS_PER_EMPLOYEE,
        )
        self.company = fixture.company
        self.departments = fixture.departments
        self.employees = fixture.employees
        self.jobs = fixture.jobs
        #: Live projects by the generator's key: the populated ones are
        #: 0..projects-1, each N adds the next key.
        self.projects = dict(enumerate(fixture.projects))
        db.create_attr_index("Employee", "EmpNo")
        self.ranking = db.materialize([("Employee", "ranking")]).function("Employee.ranking")
        db.materialize([("Company", "matrix")])
        define_company_deltas(db)

    def run(self, op: tuple):
        code = op[0]
        db = self.db
        if code == "Qfw":
            return run_statement(db, _RANKING_QFW, {"k": op[1]})
        if code == "Qbw":
            return run_statement(db, _RANKING_QBW, {"lo": op[1], "hi": op[2]})
        if code == "Qsel":
            department = self.departments[op[1]]
            return [line.proj for line in self.company.matrix() if line.dep == department]
        if code == "P":
            job = self.jobs[op[1]]
            if op[2]:
                return job.set_OnTime(not job.OnTime)
            return job.set_WithinBudget(not job.WithinBudget)
        if code == "N":
            _, key, status, size, staff = op
            project = db.new(
                "Project", PName=f"NP{key}", Status=status, Size=size,
                Programmers=db.new_collection(
                    "Employees", [self.employees[i] for i in staff]
                ),
            )
            self.projects[key] = project
            return self.company.add_project(project)
        if code == "X":
            return self.company.drop_project(self.projects.pop(op[1]))
        raise ValueError(f"unknown company op {code!r}")

    @staticmethod
    def result_ok(op: tuple, result) -> bool:
        if op[0] == "Qfw":
            return len(result) == 1 and isinstance(result[0], float)
        if op[0] in ("Qbw", "Qsel"):
            return isinstance(result, list)
        return True

    def check_queries(self, rng: random.Random, count: int) -> list[str]:
        """Sampled ranking queries vs direct ``call_function``."""
        direct = {
            employee.EmpNo: self.db.call_function(self.ranking, (employee.oid,))
            for employee in self.employees
        }
        numbers = sorted(direct)
        errors = []
        for _ in range(count):
            number = rng.choice(numbers)
            got = run_statement(self.db, _RANKING_QFW, {"k": number})
            if len(got) != 1 or not math.isclose(got[0], direct[number], rel_tol=1e-12):
                errors.append(f"Qfw k={number}: {got!r} != {direct[number]!r}")
            lo, hi = _ranking_range(rng)
            got_numbers = sorted(
                h.EmpNo for h in run_statement(self.db, _RANKING_QBW, {"lo": lo, "hi": hi})
            )
            want = sorted(n for n, v in direct.items() if lo < v < hi)
            if got_numbers != want:
                errors.append(f"Qbw ({lo:.3f},{hi:.3f}): {got_numbers} != {want}")
        return errors


def _ranking_range(rng: random.Random) -> tuple[float, float]:
    center = rng.uniform(0.0, 12.0)
    return center - 0.3, center + 0.3


class CompanyGenerator:
    """Seeded company op stream; tracks the live projects itself."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.employees = _DEPARTMENTS * _EMPLOYEES_PER_DEPARTMENT
        self.jobs = self.employees * _JOBS_PER_EMPLOYEE
        self.live = KeyPool(range(_PROJECTS))

    def op(self, code: str) -> tuple:
        rng = self.rng
        if code == "Qfw":
            return ("Qfw", rng.randint(1, self.employees))
        if code == "Qbw":
            return ("Qbw", *_ranking_range(rng))
        if code == "Qsel":
            return ("Qsel", rng.randrange(_DEPARTMENTS))
        if code == "P":
            return ("P", rng.randrange(self.jobs), rng.random() < 0.5)
        if code == "N":
            staff = tuple(rng.sample(range(self.employees), _NEW_PROJECT_STAFF))
            return ("N", self.live.add(), rng.uniform(-1000.0, 1000.0),
                    rng.randint(1_000, 100_000), staff)
        if code == "X":
            return ("X", self.live.remove(rng))
        raise ValueError(f"unknown company op {code!r}")


# ---------------------------------------------------------------------------
# Workload entry points
# ---------------------------------------------------------------------------

_CUBOIDS = {"cuboid-read": 4000, "cuboid-update": 2000}


def build_base(workload: Workload, seed: int):
    """Build the workload's base (schema, population, indexes, GMRs)."""
    if workload.name in _CUBOIDS:
        return CuboidBase(_CUBOIDS[workload.name], seed)
    return CompanyBase(seed)


def empty_base(workload: Workload) -> ObjectBase:
    """A fresh base with only the schema, to recover into."""
    if workload.name in _CUBOIDS:
        db = ObjectBase()
        build_geometry_schema(db)
    else:
        db = ObjectBase(config=MaterializationConfig(maintenance="delta"))
        build_company_schema(db)
    return db


def after_recover(db: ObjectBase) -> None:
    """Re-declare what a checkpoint does not hold (delta handlers are code)."""
    if db.config.maintenance == "delta":
        define_company_deltas(db)


class DeckStream:
    """The seeded op stream of one workload, produced a deck at a time."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.rng = rng = random.Random(seed)
        if workload.name in _CUBOIDS:
            self.generator = CuboidGenerator(_CUBOIDS[workload.name], rng)
        else:
            self.generator = CompanyGenerator(rng)

    def _deal(self, counts: dict[str, int]) -> list[tuple]:
        deck = [code for code in sorted(counts) for _ in range(counts[code])]
        self.rng.shuffle(deck)
        return [self.generator.op(code) for code in deck]

    def next_deck(self) -> list[tuple]:
        return self._deal(deck_counts(self.workload))

    def update_deck(self) -> list[tuple]:
        """One updates-only deck of ``durability_updates`` ops."""
        return self._deal(update_deck_counts(self.workload))
