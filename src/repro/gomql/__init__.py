"""GOMql: the QUEL-like query language of GOM.

Supports the statement forms used throughout the paper::

    range c: Cuboid
    retrieve c
    where c.volume > 20.0 and c.weight > 100.0

    range c: MyCuboids retrieve sum(c.weight)

    range c: Cuboid
    materialize c.volume, c.weight
    where c.Mat.Name = "Iron"

``retrieve`` queries return a list of tuples (or a scalar for a single
aggregate); ``materialize`` statements create a GMR (optionally
restricted) and return it.  External objects and collections are passed
to :func:`run_statement` as named parameters referenced by bare
identifiers in the query text.

The planner (Sec. 3.2) exploits GMRs: *backward* queries with range
predicates over materialized function results are answered from the GMR's
result index (after the Sec. 6 cover test for restricted GMRs), *forward*
invocations of materialized functions are mapped to GMR probes by the
operation dispatch itself, and equality predicates over indexed
attributes use the attribute index.  A range variable answered by a plan
never builds its type's extension, and statement texts are parsed once
(a bounded LRU), so a planned query costs O(answer).
"""

from repro.gomql.parser import parse_statement
from repro.gomql.executor import run_statement, execute
from repro.gomql.explain import explain_statement

__all__ = ["parse_statement", "run_statement", "execute", "explain_statement"]
