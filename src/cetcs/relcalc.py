"""Relations as jointly monic leg tuples, and the calculus on them.

A relation between carriers X1,...,Xn is a common domain R together with
legs ri: R -> Xi that are jointly monic, i.e. distinct points of R are told
apart by some leg.  In the finite model this just says the rows
(r1(a),...,rn(a)) are pairwise distinct, which is what construction-time
validation checks (and what the witness reports when it fails).

Subobjects are the arity-1 case.  Inclusion comes in two independently
computable flavours: membership comparison of rows, and existence of a
factoring map; one of the checked statements is that they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CompositionError, JointMonicityError, ShapeError
from .finset import (
    FinMor,
    FinObj,
    compose,
    tuple_label,
)


@dataclass(frozen=True)
class Relation:
    """A jointly monic tuple of legs out of a shared domain.

    ``dom`` is stored explicitly so the arity-0 case (a subterminal) still
    knows its carrier.  Rows are exposed as ``tuples``/``member``.
    """

    dom: FinObj
    legs: tuple[FinMor, ...]

    def __post_init__(self):
        for leg in self.legs:
            if leg.dom != self.dom:
                raise ShapeError("relation legs must share their domain")
        seen: dict[tuple[str, ...], str] = {}
        for a in self.dom.labels:
            row = tuple(leg(a) for leg in self.legs)
            if row in seen:
                raise JointMonicityError(
                    f"legs are not jointly monic: {seen[row]!r} and {a!r} "
                    f"share the row {row!r}",
                    (seen[row], a),
                )
            seen[row] = a

    @property
    def arity(self) -> int:
        return len(self.legs)

    @property
    def cods(self) -> tuple[FinObj, ...]:
        return tuple(leg.cod for leg in self.legs)

    @cached_property
    def tuples(self) -> tuple[tuple[str, ...], ...]:
        """All rows, in domain order."""
        return tuple(
            tuple(leg(a) for leg in self.legs) for a in self.dom.labels
        )

    @cached_property
    def _rows(self) -> frozenset:
        return frozenset(self.tuples)

    def member(self, row: Sequence[str]) -> bool:
        return tuple(row) in self._rows

    def __str__(self) -> str:
        rows = ", ".join(tuple_label(r) for r in self.tuples)
        tgt = ", ".join(str(c) for c in self.cods)
        return f"<| ({tgt}) = {{ {rows} }}"


def make_relation(legs: Sequence[FinMor]) -> Relation:
    """Validated constructor; raises with a witness pair when not jointly monic."""
    legs = tuple(legs)
    if not legs:
        raise ShapeError("make_relation needs at least one leg; "
                         "build arity-0 relations with Relation(dom=..., legs=())")
    return Relation(dom=legs[0].dom, legs=legs)


def relation_from_tuples(
    rows: Iterable[Sequence[str]], cods: Sequence[FinObj]
) -> Relation:
    """The canonical relation with the given rows, in row-sorted order.

    The domain carrier is labelled by the rendered rows themselves (bare
    label for arity 1), so witnesses stay readable.
    """
    cods = tuple(cods)
    ordered = sorted(tuple(r) for r in set(map(tuple, rows)))
    for row in ordered:
        if len(row) != len(cods):
            raise ShapeError(f"row {row!r} has wrong arity")
        for x, c in zip(row, cods):
            if x not in c:
                raise ShapeError(f"row entry {x!r} not in {c}")
    if len(cods) == 1:
        labels = tuple(r[0] for r in ordered)
    else:
        labels = tuple(tuple_label(r) for r in ordered)
    dom = FinObj(labels)
    legs = tuple(
        FinMor(dom, c, tuple(r[i] for r in ordered)) for i, c in enumerate(cods)
    )
    return Relation(dom=dom, legs=legs)


def sub_relation(m: FinMor) -> Relation:
    """View a monic map as an arity-1 relation (a subobject)."""
    return make_relation((m,))


# ---------------------------------------------------------------------------
# inclusion of subobjects, two ways


def subseteq(m: Relation, n: Relation) -> bool:
    """Row-level inclusion: every member of m is a member of n."""
    if m.cods != n.cods:
        raise ShapeError("inclusion needs relations into the same carriers")
    return all(n.member(row) for row in m.tuples)


def leq(m: Relation, n: Relation) -> tuple[bool, FinMor | None]:
    """Factoring inclusion: a map f with n∘f = m, returned as the witness.

    The witness is unique when it exists because n is jointly monic.
    """
    if m.cods != n.cods:
        raise ShapeError("inclusion needs relations into the same carriers")
    locate = {row: a for row, a in zip(n.tuples, n.dom.labels)}
    table = []
    for row in m.tuples:
        if row not in locate:
            return False, None
        table.append(locate[row])
    f = FinMor(m.dom, n.dom, tuple(table))
    for k, (leg_m, leg_n) in enumerate(zip(m.legs, n.legs)):
        if compose(leg_n, f) != leg_m:
            raise CompositionError(f"factoring witness fails n∘f = m on leg {k}")
    return True, f


# ---------------------------------------------------------------------------
# binary relations as (partial) functions


def is_partial_function(r: Relation) -> bool:
    """First-leg monicity: each x relates to at most one y."""
    if r.arity != 2:
        raise ShapeError("partial-function test needs a binary relation")
    return r.legs[0].is_injective()


def is_total_function(r: Relation) -> bool:
    """First-leg bijectivity: each x relates to exactly one y."""
    if r.arity != 2:
        raise ShapeError("total-function test needs a binary relation")
    return r.legs[0].is_bijective()


def unique_choice(r: Relation) -> FinMor:
    """Extract the map x -> y from a total functional relation.

    Raises with the offending x when some x has no or several related y.
    """
    if r.arity != 2:
        raise ShapeError("unique choice needs a binary relation")
    x_obj, y_obj = r.cods
    related: dict[str, list[str]] = {x: [] for x in x_obj.labels}
    for x, y in r.tuples:
        related[x].append(y)
    table = []
    for x in x_obj.labels:
        ys = related[x]
        if len(ys) != 1:
            raise ShapeError(
                f"no unique choice at {x!r}: related to {len(ys)} values"
            )
        table.append(ys[0])
    return FinMor(x_obj, y_obj, tuple(table))


__all__ = [
    "Relation",
    "make_relation",
    "relation_from_tuples",
    "sub_relation",
    "subseteq",
    "leq",
    "is_partial_function",
    "is_total_function",
    "unique_choice",
]
