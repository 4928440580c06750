"""Finite carriers and total mapping tables, with their universal constructions.

This is the concrete category everything else computes in: an object is a
finite tuple of distinct string labels, a morphism is a total lookup table
between two carriers.  Constructions fix canonical labels so repeated runs
produce identical output:

* products label tuples ``(a,b)`` in first-factor-major order,
* sums tag labels ``inl:a`` / ``inr:b``,
* dependent products label points by their sections, ``(i|x0↦y1,x1↦y0)``,
* coequalizers and quotients reuse the least label of each merged class,
* equalizers and images keep the ambient labels they select.

Everything is immutable; plain enumeration is used throughout, which is the
point: carriers stay at desk scale and every claim is checked by exhaustion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .errors import CompositionError, EquivalenceError, ShapeError

TERMINAL_LABEL = "★"


@dataclass(frozen=True)
class FinObj:
    """A finite carrier: an ordered tuple of distinct labels.

    Label order is the canonical order of the carrier (declaration order for
    user-defined objects, documented construction order otherwise).
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ShapeError(f"duplicate labels in carrier {self.labels!r}")
        for lbl in self.labels:
            if not lbl:
                raise ShapeError("empty string is not a valid label")

    @cached_property
    def index(self) -> dict[str, int]:
        return {lbl: i for i, lbl in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.index

    def __str__(self) -> str:
        return "{" + ", ".join(self.labels) + "}"


@dataclass(frozen=True)
class FinMor:
    """A total mapping table; ``table[i]`` is the image of ``dom.labels[i]``."""

    dom: FinObj
    cod: FinObj
    table: tuple[str, ...]

    def __post_init__(self):
        if len(self.table) != len(self.dom):
            raise ShapeError(
                f"table length {len(self.table)} != domain size {len(self.dom)}"
            )
        for value in self.table:
            if value not in self.cod:
                raise ShapeError(f"table value {value!r} not in codomain {self.cod}")

    @classmethod
    def _trusted(cls, dom: FinObj, cod: FinObj, table: tuple[str, ...]) -> "FinMor":
        """Build a morphism without running ``__post_init__``.

        Invariant: ``table`` is a tuple of length ``len(dom)`` whose entries
        all lie in ``cod``, so validation could not fail.  Only two callers
        may rely on it, because their tables hold that invariant by
        construction: ``compose``, which reads every entry out of
        ``g.table``, and ``all_maps``, which draws tables of length
        ``len(a)`` from ``b.labels``.  Everything else, the public
        constructor and every construction included, validates.
        """
        mor = object.__new__(cls)
        fields = mor.__dict__
        fields["dom"] = dom
        fields["cod"] = cod
        fields["table"] = table
        return mor

    @classmethod
    def from_mapping(cls, dom: FinObj, cod: FinObj, mapping: Mapping[str, str]) -> "FinMor":
        missing = [lbl for lbl in dom.labels if lbl not in mapping]
        if missing:
            raise ShapeError(f"mapping not total, missing {missing[0]!r}")
        extra = [key for key in mapping if key not in dom]
        if extra:
            raise ShapeError(f"mapping key {extra[0]!r} not in domain {dom}")
        return cls(dom, cod, tuple(mapping[lbl] for lbl in dom.labels))

    def __call__(self, label: str) -> str:
        return self.table[self.dom.index[label]]

    @cached_property
    def mapping(self) -> dict[str, str]:
        return dict(zip(self.dom.labels, self.table))

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_surjective(self) -> bool:
        return set(self.table) == set(self.cod.labels)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def __str__(self) -> str:
        entries = ", ".join(f"{a} |-> {b}" for a, b in zip(self.dom.labels, self.table))
        return f"{self.dom} -> {self.cod} [{entries}]"


def carrier(*labels: str) -> FinObj:
    return FinObj(tuple(labels))


def carrier_of_size(n: int, prefix: str = "u") -> FinObj:
    return FinObj(tuple(f"{prefix}{i}" for i in range(n)))


def terminal() -> FinObj:
    return FinObj((TERMINAL_LABEL,))


def initial() -> FinObj:
    return FinObj(())


def identity(a: FinObj) -> FinMor:
    return FinMor(a, a, a.labels)


def compose(g: FinMor, f: FinMor) -> FinMor:
    """The composite g∘f; raises if cod(f) and dom(g) disagree."""
    if f.cod is not g.dom and f.cod != g.dom:
        raise CompositionError(
            f"cannot compose: codomain of [{f}] is not the domain of [{g}]"
        )
    index, table = g.dom.index, g.table
    return FinMor._trusted(f.dom, g.cod, tuple([table[index[v]] for v in f.table]))


def element(a: FinObj, label: str) -> FinMor:
    """The label seen as a point, a morphism from the terminal carrier."""
    if label not in a:
        raise ShapeError(f"{label!r} is not a label of {a}")
    return FinMor(terminal(), a, (label,))


def unique_to_terminal(a: FinObj) -> FinMor:
    return FinMor(a, terminal(), (TERMINAL_LABEL,) * len(a))


def unique_from_initial(a: FinObj) -> FinMor:
    return FinMor(initial(), a, ())


def all_maps(a: FinObj, b: FinObj) -> Iterator[FinMor]:
    """All morphisms a -> b, ordered lexicographically by table."""
    for table in itertools.product(b.labels, repeat=len(a)):
        yield FinMor._trusted(a, b, table)


# ---------------------------------------------------------------------------
# products and sums


@dataclass(frozen=True)
class ProductDiagram:
    """A product cone: apex plus one projection per factor."""

    apex: FinObj
    projections: tuple[FinMor, ...]

    @cached_property
    def _locator(self) -> dict[tuple[str, ...], str]:
        # component tuple -> apex label
        out = {}
        for lbl in self.apex.labels:
            out[tuple(p(lbl) for p in self.projections)] = lbl
        return out

    def pair(self, fs: Sequence[FinMor], dom: FinObj | None = None) -> FinMor:
        """The unique mediating map ⟨f1,...,fn⟩ for a cone over the factors."""
        fs = tuple(fs)
        if len(fs) != len(self.projections):
            raise ShapeError(f"expected {len(self.projections)} cone legs, got {len(fs)}")
        if fs:
            dom = fs[0].dom
        if dom is None:
            raise ShapeError("empty pairing needs an explicit domain")
        for i, (f, p) in enumerate(zip(fs, self.projections)):
            if f.dom != dom:
                raise ShapeError(f"cone leg {i} has a different domain")
            if f.cod != p.cod:
                raise ShapeError(f"cone leg {i} does not target factor {i}")
        table = tuple(
            self._locator[tuple(f(x) for f in fs)] for x in dom.labels
        )
        return FinMor(dom, self.apex, table)


def tuple_label(parts: Sequence[str]) -> str:
    return "(" + ",".join(parts) + ")"


def product_n(factors: Sequence[FinObj]) -> ProductDiagram:
    """The n-ary product with tuple labels; n=0 gives the point, n=1 the factor."""
    factors = tuple(factors)
    if not factors:
        return ProductDiagram(terminal(), ())
    if len(factors) == 1:
        return ProductDiagram(factors[0], (identity(factors[0]),))
    combos = list(itertools.product(*(f.labels for f in factors)))
    apex = FinObj(tuple(tuple_label(c) for c in combos))
    projections = tuple(
        FinMor(apex, factor, tuple(c[i] for c in combos))
        for i, factor in enumerate(factors)
    )
    return ProductDiagram(apex, projections)


def product(a: FinObj, b: FinObj) -> ProductDiagram:
    return product_n((a, b))


@dataclass(frozen=True)
class SumDiagram:
    """A sum cocone: apex plus the two injections."""

    apex: FinObj
    injections: tuple[FinMor, FinMor]

    def copair(self, f: FinMor, g: FinMor) -> FinMor:
        """The unique [f,g] out of the sum."""
        if f.cod != g.cod:
            raise ShapeError("copair legs must share a codomain")
        inl, inr = self.injections
        if f.dom != inl.dom or g.dom != inr.dom:
            raise ShapeError("copair legs do not match the summands")
        table = list(f.table) + list(g.table)
        return FinMor(self.apex, f.cod, tuple(table))


def coproduct(a: FinObj, b: FinObj) -> SumDiagram:
    labels = tuple(f"inl:{x}" for x in a.labels) + tuple(f"inr:{y}" for y in b.labels)
    apex = FinObj(labels)
    inl = FinMor(a, apex, tuple(f"inl:{x}" for x in a.labels))
    inr = FinMor(b, apex, tuple(f"inr:{y}" for y in b.labels))
    return SumDiagram(apex, (inl, inr))


def bool_object() -> SumDiagram:
    """The two-point classifier 1+1; first injection is falsity, second truth."""
    return coproduct(terminal(), terminal())


# ---------------------------------------------------------------------------
# equalizers, coequalizers, pullbacks


def _require_parallel(f: FinMor, g: FinMor) -> None:
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeError(f"not a parallel pair: [{f}] and [{g}]")


def equalizer(f: FinMor, g: FinMor) -> FinMor:
    """The inclusion of the subcarrier where f and g agree."""
    _require_parallel(f, g)
    kept = tuple(x for x in f.dom.labels if f(x) == g(x))
    sub = FinObj(kept)
    return FinMor(sub, f.dom, kept)


def coequalizer(f: FinMor, g: FinMor) -> FinMor:
    """The projection onto classes of the closure of {f(a) ~ g(a)}.

    Classes are computed by breadth-first search on an adjacency map; each
    class is named by its least label in codomain order.
    """
    _require_parallel(f, g)
    b = f.cod
    adj: dict[str, list[str]] = {lbl: [] for lbl in b.labels}
    for x, y in zip(f.table, g.table):
        adj[x].append(y)
        adj[y].append(x)
    rep: dict[str, str] = {}
    reps: list[str] = []
    for start in b.labels:
        if start in rep:
            continue
        seen = [start]
        rep[start] = start
        queue = [start]
        while queue:
            cur = queue.pop()
            for nxt in adj[cur]:
                if nxt not in rep:
                    rep[nxt] = start
                    seen.append(nxt)
                    queue.append(nxt)
        reps.append(start)
    q_obj = FinObj(tuple(reps))
    return FinMor(b, q_obj, tuple(rep[lbl] for lbl in b.labels))


@dataclass(frozen=True)
class PullbackSquare:
    """A chosen pullback of the cospan f: A -> C <- B : g."""

    apex: FinObj
    p1: FinMor
    p2: FinMor
    f: FinMor
    g: FinMor

    @cached_property
    def _locator(self) -> dict[tuple[str, str], str]:
        return {
            (self.p1(lbl), self.p2(lbl)): lbl for lbl in self.apex.labels
        }

    def mediate(self, q1: FinMor, q2: FinMor) -> FinMor:
        """The unique map into the apex induced by a commuting cone (q1, q2)."""
        if q1.dom != q2.dom:
            raise ShapeError("cone legs must share a domain")
        if compose(self.f, q1) != compose(self.g, q2):
            raise ShapeError("cone does not commute with the cospan")
        table = tuple(
            self._locator[(q1(t), q2(t))] for t in q1.dom.labels
        )
        return FinMor(q1.dom, self.apex, table)


def pullback(f: FinMor, g: FinMor) -> PullbackSquare:
    if f.cod != g.cod:
        raise ShapeError(f"not a cospan: [{f}] and [{g}]")
    pairs = [
        (x, y)
        for x in f.dom.labels
        for y in g.dom.labels
        if f(x) == g(y)
    ]
    apex = FinObj(tuple(tuple_label(p) for p in pairs))
    p1 = FinMor(apex, f.dom, tuple(x for x, _ in pairs))
    p2 = FinMor(apex, g.dom, tuple(y for _, y in pairs))
    return PullbackSquare(apex, p1, p2, f, g)


# ---------------------------------------------------------------------------
# images, dependent products, function spaces


def image_factorization(f: FinMor) -> tuple[FinMor, FinMor]:
    """Split f into an onto part followed by a subcarrier inclusion."""
    hit = set(f.table)
    kept = tuple(lbl for lbl in f.cod.labels if lbl in hit)
    img = FinObj(kept)
    e = FinMor(f.dom, img, f.table)
    i = FinMor(img, f.cod, kept)
    return e, i


@dataclass(frozen=True)
class PiDiagram:
    """A dependent product of g: Y -> X along f: X -> I.

    ``F`` collects, fiberwise over I, the sections of g over the f-fiber;
    ``P`` is the pullback of phi: F -> I against f, and ``ev`` evaluates a
    section at a point of its fiber.
    """

    P: FinObj
    F: FinObj
    pi1: FinMor
    pi2: FinMor
    phi: FinMor
    ev: FinMor


def section_label(i: str, assignment: Sequence[tuple[str, str]]) -> str:
    inner = ",".join(f"{x}↦{y}" for x, y in assignment)
    return f"({i}|{inner})"


def pi_diagram(g: FinMor, f: FinMor) -> PiDiagram:
    """Construct the dependent product for the composable pair (g, f).

    A point of F over i lists one g-preimage for every x in the f-fiber of i;
    an empty fiber contributes exactly one (empty) section.
    """
    if g.cod != f.dom:
        raise CompositionError(
            f"pi needs a composable pair: codomain of [{g}] vs domain of [{f}]"
        )
    y_obj, x_obj, i_obj = g.dom, g.cod, f.cod
    fiber_f: dict[str, list[str]] = {i: [] for i in i_obj.labels}
    for x in x_obj.labels:
        fiber_f[f(x)].append(x)
    fiber_g: dict[str, list[str]] = {x: [] for x in x_obj.labels}
    for y in y_obj.labels:
        fiber_g[g(y)].append(y)

    sections: dict[str, tuple[str, dict[str, str]]] = {}
    f_labels: list[str] = []
    for i in i_obj.labels:
        xs = fiber_f[i]
        for choice in itertools.product(*(fiber_g[x] for x in xs)):
            assignment = list(zip(xs, choice))
            lbl = section_label(i, assignment)
            sections[lbl] = (i, dict(assignment))
            f_labels.append(lbl)
    f_obj = FinObj(tuple(f_labels))
    phi = FinMor(f_obj, i_obj, tuple(sections[lbl][0] for lbl in f_labels))

    square = pullback(phi, f)
    ev_table = tuple(
        sections[square.p1(p)][1][square.p2(p)] for p in square.apex.labels
    )
    ev = FinMor(square.apex, y_obj, ev_table)
    return PiDiagram(
        P=square.apex, F=f_obj, pi1=square.p1, pi2=square.p2, phi=phi, ev=ev
    )


def exponential(x_obj: FinObj, y_obj: FinObj):
    """The function space Y^X with its evaluation, as (carrier, total relation).

    The returned relation has legs (s, x, y): it holds exactly when the table
    named s sends x to y, so its first two legs form a product cone and it is
    a total function of (s, x).
    """
    from .relcalc import Relation

    tables = list(itertools.product(y_obj.labels, repeat=len(x_obj)))
    labels = []
    for tbl in tables:
        inner = ",".join(f"{x}↦{y}" for x, y in zip(x_obj.labels, tbl))
        labels.append("{" + inner + "}")
    e_obj = FinObj(tuple(labels))
    lookup = dict(zip(labels, tables))
    prod = product(e_obj, x_obj)
    xi1, xi2 = prod.projections
    ups = FinMor(
        prod.apex,
        y_obj,
        tuple(
            lookup[xi1(r)][x_obj.index[xi2(r)]] for r in prod.apex.labels
        ),
    )
    return e_obj, Relation(dom=prod.apex, legs=(xi1, xi2, ups))


def characteristic(r) -> FinMor:
    """The map to 1+1 sending members of the subcarrier to the second point."""
    if isinstance(r, FinMor):
        leg = r
        if not leg.is_injective():
            raise ShapeError("characteristic needs a monic leg")
    else:
        if len(r.legs) != 1:
            raise ShapeError("characteristic needs an arity-1 relation")
        leg = r.legs[0]
    two = bool_object()
    false_lbl, true_lbl = two.apex.labels
    members = set(leg.table)
    table = tuple(true_lbl if x in members else false_lbl for x in leg.cod.labels)
    return FinMor(leg.cod, two.apex, table)


# ---------------------------------------------------------------------------
# quotients, natural-number prefixes, covers


def quotient(r) -> FinMor:
    """The projection onto classes of a validated equivalence relation.

    ``r`` must be a binary relation with both legs into the same carrier;
    reflexivity, symmetry and transitivity are checked with witnesses before
    delegating to the coequalizer of the two legs.
    """
    legs = r.legs
    if len(legs) != 2:
        raise ShapeError("quotient needs a binary relation")
    r1, r2 = legs
    if r1.cod != r2.cod:
        raise ShapeError("quotient needs both legs into one carrier")
    pairs = {(a, b) for a, b in zip(r1.table, r2.table)}
    for x in r1.cod.labels:
        if (x, x) not in pairs:
            raise EquivalenceError(
                f"relation is not reflexive at {x!r}", "reflexive", (x,)
            )
    for a, b in sorted(pairs):
        if (b, a) not in pairs:
            raise EquivalenceError(
                f"relation is not symmetric at ({a!r}, {b!r})", "symmetric", (a, b)
            )
    for a, b in sorted(pairs):
        for c in r1.cod.labels:
            if (b, c) in pairs and (a, c) not in pairs:
                raise EquivalenceError(
                    f"relation is not transitive at ({a!r}, {b!r}, {c!r})",
                    "transitive",
                    (a, b, c),
                )
    return coequalizer(r1, r2)


def nno_prefix(bound: int, b: FinMor, h: FinMor) -> list[FinMor]:
    """Unroll the recursion x0 = b, x(n+1) = h(xn) for bound steps.

    Returns the bound+1 elements [b, h·b, h²·b, ...] of the carrier of h.
    """
    if bound < 0:
        raise ShapeError("prefix bound must be >= 0")
    if h.dom != h.cod:
        raise ShapeError("iteration needs an endomap")
    if b.dom != terminal() or b.cod != h.dom:
        raise ShapeError("base point must be an element of the endomap carrier")
    out = [b]
    for _ in range(bound):
        out.append(compose(h, out[-1]))
    return out


def projective_cover(a: FinObj) -> FinMor:
    """A cover of a by a choice object; finite carriers are their own covers."""
    return identity(a)


# ---------------------------------------------------------------------------
# the category adapter used by the signature-level operations


class FinSetCategory:
    """Hom-enumeration view of finite carriers, consumed by ``kernel``."""

    def compose(self, g: FinMor, f: FinMor) -> FinMor:
        return compose(g, f)

    def terminal(self) -> FinObj:
        return terminal()

    def hom(self, a: FinObj, b: FinObj) -> Iterator[FinMor]:
        return all_maps(a, b)

    def objects(self, bound: int) -> list[FinObj]:
        return [carrier_of_size(n) for n in range(bound + 1)]


FINSET = FinSetCategory()
