"""Finite carriers and total mapping tables, with their universal constructions.

This is the concrete category everything else computes in, and the only
model of the axioms the checker instantiates: an object is a finite tuple
of distinct string labels, a morphism is a total lookup table between two
carriers.  No category handle stands in front of it; ``kernel`` reaches
its hom-sets through ``all_maps``, ``terminal``, ``carrier_of_size`` and
``compose`` directly.  Constructions fix canonical labels so repeated runs
produce identical output:

* products label tuples ``(a,b)`` in first-factor-major order,
* sums tag labels ``inl:a`` / ``inr:b``,
* dependent products label points by their sections, ``(i|x0↦y1,x1↦y0)``;
  ``pi_diagram`` builds the whole diagram and ``pi_object`` only its
  phi: F -> I, with the same labels,
* coequalizers and quotients reuse the least label of each merged class,
* equalizers and images keep the ambient labels they select.

Everything is immutable; plain enumeration is used throughout, which is the
point: carriers stay at desk scale and every claim is checked by exhaustion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterator, Sequence

from .errors import CompositionError, EquivalenceError, ShapeError

TERMINAL_LABEL = "★"


class _Record:
    """Pickles and copies a record as its fields, rebuilt through the
    validating ``__init__``: a bad pickled table raises as a bad table does."""

    __slots__ = ()

    def __getstate__(self) -> tuple:
        return tuple([getattr(self, field.name) for field in fields(self)])

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)


@dataclass(frozen=True)
class FinObj(_Record):
    """A finite carrier: an ordered tuple of distinct labels.

    Label order is the canonical order of the carrier (declaration order for
    user-defined objects, documented construction order otherwise).  ``index``
    maps each label to its position; the duplicate check builds it.  Both
    live in slots, and a carrier has no instance dict.
    """

    __slots__ = ("labels", "index", "__weakref__")
    labels: tuple[str, ...]

    def __init__(self, labels: tuple[str, ...]):
        index = dict(zip(labels, range(len(labels))))
        if len(index) != len(labels):
            raise ShapeError(f"duplicate labels in carrier {labels!r}")
        if not all(labels):
            raise ShapeError("empty string is not a valid label")
        _set_labels(self, labels)
        _set_index(self, index)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.index

    def __str__(self) -> str:
        return "{" + ", ".join(self.labels) + "}"


@dataclass(frozen=True)
class FinMor(_Record):
    """A total mapping table; ``table[i]`` is the image of ``dom.labels[i]``.

    ``pi_diagram(g, f)`` keeps what it reads off each leg on the leg itself:
    on g the fibers and diagram blocks, as ``_sections``, and on f its
    ``(i, xs)`` keys, a point of I with its f-fiber for each point of I in
    order, as ``_fiber_keys``.  The checker of dependent products keeps its
    own fibers of both legs, as ``_check_fibers``; neither side reads the
    other's.  The fields live in slots and the kept indexes in the
    instance dict; all are read off the table, so equality, hashing and
    pickling, which look only at the fields, ignore them.
    ``__post_init__`` validates, and every constructor but ``_trusted``
    runs it.
    """

    __slots__ = ("dom", "cod", "table", "__dict__", "__weakref__")
    dom: FinObj
    cod: FinObj
    table: tuple[str, ...]

    def __init__(self, dom: FinObj, cod: FinObj, table: tuple[str, ...]):
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_table(self, table)
        self.__post_init__()

    def __post_init__(self):
        if len(self.table) != len(self.dom.labels):
            raise ShapeError(
                f"table length {len(self.table)} != domain size {len(self.dom)}"
            )
        index = self.cod.index
        for value in self.table:
            if value not in index:
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
        _set_dom(mor, dom)
        _set_cod(mor, cod)
        _set_table(mor, table)
        return mor

    def __call__(self, label: str) -> str:
        return self.table[self.dom.index[label]]

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_surjective(self) -> bool:
        return set(self.table) == set(self.cod.labels)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def __str__(self) -> str:
        entries = ", ".join(f"{a} |-> {b}" for a, b in zip(self.dom.labels, self.table))
        return f"{self.dom} -> {self.cod} [{entries}]"


# the slots' own setters, which a frozen dataclass's __setattr__ refuses
_set_labels, _set_index = FinObj.labels.__set__, FinObj.index.__set__
_set_dom, _set_cod, _set_table = FinMor.dom.__set__, FinMor.cod.__set__, FinMor.table.__set__


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
        rows = _rows(tuple(p.table for p in self.projections), len(self.apex))
        return dict(zip(rows, self.apex.labels))

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
        rows = _rows(tuple(f.table for f in fs), len(dom))
        table = tuple([self._locator[row] for row in rows])
        return FinMor(dom, self.apex, table)


def _rows(tables: tuple[tuple[str, ...], ...], n: int) -> Iterator[tuple[str, ...]]:
    """The n tuples ``(t[k] for t in tables)``; with no tables, n empty tuples."""
    return zip(*tables) if tables else itertools.repeat((), n)


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
    kept = tuple(x for x, u, v in zip(f.dom.labels, f.table, g.table) if u == v)
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
        rep[start] = start
        queue = [start]
        while queue:
            cur = queue.pop()
            for nxt in adj[cur]:
                if nxt not in rep:
                    rep[nxt] = start
                    queue.append(nxt)
        reps.append(start)
    q_obj = FinObj(tuple(reps))
    return FinMor(b, q_obj, tuple(rep[lbl] for lbl in b.labels))


@dataclass(frozen=True)
class PullbackSquare:
    """A chosen pullback of a cospan f: A -> C <- B : g, as its apex and legs."""

    apex: FinObj
    p1: FinMor
    p2: FinMor


def _fibers(m: FinMor) -> dict[str, list[str]]:
    """Each value m takes, mapped to its preimage in domain order."""
    out: dict[str, list[str]] = {}
    for x, c in zip(m.dom.labels, m.table):
        xs = out.get(c)
        if xs is None:
            out[c] = [x]
        else:
            xs.append(x)
    return out


def pullback(f: FinMor, g: FinMor) -> PullbackSquare:
    """The pullback of the cospan f: A -> C <- B : g.

    The apex lists the pairs (x, y) with f(x) = g(y), labelled ``(x,y)``,
    in x-major order: x in A's order and, for one x, y in B's order.  B is
    indexed once by value, and one pass over A pairs each x with its fiber
    and writes the apex label and both leg entries of each pair, so the
    cost is O(|A| + |B| + |P|) for an apex P.
    """
    if f.cod != g.cod:
        raise ShapeError(f"not a cospan: [{f}] and [{g}]")
    fiber = _fibers(g)
    labels, xs, ys = [], [], []
    for x, c in zip(f.dom.labels, f.table):
        for y in fiber.get(c, ()):
            # each label is tuple_label((x, y)), written inline
            labels.append(f"({x},{y})")
            xs.append(x)
            ys.append(y)
    apex = FinObj(tuple(labels))
    return PullbackSquare(apex, FinMor(apex, f.dom, tuple(xs)), FinMor(apex, g.dom, tuple(ys)))


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

    def __init__(self, P: FinObj, F: FinObj, pi1: FinMor, pi2: FinMor, phi: FinMor,
                 ev: FinMor):
        # straight into __dict__, past the frozen __setattr__: in slots, as
        # a carrier's and a morphism's are, they measured no faster on
        # pi-b4, the workload that builds the most diagrams (BENCH_34)
        fields = self.__dict__
        fields["P"] = P
        fields["F"] = F
        fields["pi1"] = pi1
        fields["pi2"] = pi2
        fields["phi"] = phi
        fields["ev"] = ev


def _require_composable(g: FinMor, f: FinMor) -> None:
    if g.cod is not f.dom and g.cod != f.dom:
        raise CompositionError(
            f"pi needs a composable pair: codomain of [{g}] vs domain of [{f}]"
        )


def _fiber_sections(
    fiber_g: dict[str, list[str]], xs: Sequence[str]
) -> Iterator[tuple[tuple[str, ...], str]]:
    """The sections of g over the points xs of X, given g's fibers.

    Each is a pair: its choice, one g-preimage for every x in xs, and its
    ``x↦y,...`` inner label.  They come in the lexicographic order of their
    choices; an empty xs has exactly one (empty) section.
    """
    for choice in itertools.product(*[fiber_g.get(x, ()) for x in xs]):
        yield choice, ",".join([f"{x}↦{y}" for x, y in zip(xs, choice)])


def _pi_block(fiber_g: dict[str, list[str]], i: str, xs: tuple[str, ...]) -> tuple:
    """The block of ``pi_diagram`` for the point i with f-fiber xs.

    Its F labels, phi entries, P labels and pi1, pi2 and ev chunks, as tuples.
    """
    f_labels, p_labels, pi1_chunk, ev_chunk = [], [], [], []
    for choice, inner in _fiber_sections(fiber_g, xs):
        v = f"({i}|{inner})"
        f_labels.append(v)
        p_labels += [f"({v},{x})" for x in xs]
        pi1_chunk += [v] * len(xs)
        ev_chunk += choice
    n = len(f_labels)
    return (tuple(f_labels), (i,) * n, tuple(p_labels), tuple(pi1_chunk),
            xs * n, tuple(ev_chunk))


def pi_diagram(g: FinMor, f: FinMor) -> PiDiagram:
    """Construct the dependent product for the composable pair (g, f).

    A point of F over i lists one g-preimage for every x in the f-fiber of i;
    an empty fiber contributes exactly one (empty) section.  F lists i in I's
    order and, over one i, the sections in the lexicographic order of their
    choices.  P is the pullback of phi against f in ``pullback``'s order and
    labels: the points ``(v,x)`` with v in F's order and, for one v, x in
    the f-fiber of phi(v) in X's order.

    So each i of I, with its f-fiber xs, contributes one block to every
    part: its F labels ``(i|x↦y,...)``, phi entries, P labels ``(v,x)`` and
    pi1, pi2 and ev chunks.  A block depends on g, i and xs only, so g keeps
    them, as a carrier keeps its index: on first use it stores its fibers,
    then one block per ``(i, xs)`` it has met.  f keeps its keys, the pair
    ``(i, xs)`` for each i of I in order.  A later call with the same g and
    any f, into any I, concatenates the blocks of f's keys, so a sweep of
    every f for one g formats each label once.  Only on first use is f
    indexed by value, O(|X| + |I|), and g, O(|Y|); a call copies
    O(|I| + |F| + |P|) keys, labels and table entries and builds F, P and
    every leg through the validating constructors.  A caller that needs
    only phi calls ``pi_object``, which writes none of P.
    """
    _require_composable(g, f)
    kept = g.__dict__.get("_sections")
    if kept is None:
        kept = g.__dict__["_sections"] = _fibers(g), {}
    fiber_g, blocks = kept
    keys = f.__dict__.get("_fiber_keys")
    if keys is None:
        fiber_f = _fibers(f)
        keys = f.__dict__["_fiber_keys"] = tuple(
            [(i, tuple(fiber_f.get(i, ()))) for i in f.cod.labels])

    f_labels, phi_table, p_labels, pi1_table, pi2_table, ev_table = [], [], [], [], [], []
    for key in keys:
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _pi_block(fiber_g, *key)
        f_chunk, phi_chunk, p_chunk, pi1_chunk, pi2_chunk, ev_chunk = block
        f_labels += f_chunk
        phi_table += phi_chunk
        p_labels += p_chunk
        pi1_table += pi1_chunk
        pi2_table += pi2_chunk
        ev_table += ev_chunk
    f_obj = FinObj(tuple(f_labels))
    p_obj = FinObj(tuple(p_labels))
    return PiDiagram(
        P=p_obj,
        F=f_obj,
        pi1=FinMor(p_obj, f_obj, tuple(pi1_table)),
        pi2=FinMor(p_obj, f.dom, tuple(pi2_table)),
        phi=FinMor(f_obj, f.cod, tuple(phi_table)),
        ev=FinMor(p_obj, g.dom, tuple(ev_table)),
    )


def pi_object(g: FinMor, f: FinMor) -> FinMor:
    """The map phi: F -> I of ``pi_diagram(g, f)``, and nothing else.

    F has the same labels in the same order, and phi the same table, as in
    ``pi_diagram``; P, pi1, pi2 and ev are never written.  This is the part
    of the dependent product that the internal logic reads for ``=>`` and
    ``forall``: when g is monic, each i has at most one section, so phi is
    monic, the subobject Π_f g of I.  Unlike ``pi_diagram`` it keeps
    nothing on g, which suits a caller whose g is new on every call.  A call
    indexes g and f by value, O(|Y| + |X|), and writes O(|F|) labels and
    table entries through the validating constructors.  The internal logic's
    f is mostly a mono, so most f-fibers have at most one point, and those
    are written directly: an empty fiber over i has the one empty section
    ``(i|)``, and a fiber ``[x]`` one section ``(i|x↦y)`` for each
    g-preimage y of x, in g's domain order.  Only larger fibers go through
    ``_fiber_sections``.
    """
    _require_composable(g, f)
    fiber_g = _fibers(g)
    fiber_f = _fibers(f)
    f_labels: list[str] = []
    phi_table: list[str] = []
    for i in f.cod.labels:
        xs = fiber_f.get(i)
        if xs is None:
            f_labels.append(f"({i}|)")
            phi_table.append(i)
        elif len(xs) == 1:
            x = xs[0]
            ys = fiber_g.get(x, ())
            f_labels += [f"({i}|{x}↦{y})" for y in ys]
            phi_table += [i] * len(ys)
        else:
            for _, inner in _fiber_sections(fiber_g, xs):
                f_labels.append(f"({i}|{inner})")
                phi_table.append(i)
    return FinMor(FinObj(tuple(f_labels)), f.cod, tuple(phi_table))


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
        tuple([lookup[s][x_obj.index[x]] for s, x in zip(xi1.table, xi2.table)]),
    )
    return e_obj, Relation(dom=prod.apex, legs=(xi1, xi2, ups))


def characteristic(r) -> FinMor:
    """The map to 1+1 sending members of the arity-1 relation r to the second point."""
    if len(r.legs) != 1:
        raise ShapeError("characteristic needs an arity-1 relation")
    (leg,) = r.legs
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

