"""Typed first-order formulas over the finite model: parse, compile, verify.

A formula in a context of typed variables is compiled to a relation on the
context carriers by structural recursion, using only the universal
constructions of the model:

* ``true`` / ``false``   full / empty subobject,
* atom ``r(t1,...,tk)``  pullback of r along the tuple-of-terms map,
* ``t = u``              equalizer of the two term maps,
* ``/\\``                pullback of the two subobjects (intersection),
* ``\\/``                image of their sum (union),
* ``=>``                 dependent product over a pullback,
* ``exists``             image of the projected legs,
* ``forall``             dependent product along the context projection.

Both dependent products are built as phi only (``finset.pi_object``): the
subobject Π_f g of the context product, without its pullback or evaluation.

``~p`` is shorthand for ``p => false`` and is desugared by the parser.
Connective precedence is ``~`` over ``/\\`` over ``\\/`` over ``=>``;
``=>`` associates right, the other binaries left, and a quantifier body
extends as far right as possible.

``oracle`` evaluates the same formula by Tarski-style recursion over rows,
touching none of the constructions above, and ``verify`` sweeps every
context tuple comparing the two routes.

Rendering, checking, compiling and evaluating each look a node's function
up by its exact type in a table.  ``compile_formula`` checks as it
compiles: each node just before it is built, children left to right, so
it raises the same first error as ``check_formula``, which walks in the
same order without building anything.  Once a formula is built,
``compile_formula`` passes it to ``check_formula``, which finds its root
in the compile memo and only records it as checked.

An ``Env`` holds read-only snapshots of its carriers, relations and maps,
and keeps two bounded memos.  The first maps (context, node) to the node's
mono, so a subtree repeated within a formula, or shared with one compiled
just before, is built once; both walks skip a subtree found there, since
it was checked in that same context when it was built.  The second keeps
everything built from inputs, under a key tagged with its kind: each
connective's mono by its input monos, so different formulas whose children
reduce to the same subobjects share one construction; the relation
``compile_formula`` returns, by the context's carriers and the formula's
mono; each relation's mono, by name; each quantifier's projection, by the
extended context's carriers; and each product of carriers.  The env also
remembers the last formula it type-checked, so the oracle's per-row check
costs nothing; the oracle itself still evaluates every row without any
memo.  The trace is read off the syntax tree, on demand.
"""

from __future__ import annotations

import itertools
import re
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import FormulaError, ShapeError
from .finset import (
    FinMor,
    FinObj,
    ProductDiagram,
    compose,
    coproduct,
    equalizer,
    identity,
    image_factorization,
    pi_object,
    product_n,
    pullback,
    unique_from_initial,
)
from .relcalc import Relation
from .report import FAIL, PASS, Report

# ---------------------------------------------------------------------------
# syntax trees


# Every node is a frozen, slotted dataclass whose equality and hash ignore
# ``pos``.  Formula nodes, the keys of the compile memo, also keep their hash:
# it is computed on first use from the fields and the children's kept
# hashes, so hashing a whole tree costs O(1).  Terms keep none, since only
# the atom or equation holding them hashes them, once.  Slots hold it all:
# syntax trees are many and small.


class _Node:
    """Base of the formula nodes: a slot for the kept hash."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            cls = type(self)
            # The class name keeps And(p, q), Or(p, q) and Implies(p, q) apart.
            value = hash((cls.__name__, cls._structural_hash(self)))
            object.__setattr__(self, "_hash", value)
            return value


def _node(cls):
    """A formula node: the dataclass's own hash, kept by ``_Node``."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls._structural_hash = cls.__hash__
    cls.__hash__ = _Node.__hash__
    return cls


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    pos: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class App:
    fn: str
    arg: "Term"
    pos: int | None = field(default=None, compare=False, repr=False)


Term = Var | App


@_node
class Top(_Node):
    pos: int | None = field(default=None, compare=False, repr=False)


@_node
class Bot(_Node):
    pos: int | None = field(default=None, compare=False, repr=False)


@_node
class Atom(_Node):
    name: str
    args: tuple[Term, ...]
    pos: int | None = field(default=None, compare=False, repr=False)


@_node
class Eq(_Node):
    lhs: Term
    rhs: Term
    pos: int | None = field(default=None, compare=False, repr=False)


@_node
class And(_Node):
    lhs: "Formula"
    rhs: "Formula"
    pos: int | None = field(default=None, compare=False, repr=False)


@_node
class Or(_Node):
    lhs: "Formula"
    rhs: "Formula"
    pos: int | None = field(default=None, compare=False, repr=False)


@_node
class Implies(_Node):
    lhs: "Formula"
    rhs: "Formula"
    pos: int | None = field(default=None, compare=False, repr=False)


@_node
class Forall(_Node):
    var: str
    sort: str
    body: "Formula"
    pos: int | None = field(default=None, compare=False, repr=False)


@_node
class Exists(_Node):
    var: str
    sort: str
    body: "Formula"
    pos: int | None = field(default=None, compare=False, repr=False)


Formula = Top | Bot | Atom | Eq | And | Or | Implies | Forall | Exists


def render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    return f"{t.fn}({render_term(t.arg)})"


def render(phi: Formula) -> str:
    """Fully parenthesized rendering, for messages and witnesses."""
    return _RENDER[type(phi)](phi)


_RENDER = {
    Top: lambda phi: "true",
    Bot: lambda phi: "false",
    Atom: lambda phi: f"{phi.name}({', '.join(render_term(a) for a in phi.args)})",
    Eq: lambda phi: f"{render_term(phi.lhs)} = {render_term(phi.rhs)}",
    And: lambda phi: f"({render(phi.lhs)} /\\ {render(phi.rhs)})",
    Or: lambda phi: f"({render(phi.lhs)} \\/ {render(phi.rhs)})",
    Implies: lambda phi: f"({render(phi.lhs)} => {render(phi.rhs)})",
    Forall: lambda phi: f"(forall {phi.var}:{phi.sort}. {render(phi.body)})",
    Exists: lambda phi: f"(exists {phi.var}:{phi.sort}. {render(phi.body)})",
}


# ---------------------------------------------------------------------------
# contexts and environments


@dataclass(frozen=True)
class Context:
    """Ordered typed variables; names must be distinct.

    ``names``, ``objects``, ``labels`` (each carrier's labels, which spell
    it in the Env's memo keys) and the generated hash are computed once, at
    construction: every memo lookup hashes its context.
    """

    vars: tuple[tuple[str, FinObj], ...]

    def __post_init__(self):
        names = tuple(n for n, _ in self.vars)
        if len(set(names)) != len(names):
            raise ShapeError(f"duplicate context variable in {list(names)}")
        kept = self.__dict__
        kept["names"] = names
        kept["objects"] = objects = tuple(o for _, o in self.vars)
        kept["labels"] = tuple([o.labels for o in objects])
        kept["_hash"] = hash((self.vars,))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # str hashes differ between processes, so the kept hash is not
        # pickled but recomputed on loading
        return {"vars": self.vars}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def sort_of(self, name: str) -> FinObj | None:
        for n, o in self.vars:
            if n == name:
                return o
        return None

    def position(self, name: str) -> int:
        for i, (n, _) in enumerate(self.vars):
            if n == name:
                return i
        raise ShapeError(f"unbound variable {name!r}")

    def extend(self, name: str, obj: FinObj) -> "Context":
        return Context(self.vars + ((name, obj),))

    def rows(self):
        """All assignments, as label tuples in carrier order."""
        return itertools.product(*self.labels)


# Entries kept by an Env's memos.  Each entry keeps a compiled subobject
# alive, so size costs memory.  The memo of built values holds five kinds
# of entry, so it gets room for 64 of each.  Atoms come back far apart: one
# perfbench formula-deep pass (seed 7) looks an atom up 6,745 times, for
# 428 distinct atoms, and an atom memo of each size finds this many:
#
#     entries    64      128     256     unbounded
#     hits       2,049   3,564   5,330   6,317
#
# Against no atom memo, formula-deep's peak_rss_mb rose by 2.6 MB (+8 %,
# close to the benchmark's 10 % bound) unbounded, and by 1.2 MB (+3.7 %)
# at 256 entries.
_MEMO_SIZE = 64
_BUILT_SIZE = 5 * _MEMO_SIZE
_ATOM_SIZE = 4 * _MEMO_SIZE


class _LRU(OrderedDict):
    """A map that keeps its ``size`` most recently used entries."""

    def __init__(self, size: int) -> None:
        super().__init__()
        self.size = size

    def kept(self, key, build, *args):
        """The value under key, now most recently used; ``build(*args)`` kept if absent."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
            return value
        return self.keep(key, build(*args))

    def keep(self, key, value):
        """Keep value under key as the most recently used entry; returns it."""
        self[key] = value
        if len(self) > self.size:
            self.popitem(last=False)
        return value


class _Memo:
    """What an Env remembers between calls.

    ``compiled`` maps (context, node) to the node's mono, and ``atoms`` does
    the same for atoms alone, with more room: an atom recurs across
    formulas that share little else, so it is evicted from ``compiled``
    before it is met again.  ``built`` maps a
    key tagged with its kind to what was built from it: ``(connective,
    inputs)`` to the connective's mono, ``("result", carriers, dom, table)``
    to the relation a mono compiles to, ``("relation", name)`` to the
    relation's mono into the product of its carriers, ``("drop", carriers)``
    to the projection of an extended context onto the context less its last
    variable, and ``("product", carriers)`` to their product.  Every key
    spells a carrier by its labels, which is what FinObj equality compares.
    ``checked`` is the last (context, formula) that ``check_formula``
    accepted, matched by identity: the generated equality of two long
    formulas walks them both.
    """

    __slots__ = ("compiled", "atoms", "built", "checked")

    def __init__(self) -> None:
        self.compiled = _LRU(_MEMO_SIZE)
        self.atoms = _LRU(_ATOM_SIZE)
        self.built = _LRU(_BUILT_SIZE)
        self.checked: tuple[Context | None, Formula | None] = None, None


@dataclass(frozen=True)
class Env:
    """Named carriers, relations and mapping tables a formula may mention.

    The three mappings are read-only snapshots taken at construction, so the
    memo of compiled subformulas can never go stale.
    """

    objects: Mapping[str, FinObj] = field(default_factory=dict)
    relations: Mapping[str, Relation] = field(default_factory=dict)
    morphisms: Mapping[str, FinMor] = field(default_factory=dict)
    _memo: _Memo = field(default_factory=_Memo, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("objects", "relations", "morphisms"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))


def parse_context(text: str, objects: Mapping[str, FinObj]) -> Context:
    """Parse ``"x:X, y:Y"`` against named carriers; empty text is allowed."""
    text = text.strip()
    if not text:
        return Context(())
    out = []
    for part in text.split(","):
        piece = part.strip()
        m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_']*)\s*:\s*([A-Za-z_][A-Za-z0-9_']*)", piece)
        if not m:
            raise FormulaError(f"bad context entry {piece!r}, expected name:Object")
        name, sort = m.group(1), m.group(2)
        if sort not in objects:
            raise FormulaError(f"unknown object {sort!r} in context")
        if any(name == seen for seen, _ in out):
            raise FormulaError(f"context repeats the variable {name!r}")
        out.append((name, objects[sort]))
    return Context(tuple(out))


# ---------------------------------------------------------------------------
# parser


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<and>/\\)
      | (?P<or>\\/)
      | (?P<implies>=>)
      | (?P<eq>=)
      | (?P<not>~)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<comma>,)
      | (?P<dot>\.)
      | (?P<colon>:)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<bad>.)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"true", "false", "forall", "exists"}

# A token is a (kind, text, offset) tuple.
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text, ending in ``eof``, in one pass of ``_TOKEN_RE``.

    ``bad`` matches any one character the other groups do not, so the
    matches tile the text and the first bad character is reported.
    """
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        value = m.group()
        if kind == "ident":
            if value in _KEYWORDS:
                kind = value
        elif kind == "bad":
            raise FormulaError(f"unexpected character {value!r}", m.start())
        out.append((kind, value, m.start()))
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.i][0]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok[0] != kind:
            raise FormulaError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def formula(self) -> Formula:
        return self.implies()

    def implies(self) -> Formula:
        lhs = self.disjunction()
        if self.peek() == "implies":
            pos = self.next()[2]
            rhs = self.implies()
            return Implies(lhs, rhs, pos=pos)
        return lhs

    def disjunction(self) -> Formula:
        lhs = self.conjunction()
        while self.peek() == "or":
            pos = self.next()[2]
            rhs = self.conjunction()
            lhs = Or(lhs, rhs, pos=pos)
        return lhs

    def conjunction(self) -> Formula:
        lhs = self.unary()
        while self.peek() == "and":
            pos = self.next()[2]
            rhs = self.unary()
            lhs = And(lhs, rhs, pos=pos)
        return lhs

    def unary(self) -> Formula:
        kind = self.peek()
        if kind == "not":
            pos = self.next()[2]
            sub = self.unary()
            return Implies(sub, Bot(pos=pos), pos=pos)
        if kind in ("forall", "exists"):
            pos = self.next()[2]
            var = self.expect("ident")[1]
            self.expect("colon")
            sort = self.expect("ident")[1]
            self.expect("dot")
            body = self.formula()
            cls = Forall if kind == "forall" else Exists
            return cls(var, sort, body, pos=pos)
        return self.atomish()

    def atomish(self) -> Formula:
        kind, name, pos = self.next()
        if kind == "true":
            return Top(pos=pos)
        if kind == "false":
            return Bot(pos=pos)
        if kind == "lpar":
            inner = self.formula()
            self.expect("rpar")
            return inner
        if kind != "ident":
            raise FormulaError(f"expected a formula, found {name or 'end of input'!r}", pos)
        if self.peek() == "lpar":
            self.next()
            args = [self.term()]
            while self.peek() == "comma":
                self.next()
                args.append(self.term())
            self.expect("rpar")
            if self.peek() == "eq":
                eq_pos = self.next()[2]
                if len(args) != 1:
                    raise FormulaError(
                        "left side of '=' must be a term (one argument)", eq_pos
                    )
                rhs = self.term()
                return Eq(App(name, args[0], pos=pos), rhs, pos=eq_pos)
            return Atom(name, tuple(args), pos=pos)
        if self.peek() == "eq":
            eq_pos = self.next()[2]
            rhs = self.term()
            return Eq(Var(name, pos=pos), rhs, pos=eq_pos)
        raise FormulaError(f"expected '(' or '=' after {name!r}", pos)

    def term(self) -> Term:
        _, name, pos = self.expect("ident")
        if self.peek() == "lpar":
            self.next()
            arg = self.term()
            self.expect("rpar")
            return App(name, arg, pos=pos)
        return Var(name, pos=pos)


def parse(text: str) -> Formula:
    """Parse a formula; raises FormulaError with an offset on bad input."""
    parser = _Parser(text)
    phi = parser.formula()
    kind, value, pos = parser.next()
    if kind != "eof":
        raise FormulaError(f"unexpected trailing input {value!r}", pos)
    return phi


# ---------------------------------------------------------------------------
# typing


def term_sort(ctx: Context, t: Term, env: Env) -> FinObj:
    if isinstance(t, Var):
        sort = ctx.sort_of(t.name)
        if sort is None:
            raise FormulaError(f"unbound variable {t.name!r}", t.pos)
        return sort
    mor = env.morphisms.get(t.fn)
    if mor is None:
        raise FormulaError(f"unknown morphism {t.fn!r}", t.pos)
    arg_sort = term_sort(ctx, t.arg, env)
    if arg_sort != mor.dom:
        raise FormulaError(
            f"morphism {t.fn!r} expects {mor.dom}, argument has sort {arg_sort}", t.pos
        )
    return mor.cod


def check_formula(ctx: Context, phi: Formula, env: Env) -> None:
    """Name-resolve and type-check; raises FormulaError on the first problem.

    The env remembers the last formula it accepted, so the check that
    ``oracle`` repeats on every row of one ``verify``, with the same
    objects, returns at once.  ``compile_formula`` passes each formula it
    has built, so the first of those checks is free too.
    """
    memo = env._memo
    last_ctx, last_phi = memo.checked
    if last_ctx is ctx and last_phi is phi:
        return
    _check(ctx, phi, env)
    memo.checked = ctx, phi


def _check(ctx: Context, phi: Formula, env: Env) -> None:
    # A node in the compile memo was checked in this very context, since
    # compile_formula checks each node just before it builds it, and builds
    # a node only once its children are built.  A membership test leaves
    # the LRU order alone.
    if (ctx, phi) not in env._memo.compiled:
        _CHECK.get(type(phi), _unsupported)(ctx, phi, env)


# The typing rules local to one node, which look at none of its children.
# Both walks apply a node's rule before they walk its children, left to
# right, so both report the same first problem.
def _check_atom(ctx: Context, phi: Atom, env: Env) -> None:
    rel = env.relations.get(phi.name)
    if rel is None:
        raise FormulaError(f"unknown relation {phi.name!r}", phi.pos)
    if len(phi.args) != rel.arity:
        raise FormulaError(
            f"relation {phi.name!r} has arity {rel.arity}, got {len(phi.args)} arguments",
            phi.pos,
        )
    for arg, cod in zip(phi.args, rel.cods):
        sort = term_sort(ctx, arg, env)
        if sort != cod:
            raise FormulaError(
                f"argument of {phi.name!r} has sort {sort}, expected {cod}", phi.pos
            )


def _check_eq(ctx: Context, phi: Eq, env: Env) -> None:
    lhs, rhs = term_sort(ctx, phi.lhs, env), term_sort(ctx, phi.rhs, env)
    if lhs != rhs:
        raise FormulaError(f"cannot equate {lhs} with {rhs}", phi.pos)


def _bind(ctx: Context, phi: Forall | Exists, env: Env) -> Context:
    """A quantifier's rule; returns the context its body is read in."""
    if ctx.sort_of(phi.var) is not None:
        raise FormulaError(f"variable {phi.var!r} shadows the context", phi.pos)
    if phi.sort not in env.objects:
        raise FormulaError(f"unknown object {phi.sort!r}", phi.pos)
    return ctx.extend(phi.var, env.objects[phi.sort])


def _check_operands(ctx: Context, phi: And | Or | Implies, env: Env) -> None:
    _check(ctx, phi.lhs, env)
    _check(ctx, phi.rhs, env)


def _unsupported(ctx: Context, phi, *_) -> None:
    raise FormulaError(f"unsupported formula node {phi!r}")


# Both walks look a node's function up by its exact type, and any type but
# the nine, a subclass of one included, gets ``_unsupported``.  The check
# walk's function applies the node's rule, then checks its children.
_CHECK = {
    Top: lambda ctx, phi, env: None, Bot: lambda ctx, phi, env: None,
    Atom: _check_atom, Eq: _check_eq,
    And: _check_operands, Or: _check_operands, Implies: _check_operands,
    Forall: lambda ctx, phi, env: _check(_bind(ctx, phi, env), phi.body, env),
    Exists: lambda ctx, phi, env: _check(_bind(ctx, phi, env), phi.body, env),
}


# ---------------------------------------------------------------------------
# compilation


# The construction that realizes each kind of node; an atom's names its relation.
_STEP = {Top: "true:identity", Bot: "false:initial", Eq: "eq:equalizer",
         And: "and:pullback", Or: "or:sum+image", Implies: "implies:pullback+pi",
         Forall: "forall:product+pi", Exists: "exists:image"}


def _steps(phi: Formula) -> list[str]:
    """The construction that realizes each node of phi, in postorder."""
    if isinstance(phi, (And, Or, Implies)):
        steps = _steps(phi.lhs) + _steps(phi.rhs)
    elif isinstance(phi, (Forall, Exists)):
        steps = _steps(phi.body)
    else:
        steps = []
    steps.append(f"atom:{phi.name}:pullback" if isinstance(phi, Atom) else _STEP[type(phi)])
    return steps


@dataclass(frozen=True)
class CompilationResult:
    relation: Relation
    formula: Formula

    @property
    def trace(self) -> tuple[str, ...]:
        """Which construction realized each node of the formula, in postorder."""
        return tuple(_steps(self.formula))


def _term_mor(ctx: Context, t: Term, env: Env, cprod: ProductDiagram) -> FinMor:
    if isinstance(t, Var):
        return cprod.projections[ctx.position(t.name)]
    return compose(env.morphisms[t.fn], _term_mor(ctx, t.arg, env, cprod))


def _compile_mono(ctx: Context, phi: Formula, env: Env, cprod: ProductDiagram) -> FinMor:
    """Compile to a monic map into the context product, through the memo.

    The memo is probed here, not through ``_LRU.kept``: every frame per
    level of nesting lowers the deepest formula that compiles within the
    recursion limit.  A flat conjunction's is 332 conjuncts, or 493 once
    its node hashes are kept (computing them recurses too).
    """
    compiled = env._memo.compiled
    key = ctx, phi
    mono = compiled.get(key)
    if mono is None:
        return compiled.keep(key, _BUILD.get(type(phi), _unsupported)(ctx, phi, env, cprod))
    compiled.move_to_end(key)
    return mono


def _build_atom(ctx: Context, phi: Atom, env: Env, cprod: ProductDiagram) -> FinMor:
    """An atom's mono: the pullback of its relation's mono along its terms."""
    _check_atom(ctx, phi, env)
    memo = env._memo
    rel = env.relations[phi.name]
    labels = tuple([c.labels for c in rel.cods])
    tprod = memo.built.kept(("product", labels), product_n, rel.cods)
    rel_mono = memo.built.kept(("relation", phi.name),
                               lambda: tprod.pair(rel.legs, dom=rel.dom))
    terms = tprod.pair(
        tuple(_term_mor(ctx, a, env, cprod) for a in phi.args), dom=cprod.apex
    )
    return pullback(rel_mono, terms).p2


def _build_eq(ctx: Context, phi: Eq, env: Env, cprod: ProductDiagram) -> FinMor:
    _check_eq(ctx, phi, env)
    return equalizer(_term_mor(ctx, phi.lhs, env, cprod), _term_mor(ctx, phi.rhs, env, cprod))


# A connective's mono is built once per Env for a key naming it and the
# inputs that fix its result.  An input mono is spelled by its domain and
# table rather than by itself, its codomain being the context product,
# and each carrier by its labels, which is what FinObj equality compares:
# the generated hash and equality of FinMor and FinObj build a tuple of
# their fields in Python on every call, and a hit hashes its key twice.
def _binary(tag: str, construct):
    def build(ctx: Context, phi: Formula, env: Env, cprod: ProductDiagram) -> FinMor:
        a = _compile_mono(ctx, phi.lhs, env, cprod)
        b = _compile_mono(ctx, phi.rhs, env, cprod)
        inputs = (cprod.apex.labels, a.dom.labels, a.table, b.dom.labels, b.table)
        return env._memo.built.kept((tag, inputs), construct, a, b)
    return build


def _quantifier(tag: str, construct):
    def build(ctx: Context, phi: Formula, env: Env, cprod: ProductDiagram) -> FinMor:
        inner_ctx = _bind(ctx, phi, env)
        labels, built = inner_ctx.labels, env._memo.built.kept
        inner_prod = built(("product", labels), product_n, inner_ctx.objects)
        body = _compile_mono(inner_ctx, phi.body, env, inner_prod)
        # The inner carriers fix both context products (the outer context
        # is the inner one less its last variable), hence the projection
        # that drops the last variable, kept per Env for them.
        def drop() -> FinMor:
            return built(("drop", labels), lambda: cprod.pair(
                inner_prod.projections[:-1], dom=inner_prod.apex))
        return built((tag, (labels, body.dom.labels, body.table)), construct, body, drop)
    return build


# The compile walk's function applies the node's rule, then builds its mono;
# an atom found in the atom memo passed its rule in the same context.  A
# connective's construction is passed its operands' monos, a quantifier's
# its body's mono and a builder of the projection that drops its variable.
_BUILD = {
    Top: lambda ctx, phi, env, cprod: identity(cprod.apex),
    Bot: lambda ctx, phi, env, cprod: unique_from_initial(cprod.apex),
    Atom: lambda ctx, phi, env, cprod: env._memo.atoms.kept(
        (ctx, phi), _build_atom, ctx, phi, env, cprod),
    Eq: _build_eq,
    And: _binary("and", lambda a, b: compose(a, pullback(a, b).p1)),
    Or: _binary("or", lambda a, b: image_factorization(
        coproduct(a.dom, b.dom).copair(a, b))[1]),
    Implies: _binary("implies", lambda a, b: pi_object(pullback(a, b).p1, a)),
    Forall: _quantifier("forall", lambda body, drop: pi_object(body, drop())),
    Exists: _quantifier("exists", lambda body, drop: image_factorization(
        compose(drop(), body))[1]),
}


def compile_formula(ctx: Context, phi: Formula, env: Env) -> CompilationResult:
    """Type-check a formula and compile it to a relation on the context carriers.

    Each node is checked just before it is built, so the first FormulaError
    is the one ``check_formula`` raises.  Once phi is built its root is in
    the compile memo, so ``check_formula`` then returns at the root and
    only records phi as checked, for the oracle's per-row check.  The
    relation is kept under the context's carriers and the mono, which fix
    its legs; the apex would not: a label ``(a,u)`` spells a pair.
    """
    memo = env._memo
    cprod = memo.built.kept(("product", ctx.labels), product_n, ctx.objects)
    mono = _compile_mono(ctx, phi, env, cprod)
    check_formula(ctx, phi, env)
    key = ("result", ctx.labels, mono.dom.labels, mono.table)
    rel = memo.built.kept(key, lambda: Relation(
        dom=mono.dom, legs=tuple(compose(p, mono) for p in cprod.projections)))
    return CompilationResult(rel, phi)


# ---------------------------------------------------------------------------
# the independent truth-table route


def _eval_term(t: Term, env: Env, assignment: Mapping[str, str]) -> str:
    if isinstance(t, Var):
        return assignment[t.name]
    return env.morphisms[t.fn](_eval_term(t.arg, env, assignment))


# The oracle's evaluator for each node type, called with the node, the env
# and the labels assigned to the variables in scope.
def _eval_quantifier(phi: Forall | Exists, env: Env, assignment: dict[str, str],
                     stop: bool) -> bool:
    """Whether some label of the sort gives the body the value ``stop``.

    The variable stays bound afterwards: no context variable can share its
    name, and any other occurrence of it lies under a binder that rebinds it.
    """
    body, var = phi.body, phi.var
    evaluate = _EVAL[type(body)]
    for lbl in env.objects[phi.sort].labels:
        assignment[var] = lbl
        if evaluate(body, env, assignment) == stop:
            return True
    return False


_EVAL = {
    Top: lambda phi, env, a: True,
    Bot: lambda phi, env, a: False,
    Atom: lambda phi, env, a: env.relations[phi.name].member(
        tuple([_eval_term(t, env, a) for t in phi.args])),
    Eq: lambda phi, env, a: _eval_term(phi.lhs, env, a) == _eval_term(phi.rhs, env, a),
    And: lambda phi, env, a: (_EVAL[type(phi.lhs)](phi.lhs, env, a)
                              and _EVAL[type(phi.rhs)](phi.rhs, env, a)),
    Or: lambda phi, env, a: (_EVAL[type(phi.lhs)](phi.lhs, env, a)
                             or _EVAL[type(phi.rhs)](phi.rhs, env, a)),
    Implies: lambda phi, env, a: (not _EVAL[type(phi.lhs)](phi.lhs, env, a)
                                  or _EVAL[type(phi.rhs)](phi.rhs, env, a)),
    Forall: lambda phi, env, a: not _eval_quantifier(phi, env, a, False),
    Exists: lambda phi, env, a: _eval_quantifier(phi, env, a, True),
}


def oracle(ctx: Context, phi: Formula, env: Env, row: Sequence[str]) -> bool:
    """Evaluate by direct recursion on one context row; no constructions."""
    check_formula(ctx, phi, env)
    row = tuple(row)
    if len(row) != len(ctx.objects):
        raise ShapeError(f"expected {len(ctx.objects)} components, got {len(row)}")
    for lbl, obj in zip(row, ctx.objects):
        if lbl not in obj.index:
            raise ShapeError(f"{lbl!r} is not a label of {obj}")
    return _EVAL[type(phi)](phi, env, dict(zip(ctx.names, row)))


def verify(ctx: Context, phi: Formula, env: Env, item: str | None = None) -> Report:
    """Compare compiled membership against the oracle on every context row."""
    t0 = time.perf_counter()
    result = compile_formula(ctx, phi, env)
    checked = 0
    witness = None
    for row in ctx.rows():
        checked += 1
        compiled = result.relation.member(row)
        direct = oracle(ctx, phi, env, row)
        if compiled != direct:
            witness = {
                "row": list(row),
                "compiled": compiled,
                "oracle": direct,
                "formula": render(phi),
                "trace": list(result.trace),
            }
            break
    # positional: one per call, and keywords double its cost
    return Report(item or (lambda: f"verify {render(phi)}"), FAIL if witness else PASS,
                  witness, checked, time.perf_counter() - t0)
