"""Seeded inputs, reference answers and the correctness gate of the benchmark.

Standard library only and free of ``cetcs`` imports: the generators emit the
model text and formula text that a pass hands to the library, so the
library receives nothing but those inputs.  Every generator draws from a
``random.Random`` seeded with a string, which CPython hashes with SHA-512,
and never iterates a set or dict it built itself, so the same seed gives the
same bytes under every ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("check-b3", "pi-b4", "formula-shared", "formula-deep")

# Per-operation caps in seconds.  An operation over its cap fails.  A pass
# also stops at PASS_DEADLINE_S; the operation running then and every one
# not yet started fail, so a hung pass is counted, never dropped.
OP_CAP_S = {
    "check-b3": 120.0,
    "pi-b4": 120.0,
    "formula-shared": 2.0,
    "formula-deep": 10.0,
}
PASS_DEADLINE_S = 150.0

# Pi at bound 4: sum over carrier sizes nx, ny, ni <= 4 of ni^nx * nx^ny
# composable pairs, and the instances check_pi_universal counts on them.
PI_B4_BOUND = 4
PI_B4_INSTANCES = 1_588_518

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# formula-deep shape: the free context, the carriers and the symbols.
DEEP_FORMULAS = 2000
DEEP_SKELETON_SEED = "perfbench|formula-deep|skeleton|v1"
DEEP_SIZES = {"X": 6, "Y": 5}
DEEP_MAPS = {"f": ("X", "Y"), "g": ("Y", "X"), "h": ("X", "X")}
DEEP_RELATIONS = {"p": ("X", "Y"), "q": ("Y", "Y"), "s": ("X", "X")}
DEEP_MAX_BINDERS = 2


def rng_for(workload: str, seed: int, part: str = "") -> random.Random:
    return random.Random(f"perfbench|{workload}|{seed}|{part}")


def labels(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct bare-word labels, drawn from the seed."""
    picked = rng.sample(range(100, 1000), n)
    return [f"{prefix}{k}" for k in picked]


def render_object(name: str, lbls: list[str]) -> str:
    return f"object {name} = {{{', '.join(lbls)}}}"


def render_morphism(name: str, dom: str, cod: str, pairs) -> str:
    entries = ", ".join(f"{a} |-> {b}" for a, b in pairs)
    return f"morphism {name} : {dom} -> {cod} = {{{entries}}}"


def render_relation(name: str, sorts: tuple[str, ...], rows) -> str:
    body = ", ".join(
        r[0] if len(r) == 1 else "(" + ", ".join(r) + ")" for r in rows
    )
    return f"relation {name} <| ({', '.join(sorts)}) = {{{body}}}"


def map_with_image(rng, dom: list[str], cod: list[str], image_size: int):
    """A seeded table dom -> cod whose image has exactly image_size labels."""
    image = rng.sample(cod, image_size)
    values = image + [rng.choice(image) for _ in range(len(dom) - image_size)]
    rng.shuffle(values)
    return list(zip(dom, values))


# ---------------------------------------------------------------------------
# check-b3


def check_b3_model(seed: int) -> str:
    """A model whose carriers (4-6 labels) stay out of the bound-3 pools.

    Only the labels, tables and rows come from the seed.  The shape that
    the instance counts depend on is fixed: each map's domain, codomain and
    image size, one equivalence relation (Eff sweeps its carrier squared),
    and relations Eff skips (arity 1, or arity 2 over different carriers).
    So every seed yields the same stdout bytes.
    """
    rng = rng_for("check-b3", seed)
    a, b, c = labels(rng, "a", 4), labels(rng, "b", 5), labels(rng, "c", 6)
    blocks = rng.sample(b, 5)
    classes = [blocks[:2], blocks[2:]]
    eq_rows = [(u, v) for u in b for v in b
               if any(u in k and v in k for k in classes)]
    lines = [
        "# perfbench check-b3 model, seed " + str(seed),
        render_object("A", a),
        render_object("B", b),
        render_object("C", c),
        render_morphism("f", "A", "B", map_with_image(rng, a, b, 3)),
        render_morphism("g", "B", "C", map_with_image(rng, b, c, 4)),
        render_morphism("h", "C", "A", map_with_image(rng, c, a, 4)),
        render_morphism("k", "A", "A", map_with_image(rng, a, a, 4)),
        render_relation("e", ("B", "B"), eq_rows),
        render_relation("r", ("A", "C"),
                        sorted(rng.sample([(x, y) for x in a for y in c], 7))),
        render_relation("u", ("C",), [(x,) for x in sorted(rng.sample(c, 3))]),
    ]
    return "\n".join(lines) + "\n"


def check_b3_reference() -> bytes:
    return (REFERENCE_DIR / "check-b3.stdout").read_bytes()


# ---------------------------------------------------------------------------
# pi-b4


def pi_b4_pairs(bound: int = PI_B4_BOUND) -> int:
    """Composable pairs (g: Y -> X, f: X -> I) over carriers of size <= bound."""
    return sum(
        nx ** ny * ni ** nx
        for ny in range(bound + 1)
        for nx in range(bound + 1)
        for ni in range(bound + 1)
    )


# ---------------------------------------------------------------------------
# formula text


def conj(a: str, b: str) -> str:
    return f"({a} /\\ {b})"


def disj(a: str, b: str) -> str:
    return f"({a} \\/ {b})"


def impl(a: str, b: str) -> str:
    return f"({a} => {b})"


def neg(a: str) -> str:
    return impl(a, "false")


def forall(v: str, sort: str, body: str) -> str:
    return f"(forall {v}:{sort}. {body})"


def exists(v: str, sort: str, body: str) -> str:
    return f"(exists {v}:{sort}. {body})"


# ---------------------------------------------------------------------------
# formula-shared: the criterion-2 suite, as text


def shared_closure(depth: int, y_bound: bool) -> list[str]:
    leaves = ["true", "false", "r(x)"]
    if y_bound:
        leaves.append("m(x, y)")
    if depth == 0:
        return leaves
    smaller = shared_closure(depth - 1, y_bound)
    out = list(leaves)
    out += [neg(p) for p in smaller]
    for p, q in itertools.product(smaller, repeat=2):
        out += [conj(p, q), disj(p, q), impl(p, q)]
    if not y_bound:
        inner = shared_closure(depth - 1, True)
        out += [forall("y", "Y", p) for p in inner]
        out += [exists("y", "Y", p) for p in inner]
    return out


def shared_operator_words(max_len: int) -> list[str]:
    """Every operator word of length <= max_len with at most one binder."""

    def build(word, y_bound):
        side = "m(x, y)" if y_bound else "r(x)"
        if not word:
            return side
        op, rest = word[0], word[1:]
        if op == "not":
            return neg(build(rest, y_bound))
        if op in ("and", "or", "implies"):
            node = {"and": conj, "or": disj, "implies": impl}[op]
            return node(build(rest, y_bound), side)
        node = forall if op == "forall" else exists
        return node("y", "Y", build(rest, True))

    ops = ("and", "or", "implies", "not", "forall", "exists")
    out = []
    for k in range(max_len + 1):
        for word in itertools.product(ops, repeat=k):
            if sum(op in ("forall", "exists") for op in word) <= 1:
                out.append(build(word, False))
    return out


def shared_formulas() -> list[str]:
    return shared_closure(2, False) + shared_operator_words(3)


def shared_models(seed: int) -> list[tuple[str, int]]:
    """(model text, rows per verify) for each |X|, |Y| in 0..3.

    The seed picks the labels and which rows r and m hold; the row counts
    are fixed at ceil(|X|/2) and floor(|X||Y|/2), so every seed does the
    same amount of work.
    """
    out = []
    for nx in range(4):
        for ny in range(4):
            rng = rng_for("formula-shared", seed, f"{nx}x{ny}")
            x, y = labels(rng, "x", nx), labels(rng, "y", ny)
            r_rows = [(v,) for v in sorted(rng.sample(x, (nx + 1) // 2))]
            pairs = [(u, v) for u in x for v in y]
            m_rows = sorted(rng.sample(pairs, len(pairs) // 2))
            text = "\n".join([
                render_object("X", x),
                render_object("Y", y),
                render_relation("r", ("X",), r_rows),
                render_relation("m", ("X", "Y"), m_rows),
            ]) + "\n"
            out.append((text, nx))
    return out


# ---------------------------------------------------------------------------
# formula-deep: few large formulas, little sharing


def _deep_skeleton(rng: random.Random, depth: int, binders: int):
    """A connective tree of exactly the given depth; leaves are None.

    The tree shape and the sorts of bound variables are fixed across
    workload seeds, so every seed compiles the same number of nodes at the
    same context sizes; the seed only chooses the atoms at the leaves and
    the labels.
    """
    if depth == 0:
        return None
    choices = ["and", "or", "implies", "not"]
    if binders < DEEP_MAX_BINDERS:
        choices += ["forall", "exists"]
    op = rng.choice(choices)
    if op in ("forall", "exists"):
        sort = rng.choice(("X", "Y"))
        return (op, sort, _deep_skeleton(rng, depth - 1, binders + 1))
    if op == "not":
        return (op, _deep_skeleton(rng, depth - 1, binders))
    deep_left = rng.random() < 0.5
    other = rng.randrange(depth)
    left = _deep_skeleton(rng, depth - 1 if deep_left else other, binders)
    right = _deep_skeleton(rng, other if deep_left else depth - 1, binders)
    return (op, left, right)


def deep_skeletons(count: int = DEEP_FORMULAS):
    rng = random.Random(DEEP_SKELETON_SEED)
    return [
        (rng.choice(("X", "Y")), _deep_skeleton(rng, rng.choice((5, 6)), 0))
        for _ in range(count)
    ]


def _deep_term(rng: random.Random, scope: list[tuple[str, str]], sort: str) -> str:
    """A variable of the sort, or one map application landing in it."""
    direct = [v for v, s in scope if s == sort]
    maps = [(f, d) for f, (d, c) in DEEP_MAPS.items() if c == sort
            and any(s == d for _, s in scope)]
    if direct and (not maps or rng.random() < 0.5):
        return rng.choice(direct)
    f, dom = rng.choice(maps)
    return f"{f}({rng.choice([v for v, s in scope if s == dom])})"


def _deep_atom(rng: random.Random, scope: list[tuple[str, str]]) -> str:
    if rng.random() < 0.3:
        sort = rng.choice(sorted({s for _, s in scope}))
        return f"{_deep_term(rng, scope, sort)} = {_deep_term(rng, scope, sort)}"
    present = {s for _, s in scope}
    usable = [n for n, sorts in DEEP_RELATIONS.items()
              if all(any(_reachable(s, t) for s in present) for t in sorts)]
    name = rng.choice(usable)
    args = ", ".join(_deep_term(rng, scope, t) for t in DEEP_RELATIONS[name])
    return f"{name}({args})"


def _reachable(src: str, dst: str) -> bool:
    return src == dst or any(d == src and c == dst for d, c in DEEP_MAPS.values())


def _deep_text(rng, node, scope: list[tuple[str, str]]) -> str:
    if node is None:
        return _deep_atom(rng, scope)
    op = node[0]
    if op in ("forall", "exists"):
        var, sort = f"v{len(scope)}", node[1]
        body = _deep_text(rng, node[2], scope + [(var, sort)])
        return (forall if op == "forall" else exists)(var, sort, body)
    if op == "not":
        return neg(_deep_text(rng, node[1], scope))
    build = {"and": conj, "or": disj, "implies": impl}[op]
    return build(_deep_text(rng, node[1], scope), _deep_text(rng, node[2], scope))


def deep_inputs(seed: int) -> tuple[str, list[tuple[str, str, int]]]:
    """The model text and (context, formula, rows) for each formula.

    The model's structure (tables and rows, half of all pairs per relation)
    is drawn once from the skeleton seed; the workload seed names and orders
    the labels.  So every seed gets an isomorphic model, and the subobjects
    the formulas compile to have the same sizes from seed to seed.
    """
    fixed = random.Random(DEEP_SKELETON_SEED + "|model")
    rng = rng_for("formula-deep", seed)
    carriers = {name: labels(rng, name.lower(), n) for name, n in DEEP_SIZES.items()}
    lines = [render_object(name, lbls) for name, lbls in carriers.items()]
    for name, (dom, cod) in DEEP_MAPS.items():
        pairs = [(a, carriers[cod][fixed.randrange(DEEP_SIZES[cod])])
                 for a in carriers[dom]]
        lines.append(render_morphism(name, dom, cod, pairs))
    for name, sorts in DEEP_RELATIONS.items():
        cells = list(itertools.product(*(range(DEEP_SIZES[s]) for s in sorts)))
        picked = fixed.sample(cells, len(cells) // 2)
        rows = sorted(tuple(carriers[s][i] for s, i in zip(sorts, cell)) for cell in picked)
        lines.append(render_relation(name, sorts, rows))
    model = "\n".join(lines) + "\n"
    formulas = []
    for free_sort, skeleton in deep_skeletons():
        scope = [("x", free_sort)]
        text = _deep_text(rng, skeleton, scope)
        formulas.append((f"x:{free_sort}", text, DEEP_SIZES[free_sort]))
    return model, formulas


# ---------------------------------------------------------------------------
# the correctness gate


@dataclass(frozen=True)
class OpResult:
    """What one operation returned, as the pass observed it."""

    op: str
    elapsed_s: float
    verdict: str | None = None
    instances: int | None = None
    output: bytes | None = None
    error: str | None = None


@dataclass(frozen=True)
class Expected:
    """The known answer for one operation."""

    instances: int
    cap_s: float
    output: bytes | None = None


def judge(result: OpResult, expected: Expected) -> str | None:
    """Why the operation failed, or None if it passed.

    It fails if it raised, went over its cap, returned a verdict other than
    PASS (the known answer in finite sets), counted a different number of
    instances, or printed other bytes than the reference.
    """
    if result.error is not None:
        return f"raised: {result.error}"
    if result.elapsed_s > expected.cap_s:
        return f"over cap: {result.elapsed_s:.3f}s > {expected.cap_s:.3f}s"
    if result.verdict != "pass":
        return f"verdict {result.verdict!r}, expected 'pass'"
    if result.instances != expected.instances:
        return f"instances {result.instances}, expected {expected.instances}"
    if expected.output is not None and result.output != expected.output:
        return "output bytes differ from the reference"
    return None


def failures(results: list[OpResult], expected: list[Expected]) -> list[tuple[str, str]]:
    """(operation, why) for every result that fails its expectation."""
    if len(results) != len(expected):
        raise ValueError("one expectation per result")
    return [(r.op, why) for r, e in zip(results, expected)
            if (why := judge(r, e)) is not None]
