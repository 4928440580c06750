"""Command-line front end.

Five commands: ``check`` runs axiom and theorem checks, ``construct`` builds
a universal object from declared data and prints it as declarations,
``compile`` turns a formula into its subobject, ``pi`` builds and optionally
certifies a dependent product, and ``report`` re-renders a saved JSON report
stream.  Output is deterministic for a fixed (input, flags) pair: timings
are omitted unless ``--timings`` is passed, and every enumeration follows
declaration or registry order.  The environment variable ``CETCS_BOUND``
overrides the default size bound of 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .axioms import (
    AXIOMS,
    EXHAUSTIVE_THRESHOLD,
    THEOREMS,
    CheckSpec,
    check_axiom,
    check_pi_universal,
    check_theorem,
    shared_parts,
)
from .errors import CetcsError, ReportError
from .finset import (
    FinObj,
    PiDiagram,
    coequalizer,
    coproduct,
    equalizer,
    exponential,
    image_factorization,
    pi_diagram,
    product,
    pullback,
    quotient,
)
from .logic import compile_formula, parse, parse_context, verify
from .modelfile import ModelFile, load, render_morphism, render_object, render_relation
from .report import Report, exit_code, from_dict, render_json, render_text

DEFAULT_BOUND = 3


def _default_bound() -> int:
    raw = os.environ.get("CETCS_BOUND")
    if raw is None:
        return DEFAULT_BOUND
    try:
        return int(raw)
    except ValueError:
        raise CetcsError(f"CETCS_BOUND must be an integer, got {raw!r}") from None


def _model(ns: argparse.Namespace) -> ModelFile:
    if ns.model is None:
        return ModelFile()
    return load(ns.model)


def _named(kind: str, name: str, table: dict):
    if name not in table:
        known = ", ".join(sorted(table)) or "none declared"
        raise CetcsError(f"unknown {kind} {name!r} (known: {known})")
    return table[name]


def _name_of(mf: ModelFile, o: FinObj) -> str:
    """The first declared name of a carrier, or ``_`` for an anonymous one."""
    for name, candidate in mf.objects.items():
        if candidate == o:
            return name
    return "_"


def _emit_reports(reports: list[Report], ns: argparse.Namespace) -> int:
    if ns.format == "json":
        sys.stdout.write(render_json(reports, include_timing=ns.timings))
    else:
        sys.stdout.write(render_text(reports, include_timing=ns.timings))
    return exit_code(reports)


def _emit_lines(lines: list[str], ns: argparse.Namespace, payload: dict) -> None:
    if ns.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2,
                                    ensure_ascii=False) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def _items(kind: str, choices: list[str] | None, table: dict) -> list[str]:
    """The ids the --axiom or --theorem values select, in the order given;
    ``all`` stands for the whole table in registry order."""
    items: list[str] = []
    for choice in choices or ():
        if choice == "all":
            items += table
        elif choice in table:
            items.append(choice)
        else:
            raise CetcsError(f"unknown {kind} {choice!r} (known: {', '.join(table)})")
    return items


def _run_check(ns: argparse.Namespace) -> int:
    bound = ns.bound if ns.bound is not None else _default_bound()
    if bound < 1:
        raise CetcsError(f"bound must be at least 1, got {bound}")
    if ns.sample is not None:
        if bound <= EXHAUSTIVE_THRESHOLD:
            raise CetcsError(
                f"sampling is only for bounds above {EXHAUSTIVE_THRESHOLD}; "
                f"bound {bound} is checked exhaustively"
            )
        if ns.sample < 1:
            raise CetcsError(f"sample must be at least 1, got {ns.sample}")
    mf = _model(ns)
    axiom, theorem = ns.axiom, ns.theorem
    if axiom is None and theorem is None:
        axiom = theorem = ["all"]
    axiom_items = _items("axiom", axiom, AXIOMS)
    theorem_items = _items("theorem", theorem, THEOREMS)
    shared = dict(
        bound=bound,
        objects=tuple(mf.objects.values()),
        morphisms=tuple(mf.morphisms.values()),
        relations=tuple(mf.relations.values()),
        sample=ns.sample,
        seed=ns.seed,
    )
    # one invocation decides each part once; a composed item credits its parts
    with shared_parts():
        reports = [check_axiom(CheckSpec(item=item, **shared)) for item in axiom_items]
        reports += [check_theorem(CheckSpec(item=item, **shared)) for item in theorem_items]
    return _emit_reports(reports, ns)


def _pi_parts(mf: ModelFile, d: PiDiagram) -> tuple[dict, list]:
    """The objects and maps of a dependent product, in declaration order."""
    objects = {"F": d.F, "P": d.P}
    morphisms = [
        ("phi", d.phi, "F", _name_of(mf, d.phi.cod)),
        ("pi1", d.pi1, "P", "F"),
        ("pi2", d.pi2, "P", _name_of(mf, d.pi2.cod)),
        ("ev", d.ev, "P", _name_of(mf, d.ev.cod)),
    ]
    return objects, morphisms


def _declare(objects: dict, morphisms: list, relations: list | tuple = ()) -> tuple[list[str], dict]:
    """Declaration lines for constructed pieces, and the same pieces as JSON."""
    lines: list[str] = []
    payload: dict = {"objects": {}, "morphisms": {}, "relations": {}}
    for name, o in objects.items():
        lines.append(render_object(name, o))
        payload["objects"][name] = list(o.labels)
    for name, m, dom, cod in morphisms:
        lines.append(render_morphism(name, m, dom, cod))
        payload["morphisms"][name] = {
            "dom": dom, "cod": cod,
            "table": {x: y for x, y in zip(m.dom.labels, m.table)},
        }
    for name, r, sorts in relations:
        lines.append(render_relation(name, r, sorts))
        payload["relations"][name] = {
            "sorts": list(sorts), "rows": [list(t) for t in r.tuples],
        }
    return lines, payload


def _run_construct(ns: argparse.Namespace) -> int:
    mf = _model(ns)

    def need_objects(n: int) -> list:
        if len(ns.objects) != n:
            raise CetcsError(f"--op {ns.op} needs --objects with {n} names")
        return [_named("object", x, mf.objects) for x in ns.objects]

    def need_maps(n: int) -> list:
        if len(ns.maps) != n:
            raise CetcsError(f"--op {ns.op} needs --maps with {n} names")
        return [_named("morphism", x, mf.morphisms) for x in ns.maps]

    objects: dict = {}
    morphisms: list[tuple[str, object, str, str]] = []
    relations: list[tuple[str, object, tuple[str, ...]]] = []

    if ns.op == "product":
        a, b = need_objects(2)
        d = product(a, b)
        objects["P"] = d.apex
        morphisms.append(("pr1", d.projections[0], "P", ns.objects[0]))
        morphisms.append(("pr2", d.projections[1], "P", ns.objects[1]))
    elif ns.op == "sum":
        a, b = need_objects(2)
        d = coproduct(a, b)
        objects["S"] = d.apex
        morphisms.append(("inl", d.injections[0], ns.objects[0], "S"))
        morphisms.append(("inr", d.injections[1], ns.objects[1], "S"))
    elif ns.op == "equalizer":
        f, g = need_maps(2)
        e = equalizer(f, g)
        objects["E"] = e.dom
        morphisms.append(("e", e, "E", _name_of(mf, e.cod)))
    elif ns.op == "coequalizer":
        f, g = need_maps(2)
        q = coequalizer(f, g)
        objects["Q"] = q.cod
        morphisms.append(("q", q, _name_of(mf, q.dom), "Q"))
    elif ns.op == "pullback":
        f, g = need_maps(2)
        square = pullback(f, g)
        objects["P"] = square.apex
        morphisms.append(("p1", square.p1, "P", _name_of(mf, square.p1.cod)))
        morphisms.append(("p2", square.p2, "P", _name_of(mf, square.p2.cod)))
    elif ns.op == "pi":
        g, f = need_maps(2)
        objects, morphisms = _pi_parts(mf, pi_diagram(g, f))
    elif ns.op == "image":
        (f,) = need_maps(1)
        e, i = image_factorization(f)
        objects["I"] = i.dom
        morphisms.append(("e", e, _name_of(mf, e.dom), "I"))
        morphisms.append(("i", i, "I", _name_of(mf, i.cod)))
    elif ns.op == "quotient":
        if ns.relation is None:
            raise CetcsError("--op quotient needs --relation")
        rel = _named("relation", ns.relation, mf.relations)
        q = quotient(rel)
        objects["Q"] = q.cod
        morphisms.append(("q", q, _name_of(mf, q.dom), "Q"))
    elif ns.op == "exponential":
        a, b = need_objects(2)
        e_obj, ev_rel = exponential(a, b)
        objects["E"] = e_obj
        relations.append(("ev", ev_rel, ("E", ns.objects[0], ns.objects[1])))

    lines, payload = _declare(objects, morphisms, relations)
    _emit_lines(lines, ns, {"op": ns.op, **payload})
    return 0


def _run_compile(ns: argparse.Namespace) -> int:
    mf = _model(ns)
    env = mf.env()
    ctx = parse_context(ns.context, env.objects)
    phi = parse(ns.formula)
    result = compile_formula(ctx, phi, env)
    sorts = tuple(name for name, _ in ctx.vars)
    lines = [render_relation("result", result.relation, sorts)]
    payload: dict = {
        "formula": ns.formula,
        "context": ns.context,
        "rows": [list(t) for t in result.relation.tuples],
        "sorts": list(sorts),
    }
    if ns.trace:
        lines.append("trace: " + ", ".join(result.trace))
        payload["trace"] = list(result.trace)
    status = 0
    if ns.verify:
        rep = verify(ctx, phi, env, item="compile-verify")
        payload["verify"] = rep.to_dict(include_timing=ns.timings)
        lines.append(rep.text_line(include_timing=ns.timings))
        status = exit_code([rep])
    _emit_lines(lines, ns, payload)
    return status


def _run_pi(ns: argparse.Namespace) -> int:
    mf = _model(ns)
    g = _named("morphism", ns.g, mf.morphisms)
    f = _named("morphism", ns.f, mf.morphisms)
    d = pi_diagram(g, f)
    lines, _ = _declare(*_pi_parts(mf, d))
    payload: dict = {
        "g": ns.g,
        "f": ns.f,
        "F": list(d.F.labels),
        "P": list(d.P.labels),
        "phi": {x: y for x, y in zip(d.F.labels, d.phi.table)},
        "ev": {x: y for x, y in zip(d.P.labels, d.ev.table)},
    }
    status = 0
    if ns.check_universal:
        rep = check_pi_universal(d, g, f)
        payload["universal"] = rep.to_dict(include_timing=ns.timings)
        lines.append(rep.text_line(include_timing=ns.timings))
        status = exit_code([rep])
    _emit_lines(lines, ns, payload)
    return status


def _run_report(ns: argparse.Namespace) -> int:
    with open(ns.input, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ReportError(f"{ns.input} is not a JSON report: {exc}") from None
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ReportError(f"{ns.input} holds neither a report nor a list of them")
    reports = [from_dict(d) for d in data]
    return _emit_reports(reports, ns)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed seconds in reports")


def _names(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cetcs",
        description="Construct and exhaustively certify the structure of "
                    "finite sets: universal objects, compiled formulas, "
                    "dependent products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run axiom and theorem checks")
    p.set_defaults(run=_run_check)
    p.add_argument("--axiom", metavar="ID", action="append",
                   help="axiom id or 'all'; repeat to run several")
    p.add_argument("--theorem", metavar="ID", action="append",
                   help="theorem id or 'all'; repeat to run several")
    p.add_argument("--bound", type=int, default=None,
                   help="max carrier size (default 3, or CETCS_BOUND)")
    p.add_argument("--sample", type=int, default=None,
                   help="sampled instances per hom-set (bounds above "
                        f"{EXHAUSTIVE_THRESHOLD} only)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    _add_common(p)
    p.add_argument("model", nargs="?", help="declaration file to include")

    p = sub.add_parser("construct", help="build a universal object")
    p.set_defaults(run=_run_construct)
    p.add_argument("--op", required=True,
                   choices=("product", "sum", "equalizer", "coequalizer",
                            "pullback", "pi", "image", "quotient",
                            "exponential"))
    p.add_argument("--objects", type=_names, default=(), metavar="A,B",
                   help="comma-separated object names")
    p.add_argument("--maps", type=_names, default=(), metavar="f,g",
                   help="comma-separated morphism names")
    p.add_argument("--relation", default=None, metavar="r",
                   help="relation name (for quotient)")
    # construct prints no reports, so it takes no --timings
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")
    p.add_argument("model", help="declaration file")

    p = sub.add_parser("compile", help="compile a formula to its subobject")
    p.set_defaults(run=_run_compile)
    p.add_argument("--context", required=True, metavar='"x:X, y:Y"')
    p.add_argument("--formula", required=True)
    p.add_argument("--verify", action="store_true",
                   help="compare against truth-table evaluation")
    p.add_argument("--trace", action="store_true",
                   help="print the construction steps")
    _add_common(p)
    p.add_argument("model", help="declaration file")

    p = sub.add_parser("pi", help="build a dependent product")
    p.set_defaults(run=_run_pi)
    p.add_argument("--g", required=True, metavar="g", help="bundle map name")
    p.add_argument("--f", required=True, metavar="f", help="index map name")
    p.add_argument("--check-universal", action="store_true",
                   help="certify the universal property")
    _add_common(p)
    p.add_argument("model", help="declaration file")

    p = sub.add_parser("report", help="re-render a saved JSON report stream")
    p.set_defaults(run=_run_report)
    _add_common(p)
    p.add_argument("input", help="JSON file written by --format json")

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.run(ns)
    except (CetcsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the input nests too deeply to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
