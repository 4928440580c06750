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
from dataclasses import dataclass

from .axioms import (
    AXIOMS,
    EXHAUSTIVE_THRESHOLD,
    THEOREMS,
    CheckSpec,
    check_axiom,
    check_pi_universal,
    check_theorem,
)
from .errors import CetcsError, ReportError
from .finset import (
    FinObj,
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


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, operands, bound, output shape."""

    command: str
    model_path: str | None = None
    bound: int = DEFAULT_BOUND
    fmt: str = "text"
    timings: bool = False
    sample: int | None = None
    seed: int = 0
    axiom: str | None = None
    theorem: str | None = None
    op: str | None = None
    objects: tuple[str, ...] = ()
    maps: tuple[str, ...] = ()
    relation: str | None = None
    context: str | None = None
    formula: str | None = None
    verify: bool = False
    trace: bool = False
    g: str | None = None
    f: str | None = None
    check_universal: bool = False
    input_path: str | None = None

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise CetcsError(f"bound must be at least 1, got {self.bound}")
        if self.sample is not None and self.bound <= EXHAUSTIVE_THRESHOLD:
            raise CetcsError(
                f"sampling is only for bounds above {EXHAUSTIVE_THRESHOLD}; "
                f"bound {self.bound} is checked exhaustively"
            )


def _default_bound() -> int:
    raw = os.environ.get("CETCS_BOUND")
    if raw is None:
        return DEFAULT_BOUND
    try:
        return int(raw)
    except ValueError:
        raise CetcsError(f"CETCS_BOUND must be an integer, got {raw!r}") from None


def _model(cfg: RunConfig) -> ModelFile:
    if cfg.model_path is None:
        return ModelFile()
    return load(cfg.model_path)


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


def _emit_reports(reports: list[Report], cfg: RunConfig) -> int:
    if cfg.fmt == "json":
        sys.stdout.write(render_json(reports, include_timing=cfg.timings))
    else:
        sys.stdout.write(render_text(reports, include_timing=cfg.timings))
    return exit_code(reports)


def _emit_lines(lines: list[str], cfg: RunConfig, payload: dict) -> int:
    if cfg.fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2,
                                    ensure_ascii=False) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# commands


def _run_check(cfg: RunConfig) -> int:
    mf = _model(cfg)
    axiom_items: list[str] = []
    theorem_items: list[str] = []
    if cfg.axiom is None and cfg.theorem is None:
        axiom_items = list(AXIOMS)
        theorem_items = list(THEOREMS)
    if cfg.axiom is not None:
        axiom_items = list(AXIOMS) if cfg.axiom == "all" else [cfg.axiom]
    if cfg.theorem is not None:
        theorem_items = list(THEOREMS) if cfg.theorem == "all" else [cfg.theorem]
    for item in axiom_items:
        if item not in AXIOMS:
            raise CetcsError(
                f"unknown axiom {item!r} (known: {', '.join(AXIOMS)})"
            )
    for item in theorem_items:
        if item not in THEOREMS:
            raise CetcsError(
                f"unknown theorem {item!r} (known: {', '.join(THEOREMS)})"
            )
    shared = dict(
        bound=cfg.bound,
        objects=tuple(mf.objects.values()),
        morphisms=tuple(mf.morphisms.values()),
        relations=tuple(mf.relations.values()),
        sample=cfg.sample,
        seed=cfg.seed,
    )
    reports = [check_axiom(CheckSpec(item=item, **shared)) for item in axiom_items]
    reports += [check_theorem(CheckSpec(item=item, **shared)) for item in theorem_items]
    return _emit_reports(reports, cfg)


def _run_construct(cfg: RunConfig) -> int:
    mf = _model(cfg)
    lines: list[str] = []

    def need_objects(n: int) -> list:
        if len(cfg.objects) != n:
            raise CetcsError(f"--op {cfg.op} needs --objects with {n} names")
        return [_named("object", x, mf.objects) for x in cfg.objects]

    def need_maps(n: int) -> list:
        if len(cfg.maps) != n:
            raise CetcsError(f"--op {cfg.op} needs --maps with {n} names")
        return [_named("morphism", x, mf.morphisms) for x in cfg.maps]

    out_objects: dict = {}
    out_morphisms: list[tuple[str, object, str, str]] = []
    out_relations: list[tuple[str, object, tuple[str, ...]]] = []

    if cfg.op == "product":
        a, b = need_objects(2)
        d = product(a, b)
        out_objects["P"] = d.apex
        out_morphisms.append(("pr1", d.projections[0], "P", cfg.objects[0]))
        out_morphisms.append(("pr2", d.projections[1], "P", cfg.objects[1]))
    elif cfg.op == "sum":
        a, b = need_objects(2)
        d = coproduct(a, b)
        out_objects["S"] = d.apex
        out_morphisms.append(("inl", d.injections[0], cfg.objects[0], "S"))
        out_morphisms.append(("inr", d.injections[1], cfg.objects[1], "S"))
    elif cfg.op == "equalizer":
        f, g = need_maps(2)
        e = equalizer(f, g)
        out_objects["E"] = e.dom
        out_morphisms.append(("e", e, "E", _name_of(mf, e.cod)))
    elif cfg.op == "coequalizer":
        f, g = need_maps(2)
        q = coequalizer(f, g)
        out_objects["Q"] = q.cod
        out_morphisms.append(("q", q, _name_of(mf, q.dom), "Q"))
    elif cfg.op == "pullback":
        f, g = need_maps(2)
        square = pullback(f, g)
        out_objects["P"] = square.apex
        out_morphisms.append(("p1", square.p1, "P", _name_of(mf, square.p1.cod)))
        out_morphisms.append(("p2", square.p2, "P", _name_of(mf, square.p2.cod)))
    elif cfg.op == "pi":
        g, f = need_maps(2)
        d = pi_diagram(g, f)
        out_objects["F"] = d.F
        out_objects["P"] = d.P
        out_morphisms.append(("phi", d.phi, "F", _name_of(mf, d.phi.cod)))
        out_morphisms.append(("pi1", d.pi1, "P", "F"))
        out_morphisms.append(("pi2", d.pi2, "P", _name_of(mf, d.pi2.cod)))
        out_morphisms.append(("ev", d.ev, "P", _name_of(mf, d.ev.cod)))
    elif cfg.op == "image":
        (f,) = need_maps(1)
        e, i = image_factorization(f)
        out_objects["I"] = i.dom
        out_morphisms.append(("e", e, _name_of(mf, e.dom), "I"))
        out_morphisms.append(("i", i, "I", _name_of(mf, i.cod)))
    elif cfg.op == "quotient":
        if cfg.relation is None:
            raise CetcsError("--op quotient needs --relation")
        rel = _named("relation", cfg.relation, mf.relations)
        q = quotient(rel)
        out_objects["Q"] = q.cod
        out_morphisms.append(("q", q, _name_of(mf, q.dom), "Q"))
    elif cfg.op == "exponential":
        a, b = need_objects(2)
        e_obj, ev_rel = exponential(a, b)
        out_objects["E"] = e_obj
        out_relations.append(
            ("ev", ev_rel, ("E", cfg.objects[0], cfg.objects[1]))
        )
    else:
        raise CetcsError(f"unknown --op {cfg.op!r}")

    payload = {"op": cfg.op, "objects": {}, "morphisms": {}, "relations": {}}
    for name, o in out_objects.items():
        lines.append(render_object(name, o))
        payload["objects"][name] = list(o.labels)
    for name, m, dom, cod in out_morphisms:
        lines.append(render_morphism(name, m, dom, cod))
        payload["morphisms"][name] = {
            "dom": dom, "cod": cod,
            "table": {x: y for x, y in zip(m.dom.labels, m.table)},
        }
    for name, r, sorts in out_relations:
        lines.append(render_relation(name, r, sorts))
        payload["relations"][name] = {
            "sorts": list(sorts), "rows": [list(t) for t in r.tuples],
        }
    return _emit_lines(lines, cfg, payload)


def _run_compile(cfg: RunConfig) -> int:
    mf = _model(cfg)
    if cfg.context is None or cfg.formula is None:
        raise CetcsError("compile needs both --context and --formula")
    env = mf.env()
    ctx = parse_context(cfg.context, env.objects)
    phi = parse(cfg.formula)
    result = compile_formula(ctx, phi, env)
    sorts = tuple(name for name, _ in ctx.vars)
    lines = [render_relation("result", result.relation, sorts)]
    payload: dict = {
        "formula": cfg.formula,
        "context": cfg.context,
        "rows": [list(t) for t in result.relation.tuples],
        "sorts": list(sorts),
    }
    if cfg.trace:
        lines.append("trace: " + ", ".join(result.trace))
        payload["trace"] = list(result.trace)
    status = 0
    if cfg.verify:
        rep = verify(ctx, phi, env, item="compile-verify")
        payload["verify"] = rep.to_dict(include_timing=cfg.timings)
        lines.append(rep.text_line(include_timing=cfg.timings))
        status = exit_code([rep])
    code = _emit_lines(lines, cfg, payload)
    return status or code


def _run_pi(cfg: RunConfig) -> int:
    mf = _model(cfg)
    if cfg.g is None or cfg.f is None:
        raise CetcsError("pi needs both --g and --f")
    g = _named("morphism", cfg.g, mf.morphisms)
    f = _named("morphism", cfg.f, mf.morphisms)
    d = pi_diagram(g, f)

    lines = [
        render_object("F", d.F),
        render_object("P", d.P),
        render_morphism("phi", d.phi, "F", _name_of(mf, d.phi.cod)),
        render_morphism("pi1", d.pi1, "P", "F"),
        render_morphism("pi2", d.pi2, "P", _name_of(mf, d.pi2.cod)),
        render_morphism("ev", d.ev, "P", _name_of(mf, d.ev.cod)),
    ]
    payload: dict = {
        "g": cfg.g,
        "f": cfg.f,
        "F": list(d.F.labels),
        "P": list(d.P.labels),
        "phi": {x: y for x, y in zip(d.F.labels, d.phi.table)},
        "ev": {x: y for x, y in zip(d.P.labels, d.ev.table)},
    }
    status = 0
    if cfg.check_universal:
        rep = check_pi_universal(d, g, f)
        payload["universal"] = rep.to_dict(include_timing=cfg.timings)
        lines.append(rep.text_line(include_timing=cfg.timings))
        status = exit_code([rep])
    code = _emit_lines(lines, cfg, payload)
    return status or code


def _run_report(cfg: RunConfig) -> int:
    if cfg.input_path is None:
        raise CetcsError("report needs a saved JSON report file")
    with open(cfg.input_path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ReportError(f"{cfg.input_path} is not a JSON report: {exc}") from None
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ReportError(f"{cfg.input_path} holds neither a report nor a list of them")
    reports = [from_dict(d) for d in data]
    return _emit_reports(reports, cfg)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed seconds in reports")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cetcs",
        description="Construct and exhaustively certify the structure of "
                    "finite sets: universal objects, compiled formulas, "
                    "dependent products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run axiom and theorem checks")
    p.add_argument("--axiom", metavar="ID", help="axiom id or 'all'")
    p.add_argument("--theorem", metavar="ID", help="theorem id or 'all'")
    p.add_argument("--bound", type=int, default=None,
                   help="max carrier size (default 3, or CETCS_BOUND)")
    p.add_argument("--sample", type=int, default=None,
                   help="sampled instances per hom-set (bounds above "
                        f"{EXHAUSTIVE_THRESHOLD} only)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    _add_common(p)
    p.add_argument("model", nargs="?", help="declaration file to include")

    p = sub.add_parser("construct", help="build a universal object")
    p.add_argument("--op", required=True,
                   choices=("product", "sum", "equalizer", "coequalizer",
                            "pullback", "pi", "image", "quotient",
                            "exponential"))
    p.add_argument("--objects", default="", metavar="A,B",
                   help="comma-separated object names")
    p.add_argument("--maps", default="", metavar="f,g",
                   help="comma-separated morphism names")
    p.add_argument("--relation", default=None, metavar="r",
                   help="relation name (for quotient)")
    _add_common(p)
    p.add_argument("model", help="declaration file")

    p = sub.add_parser("compile", help="compile a formula to its subobject")
    p.add_argument("--context", required=True, metavar='"x:X, y:Y"')
    p.add_argument("--formula", required=True)
    p.add_argument("--verify", action="store_true",
                   help="compare against truth-table evaluation")
    p.add_argument("--trace", action="store_true",
                   help="print the construction steps")
    _add_common(p)
    p.add_argument("model", help="declaration file")

    p = sub.add_parser("pi", help="build a dependent product")
    p.add_argument("--g", required=True, metavar="g", help="bundle map name")
    p.add_argument("--f", required=True, metavar="f", help="index map name")
    p.add_argument("--check-universal", action="store_true",
                   help="certify the universal property")
    _add_common(p)
    p.add_argument("model", help="declaration file")

    p = sub.add_parser("report", help="re-render a saved JSON report stream")
    _add_common(p)
    p.add_argument("input", help="JSON file written by --format json")

    return parser


def _config(ns: argparse.Namespace) -> RunConfig:
    def names(raw: str) -> tuple[str, ...]:
        return tuple(x.strip() for x in raw.split(",") if x.strip())

    common = dict(fmt=ns.format, timings=ns.timings)
    if ns.command == "check":
        bound = ns.bound if ns.bound is not None else _default_bound()
        return RunConfig(
            command="check", model_path=ns.model, bound=bound,
            sample=ns.sample, seed=ns.seed, axiom=ns.axiom,
            theorem=ns.theorem, **common,
        )
    if ns.command == "construct":
        return RunConfig(
            command="construct", model_path=ns.model, op=ns.op,
            objects=names(ns.objects), maps=names(ns.maps),
            relation=ns.relation, **common,
        )
    if ns.command == "compile":
        return RunConfig(
            command="compile", model_path=ns.model, context=ns.context,
            formula=ns.formula, verify=ns.verify, trace=ns.trace, **common,
        )
    if ns.command == "pi":
        return RunConfig(
            command="pi", model_path=ns.model, g=ns.g, f=ns.f,
            check_universal=ns.check_universal, **common,
        )
    return RunConfig(command="report", input_path=ns.input, **common)


_COMMANDS = {
    "check": _run_check,
    "construct": _run_construct,
    "compile": _run_compile,
    "pi": _run_pi,
    "report": _run_report,
}


def run(cfg: RunConfig) -> int:
    """Dispatch one resolved invocation; the exit status mirrors verdicts."""
    return _COMMANDS[cfg.command](cfg)


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return run(_config(ns))
    except CetcsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
