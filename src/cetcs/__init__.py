"""Finite sets as a constructive category, checked exhaustively.

The library builds the universal structure of finite sets (products, sums,
equalizers, coequalizers, pullbacks, images, quotients, dependent products,
function spaces), compiles first-order formulas into subobjects, and
certifies every axiom and derived statement by brute-force enumeration over
bounded carriers.  The ``cetcs`` command line exposes the same operations.
"""

from __future__ import annotations

from .axioms import (
    AXIOMS,
    THEOREMS,
    CheckSpec,
    check_axiom,
    check_pi_universal,
    check_theorem,
)
from .errors import (
    CetcsError,
    CompositionError,
    EquivalenceError,
    FormulaError,
    JointMonicityError,
    ModelFileError,
    ReportError,
    ShapeError,
)
from .finset import (
    FinMor,
    FinObj,
    PiDiagram,
    ProductDiagram,
    PullbackSquare,
    SumDiagram,
    all_maps,
    bool_object,
    carrier,
    carrier_of_size,
    characteristic,
    coequalizer,
    compose,
    coproduct,
    equalizer,
    exponential,
    identity,
    image_factorization,
    initial,
    nno_prefix,
    pi_diagram,
    pi_object,
    product,
    product_n,
    projective_cover,
    pullback,
    quotient,
    terminal,
    unique_from_initial,
    unique_to_terminal,
)
from .logic import (
    CompilationResult,
    Context,
    Env,
    compile_formula,
    oracle,
    parse,
    parse_context,
    verify,
)
from .modelfile import ModelFile, load, parse_model
from .relcalc import (
    Relation,
    is_partial_function,
    is_total_function,
    leq,
    make_relation,
    relation_from_tuples,
    sub_relation,
    subseteq,
    unique_choice,
)
from .report import FAIL, PASS, SKIP, Report, exit_code, render_json, render_text

__version__ = "0.1.0"
