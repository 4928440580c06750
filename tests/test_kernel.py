"""Signature-level operations checked against table-level facts.

The kernel decides monicity by quantifying over test objects and hom-sets;
the table shortcut (injective) lives in the finset module.  Their agreement
is asserted here instance by instance, which is itself one of the
statements the package exists to check.
"""

from __future__ import annotations

import pytest

from cetcs.errors import CompositionError
from cetcs import kernel
from cetcs.finset import (
    FINSET,
    FinMor,
    all_maps,
    carrier,
    carrier_of_size,
    identity,
    initial,
    terminal,
)

A = carrier("a", "b")
B = carrier("u", "v", "w")


def test_compose_via_category_handle():
    f = FinMor(A, B, ("u", "v"))
    assert FINSET.compose(identity(B), f) == f
    with pytest.raises(CompositionError):
        FINSET.compose(f, f)


def test_elements_count_equals_carrier_size():
    for n in range(4):
        a = carrier_of_size(n)
        assert len(kernel.elements(FINSET, a)) == n
    assert kernel.elements(FINSET, initial()) == []


def test_mono_agrees_with_injective_everywhere():
    for na in range(3):
        for nb in range(3):
            a, b = carrier_of_size(na, "a"), carrier_of_size(nb, "b")
            for f in all_maps(a, b):
                assert kernel.is_mono(FINSET, f, bound=2) == f.is_injective()


def test_mono_left_cancellation_witnessed():
    f = FinMor(A, terminal(), ("★", "★"))
    assert not kernel.is_mono(FINSET, f, bound=2)
    incl = FinMor(A, B, ("u", "v"))
    assert kernel.is_mono(FINSET, incl, bound=2)
