"""Signature-level operations checked against table-level facts.

The kernel decides monicity by quantifying over test objects and hom-sets;
the table shortcut (injective) lives in the finset module.  Their agreement
is asserted here instance by instance, which is itself one of the
statements the package exists to check.
"""

from __future__ import annotations

from cetcs import kernel
from cetcs.finset import (
    FinMor,
    all_maps,
    carrier,
    carrier_of_size,
    initial,
    terminal,
)

A = carrier("a", "b")
B = carrier("u", "v", "w")


def test_elements_count_equals_carrier_size():
    for n in range(4):
        a = carrier_of_size(n)
        assert len(kernel.elements(a)) == n
    assert kernel.elements(initial()) == []


def test_mono_agrees_with_injective_everywhere():
    for na in range(3):
        for nb in range(3):
            a, b = carrier_of_size(na, "a"), carrier_of_size(nb, "b")
            for f in all_maps(a, b):
                assert kernel.is_mono(f, bound=2) == f.is_injective()


def test_mono_never_reads_the_injectivity_shortcut(monkeypatch):
    # Left cancellation needs only hom-sets and composition: with the table
    # shortcut made to raise, is_mono still agrees with injectivity, read
    # off before the patch, on every map between carriers of size <= 2.
    maps = [f for na in range(3) for nb in range(3)
            for f in all_maps(carrier_of_size(na, "a"), carrier_of_size(nb, "b"))]
    injective = [f.is_injective() for f in maps]
    assert len(maps) == 11 and injective.count(True) == 8

    def shortcut(self):
        raise AssertionError("kernel.is_mono read FinMor.is_injective")

    monkeypatch.setattr(FinMor, "is_injective", shortcut)
    assert [kernel.is_mono(f, bound=2) for f in maps] == injective


def test_mono_left_cancellation_witnessed():
    f = FinMor(A, terminal(), ("★", "★"))
    assert not kernel.is_mono(f, bound=2)
    incl = FinMor(A, B, ("u", "v"))
    assert kernel.is_mono(incl, bound=2)
