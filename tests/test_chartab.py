import dataclasses
import random
from fractions import Fraction

import pytest

from heisencheck import chartab
from heisencheck.chartab import (
    GEN_S,
    GEN_T,
    IDENTITY,
    canonical,
    character,
    character_table,
    class_of,
    conjugacy_classes,
    decompose,
    element_power,
    enumerate_group,
    inner_product,
    inverse,
    multiplicity_names,
    multiply,
    power_map,
    sym_power_character,
)
from heisencheck.exactnum import CycloNum
from oracles import conjugation_classes


def test_group_order_and_presentation():
    G = enumerate_group()
    assert len(G) == 660
    assert element_power(GEN_T, 2) == IDENTITY
    assert element_power(multiply(GEN_S, GEN_T), 3) == IDENTITY
    assert element_power(GEN_S, 11) == IDENTITY
    w = multiply(multiply(element_power(GEN_S, 2), GEN_T),
                 multiply(element_power(GEN_S, 6), GEN_T))
    assert element_power(w, 3) == IDENTITY


def test_class_sizes():
    sizes = [len(c) for c in conjugacy_classes()]
    assert sizes == [1, 55, 110, 132, 132, 110, 60, 60]


def test_classes_match_conjugation_by_every_element():
    # generator orbits give the same sets, in the order of the representatives
    assert conjugacy_classes() == conjugation_classes()


def test_classes_must_cover_the_group(monkeypatch):
    # representative 4 replaced by a conjugate of representative 3: every
    # orbit still has its table size, but two orbits coincide
    table = character_table()
    reps = list(table.representatives)
    reps[4] = multiply(multiply(GEN_S, reps[3]), inverse(GEN_S))
    mutant = dataclasses.replace(table, representatives=tuple(reps))
    monkeypatch.setattr(chartab, "character_table", lambda: mutant)
    conjugacy_classes.cache_clear()
    try:
        with pytest.raises(AssertionError, match="do not partition"):
            conjugacy_classes()
    finally:
        conjugacy_classes.cache_clear()


def test_class_of_examples():
    assert class_of(IDENTITY) == 0
    assert class_of((1, 1, 0, 1)) == 6
    assert class_of((3, 0, 0, 4)) == 3
    assert class_of((5, 0, 0, 9)) == 4


def test_power_map():
    for c in range(8):
        assert power_map(c, 1) == c
    assert power_map(6, 2) == 7       # unipotent classes swap under squaring
    assert power_map(7, 2) == 6
    assert power_map(1, 2) == 0       # involutions square to the identity
    assert power_map(3, 2) == 4
    assert power_map(4, 2) == 3


def test_power_map_constant_on_classes():
    rng = random.Random(55)
    classes = conjugacy_classes()
    lookup = {g: i for i, cls in enumerate(classes) for g in cls}
    for ci, cls in enumerate(classes):
        for g in rng.sample(sorted(cls), min(10, len(cls))):
            for k in (2, 3, 5):
                assert lookup[element_power(g, k)] == power_map(ci, k)


def test_orthonormality():
    table = character_table()
    for i in range(8):
        for j in range(8):
            assert inner_product(table.characters[i], table.characters[j]) == (
                1 if i == j else 0
            )


def test_column_orthogonality():
    table = character_table()
    for c, size in enumerate(table.class_sizes):
        total = CycloNum.zero(55)
        for row in table.characters:
            total = total + row[c] * row[c].conjugate()
        assert total == Fraction(660, size)


def test_sym2_of_trivial_character():
    assert decompose(sym_power_character(character(1), 2)) == (1, 0, 0, 0, 0, 0, 0, 0)


def test_symmetric_square_decompositions():
    # the symmetric square of either 5-dimensional character contains the
    # conjugate one plus the second 10-dimensional character
    assert decompose(sym_power_character(character(3), 2)) == (0, 1, 0, 0, 1, 0, 0, 0)
    assert decompose(sym_power_character(character(2), 2)) == (0, 0, 1, 0, 1, 0, 0, 0)


def test_symmetric_cube_decomposition():
    mults = decompose(sym_power_character(character(3), 3))
    assert mults == (1, 0, 0, 0, 1, 0, 1, 1)
    assert decompose(sym_power_character(character(2), 3)) == mults
    degrees = [int(character(i)[0].as_rational()) for i in range(1, 9)]
    assert sum(m * d for m, d in zip(mults, degrees)) == 35


def test_invariant_multiplicities():
    assert decompose(sym_power_character(character(3), 2))[0] == 0
    assert decompose(sym_power_character(character(2), 2))[0] == 0
    assert decompose(sym_power_character(character(3), 3))[0] == 1


def test_exterior_square_is_chi4():
    chi = character(3)
    alt = tuple(
        (chi[c] * chi[c] - chi[power_map(c, 2)]) / 2
        for c in range(8)
    )
    assert decompose(alt) == (0, 0, 0, 1, 0, 0, 0, 0)


def test_decompose_rejects_non_characters():
    fake = tuple(CycloNum.from_rational(55, Fraction(1, 2)) for _ in range(8))
    with pytest.raises(ValueError):
        decompose(fake)
    with pytest.raises(ValueError):
        sym_power_character(character(3), 4)


def test_multiplicity_names():
    assert multiplicity_names((0, 1, 0, 0, 1, 0, 0, 0)) == "chi2 + chi5"
    assert multiplicity_names((0,) * 8) == "0"
    assert multiplicity_names((2, 0, 0, 0, 0, 0, 0, 0)) == "2*chi1"


def test_canonical_representative():
    assert canonical((10, 0, 0, 10)) == (1, 0, 0, 1)
    assert canonical((0, 10, 1, 0)) == (0, 1, 10, 0)
