"""PSL(2, F_11) as an explicit 660-element group, its conjugacy classes,
power maps, and exact character arithmetic in Q(xi_55).

The table ships as a reviewable data file; the quadratic irrationalities
are realized by Gauss sums (r5^2 = 5 from Q(xi_5), rm11^2 = -11 from
Q(xi_11)), both embedded in Q(xi_55).  Which of the two mirror labelings
of the conjugate character pairs the file uses is a convention; all
consistency checks (orthogonality, integrality of decompositions) hold
for it, and the conjugate assignment is exercised alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import golden
from .exactnum import CycloNum, quadratic_gauss_sum

P = 11
GROUP_ORDER = 660
FIELD_ORDER = 55  # Q(xi_55) contains sqrt(5) and sqrt(-11)


def canonical(m: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The lexicographically smaller of {M, -M}, entries reduced mod 11."""
    m = tuple(x % P for x in m)
    neg = tuple((-x) % P for x in m)
    return min(m, neg)


IDENTITY = canonical((1, 0, 0, 1))
GEN_S = canonical((1, 1, 0, 1))
GEN_T = canonical((0, -1, 1, 0))


def multiply(a, b):
    return canonical((
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ))


def inverse(a):
    # det = 1, so the adjugate is the inverse
    return canonical((a[3], -a[1], -a[2], a[0]))


def element_power(a, k: int):
    acc = IDENTITY
    base = a
    while k:
        if k & 1:
            acc = multiply(acc, base)
        base = multiply(base, base)
        k >>= 1
    return acc


def _closure(start, step) -> frozenset:
    """Everything reachable from start by repeated step(x), breadth-first."""
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for x in frontier:
            for y in step(x):
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(seen)


@lru_cache(maxsize=None)
def enumerate_group() -> frozenset:
    """Closure of {S, T} under multiplication; must have 660 elements."""
    group = _closure(IDENTITY, lambda g: (multiply(g, h) for h in (GEN_S, GEN_T)))
    if len(group) != GROUP_ORDER:
        raise AssertionError(f"group closure has {len(group)} elements, expected {GROUP_ORDER}")
    return group


@dataclass(frozen=True)
class CharacterTable:
    class_sizes: tuple[int, ...]
    representatives: tuple[tuple[int, int, int, int], ...]
    characters: tuple[tuple[CycloNum, ...], ...]  # 8 rows of 8 values


@lru_cache(maxsize=None)
def character_table() -> CharacterTable:
    labeled = golden.load_labeled("character_table_psl2_11.txt")
    sizes = tuple(int(s.strip()) for s in labeled["sizes"].split(","))
    reps = tuple(
        canonical(tuple(int(x) for x in labeled[f"rep{i}"].split()))
        for i in range(8)
    )
    r5 = quadratic_gauss_sum(5, FIELD_ORDER)
    rm11 = quadratic_gauss_sum(11, FIELD_ORDER)
    rows = []
    for i in range(1, 9):
        values = []
        for cell in labeled[f"chi{i}"].split(","):
            f = golden.parse_poly(cell.strip(), ["r5", "rm11"])
            v = f.evaluate([r5, rm11])
            if isinstance(v, Fraction):
                v = CycloNum.from_rational(FIELD_ORDER, v)
            values.append(v)
        rows.append(tuple(values))
    table = CharacterTable(sizes, reps, tuple(rows))
    if sum(sizes) != GROUP_ORDER:
        raise AssertionError("class sizes do not sum to the group order")
    return table


@lru_cache(maxsize=None)
def conjugacy_classes() -> tuple[frozenset, ...]:
    """Partition of the group into the classes of the table representatives.

    S and T generate the group, so each class is the orbit of its
    representative under conjugation by S and T, found breadth-first.
    """
    table = character_table()
    conjugators = [(g, inverse(g)) for g in (GEN_S, GEN_T)]

    def conjugates(x):
        return (multiply(multiply(g, x), g_inv) for g, g_inv in conjugators)

    classes = []
    for rep, size in zip(table.representatives, table.class_sizes):
        orbit = _closure(rep, conjugates)
        if len(orbit) != size:
            raise AssertionError(f"class of {rep} has size {len(orbit)}, expected {size}")
        classes.append(orbit)
    # the sizes sum to the group order, so a union this large is a partition
    if len(frozenset().union(*classes)) != GROUP_ORDER:
        raise AssertionError("conjugacy classes do not partition the group")
    return tuple(classes)


@lru_cache(maxsize=None)
def _element_to_class() -> dict:
    out = {}
    for idx, cls in enumerate(conjugacy_classes()):
        for g in cls:
            out[g] = idx
    return out


def class_of(g) -> int:
    return _element_to_class()[canonical(g)]


@lru_cache(maxsize=None)
def power_map(class_index: int, k: int) -> int:
    """Class of g^k for g in the given class."""
    if k < 1:
        raise ValueError("power must be >= 1")
    rep = character_table().representatives[class_index]
    return class_of(element_power(rep, k))


# -- character arithmetic --------------------------------------------------------


def inner_product(chi, psi) -> CycloNum:
    """(1/660) sum over classes of size * chi * conj(psi)."""
    sizes = character_table().class_sizes
    acc = CycloNum.zero(FIELD_ORDER)
    for size, a, b in zip(sizes, chi, psi):
        acc = acc + size * (a * b.conjugate())
    return acc / GROUP_ORDER


def sym_power_character(chi, k: int):
    """Character of the k-th symmetric power, k in {2, 3}."""
    chi = tuple(chi)
    if k == 2:
        return tuple(
            (chi[c] * chi[c] + chi[power_map(c, 2)]) / 2
            for c in range(8)
        )
    if k == 3:
        return tuple(
            (chi[c] ** 3 + 3 * (chi[c] * chi[power_map(c, 2)]) + 2 * chi[power_map(c, 3)]) / 6
            for c in range(8)
        )
    raise ValueError("only symmetric squares and cubes are supported")


def decompose(chi) -> tuple[int, ...]:
    """Multiplicities against the 8 irreducible characters; exact."""
    table = character_table()
    mults = []
    for row in table.characters:
        ip = inner_product(chi, row)
        if not ip.is_rational():
            raise ValueError("inner product is irrational; input is not a character")
        value = ip.as_rational()
        if value.denominator != 1 or value < 0:
            raise ValueError(f"multiplicity {value} is not a nonnegative integer")
        mults.append(int(value))
    return tuple(mults)


@lru_cache(maxsize=None)
def sym_power_decomposition(source: int, k: int) -> tuple[int, ...]:
    """Multiplicities of the k-th symmetric power of the source-th irreducible character."""
    return decompose(sym_power_character(character(source), k))


def multiplicity_names(mults) -> str:
    parts = []
    for i, m in enumerate(mults, start=1):
        if m == 1:
            parts.append(f"chi{i}")
        elif m > 1:
            parts.append(f"{m}*chi{i}")
    return " + ".join(parts) if parts else "0"


def character(i: int) -> tuple[CycloNum, ...]:
    """The i-th irreducible character (1-based, as in the table)."""
    return character_table().characters[i - 1]
