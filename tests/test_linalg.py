import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    NonSymmetricError,
    _reduced_rows,
    det,
    fraction_ldl,
    is_positive_definite,
    mat_mul,
    mat_vec,
    null_basis,
    vec,
)
from voroseg import jsonio, linalg
from voroseg.linalg import (
    InconsistentSystemError,
    LinAlgError,
    UnderdeterminedSystemError,
    adjugate,
    dot,
    identity,
    inner,
    rank,
    solve_linear,
    transpose,
)


def test_dot_examples():
    assert dot(vec((1, 0)), vec((0, 1))) == 0
    assert dot(vec((1, 1)), vec((1, 1))) == 2
    assert dot(vec((2, 1)), vec((1, -1))) == 1
    # inner keeps integer vectors in integers
    got = inner((2, 1), (1, -1))
    assert got == 1 and type(got) is int
    assert inner((2, 1), vec((F(1, 2), -1))) == 0


def test_dot_dimension_mismatch():
    with pytest.raises(linalg.DimensionMismatchError):
        dot(vec((1, 0)), vec((1, 0, 0)))
    with pytest.raises(linalg.DimensionMismatchError):
        inner((1, 0), (1, 0, 0))


def test_solve_identity():
    assert solve_linear(identity(2), vec((3, 4))) == vec((3, 4))


def test_solve_diagonal():
    assert solve_linear(((2, 0), (0, 2)), vec((1, 1))) == (F(1, 2), F(1, 2))


def test_solve_inconsistent():
    with pytest.raises(InconsistentSystemError):
        solve_linear(((1, 1), (1, 1)), vec((0, 1)))


def test_solve_underdetermined():
    with pytest.raises(UnderdeterminedSystemError):
        solve_linear(((1, 1), (1, 1)), vec((1, 1)))


def test_rank_examples():
    assert rank(identity(2)) == 2
    assert rank(((0, 0), (0, 0))) == 0
    assert rank(((1, 2), (2, 4))) == 1


def test_rank_transpose_random():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(n))
        assert rank(a) == rank(transpose(a))


def test_solve_roundtrip_random():
    rng = random.Random(11)
    done = 0
    while done < 25:
        n = rng.randint(1, 4)
        a = tuple(tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)) for _ in range(n))
        if det(a) == 0:
            continue
        x = vec([rng.randint(-5, 5) for _ in range(n)])
        assert solve_linear(a, mat_vec(a, x)) == x
        done += 1


def test_positive_definite_examples():
    assert is_positive_definite(identity(2))
    assert is_positive_definite(((2, -1), (-1, 2)))
    assert not is_positive_definite(((1, 2), (2, 1)))


def test_positive_definite_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        is_positive_definite(((1, 2), (0, 1)))


def test_positive_definite_implies_positive_values():
    rng = random.Random(3)
    a = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert is_positive_definite(a)
    for _ in range(100):
        p = [rng.randint(-9, 9) for _ in range(3)]
        if all(x == 0 for x in p):
            continue
        assert dot(p, mat_vec(a, p)) > 0


def test_invert_roundtrip():
    # the inverse is adj(a) / det(a)
    a = ((2, 1), (1, 1))
    adj, d = adjugate(a)
    assert mat_mul(a, [[F(x, d) for x in row] for row in adj]) == identity(2)


def _unit_lower_and_diagonal(low, delta):
    """ldl's integer (low, delta) as the unit lower triangular L and the diagonal D of L D L^T."""
    n = len(low)
    L = tuple(tuple(F(low[i][j], delta[j + 1]) if j < i else F(i == j) for j in range(n)) for i in range(n))
    return L, tuple(F(q, p) for p, q in zip(delta, delta[1:]))


def test_ldl_reconstructs():
    a = ((2, -1), (-1, 2))
    low, delta = linalg.ldl(a)
    assert (low, delta) == (((), (-1,)), (1, 2, 3))
    L, D = _unit_lower_and_diagonal(low, delta)
    diag = ((D[0], 0), (0, D[1]))
    assert mat_mul(mat_mul(L, diag), transpose(L)) == a


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational d x d matrices, d = 1 to 6.  Three in four are B^T B + s I
    for k x d B with k <= d + 1 and s in {-1, -1/2, 0, 1/2, 1}: positive definite
    for s > 0, singular semidefinite for k < d and s = 0, often indefinite for
    s < 0.  The rest have entries drawn freely and are mostly indefinite."""
    d = draw(st.integers(1, 6))
    entry = st.sampled_from([F(p, q) for p in (0, 1, -1, 2, -3) for q in (1, 2, 3)])
    if draw(st.integers(0, 3)) == 0:
        m = [[draw(entry) for _ in range(d)] for _ in range(d)]
        return tuple(tuple(m[max(i, j)][min(i, j)] for j in range(d)) for i in range(d))
    b = [[draw(entry) for _ in range(d)] for _ in range(draw(st.integers(0, d + 1)))]
    s = draw(st.sampled_from((F(-1), F(-1, 2), F(0), F(1, 2), F(1))))
    return tuple(tuple(sum((r[i] * r[j] for r in b), s * (i == j)) for j in range(d)) for i in range(d))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(symmetric_matrices())
@example(((1, 1), (1, 1)))
@example(((F(3, 2),),))
def test_ldl_matches_sylvester_and_fraction_ldl(m):
    # the fraction-free factorisation of the integer matrix den m fails exactly on
    # the matrices Sylvester's criterion rejects, and otherwise gives den m's
    # leading minors and, read as (L, D), the Fraction LDL^T of m with D times den
    den = lcm(*(F(x).denominator for row in m for x in row))
    g = tuple(tuple(int(x * den) for x in row) for row in m)
    if not is_positive_definite(m):
        with pytest.raises(LinAlgError):
            linalg.ldl(g)
        with pytest.raises(LinAlgError):
            fraction_ldl(m)
        return
    low, delta = linalg.ldl(g)
    n = len(m)
    assert all(type(x) is int for x in delta) and all(type(x) is int for row in low for x in row)
    assert list(delta) == [det([row[:k] for row in g[:k]]) for k in range(n + 1)]
    L, D = _unit_lower_and_diagonal(low, delta)
    diag = tuple(tuple(D[i] if i == j else F(0) for j in range(n)) for i in range(n))
    assert mat_mul(mat_mul(L, diag), transpose(L)) == g
    assert (L, tuple(x / den for x in D)) == fraction_ldl(m)


def test_adjugate_rejects_rational_and_singular_input():
    with pytest.raises(LinAlgError):
        adjugate([[F(3, 2), 0], [0, 1]])
    with pytest.raises(LinAlgError):
        adjugate([[1, 2], [2, 4]])
    # an integral Fraction or a bool is no int either
    for bad in ([[F(3), 0], [0, 1]], [[3, 0], [0, True]]):
        with pytest.raises(LinAlgError):
            adjugate(bad)
    assert adjugate([[3, 0], [0, 1]]) == (((1, 0), (0, 3)), 3)
    assert adjugate([[0, 1], [1, 0]]) == (((0, -1), (-1, 0)), -1)


@st.composite
def rational_matrices(draw):
    """1 to 5 rows and columns of small rationals in shuffled row order, some
    made rank deficient by a zero row, a zero column or a row that combines
    two others."""
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.sampled_from([F(p, q) for p in (1, -1, 2, -3, 4, 0) for q in (1, 2, 3)])
    m = [[draw(entry) for _ in range(nc)] for _ in range(nr)]
    kind = draw(st.sampled_from(("full", "zero-row", "zero-column", "combination")))
    if kind == "zero-row":
        m[draw(st.integers(0, nr - 1))] = [F(0)] * nc
    elif kind == "zero-column":
        j = draw(st.integers(0, nc - 1))
        for row in m:
            row[j] = F(0)
    elif kind == "combination" and nr >= 3:
        a, b = draw(st.integers(-2, 2)), draw(st.sampled_from((F(1, 2), F(-1), F(3))))
        m[2] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return tuple(tuple(r) for r in draw(st.permutations(m)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rational_matrices(), st.lists(st.integers(-5, 5), min_size=5, max_size=5))
def test_kernel_matches_oracle_elimination(m, xs):
    nr, nc = len(m), len(m[0])
    want = _reduced_rows(m)
    assert rank(m) == len(want)
    ints = [linalg.scale_to_integers(r)[0] for r in m]
    # the rows that raise the rank of the rows before them
    grows = [i for i in range(nr) if len(_reduced_rows(m[: i + 1])) > len(_reduced_rows(m[:i]))]
    assert linalg.independent_rows(ints) == grows
    # square systems on the leading k x k block
    k = min(nr, nc)
    sq = tuple(r[:k] for r in m[:k])
    x = vec(xs[:k])
    if len(_reduced_rows(sq)) == k:
        assert solve_linear(sq, mat_vec(sq, x)) == x
    else:
        with pytest.raises(UnderdeterminedSystemError):
            solve_linear(sq, mat_vec(sq, x))
        # a vector orthogonal to every column is outside the column space
        y = null_basis(transpose(sq), k)[0]
        with pytest.raises(InconsistentSystemError):
            solve_linear(sq, y)
    # adjugate of the block scaled to integers: m adj(m) = det(m) I
    ints = [[int(v * 6) for v in r] for r in sq]
    d = det(ints)
    if d == 0:
        with pytest.raises(LinAlgError):
            adjugate(ints)
    else:
        adj, got = adjugate(ints)
        assert got == d
        assert mat_mul(ints, adj) == tuple(tuple(d * (i == j) for j in range(k)) for i in range(k))


def test_rational_io():
    assert jsonio.rat(F(3, 2)) == "3/2"
    assert jsonio.rat(F(4, 2)) == "2"
    assert linalg.parse_rational("-7/3") == F(-7, 3)


def test_parse_rational_takes_ints_and_digit_strings_only():
    assert [linalg.parse_rational(x) for x in (5, "+2", " 4/6 ")] == [5, 2, F(2, 3)]
    # "1e5000" would be a 5001-digit Fraction; "\u0661" is an Arabic-Indic one
    for bad in ("1e5000", "1.5", "1_000", "\u0661", "1/", "/2", "", "1/0", 2.0, True, None):
        with pytest.raises(ValueError):
            linalg.parse_rational(bad)
