import random
from fractions import Fraction as F

import pytest

from voroseg import jsonio, linalg
from voroseg.linalg import (
    InconsistentSystemError,
    NonSymmetricError,
    UnderdeterminedSystemError,
    coords_in_basis,
    det,
    dot,
    identity,
    invert,
    is_positive_definite,
    mat,
    mat_mul,
    mat_vec,
    null_space,
    primitive_direction,
    rank,
    rref,
    solve_linear,
    transpose,
    vec,
)


def test_dot_examples():
    assert dot(vec((1, 0)), vec((0, 1))) == 0
    assert dot(vec((1, 1)), vec((1, 1))) == 2
    assert dot(vec((2, 1)), vec((1, -1))) == 1


def test_dot_dimension_mismatch():
    with pytest.raises(linalg.DimensionMismatchError):
        dot(vec((1, 0)), vec((1, 0, 0)))


def test_solve_identity():
    assert solve_linear(identity(2), vec((3, 4))) == vec((3, 4))


def test_solve_diagonal():
    assert solve_linear(mat([[2, 0], [0, 2]]), vec((1, 1))) == (F(1, 2), F(1, 2))


def test_solve_inconsistent():
    with pytest.raises(InconsistentSystemError):
        solve_linear(mat([[1, 1], [1, 1]]), vec((0, 1)))


def test_solve_underdetermined():
    with pytest.raises(UnderdeterminedSystemError):
        solve_linear(mat([[1, 1], [1, 1]]), vec((1, 1)))


def test_rank_examples():
    assert rank(identity(2)) == 2
    assert rank(mat([[0, 0], [0, 0]])) == 0
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_rank_transpose_random():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = mat([[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)])
        assert rank(a) == rank(transpose(a))


def test_solve_roundtrip_random():
    rng = random.Random(11)
    done = 0
    while done < 25:
        n = rng.randint(1, 4)
        a = mat(
            [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        if det(a) == 0:
            continue
        x = vec([rng.randint(-5, 5) for _ in range(n)])
        assert solve_linear(a, mat_vec(a, x)) == x
        done += 1


def test_positive_definite_examples():
    assert is_positive_definite(identity(2))
    assert is_positive_definite(mat([[2, -1], [-1, 2]]))
    assert not is_positive_definite(mat([[1, 2], [2, 1]]))


def test_positive_definite_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        is_positive_definite(mat([[1, 2], [0, 1]]))


def test_positive_definite_implies_positive_values():
    rng = random.Random(3)
    a = mat([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert is_positive_definite(a)
    for _ in range(100):
        p = [rng.randint(-9, 9) for _ in range(3)]
        if all(x == 0 for x in p):
            continue
        assert dot(p, mat_vec(a, p)) > 0


def test_invert_roundtrip():
    a = mat([[2, 1], [1, 1]])
    assert mat_mul(a, invert(a)) == identity(2)


def test_ldl_reconstructs():
    a = mat([[2, -1], [-1, 2]])
    L, D = linalg.ldl(a)
    diag = mat([[D[0], 0], [0, D[1]]])
    assert mat_mul(mat_mul(L, diag), transpose(L)) == a


def test_primitive_direction():
    p, c = primitive_direction(vec((F(4, 3), F(-2, 3))))
    assert p == (2, -1) and c == F(2, 3)
    with pytest.raises(ValueError):
        primitive_direction(vec((0, 0)))


def test_null_space_and_coords():
    m = mat([[1, 0, -1]])
    ns = null_space(rref(m), 3)
    assert len(ns) == 2
    for b in ns:
        assert dot(m[0], b) == 0
    c = coords_in_basis(ns, vec((2, 5, 2)))
    recon = [sum(ci * bi for ci, bi in zip(c, col)) for col in zip(*ns)]
    assert tuple(recon) == vec((2, 5, 2))
    with pytest.raises(InconsistentSystemError):
        coords_in_basis(ns, vec((1, 0, 0)))


def test_rational_io():
    assert jsonio.rat(F(3, 2)) == "3/2"
    assert jsonio.rat(F(4, 2)) == "2"
    assert linalg.parse_rational("-7/3") == F(-7, 3)
