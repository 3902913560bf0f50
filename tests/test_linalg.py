import random

import pytest
import sympy

from qgalois import linalg
from qgalois.linalg import (RowSpace, add_scaled, independent_subset,
                            invert_scalar_matrix, kron, nullspace)
from qgalois.scalars import QRat, q_power

# entries over Q(q): 0 (three times, for sparsity), +-1, +-q, q^-1, 1 + q
ENTRIES = [QRat(0)] * 3 + [QRat(1), QRat(-1), q_power(1), -q_power(1), q_power(-1),
                           QRat(1) + q_power(1)]
SEEDS = range(12)


def random_columns(rng, m, n):
    """n columns of height m, with some repeated, scaled and zero columns."""
    cols = []
    for _ in range(n):
        roll = rng.random()
        if cols and roll < 0.2:
            cols.append(dict(rng.choice(cols)))
        elif cols and roll < 0.3:
            c = rng.choice(ENTRIES[3:])
            cols.append({k: v * c for k, v in rng.choice(cols).items()})
        elif roll < 0.4:
            cols.append({})
        else:
            col = {i: rng.choice(ENTRIES) for i in range(m)}
            cols.append({i: c for i, c in col.items() if not c.is_zero})
    return cols


def combination(coeffs, vectors):
    out = {}
    for c, v in zip(coeffs, vectors):
        if not c.is_zero:
            add_scaled(out, v, c)
    return out


def sympy_rank(cols, m):
    q = sympy.Symbol("q")

    def conv(c):
        num = sum(a * q**i for i, a in enumerate(c.num))
        den = sum(a * q**i for i, a in enumerate(c.den))
        return num / den

    if not cols:
        return 0
    M = sympy.Matrix(m, len(cols), lambda i, j: conv(cols[j].get(i, QRat(0))))
    return M.rank(iszerofunc=lambda x: sympy.cancel(x) == 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_random(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    cols = random_columns(rng, m, n)
    sols = nullspace(cols, lambda k: k)
    for x in sols:
        assert len(x) == n
        assert combination(x, cols) == {}
    assert len(sols) == n - sympy_rank(cols, m)
    # column j is free when it adds nothing to the rank of the columns before it
    free = [j for j in range(n) if sympy_rank(cols[:j + 1], m) == sympy_rank(cols[:j], m)]
    assert len(free) == len(sols)
    for j, x in zip(free, sols):
        assert x[j] == QRat(1)
        assert all(x[f].is_zero for f in free if f != j)
        assert all(c.is_zero for c in x[j + 1:])


def test_nullspace_of_no_columns_and_of_zero_columns():
    assert nullspace([], lambda k: k) == []
    assert nullspace([{}, {}], lambda k: k) == [[QRat(1), QRat(0)], [QRat(0), QRat(1)]]


def identity(n):
    return [[QRat(1) if i == j else QRat(0) for j in range(n)] for i in range(n)]


def mat_mul(X, Y):
    return [[sum((X[i][k] * Y[k][j] for k in range(len(Y))), QRat(0))
             for j in range(len(Y[0]))] for i in range(len(X))]


@pytest.mark.parametrize("seed", SEEDS)
def test_invert_scalar_matrix_random(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(1, 4)
    M = [[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)]
    inv = invert_scalar_matrix(M)
    columns = [{i: M[i][j] for i in range(n) if not M[i][j].is_zero} for j in range(n)]
    if sympy_rank(columns, n) < n:
        assert inv is None
    else:
        assert mat_mul(M, inv) == identity(n)
        assert mat_mul(inv, M) == identity(n)


def test_invert_scalar_matrix_known_and_singular():
    q = q_power(1)
    M = [[QRat(0), q], [QRat(1), QRat(1) + q]]
    inv = invert_scalar_matrix(M)
    assert mat_mul(M, inv) == identity(2)
    assert inv[0][1] == QRat(1)
    assert invert_scalar_matrix([[QRat(1), q], [-q, -q * q]]) is None
    assert invert_scalar_matrix([[QRat(0), QRat(0)], [QRat(1), QRat(1)]]) is None
    assert invert_scalar_matrix([]) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_kron_entries_and_mixed_product(seed):
    rng = random.Random(300 + seed)
    a, b, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
    A = [[rng.choice(ENTRIES) for _ in range(b)] for _ in range(a)]
    B = [[rng.choice(ENTRIES) for _ in range(c)] for _ in range(b)]
    C = [[rng.choice(ENTRIES) for _ in range(a)] for _ in range(c)]
    K = kron(A, B)
    assert len(K) == a * b and all(len(row) == b * c for row in K)
    assert all(K[i * b + k][j * c + l] == A[i][j] * B[k][l]
               for i in range(a) for j in range(b) for k in range(b) for l in range(c))
    # (A (x) B)(B' (x) C) = A B' (x) B C with B' = identity
    assert mat_mul(K, kron(identity(b), C)) == kron(A, mat_mul(B, C))
    assert linalg.identity(a) == identity(a)


@pytest.mark.parametrize("seed", SEEDS)
def test_independent_subset_expansions_rebuild(seed):
    rng = random.Random(200 + seed)
    vectors = random_columns(rng, rng.randint(1, 4), rng.randint(1, 7))
    kept, expansions = independent_subset(vectors, lambda k: k)
    assert sorted(kept + list(expansions)) == list(range(len(vectors)))
    assert len(kept) == sympy_rank(vectors, 4)
    for j, coeffs in expansions.items():
        before = [i for i in kept if i < j]
        assert len(coeffs) == len(before)
        assert combination(coeffs, [vectors[i] for i in before]) == vectors[j]


@pytest.mark.parametrize("seed", SEEDS)
def test_rowspace_express(seed):
    rng = random.Random(300 + seed)
    m = rng.randint(2, 5)
    inserted = random_columns(rng, m, rng.randint(1, 5))
    space = RowSpace(lambda k: k)
    for v in inserted:
        space.insert(v)
    assert space.inserted == len(inserted)
    coeffs = [rng.choice(ENTRIES) for _ in inserted]
    v = combination(coeffs, inserted)
    expr = space.express(v)
    assert expr is not None
    assert all(0 <= k < len(inserted) for k in expr)
    assert combination([expr.get(k, QRat(0)) for k in range(len(inserted))], inserted) == v
    # each reduced row is the combination its recorded expression says
    for row, e in zip(space.rows, space.exprs):
        assert combination([e.get(k, QRat(0)) for k in range(len(inserted))], inserted) == row
    if space.dim < m:
        outside = next({k: QRat(1)} for k in range(m) if k not in space.pivots)
        assert space.express(outside) is None
        assert space.coordinates(outside) is None
        assert not space.contains(outside)
    assert space.express({}) == {}


def test_add_scaled():
    q = q_power(1)
    terms = {"x": q, "y": QRat(1), "z": QRat(2)}
    frozen = dict(terms)
    acc = {"x": -q * 3, "w": QRat(5)}
    add_scaled(acc, terms, QRat(3))
    # x cancels and is removed; y had coefficient exactly 1, so it takes 3 itself
    assert acc == {"w": QRat(5), "y": QRat(3), "z": QRat(6)}
    assert terms == frozen
    # with the default scale 1 the values are stored without a product
    acc = {}
    add_scaled(acc, terms)
    assert acc == terms and all(acc[k] is terms[k] for k in terms)
    assert terms == frozen
    three = QRat(3)
    acc = {}
    add_scaled(acc, {"y": QRat(1)}, three)
    assert acc["y"] is three
