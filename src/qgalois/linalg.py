"""Exact Gaussian elimination over Q(q) on sparse vectors keyed by hashable labels.

One engine, RowSpace, does every elimination; nullspaces, inverses and span
expansions read off the expressions it records for its rows.  Pivots are
chosen deterministically by a caller-supplied key order (term order of words
in practice), so every reduction, rank and nullspace computation is
reproducible bit for bit.  `add_scaled` is the one sparse accumulate, which
the other layers sum their words and tensors through as well; `combine` is
its form for a whole linear combination, one dict for all the terms.
"""

from __future__ import annotations

from .scalars import QRat

Vec = dict  # key -> QRat, zero coefficients never stored

ONE = QRat(1)
ZERO = QRat(0)


def add_scaled(acc: Vec, terms: Vec, c: QRat = ONE) -> None:
    """acc += c * terms in place, dropping coefficients that cancel.

    A product with an exact 1 on either side is not computed, and terms is
    only read.  With c = 1 the values need only `+` and `is_zero`.
    """
    c_one = c.num == (1,) and c.den == (1,)
    for k, v in terms.items():
        if not c_one:
            v = c if v.num == (1,) and v.den == (1,) else v * c
        old = acc.get(k)
        if old is None:
            acc[k] = v
        else:
            v = old + v
            if v.is_zero:
                del acc[k]
            else:
                acc[k] = v


def combine(pairs) -> Vec:
    """sum c * terms over the (terms, c) pairs, accumulated in one dict.

    A zero c is skipped; each terms is only read.
    """
    acc: Vec = {}
    for terms, c in pairs:
        if not c.is_zero:
            add_scaled(acc, terms, c)
    return acc


def vec_scale(a: Vec, c: QRat) -> Vec:
    if c.is_zero:
        return {}
    return {k: v * c for k, v in a.items()}


class RowSpace:
    """Reduced row space built incrementally; rows normalized to pivot 1.

    key_order maps a vector key to a sortable value; the pivot of a row is its
    largest key under that order.  Rows are kept fully reduced: no row has a
    nonzero coefficient at another row's pivot.  Every call of insert takes
    the next insertion index, and exprs[i] writes rows[i] as a combination
    {insertion index: coefficient} of the inserted vectors.
    """

    def __init__(self, key_order):
        self.key_order = key_order
        self.rows: list[Vec] = []        # reduced, pivot coefficient 1
        self.pivots: list = []
        self.exprs: list[Vec] = []
        self.inserted = 0
        self._row_of: dict = {}          # pivot key -> row index

    def _reduce(self, v: Vec):
        """(hits, remainder): v = sum c * rows[i] over hits (i, c) + remainder.

        Since the rows are fully reduced, c is just v's coefficient at the
        pivot of row i, so one pass over the keys of v suffices."""
        rem = {k: c for k, c in v.items() if not c.is_zero}
        hits = [(self._row_of[p], c) for p, c in rem.items() if p in self._row_of]
        for i, c in hits:
            add_scaled(rem, self.rows[i], -c)
        return hits, rem

    def insert(self, v: Vec) -> bool:
        """Reduce v and add the remainder as a row if it is nonzero; returns
        True if a row was added."""
        index = self.inserted
        self.inserted += 1
        hits, rem = self._reduce(v)
        if not rem:
            return False
        expr = {index: ONE}
        for i, c in hits:
            add_scaled(expr, self.exprs[i], -c)
        p = max(rem, key=self.key_order)
        inv = ONE / rem[p]
        rem = vec_scale(rem, inv)
        expr = vec_scale(expr, inv)
        # keep earlier rows fully reduced against the new one
        for i, row in enumerate(self.rows):
            d = row.get(p)
            if d is not None:
                add_scaled(row, rem, -d)
                add_scaled(self.exprs[i], expr, -d)
        self._row_of[p] = len(self.rows)
        self.rows.append(rem)
        self.pivots.append(p)
        self.exprs.append(expr)
        return True

    def coordinates(self, v: Vec) -> list[QRat] | None:
        """Coordinates of v over the rows, or None if v is outside the span."""
        hits, rem = self._reduce(v)
        if rem:
            return None
        coords = [QRat(0)] * len(self.rows)
        for i, c in hits:
            coords[i] = c
        return coords

    def express(self, v: Vec) -> Vec | None:
        """v as {insertion index: coefficient} over the inserted vectors, or
        None if v is outside the span."""
        hits, rem = self._reduce(v)
        if rem:
            return None
        out: Vec = {}
        for i, c in hits:
            add_scaled(out, self.exprs[i], c)
        return out

    def contains(self, v: Vec) -> bool:
        return not self._reduce(v)[1]

    def sorted_rows(self) -> list[Vec]:
        order = sorted(range(len(self.rows)),
                       key=lambda i: self.key_order(self.pivots[i]))
        return [self.rows[i] for i in order]

    @property
    def dim(self) -> int:
        return len(self.rows)


def independent_subset(vectors: list[Vec], key_order):
    """Scan vectors in order; return (kept indices, expansions) where for every
    dropped index j, expansions[j] gives coordinates of vectors[j] over the
    kept vectors preceding it (zero vectors expand to all-zero coordinates)."""
    kept: list[int] = []
    space = RowSpace(key_order)
    expansions: dict[int, list[QRat]] = {}
    for j, v in enumerate(vectors):
        if space.insert(v):
            kept.append(j)
        else:
            expr = space.express(v)
            expansions[j] = [expr.get(i, QRat(0)) for i in kept]
    return kept, expansions


def nullspace(columns: list[Vec], key_order) -> list[list[QRat]]:
    """Solutions x with sum_j x_j * columns[j] = 0.

    Returns one solution per free column j, i.e. per column in the span of
    the earlier ones: x_j = 1, minus the expression of column j over the
    earlier pivot columns, so x is 0 at every other free index.
    """
    n = len(columns)
    space = RowSpace(key_order)
    sols = []
    for j, col in enumerate(columns):
        if space.insert(col):
            continue
        x = [QRat(0)] * n
        x[j] = QRat(1)
        for k, c in space.express(col).items():
            x[k] = -c
        sols.append(x)
    return sols


def identity(n: int) -> list[list[QRat]]:
    """The n x n identity over Q(q), a new list per row."""
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def kron(A, B) -> list[list[QRat]]:
    """The Kronecker product A (x) B of scalar matrices: entry
    (a rows(B) + i, b cols(B) + j) is A_ab B_ij."""
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def invert_scalar_matrix(mat: list[list[QRat]]) -> list[list[QRat]] | None:
    """Exact inverse of a square matrix over Q(q), or None if singular.

    The rows of mat, inserted as vectors over column indices, reduce to the
    unit rows; the expression of unit row j over them is row j of the inverse.
    """
    n = len(mat)
    space = RowSpace(lambda j: j)
    for row in mat:
        if not space.insert({j: QRat(m) for j, m in enumerate(row)}):
            return None
    inv: list = [None] * n
    for p, expr in zip(space.pivots, space.exprs):
        inv[p] = [expr.get(k, QRat(0)) for k in range(n)]
    return inv
