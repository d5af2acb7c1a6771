"""Exact linear algebra over GF(p).

Matrices are plain lists of row lists holding ints in ``[0, p-1]``; no
floating point anywhere.  One forward pass, :func:`_echelon`, does all
elimination: columns left to right, the first row with a nonzero entry
becomes the pivot, so every derived object (rank profile, null-space
basis, solution vector) is reproducible.  rank counts its pivots, det is
its signed pivot product, and rref adds back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadShapeError,
    FieldTooSmallError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .gf import Field

Matrix = list  # list of row lists; alias for readability in signatures


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_vec(field: Field, a: Matrix, v: list[int]) -> list[int]:
    p = field.p
    if a and len(a[0]) != len(v):
        raise ShapeMismatchError(f"matrix has {len(a[0])} columns, vector has {len(v)}")
    return [sum(x * y for x, y in zip(row, v)) % p for row in a]


def _echelon(field: Field, a: Matrix) -> tuple[Matrix, list[int], int]:
    """Forward elimination with unit pivots: the one elimination loop.

    Returns:
        (E, pivots, d) where E is a row echelon form of ``a`` whose pivot
        entries are 1, pivots lists the pivot column of each nonzero row,
        and d is the product of the pivots before scaling times the sign
        of the row swaps (the determinant when ``a`` is square and has a
        pivot in every column).
    """
    p = field.p
    r = copy_matrix(a)
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots: list[int] = []
    d = 1
    lead = 0
    for col in range(cols):
        piv = next((i for i in range(lead, rows) if r[i][col]), None)
        if piv is None:
            continue
        if piv != lead:
            r[lead], r[piv] = r[piv], r[lead]
            d = -d
        pivot = r[lead][col]
        d = d * pivot % p
        inv = pow(pivot, p - 2, p)
        lead_row = r[lead] = [x * inv % p for x in r[lead]]
        for i in range(lead + 1, rows):
            f = r[i][col]
            if f:
                r[i] = [(x - f * y) % p for x, y in zip(r[i], lead_row)]
        pivots.append(col)
        lead += 1
        if lead == rows:
            break
    return r, pivots, d


def rref(field: Field, a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form: :func:`_echelon`, then back-substitution.

    Returns:
        (R, pivots) where R is the reduced form of ``a`` and pivots lists
        the pivot column of each nonzero row, in order.
    """
    p = field.p
    r, pivots, _ = _echelon(field, a)
    for lead in range(len(pivots) - 1, 0, -1):
        col, lead_row = pivots[lead], r[lead]
        for i in range(lead):
            f = r[i][col]
            if f:
                r[i] = [(x - f * y) % p for x, y in zip(r[i], lead_row)]
    return r, pivots


def rank(field: Field, a: Matrix) -> int:
    return len(_echelon(field, a)[1])


def det(field: Field, a: Matrix) -> int:
    """Determinant: the signed pivot product of :func:`_echelon`."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeMismatchError("determinant needs a square matrix")
    _, pivots, d = _echelon(field, a)
    return d if len(pivots) == n else 0


def solve(field: Field, a: Matrix, s: list[int]) -> list[int]:
    """Solve the square system a @ b = s.

    Raises:
        ShapeMismatchError: a is not square or s has the wrong length.
        SingularMatrixError: the system has no unique solution.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeMismatchError("coefficient matrix must be square")
    if len(s) != n:
        raise ShapeMismatchError(f"right-hand side has length {len(s)}, expected {n}")
    aug = [row[:] + [rhs] for row, rhs in zip(a, s)]
    r, pivots = rref(field, aug)
    if n in pivots or len(pivots) != n:
        raise SingularMatrixError("system is singular")
    return [r[i][n] for i in range(n)]


def inverse(field: Field, a: Matrix) -> Matrix:
    """Matrix inverse via elimination on [a | I]."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeMismatchError("inverse needs a square matrix")
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    r, pivots = rref(field, aug)
    if len(pivots) != n or pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in r]


@dataclass
class NullBasis:
    """Basis of a right null space in reduced-echelon convention.

    ``vectors[t]`` is the basis vector whose defining free column is the
    t-th free column in ascending order; it carries a 1 there and zeros at
    every other free column, which makes bases canonical and comparable.
    """

    dim: int
    vectors: list  # list of length-cols vectors

    def as_columns_matrix(self) -> Matrix:
        """The cols x dim matrix whose columns are the basis vectors."""
        return [[v[i] for v in self.vectors] for i in range(len(self.vectors[0]))] if self.vectors else []


def null_space(field: Field, a: Matrix, cols: int | None = None) -> NullBasis:
    """Right null space {v : a @ v = 0}.

    ``cols`` must be given when ``a`` has no rows (the null space is then
    all of GF(p)^cols and the basis is the identity).
    """
    if not a:
        if cols is None:
            raise ShapeMismatchError("column count needed for an empty matrix")
        return NullBasis(dim=cols, vectors=identity(cols))
    ncols = len(a[0])
    r, pivots = rref(field, a)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    p = field.p
    vectors = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][f] % p
        vectors.append(v)
    return NullBasis(dim=len(free), vectors=vectors)


def build_B(field: Field, m: int, n: int) -> Matrix:
    """Tail-coefficient evaluation matrix.

    The (n-m) x n matrix with entry (i, j) = gamma**((m+i-1)*j) for
    i in 1..n-m and j in 1..n (both 1-indexed).  Its rows evaluate the
    degree-m..n-1 monomials at the first n powers of gamma, so it has
    full rank n-m whenever the powers gamma^1..gamma^n are distinct.

    Raises:
        BadShapeError: unless 0 <= m < n.
        FieldTooSmallError: n exceeds p-1, so evaluation points collide.
    """
    if not 0 <= m < n:
        raise BadShapeError(f"need 0 <= m < n, got m={m}, n={n}")
    if n > field.p - 1:
        raise FieldTooSmallError(f"n={n} evaluation points need p-1 >= n, got p={field.p}")
    p, g = field.p, field.gamma
    return [[pow(g, (m + i) * j, p) for j in range(1, n + 1)] for i in range(n - m)]
