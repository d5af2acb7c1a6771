"""Exact linear algebra over GF(p).

Every reader (det, rank, rref, solve, inverse, null_space) takes its
matrix through one entry, :func:`pack`, which checks the shape and the
entries once and holds the matrix as a :class:`Packed` value: one int
per row.  Results are plain lists of row lists holding ints in
``[0, p-1]``; no floating point anywhere.  One forward pass,
:func:`_echelon`, does all elimination: columns left to right, the first
row not yet a pivot row, in input order, with a nonzero entry becomes
the pivot, so every derived object (rank profile, null-space basis,
solution) is reproducible.  rank counts its pivots and det is its signed
pivot product.  rref and solve read their results off its pivot rows by
one back-substitution (:func:`_back_substitute`), which also divides by
the pivots, left unscaled by the forward pass: rref over every field of
a row, solve over the right-hand sides' fields only.  solve, the one
reader of [A | B], serves inverse too.

Each packed row holds its entries as W-bit fields, W = 2*bits(p) +
bits(rows) + 1 (see :func:`_width`), so one row update is one big-int
multiply-add instead of a loop over the row.  This is the packing of
Dumas, Fousse and Salvy, "Simultaneous modular reduction and Kronecker
substitution for small finite fields" (J. Symb. Comput. 2011).  Three
more things keep the work small, the last two the other halves of that
paper:

* the rows not yet pivot rows (the active rows) hold the current column
  in their lowest field, and each column shifts them right by one field,
  so the column is read with a mask and the updates touch only the
  columns left (the window shift, :func:`_echelon`);
* simultaneous modular reduction: a pivot row is reduced mod p in all
  its fields at once by a packed Barrett reduction, a fixed number of
  big-int operations (:func:`_reducer`), and is not scaled to a unit
  pivot: each active row takes the multiplier (p - f) * pi**-1 mod p
  instead, with f its lowest field, read unreduced: one list pass per
  pivot;
* Kronecker substitution: a vector's back-substitution takes one big-int
  product per row, the row's tail times the packed, reversed solution
  (:func:`_back_substitute`).

Fields are reduced mod p only when a row becomes a pivot row and when
back-substitution finishes a row; W leaves room for the unreduced sums in
between, below 2**(W - 1) (see :func:`_width`).  A matrix that is
eliminated again and again is packed once, by :func:`pack` or written
straight into packed ints by its maker, and passed as its
:class:`Packed`: pack returns it as it is for its own field, so det,
rank, rref and solve read its ints with no pass over its entries, and
its fields may start unreduced, below p**2 (see :func:`_width`).
"""

from __future__ import annotations

from operator import index, mul

from .errors import (
    BadShapeError,
    BadSymbolError,
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


def _width(p: int, rows: int) -> int:
    """Bits per packed field.

    A field starts below p**2 (reduced, or unreduced as in a
    :class:`Packed` draw row z * C + D, at most (p - 1)**2 + p - 1) and
    takes at most rows - 1 updates before it is reduced, each adding a
    multiplier below p times a reduced pivot-row field, less than p**2,
    so it stays below rows * p**2 < 2**(W - 1): no carry reaches the next
    field.  So the elimination may drop a row's lowest field once it is a
    multiple of p (:func:`_echelon`'s window shift), and every field the
    packed reduction (:func:`_reducer`) reads is below 2**(W - 1), the
    bound its quotient estimate needs.  Back-substitution's sums stay
    below that bound too: a block's fields below p + n * p**2 and a
    vector's Kronecker product's below n * p**2, for n <= rows pivots
    (see :func:`_back_substitute`).
    """
    return 2 * p.bit_length() + rows.bit_length() + 1


def _pack(row: list[int], w: int, p: int) -> int:
    """The entries of ``row`` reduced mod p, packed W bits apart."""
    packed = 0
    for x in reversed(row):
        packed = packed << w | x % p
    return packed


def _fields(packed: int, w: int, n: int) -> list[int]:
    """The first n W-bit fields of ``packed``, not reduced."""
    mask = (1 << w) - 1
    return [packed >> s & mask for s in range(0, n * w, w)]


def _reducer(p: int, w: int, fields: int):
    """A function that reduces every field of a packed int mod p in a
    fixed number of big-int operations, whatever its length: Barrett's
    quotient estimate taken in all fields at once (the simultaneous
    reduction of Dumas, Fousse and Salvy).  Its input holds at most
    ``fields`` W-bit fields, each below 2**(W - 1) (see :func:`_width`).

    The even and the odd fields are taken apart, so that each value x
    sits alone in a 2W-bit slot.  With b = bits(p), k = W + b - 1 and
    mu = floor(2**k / p) <= 2**W, the product x * mu < 2**(2W - 1) fits
    its slot, and q = floor(x * mu / 2**k) is read off every slot by one
    shift of the whole int and a mask of its low 2W - k bits.  As
    x < 2**k, x * mu / 2**k > x / p - 1, so floor(x / p) - 1 <= q <= x / p
    and r = x - q * p lies in [0, 2p): subtracting q * p borrows from no
    slot.  r + 2**(b + 1) - p < 2**(b + 2) has bit b + 1 set exactly
    where r >= p, and p is subtracted once more there.  The two halves
    are then merged back.  The constants are built here, once per
    elimination.
    """
    b = p.bit_length()
    k = w + b - 1
    mu = (1 << k) // p
    ones = ((1 << 2 * w * ((fields + 1) // 2)) - 1) // ((1 << 2 * w) - 1)  # bit 0 of each slot
    low, qmask, lift = ones * ((1 << w) - 1), ones * ((1 << 2 * w - k) - 1), ones * ((1 << b + 1) - p)

    def half(x: int) -> int:
        x -= (x * mu >> k & qmask) * p
        return x - ((x + lift) >> b + 1 & ones) * p

    def reduce(x: int) -> int:
        return half(x & low) | half(x >> w & low) << w

    return reduce


class Packed:
    """A matrix over GF(p) held as one packed int per row: entry c of a
    row sits in the W-bit field at bits [c*W, (c+1)*W), W = :func:`_width`
    of p and the row count.  A value: two with equal ``p``, ``cols`` and
    ``ints`` are the same matrix to every reader.

    :func:`pack` returns it unchanged for its own field, so :func:`det`,
    :func:`rank`, :func:`rref` and :func:`solve` over that field read
    ``ints`` instead of packing entries.  A field may start unreduced,
    below p**2: a row ``z * C + D`` of two reduced packed rows with
    0 <= z < p (:func:`~dmuss.planner.choose_zeta`'s draws) is one.  The
    elimination bound rows * p**2 < 2**(W - 1) holds from there (see
    :func:`_width`).  ``rows`` unpacks the entries, reduced mod p, on
    each read; ``len`` is the row count without unpacking.  Made by
    :func:`pack` from a matrix, or directly from ints.  The ints must
    not be mutated.
    """

    __slots__ = ("p", "cols", "ints")

    def __init__(self, p: int, cols: int, ints: list[int]):
        self.p, self.cols, self.ints = p, cols, ints

    @property
    def rows(self) -> Matrix:
        p = self.p
        w = _width(p, len(self.ints))
        return [[f % p for f in _fields(x, w, self.cols)] for x in self.ints]

    def __len__(self) -> int:
        return len(self.ints)


def pack(field: Field, a: Matrix | Packed) -> Packed:
    """``a`` packed for elimination over ``field`` (see :class:`Packed`):
    the one entry of every reader, and the one pass that reads a
    matrix's entries.

    A :class:`Packed` for ``field`` is returned as it is, and one for
    another field is packed from its reduced :attr:`~Packed.rows`.
    Raises ShapeMismatchError when ``a`` is not a list or tuple of rows
    (each a list or tuple) of one length, and BadSymbolError when an
    entry is not an int (a float, a string, None, a list, ...).
    """
    p = field.p
    if isinstance(a, Packed):
        if a.p == p:
            return a
        a = a.rows
    if not isinstance(a, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in a):
        raise ShapeMismatchError("a matrix is a list or tuple of row lists or tuples")
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ShapeMismatchError("matrix rows differ in length")
    w = _width(p, rows)
    try:
        ints = [_pack(row, w, p) for row in a]
    except TypeError as exc:
        raise BadSymbolError(f"matrix entries must be ints: {exc}") from exc
    return Packed(p, cols, ints)


def _echelon(field: Field, m: Packed) -> tuple[list[int], list[int], list[int], int]:
    """Forward elimination in a shrinking window: the one elimination loop.

    Each row is held packed in one int, W = :func:`_width` bits per field
    (2*bits(p) + bits(rows) + 1): the ints of ``m``, which its reader has
    packed for this field by :func:`pack` (or, for :func:`solve`, built
    as [A | B] from two such).  The loop stops once every row is a pivot
    row, so an n x n block on the left with n pivots ends it before the
    columns to its right are sought.

    The rows not yet pivot rows are kept in one active list, in input
    order, each holding the current column in its lowest field, read as
    ``x & mask``.  The pivot is the first active row whose lowest field is
    nonzero mod p; a field that is a nonzero multiple of p is zero and
    never a pivot.  It is taken out of the list by ``pop(i)``, which moves
    it above the i active rows before it by i adjacent row swaps, so the
    determinant's sign flips when i is odd.  The pivot row is reduced mod
    p by :func:`_reducer`, in a fixed number of big-int operations, and
    left as it is: its pivot pi is not scaled to 1.  One list pass then
    gives every active row one big-int multiply-add R += m * L with
    m = (p - f) * pi**-1 mod p, one scalar per row, read off the row's
    unreduced lowest field (below 2**(W - 1) and congruent to f, so the
    same m), which makes that field a multiple of p, and shifts the row
    right by one field, so the next column comes into the lowest field
    and updates touch only the columns still in play.  A column without a
    pivot shifts every active row the same way.  Dropping a field loses
    nothing: it holds a multiple of p, and no field ever carries into the
    next (see :func:`_width`), since active rows are not reduced in this
    pass, so they take at most rows - 1 updates, each field gaining less
    than p**2.

    Returns:
        (E, pivots, inverses, d) where E holds the pivot rows of a row
        echelon form of m, top first, each reduced mod p and
        packed from its pivot column on (field 0 holds the pivot, field t
        the entry of column pivots[i] + t), pivots lists the pivot column
        of each of them, inverses the inverse mod p of each pivot, and d
        is the product of the pivots times the sign of the row swaps the
        pops make (the determinant when ``m`` is square and has a pivot in
        every column).
    """
    p = field.p
    rows, cols = len(m), m.cols
    w = _width(p, rows)
    mask = (1 << w) - 1
    active = list(m.ints)
    reduce = _reducer(p, w, cols)
    tops: list[int] = []
    pivots: list[int] = []
    inverses: list[int] = []
    d = 1
    for col in range(cols):
        for i, x in enumerate(active):
            if (x & mask) % p:
                break
        else:  # no pivot in this column
            active = [x >> w for x in active]
            continue
        top = reduce(active.pop(i))  # i adjacent swaps bring it to the top
        pivot = top & mask
        d = (-d if i & 1 else d) * pivot % p
        inv = pow(pivot, -1, p)
        minus = p - inv  # m = (p - f) * inv = f * (p - inv) mod p
        active = [(x + (x & mask) * minus % p * top) >> w for x in active]
        tops.append(top)
        pivots.append(col)
        inverses.append(inv)
        if not active:
            break
    return tops, pivots, inverses, d


def _back_substitute(
    p: int, w: int, r: list[int], pivots: list[int], inverses: list[int], lo: int, count: int
) -> list[int]:
    """Back-substitution on :func:`_echelon`'s pivot rows, read off the
    fields lo..lo+count-1 only.

    Reduced row i is pi_i**-1 times (echelon row i minus, for each pivot
    j below it, row i's entry in pivot column j times reduced row j),
    bottom row first; the echelon rows' entries and the reduced rows are
    below p.

    A vector (count 1 at lo = n, solve's right-hand side after pivots
    0..n-1) takes one big-int product per row: row i's tail, the entries
    U_i,i+1..U_i,n-1 in its fields 1..n-1-i, times the solution found so
    far packed in reverse (x_j in field n-1-j), holds
    sum_{j>i} U_ij * x_j in its field n-i-2 (Kronecker substitution).
    Every field of that product is a sum of at most n products below
    p**2 (row i's right-hand side field included), so below
    n * p**2 < 2**(W - 1) (see :func:`_width`): none carries, and the
    field is read exactly.

    A block of count fields (and rref's rows) takes one
    ``sum(map(mul, ...))`` of row i's pivot-column entries against the
    reduced rows below, each held as one packed int of count fields.
    Each product is below p**2 in every field and the sum, over fewer
    than n = len(pivots) rows, below n*p**2.  Adding n*p**2 to every
    field first keeps each field non-negative and below
    p + n*p**2 < 2**(W - 1): no field borrows from or carries into the
    next.  The row is then reduced, scaled by pi_i**-1 and reduced again
    by :func:`_reducer` before the rows above read it.

    Returns:
        The n reduced rows, top first: for a vector its entries, for a
        block packed ints of count fields reduced mod p.
    """
    n = len(pivots)
    mask = (1 << w) - 1
    if count == 1 and lo == n:  # solve's vector, or no pivots at all
        x = [0] * n
        done = 0  # x_j in field n-1-j, for the x_j found so far
        for i in range(n - 1, -1, -1):
            last = n - 1 - i
            tail = r[i] >> w  # U_i,i+1..U_i,n-1, then b_i in field last
            s = tail * done >> (last - 1) * w & mask if last else 0
            x[i] = xi = ((tail >> last * w & mask) - s) * inverses[i] % p
            done |= xi << last * w
        return x
    window = (1 << count * w) - 1
    reduce = _reducer(p, w, count)
    offset = n * p * p * (window // mask)  # n*p**2 in each of count fields
    done: list[int] = []  # the reduced rows, bottom first
    for i in range(n - 1, -1, -1):
        row, s = r[i], pivots[i]
        coeffs = [row >> (c - s) * w & mask for c in reversed(pivots[i + 1 :])]
        acc = (row << s * w >> lo * w & window) + offset - sum(map(mul, coeffs, done))
        done.append(reduce(reduce(acc) * inverses[i]))
    done.reverse()
    return done


def rref(field: Field, a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form: :func:`_echelon`, then
    :func:`_back_substitute` over every field, which also scales each
    row to a unit pivot; unpacked once at the end.

    Returns:
        (R, pivots) where R is the reduced form of ``a`` and pivots lists
        the pivot column of each nonzero row, in order.
    """
    p = field.p
    m = pack(field, a)
    r, pivots, inverses, _ = _echelon(field, m)
    rows, cols = len(m), m.cols
    w = _width(p, rows)
    reduced = [_fields(row, w, cols) for row in _back_substitute(p, w, r, pivots, inverses, 0, cols)]
    return reduced + zeros(rows - len(pivots), cols), pivots  # the rows below are zero


def rank(field: Field, a: Matrix) -> int:
    """The rank of ``a``: the number of :func:`_echelon`'s pivots."""
    return len(_echelon(field, pack(field, a))[1])


def det(field: Field, a: Matrix) -> int:
    """Determinant: the signed pivot product of :func:`_echelon`."""
    m = pack(field, a)
    if m.cols != len(m):
        raise ShapeMismatchError("determinant needs a square matrix")
    _, pivots, _, d = _echelon(field, m)
    return d if len(pivots) == len(m) else 0


def solve(field: Field, a: Matrix, b: list) -> list:
    """Solve a @ x = b, with b a length-n vector or an n x m block of row
    lists whose columns are right-hand sides; x has the shape of b.

    One :func:`_echelon` of [a | b], b's rows packed in the fields after
    a's columns; a is singular unless it pivots on columns 0..n-1 exactly,
    and then the elimination ends there, with every row a pivot row.
    :func:`_back_substitute` then reads x off b's fields alone: each x_i
    is pi_i**-1 times (b_i minus sum_{j>i} U_ij x_j), with U the upper
    triangular echelon form of a and pi_i its pivots, by one Kronecker
    product per row for a vector and over packed rows of m fields for a
    block.  Both enter through :func:`pack`, a first: a block b is a
    matrix of n rows, so its fields have a's width; a vector's entries
    go in as one field each.

    Raises:
        ShapeMismatchError: a is not square, b is not a list (or tuple)
            of n rows, or a block b is not a matrix.
        BadSymbolError: an entry of a or b is not an int.
        SingularMatrixError: a is singular.
    """
    a = pack(field, a)
    n = len(a)
    if a.cols != n:
        raise ShapeMismatchError("coefficient matrix must be square")
    if not isinstance(b, (list, tuple)):  # a dict would read as its keys
        raise ShapeMismatchError(f"right-hand side must be a list, got {type(b).__name__}")
    if len(b) != n:
        raise ShapeMismatchError(f"right-hand side has {len(b)} rows, expected {n}")
    p = field.p
    w = _width(p, n)
    block = n > 0 and isinstance(b[0], (list, tuple))
    if block:
        b = pack(field, b)
        width, rhs = b.cols, b.ints
    else:
        width = 1
        try:
            rhs = [index(x) % p for x in b]
        except TypeError as exc:
            raise BadSymbolError(f"matrix entries must be ints: {exc}") from exc
    ab = Packed(p, n + width, [x | y << n * w for x, y in zip(a.ints, rhs)])
    r, pivots, inverses, _ = _echelon(field, ab)
    if pivots != list(range(n)):
        raise SingularMatrixError("system is singular")
    x = _back_substitute(p, w, r, pivots, inverses, n, width)
    return [_fields(row, w, width) for row in x] if block else x  # one field: x is its ints


def inverse(field: Field, a: Matrix) -> Matrix:
    """Matrix inverse: :func:`solve` against the identity."""
    a = pack(field, a)
    return solve(field, a, identity(len(a)))


def null_space(field: Field, a: Matrix, cols: int | None = None) -> Matrix:
    """Right null space {v : a @ v = 0}, as a list of basis vectors.

    The basis is in reduced-echelon convention, which makes it canonical
    and comparable: the t-th vector belongs to the t-th free column of
    ``a`` in ascending order, and carries a 1 there and 0 at every other
    free column.  ``cols``, if given, must be the row length, and it must
    be given when ``a`` has no rows (the null space is then all of
    GF(p)^cols and the basis is the identity): ShapeMismatchError if not.
    """
    r, pivots = rref(field, a)
    if not r:
        if type(cols) is not int or cols < 0:
            raise ShapeMismatchError(f"an empty matrix needs an int column count >= 0, got {cols!r}")
        return identity(cols)
    ncols = len(r[0])
    if cols is not None and (type(cols) is not int or cols != ncols):
        raise ShapeMismatchError(f"column count {cols!r} given for rows of length {ncols}")
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
    return vectors


def build_B(field: Field, m: int, n: int) -> Matrix:
    """Tail-coefficient evaluation matrix.

    The (n-m) x n matrix with entry (i, j) = gamma**((m+i-1)*j) for
    i in 1..n-m and j in 1..n (both 1-indexed).  Its rows evaluate the
    degree-m..n-1 monomials at the first n powers of gamma, so it has
    full rank n-m whenever the powers gamma^1..gamma^n are distinct.

    Its null space, ``null_space(field, build_B(field, m, n))``, is user
    k's tail null basis for m = R'_k and n = |A_k|: the basis the
    planner's correctness matrix V is built from (only by
    ``planner.plan_decomposition``, for ``dmuss demo`` and the tests),
    and the matrix ``dmuss demo`` prints.

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
