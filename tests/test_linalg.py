"""Exact linear algebra: elimination, null spaces, evaluation matrices.

The determinant tests are checked against a test-local cofactor-expansion
oracle, and the null-space regressions pin span-level expectations (the
basis convention is echelon-reduced, so span equality is what matters).
The one forward elimination under rref, solve, rank and det is fuzzed
against the Gauss-Jordan reduction and the separate determinant loop it
replaced (``slow_rref``, ``slow_solve`` and ``slow_det`` in conftest), and
its active-list pivot choice against the swap-based loop before it
(``slow_echelon``).
"""

import itertools
import random

import pytest

from conftest import as_rows, mat_mul, mat_vec, slow_det, slow_echelon, slow_rref, slow_solve, spy, transpose
from dmuss import linalg
from dmuss.errors import (
    BadShapeError,
    BadSymbolError,
    FieldTooSmallError,
    ShapeMismatchError,
    SingularMatrixError,
)
from dmuss.gf import Field

F11 = Field(11, gamma=8)

# frozen: powers of 8 mod 11 are 8, 9, 6, 4, 10, 3, 2, 5, 7, 1
B_1_4 = [[8, 9, 6, 4], [9, 4, 3, 5], [6, 3, 7, 9]]
B_2_4 = [[9, 4, 3, 5], [6, 3, 7, 9]]
B_3_5 = [[6, 3, 7, 9, 10], [4, 5, 9, 3, 1]]

# frozen span representatives for the two regression null spaces
NULL_1_4_REP = [1, 8, 4, 7]
NULL_3_5_REPS = [[1, 5, 2, 6, 1], [1, 6, 3, 4, 4], [1, 1, 1, 10, 7]]


def cofactor_det(p, m):
    """Independent determinant oracle: Laplace expansion, first row."""
    n = len(m)
    if n == 1:
        return m[0][0] % p
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * cofactor_det(p, minor)
        total += -term if j % 2 else term
    return total % p


def random_matrix(rng, p, rows, cols):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def spans_equal(field, vecs_a, vecs_b):
    ra = linalg.rank(field, vecs_a)
    rb = linalg.rank(field, vecs_b)
    return ra == rb == linalg.rank(field, vecs_a + vecs_b)


# --- evaluation matrices -------------------------------------------------------


def test_build_B_frozen_values():
    assert linalg.build_B(F11, 1, 4) == B_1_4
    assert linalg.build_B(F11, 2, 4) == B_2_4
    assert linalg.build_B(F11, 3, 5) == B_3_5
    assert linalg.build_B(Field(2), 0, 1) == [[1]]


def test_build_B_entry_formula():
    # entry (i, j), 1-indexed, is gamma^((m+i-1)*j)
    m, n = 2, 5
    b = linalg.build_B(F11, m, n)
    for i in range(1, n - m + 1):
        for j in range(1, n + 1):
            assert b[i - 1][j - 1] == pow(8, (m + i - 1) * j, 11)


def test_build_B_shape_errors():
    with pytest.raises(BadShapeError):
        linalg.build_B(F11, 4, 4)
    with pytest.raises(BadShapeError):
        linalg.build_B(F11, 5, 4)
    with pytest.raises(BadShapeError):
        linalg.build_B(F11, -1, 4)
    with pytest.raises(FieldTooSmallError):
        linalg.build_B(F11, 0, 11)  # only 10 distinct nonzero points


def test_build_B_full_rank_exhaustive_small_fields():
    for p in [3, 5, 7, 11, 13]:
        f = Field(p)
        for n in range(1, p):
            for m in range(n):
                assert linalg.rank(f, linalg.build_B(f, m, n)) == n - m, (p, m, n)


# --- rank and null space -------------------------------------------------------


def test_rank_frozen():
    assert linalg.rank(F11, B_1_4) == 3
    assert linalg.rank(F11, B_3_5) == 2
    assert linalg.rank(F11, linalg.zeros(3, 4)) == 0
    assert linalg.rank(F11, linalg.identity(5)) == 5


def test_null_space_regression_one_dimensional():
    basis = linalg.null_space(F11, B_1_4)
    assert len(basis) == 1
    for v in basis:
        assert mat_vec(F11, B_1_4, v) == [0, 0, 0]
    assert spans_equal(F11, basis, [NULL_1_4_REP])


def test_null_space_regression_three_dimensional():
    basis = linalg.null_space(F11, B_3_5)
    assert len(basis) == 3
    for v in basis:
        assert mat_vec(F11, B_3_5, v) == [0, 0]
    assert spans_equal(F11, basis, NULL_3_5_REPS)


def test_null_space_echelon_convention():
    # each vector carries a 1 on its own free column, 0 on the others
    basis = linalg.null_space(F11, B_3_5)
    free_cols = []
    for v in basis:
        ones = [i for i, x in enumerate(v) if x == 1]
        free_cols.append(max(ones))
    assert free_cols == sorted(free_cols)
    for t, v in enumerate(basis):
        for s, other_col in enumerate(free_cols):
            assert v[other_col] == (1 if s == t else 0)


def test_null_space_of_identity_is_trivial():
    assert linalg.null_space(F11, linalg.identity(4)) == []


def test_null_space_of_empty_matrix_is_everything():
    assert linalg.null_space(F11, [], cols=3) == linalg.identity(3)
    assert linalg.null_space(F11, [[1, 2]], cols=2) == [[9, 1]]
    # a column count that is not the row length used to be ignored, and a
    # negative one on no rows gave a basis of negative dimension
    for a, cols in (([], None), ([], -1), ([], True), ([], 2.0), ([[1, 2]], 5), ([[1, 2]], 1)):
        with pytest.raises(ShapeMismatchError):
            linalg.null_space(F11, a, cols=cols)


def test_rank_nullity_fuzz():
    rng = random.Random(42)
    for _ in range(60):
        p = rng.choice([3, 11, 13])
        f = Field(p)
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, p, rows, cols)
        basis = linalg.null_space(f, m)
        assert len(basis) == cols - linalg.rank(f, m)
        for v in basis:
            assert mat_vec(f, m, v) == [0] * rows
        assert linalg.rank(f, basis) == len(basis)


# --- determinant ---------------------------------------------------------------


def test_det_frozen():
    assert linalg.det(F11, linalg.identity(4)) == 1
    assert linalg.det(F11, [[3, 3], [3, 3]]) == 0
    extended = [[1, 1, 1, 1]] + B_1_4
    d = linalg.det(F11, extended)
    assert d != 0
    assert d == cofactor_det(11, extended)


def test_det_matches_cofactor_oracle_fuzz():
    rng = random.Random(7)
    for _ in range(80):
        p = rng.choice([2, 3, 11, 13])
        n = rng.randint(1, 5)
        m = random_matrix(rng, p, n, n)
        assert linalg.det(Field(p), m) == cofactor_det(p, m)


def test_det_zero_iff_rank_deficient_fuzz():
    rng = random.Random(8)
    for _ in range(60):
        p = rng.choice([3, 11])
        n = rng.randint(1, 5)
        m = random_matrix(rng, p, n, n)
        f = Field(p)
        assert (linalg.det(f, m) == 0) == (linalg.rank(f, m) < n)


def test_det_requires_square():
    with pytest.raises(ShapeMismatchError):
        linalg.det(F11, [[1, 2, 3], [4, 5, 6]])


# --- solve and inverse -----------------------------------------------------------


def test_solve_identity_and_errors():
    assert linalg.solve(F11, linalg.identity(3), [5, 0, 7]) == [5, 0, 7]
    with pytest.raises(SingularMatrixError):
        linalg.solve(F11, [[0, 0], [0, 0]], [0, 0])
    with pytest.raises(SingularMatrixError):
        linalg.solve(F11, [[1, 2], [2, 4]], [1, 1])
    with pytest.raises(ShapeMismatchError):
        linalg.solve(F11, [[1, 2], [3, 4]], [1, 2, 3])
    with pytest.raises(ShapeMismatchError):
        linalg.solve(F11, [[1, 2, 3], [4, 5, 6]], [1, 2])
    with pytest.raises(ShapeMismatchError):  # a block whose second row is an entry
        linalg.solve(F11, linalg.identity(2), [[1], 2])
    # tuple rows are a block too, as lists are
    assert linalg.solve(F11, linalg.identity(2), [(1, 0), (0, 1)]) == linalg.identity(2)
    assert linalg.solve(F11, linalg.identity(2), ((1, 0), (0, 1))) == linalg.identity(2)
    assert linalg.solve(F11, [[2, 1], [1, 1]], ((3, 4), [5, 6])) == [[9, 9], [7, 8]]
    with pytest.raises(ShapeMismatchError):
        linalg.solve(F11, linalg.identity(2), [(1,), 2])


def test_entries_that_are_not_ints_raise_bad_symbol_error():
    """Every elimination reads the caller's entries in one pass; an entry
    that is not an int raises BadSymbolError there, not a TypeError."""
    eye = linalg.identity(2)
    for x in ([2], "a", "%d", 1.5, 2.0, None):
        for fn, *args in (
            (linalg.solve, eye, [1, x]),  # a vector right-hand side
            (linalg.solve, eye, [[1], [x]]),  # a block
            (linalg.solve, [[1, 0], [0, x]], [1, 1]),
            (linalg.rank, [[x, 2]]),
            (linalg.det, [[x]]),
            (linalg.rref, [[1, 2], [x, 3]]),
            (linalg.null_space, [[1, x]]),
        ):
            with pytest.raises(BadSymbolError):
                fn(F11, *args)
    assert linalg.solve(F11, linalg.identity(2), [[1], [True]]) == [[1], [1]]  # bools are ints
    assert linalg.solve(F11, linalg.identity(2), [1, True]) == [1, 1]


def test_solve_packs_its_right_hand_side_itself(monkeypatch):
    """A vector's entries go into the elimination as one field each, with
    no row packed per entry; a block's rows are packed once each."""
    a = linalg.pack(F11, [[2, 1], [1, 1]])
    packs = spy(monkeypatch, linalg, "_pack", lambda row, w, p: len(row))
    assert linalg.solve(F11, a, [3, 16]) == [9, 7]
    assert packs == []
    assert linalg.solve(F11, a, [[3, 4], [5, 6]]) == [[9, 9], [7, 8]]
    assert packs == [2, 2]


def test_solve_round_trip_fuzz():
    rng = random.Random(9)
    done = 0
    while done < 50:
        p = rng.choice([3, 11, 13])
        f = Field(p)
        n = rng.randint(1, 8)
        a = random_matrix(rng, p, n, n)
        if linalg.det(f, a) == 0:
            continue
        s = [rng.randrange(p) for _ in range(n)]
        b = linalg.solve(f, a, s)
        assert mat_vec(f, a, b) == s
        done += 1


def test_inverse_fuzz():
    rng = random.Random(10)
    done = 0
    while done < 30:
        p = rng.choice([3, 11])
        f = Field(p)
        n = rng.randint(1, 6)
        a = random_matrix(rng, p, n, n)
        if linalg.det(f, a) == 0:
            continue
        inv = linalg.inverse(f, a)
        assert mat_mul(f, a, inv) == linalg.identity(n)
        assert mat_mul(f, inv, a) == linalg.identity(n)
        done += 1
    with pytest.raises(SingularMatrixError):
        linalg.inverse(F11, [[1, 2], [2, 4]])
    with pytest.raises(ShapeMismatchError):
        linalg.inverse(F11, [[1, 2, 3], [4, 5, 6]])
    assert linalg.inverse(F11, []) == []


def test_mat_ops_shapes():
    # ragged rows must not be truncated or padded with zeros
    for ragged in ([[1], [3, 4]], [[1, 2], [3]]):
        for op in (linalg.rref, linalg.rank, linalg.null_space):
            with pytest.raises(ShapeMismatchError):
                op(F11, ragged)


def test_transpose_reference():
    # the slow references' transpose, kept in conftest
    assert transpose([[1, 2], [3, 4]]) == [[1, 3], [2, 4]]
    assert transpose([[1, 2, 3]]) == [[1], [2], [3]]
    assert transpose([]) == []


def test_malformed_shapes_raise_domain_errors_not_type_errors():
    """A matrix that is not a list of row lists, or a right-hand side
    with no length, is a ShapeMismatchError.  Each of these was a bare
    TypeError."""
    for fn, *args in (
        (linalg.rank, [1, 2]),
        (linalg.rank, 5),
        (linalg.rank, {1: 2}),  # a bare KeyError: 0 once
        (linalg.rref, {1: 2}),
        (linalg.rref, [1, 2]),
        (linalg.null_space, [1, 2]),
        (linalg.det, [1]),
        (linalg.det, None),
        (linalg.solve, [1], [1]),
        (linalg.solve, [[1]], 5),
        # a dict was read as its keys: this gave [0]
        (linalg.solve, [[1]], {0: 1}),
    ):
        with pytest.raises(ShapeMismatchError):
            fn(F11, *args)
    assert linalg.det(F11, [(1, 2), (3, 4)]) == 9  # tuple rows still eliminate
    for b in ([1, 2], [[1, 0], [2, 5]]):  # and solve as list rows do, vector and block
        assert linalg.solve(F11, [(1, 2), (3, 4)], b) == linalg.solve(F11, [[1, 2], [3, 4]], b)
    assert linalg.solve(F11, [(1, 0), (0, 1)], [1, 2]) == [1, 2]



# --- the one forward pass against the slow references ------------------------------

FUZZ_FIELDS = [Field(p) for p in (2, 3, 11, 65537, 2**31 - 1, 2**61 - 1)]


def slow_null_vectors(field, a, reduced=None):
    """Null basis read off ``slow_rref`` (or its given result ``reduced``)
    by the same free-column rule."""
    r, pivots = reduced or slow_rref(field, a)
    ncols = len(a[0])
    vectors = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][f] % field.p
        vectors.append(v)
    return vectors


def fuzz_matrix(rng, field, rows, cols, kind):
    p = field.p
    if kind == "zero":
        return linalg.zeros(rows, cols)
    if kind == "sparse":
        return [[rng.randrange(p) if rng.random() < 0.2 else 0 for _ in range(cols)] for _ in range(rows)]
    if kind == "low-rank":
        r = rng.randint(0, max(min(rows, cols) - 1, 0))
        if r == 0:
            return linalg.zeros(rows, cols)
        return mat_mul(field, random_matrix(rng, p, rows, r), random_matrix(rng, p, r, cols))
    if kind == "repeated" and rows > 1:
        m = random_matrix(rng, p, rows - 1, cols)
        return m + [m[rng.randrange(rows - 1)][:]]
    return random_matrix(rng, p, rows, cols)


def solve_outcome(solver, field, a, s):
    """A solver's solution, or the type of the error it raised."""
    try:
        return solver(field, a, s)
    except (ShapeMismatchError, SingularMatrixError) as exc:
        return type(exc)


def packed_solve(field, a, b):
    """:func:`linalg.solve` on ``a`` packed first by :func:`linalg.pack`."""
    return linalg.solve(field, linalg.pack(field, a), b)


def column_solves(field, a, b, m, solver=linalg.solve):
    """The vector solves of the m columns of the block b, put back as a
    block, or the one error type they all raise."""
    outcomes = [solve_outcome(solver, field, a, [row[j] for row in b]) for j in range(m)]
    errors = {x for x in outcomes if isinstance(x, type)}
    if errors:
        (error,) = errors
        return error
    return transpose(outcomes)


def test_block_solve_matches_column_solves_and_slow_solve_fuzz():
    # a block of 0, 1, 3 or n right-hand sides: the same solution as the
    # vector solves of its columns and as slow_solve, or the same error;
    # and the same again, block and vectors, with the matrix packed first
    rng = random.Random(71)
    cases = ["nonsingular", "singular", "ragged block", "ragged a", "short block"]
    seen = set()
    for _ in range(900):
        field = rng.choice(FUZZ_FIELDS)
        case = rng.choice(cases)
        n = rng.randint(2 if case == "ragged block" else 1, 12)  # one row is never ragged
        width = rng.choice(["0", "1", "3", "n"])
        m = {"0": 0, "1": 1, "3": 3, "n": n}[width]
        while True:
            a = fuzz_matrix(rng, field, n, n, "low-rank" if case == "singular" else "dense")
            if case == "singular" or linalg.det(field, a):
                break
        b = random_matrix(rng, field.p, n, m)
        if case == "ragged block":
            b[rng.randrange(n)].append(rng.randrange(field.p))
        elif case == "ragged a":
            a[rng.randrange(n)].append(rng.randrange(field.p))
        elif case == "short block":
            b.pop(rng.randrange(n))
        got = solve_outcome(linalg.solve, field, a, b)
        assert got == solve_outcome(slow_solve, field, a, b), (field.p, n, m, case)
        assert solve_outcome(packed_solve, field, a, b) == got, (field.p, n, m, case)
        if case != "ragged block" and m:
            assert got == column_solves(field, a, b, m), (field.p, n, m, case)
            assert got == column_solves(field, a, b, m, packed_solve), (field.p, n, m, case)
        if not isinstance(got, type):
            assert mat_mul(field, a, got) == b if m else got == [[]] * n
        seen.add((case, got if isinstance(got, type) else "solved"))
        seen.add((field.p, width, case))
    assert seen >= {
        ("nonsingular", "solved"),
        ("singular", SingularMatrixError),
        ("ragged block", ShapeMismatchError),
        ("ragged a", ShapeMismatchError),
        ("short block", ShapeMismatchError),
    }
    for field in FUZZ_FIELDS:
        for width in ("0", "1", "3", "n"):
            for case in cases:
                assert (field.p, width, case) in seen


def test_packed_matrix_serves_every_elimination_fuzz():
    # a packed matrix holds its reduced rows: the same det, rank, rref and
    # null space as the slow references, solvable again after a solve,
    # and packed again from its rows when eliminated over another field;
    # tuple rows pack to the same ints and eliminate as list rows do
    rng = random.Random(73)
    for _ in range(300):
        field = rng.choice(FUZZ_FIELDS)
        n = rng.randint(1, 10)
        a = fuzz_matrix(rng, field, n, n, rng.choice(["dense", "sparse", "low-rank"]))
        packed = linalg.pack(field, a)
        tuples = tuple(map(tuple, a))
        assert packed.rows == a and linalg.pack(field, packed) is packed
        assert linalg.pack(field, tuples).ints == packed.ints
        want_r = slow_rref(field, a)
        b = random_matrix(rng, field.p, n, rng.choice([1, 3, n]))
        want = solve_outcome(slow_solve, field, a, b)
        for m in (packed, tuples):
            assert linalg.det(field, m) == slow_det(field, a)
            assert linalg.rref(field, m) == want_r
            assert linalg.rank(field, m) == len(want_r[1])
            assert linalg.null_space(field, m) == slow_null_vectors(field, a, want_r)
            for _ in range(2):
                assert solve_outcome(linalg.solve, field, m, b) == want, (field.p, n)
        other = rng.choice([f for f in FUZZ_FIELDS if f.p != field.p])
        plain = [row[:] for row in a]
        assert solve_outcome(linalg.solve, other, packed, b) == solve_outcome(linalg.solve, other, plain, b)
        for reader in (linalg.det, linalg.rank, linalg.rref, linalg.null_space):
            assert reader(other, packed) == reader(other, plain), (field.p, other.p, n, reader)


def test_a_packed_matrix_is_its_p_cols_and_ints():
    # pack keeps only the reduced entries: a Packed built from the same
    # ints reads the same rows and eliminates the same, over its own
    # field and over another
    x = linalg.pack(F11, [[12, 3], [-1, 5]])
    y = linalg.Packed(11, 2, x.ints)
    assert x.rows == y.rows == [[1, 3], [10, 5]]
    assert linalg.det(Field(13), x) == linalg.det(Field(13), y) == 1
    for field in (F11, Field(13), Field(65537)):
        for reader in (linalg.det, linalg.rank, linalg.rref, linalg.inverse, linalg.null_space):
            assert reader(field, x) == reader(field, y), (field.p, reader)
        assert linalg.solve(field, x, [1, 2]) == linalg.solve(field, y, [1, 2])


def test_pack_refuses_what_the_eliminations_refuse():
    for a in (5, [1, 2], [[1, 2], [3]]):
        with pytest.raises(ShapeMismatchError):
            linalg.pack(F11, a)
    for a in ([[1, 2.0]], [[1, "a"]], [[None]]):
        with pytest.raises(BadSymbolError):
            linalg.pack(F11, a)
    with pytest.raises(ShapeMismatchError):
        linalg.det(F11, linalg.pack(F11, [[1, 2, 3], [4, 5, 6]]))
    for a in (5, None, [[1, 2], [3]]):  # inverse read len(a) first: 5 and None were bare TypeErrors
        with pytest.raises(ShapeMismatchError):
            linalg.inverse(F11, a)
    assert linalg.pack(F11, []).rows == [] and linalg.det(F11, linalg.pack(F11, [])) == 1


def test_elimination_matches_slow_references_fuzz():
    rng = random.Random(61)
    kinds = ["dense", "zero", "sparse", "low-rank", "repeated"]
    shapes = ["square", "wide", "tall", "empty"]
    seen = set()
    for _ in range(1500):
        field = rng.choice(FUZZ_FIELDS)
        shape, kind = rng.choice(shapes), rng.choice(kinds)
        n = rng.randint(1, 8)
        rows, cols = {
            "square": (n, n),
            "wide": (n, n + rng.randint(1, 5)),
            "tall": (n + rng.randint(1, 5), n),
            "empty": rng.choice([(0, 0), (n, 0)]),
        }[shape]
        a = fuzz_matrix(rng, field, rows, cols, kind)
        want_r, want_pivots = slow_rref(field, a)
        assert linalg.rref(field, a) == (want_r, want_pivots)
        assert linalg.rank(field, a) == len(want_pivots)
        if rows == cols:
            assert linalg.det(field, a) == slow_det(field, a)
            seen.add(("det", len(want_pivots) == rows))
            s = [rng.randrange(field.p) for _ in range(rows)]
            assert solve_outcome(linalg.solve, field, a, s) == solve_outcome(slow_solve, field, a, s)
            ident = linalg.identity(rows)
            got = solve_outcome(linalg.solve, field, a, ident)
            assert got == solve_outcome(slow_solve, field, a, ident)
        else:
            with pytest.raises(ShapeMismatchError):
                linalg.det(field, a)
        if a:
            assert linalg.null_space(field, a) == slow_null_vectors(field, a)
        seen.add((shape, kind, field.p))
        seen.add(("rank-deficient", len(want_pivots) < min(rows, cols)))
    # every shape, kind and field came up, and both det outcomes
    for shape in shapes:
        for kind in kinds:
            for field in FUZZ_FIELDS:
                assert (shape, kind, field.p) in seen
    assert {("det", True), ("det", False), ("rank-deficient", True), ("rank-deficient", False)} <= seen


# --- the packed rows at real sizes and worst-case carries -------------------------

BIG_FIELDS = [Field(p) for p in (2, 65537, 2**31 - 1, 2**61 - 1)]


def draw_stressor(field, n=64):
    """A :func:`~dmuss.planner.choose_zeta` draw at its largest fields,
    packed and as a list matrix: rows zeta * C + D' with zeta = p - 1, C
    the lower triangle (diagonal included) and D' the strict upper
    triangle, all entries p - 1.  Its packed fields start unreduced at
    (p - 1)**2 below and on the diagonal, and every row below a pivot
    takes an update from each pivot above it."""
    p = field.p
    top = p - 1
    c = [[top if j <= i else 0 for j in range(n)] for i in range(n)]
    d = [[top if j > i else 0 for j in range(n)] for i in range(n)]
    ints = [top * cv + dv for cv, dv in zip(linalg.pack(field, c).ints, linalg.pack(field, d).ints)]
    rows = [[(top * cv + dv) % p for cv, dv in zip(cr, dr)] for cr, dr in zip(c, d)]
    return linalg.Packed(p, n, ints), rows


def carry_stressors(rng, field):
    """Matrices up to 64 x 128 that push the packed fields hardest: every
    entry p - 1, unit-triangular matrices with p - 1 off the diagonal
    (every row takes an update from every pivot above it, forward or
    back), their product L @ U with 1 below the diagonal of L (each
    forward update is (p - 1) times a pivot row of p - 1 entries, the
    largest a field can take), and stacks of a few random rows (many rows
    reduce to zero after taking one update per pivot).  L @ U has 63 rows:
    bits(63) = 6 leaves the packing no slack for its near-63 * p**2 sums.
    The square upper unit-triangular matrix and the square L @ U give
    back-substitution its largest sums: a row's entries above the
    diagonal are all p - 1, against solution entries up to p - 1.  The
    packed zeta draw (:func:`draw_stressor`) starts its fields unreduced."""
    p = field.p
    top = p - 1
    lower = [[1 if i == j else top if j < i else 0 for j in range(64)] for i in range(64)]
    upper = [[1 if i == j else top if j > i else 0 for j in range(96)] for i in range(64)]
    ones_below = [[1 if j <= i else 0 for j in range(63)] for i in range(63)]
    yield "dense", random_matrix(rng, p, 64, 128)
    yield "all p-1", [[top] * 128 for _ in range(64)]
    yield "all p-1 square", [[top] * 64 for _ in range(64)]
    yield "lower unit-triangular", lower
    yield "upper unit-triangular", upper
    yield "upper unit-triangular square", [row[:64] for row in upper]
    yield "L @ U", mat_mul(field, ones_below, upper[:63])
    yield "L @ U square", mat_mul(field, ones_below, [row[:63] for row in upper[:63]])
    block = random_matrix(rng, p, 5, 96)
    yield "rank-deficient stack", [block[i % 5][:] for i in range(64)]
    yield "tall low-rank", mat_mul(field, random_matrix(rng, p, 64, 9), random_matrix(rng, p, 9, 40))
    yield "zeta C + D' draw", draw_stressor(field)[0]


def test_packed_elimination_at_real_sizes_matches_slow_references():
    rng = random.Random(67)
    for field in BIG_FIELDS:
        for kind, m in carry_stressors(rng, field):
            a = as_rows(m)  # the draw is packed: its reduced rows
            want = slow_rref(field, a)
            assert linalg.rref(field, m) == want, (field.p, kind)
            assert linalg.rank(field, m) == len(want[1]), (field.p, kind)
            assert linalg.null_space(field, m) == slow_null_vectors(field, a, want), (field.p, kind)
            if len(a) == len(a[0]):
                assert linalg.det(field, m) == slow_det(field, a), (field.p, kind)
                ident = linalg.identity(len(a))
                got = solve_outcome(linalg.solve, field, m, ident)
                assert got == solve_outcome(slow_solve, field, a, ident), (field.p, kind)
                for width in (1, 3, len(a)):  # back-substitution's sums, at their largest entries
                    b = [[field.p - 1] * width for _ in a]
                    got = solve_outcome(linalg.solve, field, m, b)
                    assert got == solve_outcome(slow_solve, field, a, b), (field.p, kind, width)
            elif len(a) < len(a[0]):  # the square left part, solved for the next column
                n = len(a)
                sq, rhs = [row[:n] for row in a], [row[n] for row in a]
                got = solve_outcome(linalg.solve, field, sq, rhs)
                assert got == solve_outcome(slow_solve, field, sq, rhs), (field.p, kind)


@pytest.mark.parametrize("p", [3, 65537, 2**31 - 1, 2**61 - 1])
def test_unreduced_draw_rows_match_slow_det(p):
    # choose_zeta's draw rows zeta * C + D' are packed unreduced, below
    # p**2: the packed det reads them as the reduced list matrix, at the
    # largest fields and on random draws with disjoint C and D' supports
    field = Field(p)
    packed, rows = draw_stressor(field)
    assert packed.rows == rows
    assert linalg.det(field, packed) == slow_det(field, rows)
    rng = random.Random(69)
    for _ in range(20):
        n = rng.randint(1, 12)
        zeta = [rng.randrange(1, p) for _ in range(n)]
        mask = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
        c = [[rng.randrange(p) if m else 0 for m in row] for row in mask]
        d = [[0 if m else rng.randrange(p) for m in row] for row in mask]
        ints = [z * cv + dv for z, cv, dv in zip(zeta, linalg.pack(field, c).ints, linalg.pack(field, d).ints)]
        rows = [[(z * cv + dv) % p for cv, dv in zip(cr, dr)] for z, cr, dr in zip(zeta, c, d)]
        assert linalg.det(field, linalg.Packed(p, n, ints)) == slow_det(field, rows), (p, n)


# --- the windowed kernel at its bounds ------------------------------------------

KERNEL_FIELDS = [Field(p) for p in (2, 3, 5, 65537, 2**31 - 1, 2**61 - 1)]


def unreduced(field, a):
    """``a`` as a :class:`~dmuss.linalg.Packed` whose fields start as high
    as a draw row's can: each entry e at the largest value congruent to e
    that is at most (p - 1)**2 + p - 1, the maximum of zeta * C + D'
    (an entry 0 sits exactly there)."""
    p = field.p
    top = (p - 1) ** 2 + p - 1
    w = linalg._width(p, len(a))
    ints = [sum((e + (top - e) // p * p) << c * w for c, e in enumerate(row)) for row in a]
    return linalg.Packed(p, len(a[0]) if a else 0, ints)


def test_reducer_reduces_every_field_at_its_bounds():
    # the packed Barrett reduction against % p, field by field, on values
    # at 2**(W - 1) - 1 (its largest input) and at k*p - 1, k*p and
    # k*p + 1 for k = 1, the largest k that fits and random k, in even
    # and odd field positions and for even and odd field counts
    rng = random.Random(75)
    for field in KERNEL_FIELDS:
        p = field.p
        for rows in (1, 2, 7, 63, 64, 1000):
            w = linalg._width(p, rows)
            cap = (1 << w - 1) - 1
            ks = [1, (cap - 1) // p] + [rng.randint(1, (cap - 1) // p) for _ in range(4)]
            values = [cap, 0, p - 1] + [k * p + d for k in ks for d in (-1, 0, 1)]
            for _ in range(3):
                for count in (len(values), len(values) + 1):
                    fields = values + [rng.choice(values)] * (count - len(values))
                    rng.shuffle(fields)
                    reduce = linalg._reducer(p, w, count)
                    got = linalg._fields(reduce(sum(v << c * w for c, v in enumerate(fields))), w, count)
                    assert got == [v % p for v in fields], (p, rows, fields)
        reduce = linalg._reducer(p, linalg._width(p, 3), 0)
        assert reduce(0) == 0


def kernel_matrices(rng, field):
    """Square, tall and wide matrices from 0 x 0 and 1 x 1 up to 12 rows,
    full-rank and rank-deficient, random and with every entry p - 1."""
    p = field.p
    shapes = [(0, 0), (1, 1), (1, 3), (3, 1), (2, 2)]
    shapes += [(n, n) for n in (5, 12)] + [(4, 9), (9, 4), (12, 7), (7, 12)]
    for rows, cols in shapes:
        for kind in ("dense", "low-rank", "repeated", "sparse"):
            yield kind, fuzz_matrix(rng, field, rows, cols, kind)
        if rows and cols:
            yield "all p-1", [[p - 1] * cols for _ in range(rows)]
    yield "1 x 0", [[]]
    yield "1 x 1 zero", [[0]]


def test_windowed_kernel_matches_slow_references_fuzz():
    # det, rank, rref, null bases and solutions of the windowed kernel
    # against the slow references, on list matrices and on the same
    # matrices packed with unreduced fields at the draw rows' maximum,
    # with vector and block right-hand sides
    rng = random.Random(77)
    seen = set()
    for field in KERNEL_FIELDS:
        p = field.p
        for _ in range(3):
            for kind, a in kernel_matrices(rng, field):
                rows, cols = len(a), len(a[0]) if a else 0
                want = slow_rref(field, a)
                high = unreduced(field, a)
                assert high.rows == a, (p, kind)
                for m in (a, high):
                    assert linalg.rref(field, m) == want, (p, kind, rows, cols)
                    assert linalg.rank(field, m) == len(want[1]), (p, kind)
                    if rows == cols:
                        assert linalg.det(field, m) == slow_det(field, a), (p, kind)
                    if a and cols:
                        assert linalg.null_space(field, m) == slow_null_vectors(field, a, want), (p, kind)
                    for b in (
                        [rng.randrange(p) for _ in range(rows)],
                        [p - 1] * rows,
                        random_matrix(rng, p, rows, 1),
                        random_matrix(rng, p, rows, 3),
                        [[p - 1] * max(rows, 1) for _ in range(rows)],
                    ):
                        got = solve_outcome(linalg.solve, field, m, b)
                        assert got == solve_outcome(slow_solve, field, a, b), (p, kind, rows, cols, b)
                        seen.add((p, "solved" if not isinstance(got, type) else got))
                seen.add((p, kind, len(want[1]) < min(rows, cols)))
    for field in KERNEL_FIELDS:
        assert (field.p, "solved") in seen and (field.p, SingularMatrixError) in seen
        assert (field.p, ShapeMismatchError) in seen
        assert (field.p, "low-rank", True) in seen and (field.p, "dense", False) in seen


def test_active_list_elimination_matches_swap_reference_fuzz():
    # the active-list loop against the swap-based loop it replaced: the
    # same pivot columns, and the same signed pivot product mod p where
    # that is the determinant (square, a pivot in every column; elsewhere
    # the two loops may pick different pivot rows), on list matrices and
    # on their unreduced packings, whose zero entries sit at p * (p - 1),
    # a nonzero multiple of p that must never be a pivot; each pivot row
    # comes back reduced, its pivot field inverted
    rng = random.Random(79)
    skipped, full = set(), set()
    for field in KERNEL_FIELDS:
        p = field.p
        for _ in range(3):
            for kind, a in kernel_matrices(rng, field):
                _, want_pivots, _, want_d = slow_echelon(field, a)
                mask = (1 << linalg._width(p, len(a))) - 1
                for m in (linalg.pack(field, a), unreduced(field, a)):
                    tops, pivots, inverses, d = linalg._echelon(field, m)
                    assert pivots == want_pivots, (p, kind)
                    if len(a) == len(pivots) == (len(a[0]) if a else 0):
                        assert d % p == want_d % p, (p, kind)
                        full.add(p)
                    for top, inv in zip(tops, inverses):
                        assert top & mask < p and (top & mask) * inv % p == 1, (p, kind)
                if want_pivots[:1] == [0] and a[0][0] == 0:
                    skipped.add(p)  # row 0's unreduced field p * (p - 1) was passed over
    assert skipped == full == {field.p for field in KERNEL_FIELDS}


@pytest.mark.parametrize("p", [2, 3, 65537])
def test_det_of_every_permutation_matrix_is_its_sign(p):
    # row i holds its 1 in column perm[i]: column c's pivot row r is
    # popped from behind the rows i < r with perm[i] > c, one swap per
    # inversion it closes, so every pop position up to 4 comes up
    field = Field(p)
    for n in range(6):
        for perm in itertools.permutations(range(n)):
            a = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            sign = (-1) ** inversions % p
            assert linalg.det(field, a) == sign, (p, perm)
            assert linalg.det(field, unreduced(field, a)) == sign, (p, perm)
