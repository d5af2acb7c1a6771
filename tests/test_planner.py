"""Planning: permutation choice, row scalings, full plan assembly."""

import dataclasses
import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    basis_rows,
    compress_nodes,
    load_bench_gen,
    random_access,
    random_rates_in_region,
    slow_choose_permutation,
    slow_decode_rows,
    slow_det,
    slow_plan_from_parameters,
    slow_tail_basis,
    spy,
    system_matrix,
)
from dmuss import access as planner_access
from dmuss import linalg, planner
from dmuss.access import AccessStructure, validate_quotas
from dmuss.codec import decode, encode, transfer_map
from dmuss.errors import (
    BadShapeError,
    BadSymbolError,
    DmussError,
    FieldTooSmallError,
    NotInRegionError,
    PlanningFailedError,
    SingularMatrixError,
)
from dmuss.files import plan_from_dict, plan_to_dict
from dmuss.gf import Field
from dmuss.planner import (
    choose_permutation,
    choose_zeta,
    make_plan,
    plan_decomposition,
    plan_from_parameters,
)
from dmuss.sdr import SdrAssignment, validate_sdr
from dmuss.verify import check_correctness, check_entropy, check_privacy

F11 = Field(11, gamma=8)
REF_SETS = [[1, 6, 7, 8], [1, 3, 4, 7], [1, 2, 3, 8], [2, 4, 5, 6, 7]]


def ref_access():
    return AccessStructure.of(REF_SETS)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call appends to the returned list."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def random_nonsingular(rng, field, n):
    while True:
        m = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        if linalg.det(field, m) != 0:
            return m


def split_matrices(plan):
    """(C, D_alpha, zeta): the correctness matrix's reserved rows at
    scale 1, the other rows at their alphas, and per node the scaling of
    the user that reserved it; C and D_alpha are the ``plan_decomposition``
    of the plan with the other scalings, or the reserved ones, set to 0."""
    blocks = [plan.reserved.block(k) for k in range(1, plan.K + 1)]

    def v(scaling):  # scaling(reserved, alpha) replaces each alpha
        alphas = tuple(
            {n: scaling(n in block, a) for n, a in scales.items()} for block, scales in zip(blocks, plan.alphas)
        )
        return plan_decomposition(dataclasses.replace(plan, alphas=alphas))

    c = v(lambda reserved, a: int(reserved))
    d = v(lambda reserved, a: 0 if reserved else a)
    owner = {n: k for k, block in enumerate(blocks, start=1) for n in block}
    zeta = [plan.alphas[owner[n] - 1][n] for n in range(1, plan.N + 1)]
    return c, d, zeta


# SHA-256 of the reprs of plan_decomposition(plan), in order, for the 44
# seeded plans of test_correctness_matrix_is_pinned_on_the_benchmark_plans
V_DIGEST = "82f0beb4512faec79da39a4b5d80dd8077b703c20d02b18601fb527f7db1d3b6"


def test_correctness_matrix_is_pinned_on_the_benchmark_plans(monkeypatch):
    # V byte for byte on the benchmark's integer-rate plans: the in-region
    # ladder rungs of seeds 1-8 and the store and retrieve inputs of seeds
    # 1-2; the slow references read V, so they cannot pin it themselves
    gen = load_bench_gen(monkeypatch)
    cases = [
        (inst.p, inst.access, inst.rates, inst.seed)
        for seed in range(1, 9)
        for inst in gen.provision_ladder(seed, draws=1)
        if inst.kind == "in"
    ]
    for seed in (1, 2):
        cases += [(inp.p, inp.access, inp.rates, seed) for inp in (gen.store_input(seed), gen.retrieve_input(seed))]
    digest = hashlib.sha256()
    for p, sets, rates, seed in cases:
        plan = make_plan(Field(p), AccessStructure.of(sets), rates, seed=seed)
        digest.update(repr(plan_decomposition(plan)).encode())
    assert len(cases) == 44
    assert digest.hexdigest() == V_DIGEST


def test_plan_load_eliminates_once(monkeypatch):
    # loading a plan runs one elimination, the det check of its decode
    # rows; no null basis is derived
    rng = random.Random(12)
    f = Field(65537)
    sets = compress_nodes([frozenset(n for n in range(1, 33) if rng.random() < 0.5) for _ in range(8)])
    acc = AccessStructure.of([sorted(s) for s in sets])
    plan = make_plan(f, acc, random_rates_in_region(rng, acc, stop_prob=0), seed=3)
    doc = plan_to_dict(plan)
    calls = count_calls(monkeypatch, linalg, "_echelon")
    loaded = plan_from_dict(doc)
    assert len(calls) == 1
    assert loaded == plan and basis_rows(loaded) == basis_rows(plan)


def test_lagrange_rows_are_the_low_inverse_vandermonde_rows():
    # the closed form (q-binomial omega, product-formula slopes) against
    # the inverse of the natural-order Vandermonde, for every shape up to
    # 20 points, p - 1 points included (omega = x^(p-1) - 1 there)
    fields = [Field(p) for p in (2, 3, 5, 7, 11, 13, 17, 65537, 2**31 - 1)]
    fields += [Field(5, gamma=3), Field(11, gamma=7), Field(13, gamma=11), Field(65537, gamma=5)]
    for f in fields:
        for size in range(min(f.p - 1, 20) + 1):
            vander = [[pow(f.gamma, e * d, f.p) for d in range(size)] for e in range(1, size + 1)]
            inv = linalg.inverse(f, vander)
            for count in range(size + 1):
                assert planner._lagrange_rows(f, size, count) == inv[:count], (f, size, count)
    for count, size, error in [(-1, 3, BadShapeError), (4, 3, BadShapeError), (0, 5, FieldTooSmallError)]:
        with pytest.raises(error):
            planner._lagrange_rows(Field(5), size, count)


# --- permutation choice ------------------------------------------------------------


def test_choose_permutation_published_five_node_case():
    # the known worked instance: reserved block {5, 6, 7} inside
    # {2, 4, 5, 6, 7}; the first three basis rows are independent and land
    # on positions 3..5, the rest keep ascending order
    published = [[1, 5, 2, 6, 1], [1, 6, 3, 4, 4], [1, 1, 1, 10, 7]]
    nodes, zblock = [2, 4, 5, 6, 7], [5, 6, 7]
    assert choose_permutation(nodes, zblock) == (4, 5, 1, 2, 3)
    assert slow_choose_permutation(F11, published, nodes, zblock) == (4, 5, 1, 2, 3)


def test_choose_permutation_single_column_case():
    pi = choose_permutation([1, 6, 7, 8], [8])
    assert pi[3] == 1  # the independent row goes to the reserved node's slot
    assert pi == (2, 3, 4, 1)
    assert slow_choose_permutation(F11, [[1, 8, 4, 7]], [1, 6, 7, 8], [8]) == pi


def test_choose_permutation_identity_for_zero_block():
    assert choose_permutation([1, 2, 3], []) == (1, 2, 3)


def test_choose_permutation_matches_greedy_rank_extension_fuzz():
    # any R'_k rows of a tail basis are independent (its dual code is
    # MDS), so routing exponents 1..R'_k to the reserved positions picks
    # the rows the greedy top-down rank extension picks; every shape up
    # to 24 points, a random reserved block each
    rng = random.Random(35)
    fields = [Field(p) for p in (2, 3, 5, 7, 11, 13, 17, 257, 65537, 2**31 - 1)]
    fields += [Field(11, gamma=7), Field(13, gamma=11), Field(65537, gamma=5)]
    for f in fields:
        for size in range(min(f.p - 1, 24) + 1):
            for quota in range(size + 1):
                nodes = sorted(rng.sample(range(1, 3 * size + 1), size))
                zblock = rng.sample(nodes, quota)
                want = slow_choose_permutation(f, slow_tail_basis(f, quota, size), nodes, zblock)
                assert choose_permutation(nodes, zblock) == want, (f, quota, size)


def test_choose_permutation_reserved_rows_are_invertible():
    rng = random.Random(31)
    for _ in range(40):
        acc = random_access(rng, max_users=4, max_nodes=8)
        rates = random_rates_in_region(rng, acc)
        plan = make_plan(Field(11), acc, rates, seed=rng.randrange(1000))
        for k in range(1, acc.K + 1):
            quota = plan.quotas[k - 1]
            if quota == 0:
                continue
            picked = [
                row
                for n, row in zip(acc.sorted_set(k), basis_rows(plan)[k - 1])
                if n in plan.reserved.block(k)
            ]
            assert linalg.rank(plan.field, picked) == quota


# --- scaling search ------------------------------------------------------------------


def test_choose_zeta_first_draw_accepted_for_identity():
    # with c = I, d = 0 every draw works, so the result must equal the
    # seeded generator's very first draw
    n, seed = 4, 123
    c, d = linalg.identity(n), linalg.zeros(n, n)
    zeta = choose_zeta(F11, c, d, seed=seed)
    rng = random.Random(seed)
    assert zeta == [rng.randrange(1, 11) for _ in range(n)]


def test_choose_zeta_satisfies_goal_fuzz():
    rng = random.Random(32)
    for _ in range(30):
        p = rng.choice([3, 11, 13])
        f = Field(p)
        n = rng.randint(1, 6)
        c = random_nonsingular(rng, f, n)
        d = [
            [0 if c[i][j] else rng.randrange(p) for j in range(n)]
            for i in range(n)
        ]
        zeta = choose_zeta(f, c, d, seed=rng.randrange(10**6))
        assert all(z != 0 for z in zeta)
        m = [
            [(z * cv + dv) % p for cv, dv in zip(crow, drow)]
            for z, crow, drow in zip(zeta, c, d)
        ]
        assert linalg.det(f, m) != 0


def test_choose_zeta_deterministic_sweep(monkeypatch):
    # force the sweep by removing the random budget
    monkeypatch.setattr(planner, "RANDOM_TRIALS_PER_ROW", 0)
    rng = random.Random(33)
    for _ in range(15):
        f = Field(13)
        n = rng.randint(1, 6)
        c = random_nonsingular(rng, f, n)
        d = [[0 if c[i][j] else rng.randrange(13) for j in range(n)] for i in range(n)]
        zeta = choose_zeta(f, c, d, seed=0)
        m = [
            [(z * cv + dv) % 13 for cv, dv in zip(crow, drow)]
            for z, crow, drow in zip(zeta, c, d)
        ]
        assert linalg.det(f, m) != 0
        assert all(z != 0 for z in zeta)


def test_choose_zeta_gf2_dead_end():
    f2 = Field(2)
    with pytest.raises(PlanningFailedError):
        choose_zeta(f2, [[1]], [[1]], seed=0)


def test_choose_zeta_empty():
    assert choose_zeta(F11, [], [], seed=0) == []


# --- full planning --------------------------------------------------------------------


def test_make_plan_reference_instance_invariants():
    acc = ref_access()
    plan = make_plan(F11, acc, (1, 2, 2, 3), seed=5)
    assert plan.quotas == (1, 2, 2, 3)
    assert validate_quotas(acc, plan.rates, plan.quotas)
    assert validate_sdr(acc, plan.quotas, plan.reserved)
    for k in range(1, 5):
        size = len(acc.user_set(k))
        assert sorted(plan.perms[k - 1]) == list(range(1, size + 1))
        gammas = [pow(F11.gamma, e, F11.p) for e in plan.perms[k - 1]]
        assert len(set(gammas)) == size and 0 not in gammas
        assert all(plan.alphas[k - 1][n] != 0 for n in acc.sorted_set(k))
    assert linalg.det(F11, split_matrices(plan)[0]) != 0
    assert linalg.det(F11, plan_decomposition(plan)) != 0
    a = system_matrix(plan)
    assert linalg.rank(F11, a) == len(a) == 17


def test_decomposition_structure():
    plan = make_plan(F11, ref_access(), (1, 2, 2, 3), seed=5)
    v = plan_decomposition(plan)
    c, d, zeta = split_matrices(plan)
    n = plan.N
    p = plan.field.p
    assert linalg.det(F11, c) != 0
    for i in range(n):
        for j in range(n):
            # split supports never overlap
            assert not (c[i][j] != 0 and d[i][j] != 0)
            assert v[i][j] == (zeta[i] * c[i][j] + d[i][j]) % p
    assert all(z != 0 for z in zeta)


def test_plan_derives_its_basis_rows_once(monkeypatch):
    # planning, loading, encoding, the transfer map and the correctness
    # check eliminate no tail matrix; the correctness matrix V takes one
    # null space per user on every call, and nothing keeps them
    calls = count_calls(monkeypatch, linalg, "null_space")
    acc = ref_access()
    msgs = [[1], [2, 6], [4, 0], [3, 5, 7]]
    plan = make_plan(F11, acc, (1, 2, 2, 3), seed=5)
    loaded = plan_from_dict(plan_to_dict(plan))
    for seed in range(3):
        encode(plan, msgs, seed=seed)
    transfer_map(loaded)
    check_correctness(loaded, trials=2)
    assert calls == []
    plan_decomposition(plan)
    assert len(calls) == acc.K
    plan_decomposition(plan)
    assert len(calls) == 2 * acc.K


def test_plan_builds_its_correctness_transpose_once(monkeypatch):
    # V^T is carried as H^-1 V^T, the decode rows: planning never builds
    # them, V^T itself is never built (no tail null basis is taken), and
    # the load's det check, every encode, the transfer map and verify
    # share one per plan
    calls = spy(monkeypatch, planner.Plan.__dict__["decode_rows"], "func", id)
    v_builds = count_calls(monkeypatch, planner, "_null_basis")
    msgs = [[1], [2, 6], [4, 0], [3, 5, 7]]
    plan = make_plan(F11, ref_access(), (1, 2, 2, 3), seed=5)
    assert calls == []
    loaded = plan_from_dict(plan_to_dict(plan))
    assert calls == [id(loaded)]
    for p in (loaded, plan):
        for seed in range(3):
            encode(p, msgs, seed=seed)
        transfer_map(p)
        check_correctness(p, trials=2)
        check_privacy(p)
        check_entropy(p)
    assert calls == [id(loaded), id(plan)]
    assert v_builds == []
    assert plan.decode_rows == loaded.decode_rows == slow_decode_rows(plan)


def test_plan_packs_its_decode_rows_once(monkeypatch):
    # the decode rows are written packed on first use and kept: the
    # load's det, every encode, the transfer map and check_privacy read
    # those ints, and nothing packs a list of them
    # (test_basis_rows_stay_off_the_plan_value keeps them off the plan's
    # value)
    plan = make_plan(Field(65537), ref_access(), (1, 2, 2, 3), seed=5)
    packs = spy(monkeypatch, linalg, "pack", lambda f, a: len(a))
    loaded = plan_from_dict(plan_to_dict(plan))
    ints = loaded.decode_rows.ints
    msgs = [[1], [2, 6], [4, 0], [3, 5, 7]]
    for seed in range(3):
        encode(loaded, msgs, seed=seed)
    transfer_map(loaded)
    check_privacy(loaded)
    check_entropy(loaded)
    assert packs == [] and loaded.decode_rows.ints is ints
    assert isinstance(loaded.decode_rows, linalg.Packed) and loaded.decode_rows == slow_decode_rows(plan)


def test_plan_builds_its_input_blocks_once(monkeypatch):
    # each user's block of the decode rows reads the Lagrange table of its
    # set size, built to the largest R'_k among the users of that size:
    # make_plan's zeta split builds one per distinct size, each plan's
    # decode rows one more, and the encodes, the transfer map and verify
    # build none
    calls = spy(monkeypatch, planner, "_lagrange_rows", lambda f, size, count: (size, count))
    msgs = [[1], [2, 6], [4, 0], [3, 5, 7]]
    acc = ref_access()
    plan = make_plan(F11, acc, (1, 2, 2, 3), seed=5)
    top = {}
    for s, q in zip(acc.sets, plan.quotas):
        top[len(s)] = max(top.get(len(s), 0), q)
    tables = sorted(top.items())
    assert len(tables) < len({(len(s), q) for s, q in zip(acc.sets, plan.quotas)})  # users of one size differ in R'_k
    assert sorted(calls) == tables
    calls.clear()
    loaded = plan_from_dict(plan_to_dict(plan))
    assert sorted(calls) == tables
    for p in (loaded, plan):
        for seed in range(3):
            encode(p, msgs, seed=seed)
        transfer_map(p)
        check_correctness(p, trials=2)
        check_privacy(p)
        check_entropy(p)
    assert sorted(calls) == sorted(tables * 2)


def seeded_draws(field, c, d, seed):
    """How many of choose_zeta's seeded draws it takes until
    diag(zeta) @ c + d is nonsingular, by :func:`slow_det` on lists."""
    p, n = field.p, len(c)
    rng = random.Random(seed)
    for draw in range(1, planner.RANDOM_TRIALS_PER_ROW * n + 1):
        zeta = [rng.randrange(1, p) for _ in range(n)]
        if slow_det(field, [[(z * cv + dv) % p for cv, dv in zip(cr, dr)] for z, cr, dr in zip(zeta, c, d)]):
            return draw
    raise AssertionError("no draw was nonsingular")


@pytest.mark.parametrize("budget", ["random", "sweep"])
def test_make_plan_draws_on_packed_rows(monkeypatch, budget):
    # make_plan writes its zeta split packed: no pack of a list matrix,
    # and each random draw is exactly one det inside
    # choose_zeta, as many as the seeded draws until V's split is
    # nonsingular; the sweep takes det C and one det per coordinate.
    # choose_zeta given lists packs each once, then draws the same way
    if budget == "sweep":
        monkeypatch.setattr(planner, "RANDOM_TRIALS_PER_ROW", 0)
    packs = count_calls(monkeypatch, linalg, "pack")
    dets = spy(monkeypatch, linalg, "det", lambda f, a: isinstance(a, linalg.Packed))
    eliminations = count_calls(monkeypatch, linalg, "_echelon")
    rng = random.Random(38)
    for _ in range(30):
        f = Field(rng.choice([3, 5, 7, 65537]))
        acc = random_access(rng, max_users=5, max_nodes=8, max_set_size=f.p - 1)
        rates, seed = random_rates_in_region(rng, acc), rng.randrange(1000)
        for calls in (packs, dets, eliminations):
            calls.clear()
        plan = make_plan(f, acc, rates, seed=seed)
        assert packs == []
        assert dets == [True] * len(dets) and len(eliminations) == len(dets)
        if budget == "sweep":
            assert len(dets) == plan.N + 1
            continue
        c, d, _ = split_matrices(plan)  # alpha = 1 off the reserved nodes
        assert len(dets) == seeded_draws(f, c, d, seed), (f, acc, rates, seed)
    redraws = 0
    f = Field(3)
    for _ in range(40):  # over GF(3) a draw is often singular
        n = rng.randint(2, 6)
        c = random_nonsingular(rng, f, n)
        d = [[0 if c[i][j] else rng.randrange(3) for j in range(n)] for i in range(n)]
        seed = rng.randrange(1000)
        for calls in (packs, dets):
            calls.clear()
        choose_zeta(f, c, d, seed=seed)
        assert len(packs) == 2 and dets == [True] * len(dets)
        if budget == "sweep":
            assert len(dets) == n + 1
            continue
        assert len(dets) == seeded_draws(f, c, d, seed)
        redraws += len(dets) > 1
    assert budget == "sweep" or redraws >= 10


def test_basis_rows_stay_off_the_plan_value():
    plan = make_plan(F11, ref_access(), (1, 2, 2, 3), seed=5)
    fresh = dataclasses.replace(plan)
    doc, text = plan_to_dict(fresh), repr(fresh)
    for _ in range(2):  # before, then after, the packed decode rows are derived
        assert plan == fresh and fresh == plan
        assert plan_to_dict(plan) == doc and repr(plan) == text
        assert plan.decode_rows == fresh.decode_rows
    assert isinstance(plan.decode_rows, linalg.Packed)
    assert plan_from_dict(doc) == plan
    # the plan keeps its decode rows and their determinant beside its
    # fields, and nothing else
    res = encode(plan, [[1], [2, 6], [4, 0], [3, 5, 7]], seed=1)
    decode(plan, 4, res.shares)
    check_correctness(plan, trials=2)
    check_privacy(plan)
    kept = set(vars(plan)) - {f.name for f in dataclasses.fields(plan)}
    assert kept == {"decode_rows", "_decode_det"}


@pytest.mark.parametrize("budget", ["random", "sweep"])
def test_zeta_from_decode_row_split_equals_zeta_from_v_split(monkeypatch, budget):
    # the decode-row split is V's split times H^-T, so every determinant
    # choose_zeta takes scales by one zeta-free factor: both splits give
    # the same zeta, in the random phase and, with no draws, in the sweep
    if budget == "sweep":
        monkeypatch.setattr(planner, "RANDOM_TRIALS_PER_ROW", 0)
    rng = random.Random(37)
    cases = []
    for _ in range(60):
        f = Field(rng.choice([3, 5, 7, 11, 13, 65537]))
        acc = random_access(rng, max_users=5, max_nodes=9, max_set_size=f.p - 1)
        cases.append((f, acc, random_rates_in_region(rng, acc), rng.randrange(1000)))
    gen = load_bench_gen(monkeypatch)
    for seed in (1, 2):
        for inp in (gen.store_input(seed), gen.retrieve_input(seed)):
            cases.append((Field(inp.p), AccessStructure.of(inp.access), inp.rates, seed))
    for f, acc, rates, seed in cases:
        plan = make_plan(f, acc, rates, seed=seed)
        c, d, zeta = split_matrices(plan)  # alpha = 1 off the reserved nodes
        assert choose_zeta(f, c, d, seed) == zeta, (f, acc, rates, seed)


def test_make_plan_eliminates_only_for_zeta(monkeypatch):
    # permutations take no elimination and planning derives no null basis:
    # every one make_plan runs is a determinant of choose_zeta's, and the benchmark's store
    # and retrieve plans take one (the first draw)
    eliminations = count_calls(monkeypatch, linalg, "_echelon")
    dets = count_calls(monkeypatch, linalg, "det")
    rng = random.Random(36)
    for _ in range(30):
        acc = random_access(rng, max_users=5, max_nodes=9)
        rates = random_rates_in_region(rng, acc)
        eliminations.clear()
        dets.clear()
        make_plan(Field(rng.choice([11, 13, 65537])), acc, rates, seed=rng.randrange(1000))
        assert len(eliminations) == len(dets)
    gen = load_bench_gen(monkeypatch)
    for seed in (1, 2):
        for inp in (gen.store_input(seed), gen.retrieve_input(seed)):
            eliminations.clear()
            make_plan(Field(inp.p), AccessStructure.of(inp.access), inp.rates, seed=seed)
            assert len(eliminations) == 1


def test_make_plan_round_trips_fuzz():
    rng = random.Random(34)
    from dmuss.codec import decode, encode

    for _ in range(25):
        acc = random_access(rng, max_users=4, max_nodes=8)
        rates = random_rates_in_region(rng, acc)
        plan = make_plan(Field(13), acc, rates, seed=rng.randrange(10**6))
        msgs = [[rng.randrange(13) for _ in range(r)] for r in rates]
        res = encode(plan, msgs, seed=rng.randrange(10**6))
        for k in range(1, acc.K + 1):
            assert decode(plan, k, res.shares).message == msgs[k - 1]


def test_make_plan_errors():
    acc = ref_access()
    with pytest.raises(NotInRegionError):
        make_plan(F11, acc, (3, 0, 0, 0))
    with pytest.raises(NotInRegionError):
        make_plan(F11, acc, (2, 2, 2, 3))
    for rates in ((1, 2, 2), None, "1223"):  # None raised a bare TypeError from len
        with pytest.raises(ValueError):
            make_plan(F11, acc, rates)
    with pytest.raises(FieldTooSmallError):
        make_plan(Field(5), AccessStructure.of([[1, 2, 3, 4, 5]]), (1,))


def test_make_plan_deterministic():
    acc = ref_access()
    assert make_plan(F11, acc, (1, 2, 2, 3), seed=9) == make_plan(F11, acc, (1, 2, 2, 3), seed=9)


def test_make_plan_pinned_constants():
    # frozen planner output: permutations routed by index, zeta
    # from the seeded draws against the reserved/rest split; the second
    # instance pads users 1 and 3
    cases = [
        (
            F11, REF_SETS, (1, 2, 2, 3), 5,
            (1, 2, 2, 3),
            ((1, 2, 3, 4), (3, 1, 2, 4), (3, 1, 4, 2), (4, 5, 1, 2, 3)),
            [{1: 10, 6: 1, 7: 1, 8: 1}, {1: 1, 3: 6, 4: 9, 7: 1},
             {1: 1, 2: 5, 3: 1, 8: 1}, {2: 1, 4: 1, 5: 1, 6: 8, 7: 4}],
        ),
        (
            Field(13), [[1, 2, 3, 4], [3, 4, 5, 6], [1, 5, 6, 7]], (1, 1, 0), 7,
            (4, 2, 1),
            ((1, 2, 3, 4), (3, 4, 1, 2), (2, 3, 4, 1)),
            [{1: 6, 2: 3, 3: 7, 4: 11}, {3: 1, 4: 1, 5: 1, 6: 2}, {1: 1, 5: 1, 6: 1, 7: 9}],
        ),
    ]
    for field, sets, rates, seed, quotas, perms, alphas in cases:
        plan = make_plan(field, AccessStructure.of(sets), rates, seed=seed)
        assert plan.quotas == quotas
        assert plan.perms == perms
        assert list(plan.alphas) == alphas


def test_plan_from_parameters_rejects_bad_constants():
    acc = ref_access()
    good = make_plan(F11, acc, (1, 2, 2, 3), seed=5)
    with pytest.raises(ValueError):
        plan_from_parameters(
            F11, acc, good.rates, good.quotas, good.reserved,
            perms=[(1, 1, 2, 3)] + [p for p in good.perms[1:]],
            alphas=good.alphas,
        )
    bad_alphas = [dict(a) for a in good.alphas]
    bad_alphas[0][next(iter(bad_alphas[0]))] = 0
    with pytest.raises(ValueError):
        plan_from_parameters(
            F11, acc, good.rates, good.quotas, good.reserved, good.perms, bad_alphas
        )
    for bad in (12, -1, 11, True):
        bad_alphas[0][next(iter(bad_alphas[0]))] = bad
        with pytest.raises(BadSymbolError):
            plan_from_parameters(
                F11, acc, good.rates, good.quotas, good.reserved, good.perms, bad_alphas
            )
    with pytest.raises(NotInRegionError):
        plan_from_parameters(
            F11, acc, (2, 2, 2, 3), (2, 2, 2, 3), good.reserved, good.perms, good.alphas
        )
    with pytest.raises(ValueError):
        plan_from_parameters(
            F11, acc, good.rates, (2, 2, 2, 2), good.reserved, good.perms, good.alphas
        )


def test_plan_from_parameters_needs_one_entry_per_user():
    acc = ref_access()
    good = make_plan(F11, acc, (1, 2, 2, 3), seed=5)
    args = (F11, acc, good.rates, good.quotas, good.reserved)
    for perms, alphas in [
        (good.perms[:-1], good.alphas),
        (good.perms, good.alphas[:-1]),
        (good.perms + good.perms[:1], good.alphas),
        (good.perms, good.alphas + good.alphas[:1]),
    ]:
        with pytest.raises(ValueError, match="permutations and scaling maps"):
            plan_from_parameters(*args, perms, alphas)


def load_outcome(fn, *args):
    try:
        return fn(*args)
    except (DmussError, ValueError) as exc:
        return type(exc), str(exc)


def tampered_parameters(rng, plan):
    """(what, parameters) pairs: the plan's own constants, then copies
    with one field tampered with (a quota moves with its block)."""
    acc, k_count = plan.access, plan.K

    def params(rates=plan.rates, quotas=plan.quotas, blocks=plan.reserved.blocks):
        return plan.field, acc, rates, quotas, SdrAssignment(tuple(blocks)), plan.perms, plan.alphas

    def rates_with(k, value):
        return params(rates=plan.rates[:k] + (value,) + plan.rates[k + 1 :])

    def blocks_with(i, block):
        return plan.reserved.blocks[:i] + (block,) + plan.reserved.blocks[i + 1 :]

    yield "as planned", params()
    k = rng.randrange(k_count)
    if k_count >= 2:
        yield "past pairwise", rates_with(k, planner.pairwise_bound(acc, k + 1) + 1)
    yield "raised to quota", rates_with(k, plan.quotas[k])
    past = list(plan.quotas)  # sums to N + 1: past the grand cutset, or a pairwise bound
    past[k] += 1
    yield "past cutset", params(rates=tuple(past))
    r = plan.rates[k]
    for what, value in [
        ("float", float(r)), ("Fraction", Fraction(r)), ("True", True), ("False", False),
        ("-1", -1), ("str", "1"), ("None", None), ("raised", r + 1),
    ]:
        yield f"rate {what}", rates_with(k, value)
    q = plan.quotas[k]
    for what, value in [("float", float(q)), ("Fraction", Fraction(q)), ("bool", bool(q))]:
        yield f"quota {what}", params(quotas=plan.quotas[:k] + (value,) + plan.quotas[k + 1 :])
    blocks = list(plan.reserved.blocks)
    i, j = rng.sample(range(k_count), 2) if k_count >= 2 else (0, 0)
    if blocks[i]:
        node = min(blocks[i])
        shifted, short, moved = list(plan.quotas), list(plan.quotas), blocks[:]
        shifted[i] -= 1
        shifted[j] += 1
        yield "quota shifted", params(quotas=tuple(shifted))
        if node in acc.sets[j] and i != j:
            moved[i], moved[j] = blocks[i] - {node}, blocks[j] | {node}
            yield "block node moved", params(quotas=tuple(shifted), blocks=moved)
        short[i] -= 1  # the quotas then sum to N - 1
        yield "block node dropped", params(quotas=tuple(short), blocks=blocks_with(i, blocks[i] - {node}))
        outside = sorted(set(range(1, plan.N + 1)) - acc.sets[i])
        if outside:
            yield "node outside A_k", params(blocks=blocks_with(i, blocks[i] - {node} | {rng.choice(outside)}))
        others = [j for j in range(k_count) if j != i and node in acc.sets[j] and blocks[j]]
        if others:
            j = rng.choice(others)
            yield "node listed twice", params(blocks=blocks_with(j, blocks[j] - {min(blocks[j])} | {node}))
    yield "quotas short", params(quotas=plan.quotas[:-1])
    yield "blocks short", params(blocks=blocks[:-1])


def test_certified_load_matches_slow_reference_fuzz():
    # the reserved blocks certify the region: the result is the same plan,
    # or the same exception type and message, as the ordered checks
    rng = random.Random(16)
    seen = Counter()
    for _ in range(150):
        f = Field(rng.choice([3, 5, 7, 11, 13, 65537]))
        acc = random_access(rng, min_users=1, max_users=5, max_nodes=min(f.p - 1, 8))
        plan = make_plan(f, acc, random_rates_in_region(rng, acc), seed=rng.randrange(100))
        for what, params in tampered_parameters(rng, plan):
            got = load_outcome(plan_from_parameters, *params)
            assert got == load_outcome(slow_plan_from_parameters, *params), (what, params)
            if what == "as planned":
                assert got == plan
            if isinstance(got, planner.Plan):
                seen[what, "plan"] += 1
            else:
                bound = got[1].split("(")[-1].split(")")[0] if got[0] is NotInRegionError else None
                seen[what, bound if bound in ("pairwise", "cutset") else got[0].__name__] += 1
    for outcome in [
        ("as planned", "plan"), ("past pairwise", "pairwise"), ("past cutset", "cutset"),
        ("raised to quota", "plan"), ("rate raised", "cutset"), ("rate float", "plan"),
        ("rate Fraction", "plan"), ("rate True", "ValueError"), ("rate -1", "ValueError"),
        ("quota float", "ValueError"), ("quota bool", "ValueError"), ("quota shifted", "plan"),
        ("quota shifted", "ValueError"), ("block node moved", "plan"),
        ("block node dropped", "ValueError"), ("node outside A_k", "ValueError"),
        ("node listed twice", "ValueError"),
    ]:
        assert seen[outcome], (outcome, seen)


def test_certified_load_builds_no_cutset_flow(monkeypatch):
    # a valid plan's blocks prove the region: loading it runs no flow, and
    # a load that fails the certificate falls back to the flows
    plan = make_plan(F11, ref_access(), (1, 2, 2, 3), seed=5)
    doc = plan_to_dict(plan)
    flows = count_calls(monkeypatch, planner_access._CutsetFlow, "__init__")
    assert plan_from_dict(doc) == plan
    assert flows == []
    doc["rates"] = [2, 2, 2, 3]  # within the pairwise bounds, past the grand cutset
    with pytest.raises(NotInRegionError, match="cutset"):
        plan_from_dict(doc)
    assert len(flows) == 1


def test_certificate_falls_back_on_malformed_containers():
    # a container the certificate cannot read is not a verdict: the
    # ordered checks run and raise what they raised before it existed
    acc = ref_access()
    good = make_plan(F11, acc, (1, 2, 2, 3), seed=5)
    rest = (good.perms, good.alphas)
    listed = SdrAssignment(blocks=[[8], [3, 4], [1, 2], [5, 6, 7]])  # lists, not sets
    cases = [
        ((2, 2, 2, 3), None, good.reserved),  # rates past the grand cutset
        ((0, 0, 0, 0), (5, 1, 1, 1), None),  # quota 5 on user 1's 4 nodes
        ((0, 0, 0, 0), (5, 1, 1, 1), listed),
    ]
    for rates, quotas, reserved in cases:
        args = (F11, acc, rates, quotas, reserved, *rest)
        got = load_outcome(plan_from_parameters, *args)
        assert type(got) is tuple and got == load_outcome(slow_plan_from_parameters, *args)


def test_plan_from_parameters_singular_scalings_rejected():
    # twin users over GF(3) at zero rate, split 1+1: both users' basis is
    # [1, 1], so all-ones scalings give [[1, 1], [1, 1]] -- singular
    f3 = Field(3)
    acc = AccessStructure.of([[1, 2], [1, 2]])
    reserved = SdrAssignment(blocks=(frozenset({1}), frozenset({2})))
    alphas = [{1: 1, 2: 1}, {1: 1, 2: 1}]
    with pytest.raises(SingularMatrixError):
        plan_from_parameters(
            f3, acc, (0, 0), (1, 1), reserved, [(1, 2), (1, 2)], alphas
        )
    # the planner itself must get the same instance right
    plan = make_plan(f3, acc, (0, 0), seed=0)
    assert linalg.det(f3, plan_decomposition(plan)) != 0
