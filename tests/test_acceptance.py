"""Top-level acceptance suite.

Seven end-to-end criteria, one test each.  Every criterion reports a
single ``ACCEPTANCE n (name): PASS/FAIL`` line in the terminal summary
(via the conftest hook) in addition to the usual pytest verdict.  The
regression constants are the published worked example over GF(11); the
fuzz criteria pin their seeds so a failure is reproducible.
"""

import functools
import random
import time

import pytest

from conftest import (
    random_access,
    random_rates_in_region,
    record_acceptance,
    slow_check_privacy,
    system_matrix,
)
from dmuss import demo, linalg
from dmuss.access import AccessStructure, augment_quotas, capacity_constraints, in_capacity_region
from dmuss.codec import TransferMap, decode, encode, transfer_map
from dmuss.errors import NoSdrError
from dmuss.gf import Field
from dmuss.planner import make_plan, plan_decomposition
from dmuss.sdr import find_sdr, validate_sdr
from dmuss.verify import brute_force_audit, check_entropy, check_privacy


def criterion(num: int, name: str):
    """Record one PASS/FAIL summary line per acceptance test."""

    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_acceptance(num, name, False)
                raise
            record_acceptance(num, name, True)

        return run

    return deco


def spans_equal(field, vecs_a, vecs_b) -> bool:
    ra = linalg.rank(field, vecs_a)
    rb = linalg.rank(field, vecs_b)
    return ra == rb == linalg.rank(field, vecs_a + vecs_b)


# --- 1: the worked example, bit for bit ------------------------------------------


@criterion(1, "worked-example-regression")
def test_acceptance_1_worked_example():
    start = time.perf_counter()
    plan = demo.demo_plan()
    res = demo.demo_encode(plan)
    assert res.solution == [5, 2, 7, 2, 4, 9, 7, 6, 5, 5, 5, 8, 7, 3, 2, 2, 9]
    assert res.shares == [5, 5, 8, 7, 3, 2, 2, 9]

    recovered = {}
    for k in range(1, 5):
        got = decode(plan, k, res.shares)
        assert got.message == demo.MESSAGES[k - 1]
        recovered[k] = got.message + got.pads
    assert recovered[1] == [1, 5, 2, 7]
    assert recovered[2] == [2, 6, 2, 4]
    assert recovered[3] == [4, 0, 9, 7]
    # retrieval returns coefficients in ascending degree order; the pinned
    # table row for user 4 lists the two middle symbols transposed, so the
    # comparison goes through that fixed index map
    assert recovered[4] == [3, 5, 7, 6, 5]
    assert [recovered[4][i] for i in (0, 2, 1, 3, 4)] == [3, 7, 5, 6, 5]
    assert time.perf_counter() - start < 1.0


# --- 2: null-space regressions ----------------------------------------------------


@criterion(2, "null-space-regression")
def test_acceptance_2_null_spaces():
    start = time.perf_counter()
    f = Field(11, gamma=8)

    b14 = linalg.build_B(f, 1, 4)
    basis = linalg.null_space(f, b14)
    assert spans_equal(f, basis, [[1, 8, 4, 7]])

    b35 = linalg.build_B(f, 3, 5)
    basis = linalg.null_space(f, b35)
    published = [[1, 5, 2, 6, 1], [1, 6, 3, 4, 4], [1, 1, 1, 10, 7]]
    assert len(basis) == 3
    assert spans_equal(f, basis, published)
    assert time.perf_counter() - start < 1.0


# --- 3: capacity-region membership -------------------------------------------------


@criterion(3, "capacity-membership")
def test_acceptance_3_capacity_membership():
    acc = demo.demo_access()
    cons = capacity_constraints(acc)

    pairwise = {c.users: c.bound for c in cons if c.kind == "pairwise"}
    multi = {c.users: c.bound for c in cons if c.kind == "cutset" and len(c.users) >= 2}
    assert pairwise == {(1,): 2, (2,): 2, (3,): 2, (4,): 3}
    assert multi == {
        (1, 2): 6,
        (1, 3): 6,
        (1, 4): 7,
        (2, 3): 6,
        (2, 4): 7,
        (3, 4): 8,
        (1, 2, 3): 7,
        (1, 2, 4): 8,
        (1, 3, 4): 8,
        (2, 3, 4): 8,
        (1, 2, 3, 4): 8,
    }
    assert len(pairwise) + len(multi) == 15

    assert in_capacity_region(acc, (1, 2, 2, 3)).ok
    rejection = in_capacity_region(acc, (2, 2, 2, 3))
    assert not rejection.ok
    assert rejection.violation.kind == "cutset"
    assert rejection.violation.users == (1, 2, 3, 4)
    assert rejection.violation_lhs == 9  # vs the 8 available nodes


# --- 4: planner succeeds across the region -----------------------------------------


@criterion(4, "achievability-suite")
def test_acceptance_4_fuzzed_pipeline():
    start = time.perf_counter()
    rng = random.Random(2024)
    instances = 0
    multi_user = busy_nodes = carrying = 0
    while instances < 200:
        acc = random_access(rng, max_users=5, max_nodes=10)
        rates = random_rates_in_region(rng, acc)
        p = rng.choice([11, 13, 17])
        multi_user += acc.K >= 3
        busy_nodes += acc.N >= 6
        carrying += sum(rates) >= 1
        plan = make_plan(Field(p), acc, rates, seed=rng.randrange(10**6))

        a = system_matrix(plan)
        size = sum(len(acc.user_set(k)) for k in range(1, acc.K + 1))
        assert linalg.rank(plan.field, a) == size
        assert linalg.det(plan.field, plan_decomposition(plan)) != 0
        assert validate_sdr(acc, plan.quotas, plan.reserved)

        msgs = [[rng.randrange(p) for _ in range(r)] for r in rates]
        res = encode(plan, msgs, seed=rng.randrange(10**6))
        for k in range(1, acc.K + 1):
            assert decode(plan, k, res.shares).message == msgs[k - 1]

        # the checks the CLI runs, against ranks of the transfer map
        tm = transfer_map(plan)
        assert check_entropy(plan).full and linalg.rank(plan.field, tm.matrix) == acc.N
        privacy = check_privacy(plan)
        assert privacy.all_private and privacy.pairs == slow_check_privacy(tm)
        instances += 1
    # the sample must not collapse into trivial instances
    assert multi_user >= 75 and busy_nodes >= 50 and carrying >= 100
    assert time.perf_counter() - start < 60.0


# --- 5: rank verdicts against exhaustive enumeration --------------------------------


def _verdicts_match(target, tm: TransferMap) -> None:
    """The audit of ``target`` agrees with the rank references on ``tm``,
    and, for a plan, with the checks the CLI runs."""
    audit = brute_force_audit(target)
    full = linalg.rank(tm.field, tm.matrix) == len(tm.matrix)
    pairs = slow_check_privacy(tm)
    assert audit.bijective == full
    assert [(p.secret_user, p.observer, p.independent) for p in audit.pairs] == [
        (p.secret_user, p.observer, p.private) for p in pairs
    ]
    if target is not tm:
        assert check_entropy(target).full == full
        assert check_privacy(target).pairs == pairs


@criterion(5, "oracle-agreement")
def test_acceptance_5_brute_force_agreement():
    rng = random.Random(77)
    planned = 0
    while planned < 20:
        acc = random_access(rng, max_users=3, max_nodes=7, max_set_size=2)
        rates = random_rates_in_region(rng, acc)
        plan = make_plan(Field(3), acc, rates, seed=rng.randrange(10**6))
        tm = transfer_map(plan)
        _verdicts_match(plan, tm)
        audit = brute_force_audit(plan)
        assert audit.ok  # planned instances must also pass outright
        planned += 1

    # arbitrary matrices keep the agreement honest on the failing side too
    broken_seen = 0
    for _ in range(12):
        acc = random_access(rng, max_users=3, max_nodes=5)
        n = acc.N
        rates, budget = [], n
        for _ in range(acc.K):
            r = rng.randint(0, min(2, budget))
            rates.append(r)
            budget -= r
        quotas = list(rates)
        for _ in range(budget):
            quotas[rng.randrange(acc.K)] += 1
        tm = TransferMap(
            field=Field(3),
            access=acc,
            rates=tuple(rates),
            quotas=tuple(quotas),
            matrix=[[rng.randrange(3) for _ in range(n)] for _ in range(n)],
        )
        _verdicts_match(tm, tm)
        broken_seen += 0 if brute_force_audit(tm).ok else 1
    assert broken_seen > 0


# --- 6: distinct-representative selection --------------------------------------------

# each instance breaks some cutset: the named user subset needs more
# reserved nodes than its sets jointly contain
DEFICIENT_INSTANCES = [
    ([[1]], (2,)),
    ([[1, 2], [1, 2]], (2, 1)),
    ([[1, 2], [1, 2]], (1, 2)),
    ([[1, 2], [2, 3]], (2, 2)),
    ([[1, 2, 3], [1, 2, 3], [1, 2, 3]], (1, 1, 2)),
    ([[1], [1, 2]], (1, 2)),
    ([[1, 2], [1, 2], [1, 2]], (1, 1, 1)),
    ([[1, 2, 3, 4], [2, 3], [2, 3]], (2, 1, 2)),
    ([[1, 2], [3, 4], [1, 2, 3, 4]], (2, 2, 1)),
    ([[1, 2, 3], [1, 3], [1, 3]], (1, 2, 1)),
    ([[1, 2], [2, 3], [1, 3]], (1, 2, 1)),
    ([[1, 2, 3, 4, 5], [1, 5], [1, 5], [1, 5]], (1, 1, 1, 1)),
]


@criterion(6, "sdr-correctness")
def test_acceptance_6_sdr():
    rng = random.Random(55)
    for _ in range(120):
        acc = random_access(rng, max_users=5, max_nodes=10)
        rates = random_rates_in_region(rng, acc)
        quotas = augment_quotas(acc, rates)
        assignment = find_sdr(acc, quotas)
        assert validate_sdr(acc, quotas, assignment)

    assert len(DEFICIENT_INSTANCES) >= 10
    for sets, quotas in DEFICIENT_INSTANCES:
        acc = AccessStructure.of(sets)
        with pytest.raises(NoSdrError) as exc_info:
            find_sdr(acc, quotas)
        cert = exc_info.value.certificate
        assert cert.node_count < cert.clone_count
        # the witness must be a genuine clone subset with that exact
        # joint neighbourhood, not just a count
        assert len(set(cert.clones)) == cert.clone_count
        for k, copy in cert.clones:
            assert 1 <= copy <= quotas[k - 1]
        union = set().union(*(acc.user_set(k) for k, _ in cert.clones))
        assert set(cert.nodes) == union


# --- 7: fractional rates via block splitting ------------------------------------------


@criterion(7, "memory-sharing")
def test_acceptance_7_memory_sharing():
    from fractions import Fraction

    from dmuss.codec import memory_share

    plan_a = demo.demo_plan()
    plan_b = make_plan(plan_a.field, plan_a.access, (0, 0, 0, 0), seed=11)
    ms = memory_share(plan_a, plan_b, 1, 2)
    assert ms.rates() == (Fraction(1, 2), Fraction(1), Fraction(1), Fraction(3, 2))
    assert ms.blocks_total == 2  # every node stores exactly two symbols

    rng = random.Random(9)
    for trial in range(5):
        msgs = [[rng.randrange(11) for _ in range(n)] for n in ms.message_lengths()]
        results = ms.encode(msgs, seed=trial)
        share_blocks = [r.shares for r in results]
        for k in range(1, 5):
            assert ms.decode(k, share_blocks) == msgs[k - 1]
