"""Verification layer: rank criteria against exhaustive enumeration.

The rank-based privacy and entropy checks are exact claims about a
plan's transfer map; :func:`dmuss.verify.brute_force_audit` recomputes
the same verdicts by enumerating every input of a small instance and
inspecting the actual distributions.  The tests here drive the checks,
the slow rank references on the transfer map and the audit against
hand-built maps with known leaks and against fuzzed instances, and
require them to agree pair for pair.
"""

import dataclasses
import random

import pytest

from conftest import (
    compress_nodes,
    random_access,
    random_rates_in_region,
    slow_check_correctness,
    slow_check_privacy,
    slow_rref,
    spy,
)
from dmuss import codec, linalg, verify
from dmuss.access import AccessStructure
from dmuss.codec import DecodeResult, TransferMap, transfer_map
from dmuss.errors import ShapeMismatchError, TooLargeError
from dmuss.gf import Field
from dmuss.planner import _lagrange_rows, make_plan
from dmuss.verify import (
    CorrectnessReport,
    brute_force_audit,
    check_correctness,
    check_entropy,
    check_privacy,
)


def bare_map(p, sets, rates, quotas, rows) -> TransferMap:
    """A transfer map given directly by its matrix, bypassing planning."""
    return TransferMap(
        field=Field(p),
        access=AccessStructure.of(sets),
        rates=tuple(rates),
        quotas=tuple(quotas),
        matrix=[list(r) for r in rows],
    )


# Y1 = o1, Y2 = w1, Y3 = w2 + o1: node 2 stores user 1's message verbatim.
LEAKY = dict(
    p=3,
    sets=[[1, 2], [2, 3]],
    rates=(1, 1),
    quotas=(2, 1),
    rows=[[0, 0, 1], [1, 0, 0], [0, 1, 1]],
)

# Five nodes, three users, one pad symbol; every pair is protected.
HEALTHY = dict(
    p=3,
    sets=[[1, 2, 3], [2, 4, 5], [1, 4]],
    rates=(1, 2, 1),
    quotas=(1, 2, 2),
    rows=[
        [0, 0, 0, 0, 1],
        [0, 1, 1, 1, 1],
        [1, 0, 0, 0, 0],
        [0, 0, 0, 1, 1],
        [0, 0, 1, 0, 0],
    ],
)


# --- reference instance ---------------------------------------------------------


def test_privacy_reference(ref_plan):
    rep = check_privacy(ref_plan)
    assert not rep.vacuous
    assert len(rep.pairs) == 12  # 4 users, ordered pairs
    assert rep.all_private
    for pair in rep.pairs:
        assert pair.required == ref_plan.rates[pair.secret_user - 1]
        assert pair.joint_rank - pair.base_rank == pair.required
        assert pair.leaked == 0


def test_entropy_reference(ref_plan):
    rep = check_entropy(ref_plan)
    assert rep.rank == 8 and rep.nodes == 8
    assert rep.full


def test_correctness_reference(ref_plan):
    rep = check_correctness(ref_plan, trials=25, seed=7)
    assert rep.ok
    assert rep.trials == 25
    assert rep.failures == 0 and rep.first_failure is None


def test_reference_too_large_to_audit(ref_plan):
    with pytest.raises(TooLargeError):
        brute_force_audit(ref_plan)


# --- hand-built maps with known verdicts ------------------------------------------


def test_leaky_map_rank_verdicts():
    tm = bare_map(**LEAKY)
    by_pair = {(p.secret_user, p.observer): p for p in slow_check_privacy(tm)}
    assert not by_pair[(1, 2)].private
    assert by_pair[(1, 2)].leaked == 1
    assert by_pair[(2, 1)].private
    assert linalg.rank(tm.field, tm.matrix) == 3  # leaking is not a rank deficiency


def test_leaky_map_audit_agrees():
    tm = bare_map(**LEAKY)
    audit = brute_force_audit(tm)
    assert audit.inputs == 27
    assert audit.bijective
    verdicts = {(p.secret_user, p.observer): p.independent for p in audit.pairs}
    assert verdicts == {(1, 2): False, (2, 1): True}
    assert not audit.all_independent
    assert not audit.ok
    assert not audit.roundtrip_checked  # bare map: no decoder to drive


def test_duplicate_row_map_not_bijective():
    rows = [[1, 0, 0], [1, 0, 0], [0, 1, 1]]
    tm = bare_map(LEAKY["p"], LEAKY["sets"], LEAKY["rates"], LEAKY["quotas"], rows)
    assert linalg.rank(tm.field, tm.matrix) == 2
    audit = brute_force_audit(tm)
    assert not audit.bijective
    assert not audit.ok


def test_healthy_map_all_checks_pass():
    tm = bare_map(**HEALTHY)
    pairs = slow_check_privacy(tm)
    assert len(pairs) == 6
    assert all(p.private for p in pairs)
    assert linalg.rank(tm.field, tm.matrix) == 5
    audit = brute_force_audit(tm)
    assert audit.inputs == 3**5
    assert audit.bijective and audit.all_independent and audit.ok


# --- correctness harness ----------------------------------------------------------


def test_correctness_on_fresh_plan():
    f = Field(11)
    acc = AccessStructure.of([[1, 2, 3], [2, 3, 4], [1, 4]])
    plan = make_plan(f, acc, (1, 1, 1), seed=5)
    rep = check_correctness(plan, trials=40, seed=1)
    assert rep.ok and rep.trials == 40
    for trials in (0, -3, True, 2.5, "2"):  # True ran one trial, 2.5 raised TypeError
        with pytest.raises(ValueError):
            check_correctness(plan, trials=trials)


def test_correctness_trial_costs_one_share_solve_and_one_decode_per_set_size(monkeypatch):
    rng = random.Random(95)
    acc = random_access(rng, min_users=4, max_users=6, max_nodes=12)
    plan = make_plan(Field(65537), acc, random_rates_in_region(rng, acc), seed=2)
    sizes = {len(s) for s in acc.sets}
    assert len(sizes) < acc.K  # some users share a point set
    solves = spy(monkeypatch, linalg, "solve", lambda field, a, s: len(a))
    checked = spy(monkeypatch, verify, "decode_all", lambda plan, shares: len(shares))
    derived = spy(monkeypatch, codec, "decode_all", lambda plan, shares: len(shares))  # tails
    assert check_correctness(plan, trials=1).ok
    assert checked == [acc.N] and derived == []
    assert sorted(solves) == sorted([acc.N, *sizes])


def faulty_decode_all(real, fault):
    """``real`` decode_all with ``fault`` applied to the result of the
    user with the longest tail whenever the share vector sums to an even
    number, so some trials fail and others pass."""

    def decode_all(plan, shares):
        got = real(plan, shares)
        if sum(shares) % 2:
            return got
        tails = [len(s) - q for s, q in zip(plan.access.sets, plan.quotas)]
        k = tails.index(max(tails))
        p = plan.field.p
        message, pads = list(got[k].message), list(got[k].pads)
        if fault in ("message", "both") and message:
            message[0] = (message[0] + 1) % p
        if fault in ("tail", "both") and pads:
            pads[-1] = (pads[-1] + 1) % p
        return got[:k] + [DecodeResult(message=message, pads=pads)] + got[k + 1 :]

    return decode_all


def test_correctness_matches_slow_reference_fuzz(monkeypatch):
    # the share identity reads the tails check_correctness decoded itself;
    # the reference reads pads.tail, derived by one more decode of every
    # user.  Reports agree, and under a faulty decode their failure paths
    # agree too.
    rng = random.Random(96)
    real = codec.decode_all
    failed = set()
    for _ in range(40):
        acc = random_access(rng, max_users=4, max_nodes=8)
        p = rng.choice([11, 13, 65537])
        plan = make_plan(Field(p), acc, random_rates_in_region(rng, acc), seed=rng.randrange(10**6))
        trials, seed = rng.randint(1, 4), rng.randrange(10**6)
        for fault in (None, "message", "tail", "both"):
            decode_all = real if fault is None else faulty_decode_all(real, fault)
            monkeypatch.setattr(codec, "decode_all", decode_all)
            monkeypatch.setattr(verify, "decode_all", decode_all)
            got = check_correctness(plan, trials=trials, seed=seed)
            assert got == slow_check_correctness(plan, trials=trials, seed=seed), fault
            if not got.ok:
                failed.add((fault, "identity" if "identity" in got.first_failure else "decode"))
    assert {("message", "decode"), ("tail", "identity"), ("both", "decode")} <= failed
    assert all(fault is not None for fault, _ in failed)


def test_correctness_report_semantics():
    assert not CorrectnessReport(trials=10, failures=1, first_failure="x").ok
    assert CorrectnessReport(trials=0, failures=0).ok


def test_single_user_privacy_vacuous():
    f = Field(11)
    plan = make_plan(f, AccessStructure.of([[1, 2, 3]]), (2,), seed=0)
    rep = check_privacy(plan)
    assert rep.vacuous
    assert rep.pairs == []
    assert rep.all_private  # vacuously


# --- full agreement on a plannable micro instance ----------------------------------


def test_micro_plan_audit_clean():
    f = Field(3)
    acc = AccessStructure.of([[1, 2], [2, 3]])
    plan = make_plan(f, acc, (1, 1), seed=0)
    audit = brute_force_audit(plan)
    assert audit.inputs == 27
    assert audit.roundtrip_checked
    assert audit.roundtrip_failures == 0
    assert audit.ok
    assert check_privacy(plan).all_private
    assert check_entropy(plan).full


def test_fuzz_planned_instances_rank_matches_enumeration():
    rng = random.Random(90)
    done = 0
    while done < 12:
        acc = random_access(rng, max_users=3, max_nodes=8, max_set_size=2)
        if 3**acc.N > 20000:
            continue
        rates = random_rates_in_region(rng, acc)
        plan = make_plan(Field(3), acc, rates, seed=rng.randrange(10**6))
        audit = brute_force_audit(plan)
        privacy = check_privacy(plan)
        assert audit.bijective == check_entropy(plan).full
        assert [(p.secret_user, p.observer, p.independent) for p in audit.pairs] == [
            (p.secret_user, p.observer, p.private) for p in privacy.pairs
        ]
        assert audit.ok
        done += 1


def test_fuzz_arbitrary_maps_rank_matches_enumeration():
    """Random (often broken) matrices: the rank references must track the
    enumerated distributions on failures as well as successes."""
    rng = random.Random(91)
    seen_dependent = False
    seen_nonbijective = False
    for _ in range(30):
        acc = random_access(rng, max_users=3, max_nodes=5)
        n = acc.N
        rates = []
        budget = n
        for _ in range(acc.K):
            r = rng.randint(0, min(2, budget))
            rates.append(r)
            budget -= r
        quotas = list(rates)
        for _ in range(budget):  # spread leftover width as pad columns
            quotas[rng.randrange(acc.K)] += 1
        rows = [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
        tm = bare_map(3, [acc.sorted_set(k) for k in range(1, acc.K + 1)], rates, quotas, rows)
        audit = brute_force_audit(tm)
        privacy = slow_check_privacy(tm)
        assert audit.bijective == (linalg.rank(tm.field, tm.matrix) == n)
        assert len(audit.pairs) == len(privacy)
        for ap, pp in zip(audit.pairs, privacy):
            assert (ap.secret_user, ap.observer) == (pp.secret_user, pp.observer)
            assert ap.independent == pp.private
        seen_dependent |= not audit.all_independent
        seen_nonbijective |= not audit.bijective
    # the sample must actually exercise the failure side of the agreement
    assert seen_dependent and seen_nonbijective


# --- privacy against the pairwise rank reference -----------------------------------


def test_privacy_matches_pairwise_rank_fuzz():
    """check_privacy on plans must give the PairPrivacy list that two full
    eliminations per pair give on their transfer maps; on arbitrary maps,
    that reference must give the audit's verdicts."""
    rng = random.Random(92)
    for _ in range(200):
        acc = random_access(rng, max_users=6, max_nodes=10)
        rates = random_rates_in_region(rng, acc)
        p = rng.choice([11, 13, 17, 65537])
        plan = make_plan(Field(p), acc, rates, seed=rng.randrange(10**6))
        assert check_privacy(plan).pairs == slow_check_privacy(transfer_map(plan))
    deficient = binary = zero_rate = leaky = 0
    for _ in range(500):
        p = rng.choice([2, 3, 5, 7])
        acc = random_access(rng, min_users=2, max_users=5, max_nodes=8)
        n = acc.N
        rates = []
        budget = n
        for _ in range(acc.K):
            r = rng.randint(0, min(3, budget))
            rates.append(r)
            budget -= r
        quotas = list(rates)
        for _ in range(budget):
            quotas[rng.randrange(acc.K)] += 1
        density = rng.choice([0.2, 0.5, 1.0])
        rows = [
            [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        if rng.random() < 0.3:  # force a dependent row
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            rows[i] = [rng.randrange(p) * v % p for v in rows[j]]
        if p**n > 1000:  # the audit enumerates all p**n inputs
            continue
        tm = bare_map(p, [acc.sorted_set(k) for k in range(1, acc.K + 1)], rates, quotas, rows)
        audit = brute_force_audit(tm)
        pairs = slow_check_privacy(tm)
        assert [(a.secret_user, a.observer, a.independent) for a in audit.pairs] == [
            (pair.secret_user, pair.observer, pair.private) for pair in pairs
        ]
        full = linalg.rank(tm.field, rows) == n
        assert audit.bijective == full
        deficient += not full
        binary += p == 2
        zero_rate += 0 in rates
        leaky += sum(not pair.private for pair in pairs)
    assert deficient >= 100 and binary >= 50 and zero_rate >= 100 and leaky >= 500


# --- the plan's decode rows against the transfer map --------------------------------


def planned(rng, min_users=1):
    """A planned in-region instance over a small or a large field."""
    p = rng.choice([5, 7, 11, 13, 65537])
    acc = random_access(rng, min_users=min_users, max_users=6, max_nodes=10, max_set_size=p - 1)
    return make_plan(Field(p), acc, random_rates_in_region(rng, acc), seed=rng.randrange(10**6))


def leaky(rng, plan):
    """The plan with its rates raised at random toward its quotas.  The
    decode rows depend only on the quotas, perms and alphas, so T is
    unchanged and the pairs whose hidden nodes no longer cover R_k really
    leak."""
    rates = tuple(rng.randint(r, q) for r, q in zip(plan.rates, plan.quotas))
    return dataclasses.replace(plan, rates=rates)


def repeated_exponent(rng, plan):
    """(user, changes): the plan's perms with one exponent of one user
    copied over another, for :func:`dataclasses.replace`, or None when no
    user has two points."""
    users = [k for k, perm in enumerate(plan.perms) if len(perm) > 1]
    if not users:
        return None
    k = rng.choice(users)
    perm = list(plan.perms[k])
    i, j = rng.sample(range(len(perm)), 2)
    perm[i] = perm[j]
    return k + 1, {"perms": plan.perms[:k] + (tuple(perm),) + plan.perms[k + 1 :]}


def test_factored_checks_match_transfer_map_and_slow_reference_fuzz(monkeypatch):
    """check_privacy and check_entropy on a plan equal slow_check_privacy
    and the rank of its transfer map on planned and leaky plans, and build
    no T.  A repeated exponent repeats a point: the plan refuses it as it
    is built, so neither the transfer map nor a check ever meets one."""
    rng = random.Random(151)
    built = spy(monkeypatch, verify, "transfer_map", lambda plan: plan)
    leaked = repeated = 0
    for _ in range(300):
        plan = planned(rng)
        broken = repeated_exponent(rng, plan)
        if broken is not None:
            repeated += 1
            k, changes = broken
            size = len(plan.access.user_set(k))
            with pytest.raises(ValueError, match=rf"^user {k}: not a permutation of 1\.\.{size}$"):
                dataclasses.replace(plan, **changes)
        for target in (plan, leaky(rng, plan)):
            built.clear()
            privacy = check_privacy(target)
            entropy = check_entropy(target)
            assert built == []
            tm = transfer_map(target)
            assert privacy.pairs == slow_check_privacy(tm)
            assert entropy.rank == entropy.nodes == linalg.rank(tm.field, tm.matrix)
            leaked += sum(not pair.private for pair in privacy.pairs)
    assert leaked >= 300 and repeated >= 200


def test_leak_is_the_excess_over_the_pairwise_bound():
    """Every pair leaks max(0, R_k - |A_k minus A_k'|) symbols: T^-1's rows
    for w_k are Vandermonde-like, so any |S| of their columns have rank
    min(R_k, |S|).  Planned in-region rates meet the pairwise bound and
    leak nothing."""
    rng = random.Random(152)
    leaky_pairs = 0
    for _ in range(150):
        plan = planned(rng, min_users=2)
        for target in (plan, leaky(rng, plan)):
            for pair in check_privacy(target).pairs:
                sets = target.access.user_set(pair.secret_user), target.access.user_set(pair.observer)
                want = max(0, target.rates[pair.secret_user - 1] - len(sets[0] - sets[1]))
                assert pair.leaked == want
                assert target is not plan or want == 0
                leaky_pairs += want > 0
    assert leaky_pairs >= 200


def test_plan_checks_eliminate_nothing_n_by_n(monkeypatch):
    """On a planned instance, privacy and entropy take no null space, build
    no transfer map, and run one N x N elimination: V's determinant, on
    first use, kept by the plan."""
    rng = random.Random(153)
    sets = [rng.sample(range(1, 17), rng.randint(3, 8)) for _ in range(12)]
    acc = AccessStructure.of(compress_nodes(sets))
    plan = make_plan(Field(65537), acc, random_rates_in_region(rng, acc), seed=1)
    n = plan.N
    kernels = spy(monkeypatch, linalg, "null_space", lambda *args: 1)
    built = spy(monkeypatch, verify, "transfer_map", lambda plan: 1)
    dets = spy(monkeypatch, linalg, "det", lambda f, a: len(a))
    ranks = spy(monkeypatch, linalg, "rank", lambda f, a: len(a) == n and len(a[0]) == n)
    for _ in range(2):
        assert check_privacy(plan).all_private and check_entropy(plan).full
    assert kernels == [] and built == [] and not any(ranks)
    assert dets == [n]


# --- the lemma behind the plan's pairs ----------------------------------------------


def test_any_columns_of_low_inverse_vandermonde_rows_have_rank_min_r_s_fuzz():
    """The lemma on its own: any S columns of the low r rows of the
    inverse Vandermonde on gamma^1..gamma^n have rank min(r, |S|)."""
    rng = random.Random(154)
    fields = [Field(p) for p in (2, 3, 5, 7, 11, 13, 65537, 2**31 - 1)]
    for field in fields:
        for _ in range(150):
            n = rng.randint(0, min(field.p - 1, 24))
            r = rng.randint(0, n)
            table = _lagrange_rows(field, n, r)
            cols = rng.sample(range(n), rng.randint(0, n))
            cut = [[row[c] for c in cols] for row in table]
            want = min(r, len(cols))
            assert linalg.rank(field, cut) == want, (field.p, n, r, cols)
            if field.p <= 13:
                assert len(slow_rref(field, cut)[1]) == want, (field.p, n, r, cols)


def test_plan_privacy_takes_one_det_and_no_rank(monkeypatch):
    """A plan's pairs are arithmetic: the one elimination is the plan's
    determinant, on first use."""
    plan = planned(random.Random(155), min_users=2)
    eliminations = spy(monkeypatch, linalg, "_echelon", lambda f, a: len(a))
    ranks = spy(monkeypatch, linalg, "rank", lambda f, a: len(a))
    for _ in range(2):
        check_privacy(plan)
    assert ranks == [] and eliminations == [plan.N]


def test_plan_privacy_refuses_rates_outside_the_quotas():
    """A rate above its quota used to read the next user's decode rows:
    rates (4, 1, 1) on quotas (3, 2, 1) gave pair (1, 2) joint rank 5
    here and 6 on the transfer map.  The plan now refuses such rates as
    it is built, so check_privacy never reads them."""
    plan = make_plan(Field(11), AccessStructure.of([[1, 2, 3], [3, 4, 5], [1, 5, 6]]), [1, 1, 1], seed=1)
    assert plan.quotas == (3, 2, 1)
    for rates, want in (
        ((4, 1, 1), "user 1: rate 4 is not an int in 0..R'_k = 3"),
        ((1, 3, 1), "user 2: rate 3 is not an int in 0..R'_k = 2"),
        ((-1, 1, 1), "user 1: rate -1 is not an int in 0..R'_k = 3"),
        ((1.0, 1, 1), "user 1: rate 1.0 is not an int in 0..R'_k = 3"),
        ((True, 1, 1), "user 1: rate True is not an int in 0..R'_k = 3"),
    ):
        with pytest.raises(ShapeMismatchError) as got:
            dataclasses.replace(plan, rates=rates)
        assert str(got.value) == want
    raised = dataclasses.replace(plan, rates=(3, 1, 1))  # up to the quota: the pairs read it
    assert check_privacy(raised).pairs == slow_check_privacy(transfer_map(raised))


@pytest.mark.parametrize(
    "check", [check_privacy, check_entropy, check_correctness, brute_force_audit], ids=lambda f: f.__name__
)
def test_checks_refuse_what_they_do_not_take(check, ref_plan):
    """None and a str escaped as AttributeError.  Only the audit also
    takes a transfer map; the other three refuse it."""
    refused = [None, "x"]
    if check is not brute_force_audit:
        refused.append(transfer_map(ref_plan))
    for target in refused:
        with pytest.raises(ShapeMismatchError, match=f"got {type(target).__name__}$"):
            check(target)
