"""Shared fixtures, fuzz-instance generators, acceptance reporting."""

import random
from dataclasses import dataclass

import pytest

from dmuss import AccessStructure, Field, linalg
from dmuss.access import in_capacity_region
from dmuss.demo import demo_encode, demo_messages, demo_plan

# (number, name, passed) triples filled in by the acceptance suite; echoed
# after the run so each criterion's verdict is one visible line
ACCEPTANCE_RESULTS = []


def record_acceptance(num: int, name: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS.append((num, name, passed))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, name, passed in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num} ({name}): {verdict}")


def compress_nodes(sets):
    """Relabel node ids so the union is exactly 1..N (no gaps)."""
    union = sorted(set().union(*sets))
    remap = {n: i + 1 for i, n in enumerate(union)}
    return [frozenset(remap[n] for n in s) for s in sets]


def random_access(rng: random.Random, min_users=1, max_users=5, max_nodes=10, max_set_size=None):
    """A random access structure; node labels are compressed to 1..N."""
    k = rng.randint(min_users, max_users)
    pool = rng.randint(1, max_nodes)
    sets = []
    for _ in range(k):
        cap = min(pool, max_set_size) if max_set_size else pool
        size = rng.randint(1, cap)
        sets.append(frozenset(rng.sample(range(1, pool + 1), size)))
    return AccessStructure.of(compress_nodes(sets))


def random_rates_in_region(rng: random.Random, acc: AccessStructure, stop_prob=0.2):
    """Random walk inside the region: bump random users while feasible."""
    rates = [0] * acc.K
    while True:
        candidates = []
        for k in range(acc.K):
            rates[k] += 1
            if in_capacity_region(acc, rates).ok:
                candidates.append(k)
            rates[k] -= 1
        if not candidates or rng.random() < stop_prob:
            return tuple(rates)
        rates[rng.choice(candidates)] += 1


# --- the lifted encoding system: the slow reference for codec ------------------


@dataclass(frozen=True)
class SystemLayout:
    """Index map for the stacked unknown vector (user tails, then shares)."""

    tail_offsets: tuple  # per user
    tail_lengths: tuple  # per user: |A_k| - R'_k
    share_offset: int
    size: int


def system_layout(plan) -> SystemLayout:
    offsets = []
    pos = 0
    lengths = []
    for k in range(1, plan.K + 1):
        offsets.append(pos)
        tail = len(plan.access.user_set(k)) - plan.quotas[k - 1]
        lengths.append(tail)
        pos += tail
    return SystemLayout(
        tail_offsets=tuple(offsets),
        tail_lengths=tuple(lengths),
        share_offset=pos,
        size=pos + plan.N,
    )


def system_matrix(plan) -> linalg.Matrix:
    """The M x M lifted system, M = sum |A_k|: one row per (user, node of
    A_k) stating g_k(gamma_{k,i}) = -alpha_{k,n} Y_n, with the tail
    coefficients and the shares as unknowns and ``rhs_vector`` as the
    right-hand side."""
    layout = system_layout(plan)
    p = plan.field.p
    a = linalg.zeros(layout.size, layout.size)
    row = 0
    for k in range(1, plan.K + 1):
        nodes = plan.access.sorted_set(k)
        gammas = plan.gammas(k)
        quota = plan.quotas[k - 1]
        t_off = layout.tail_offsets[k - 1]
        for i in range(len(nodes)):
            g = gammas[i]
            # unknown tail coefficients of this user's polynomial
            power = pow(g, quota, p)
            for t in range(layout.tail_lengths[k - 1]):
                a[row][t_off + t] = power
                power = power * g % p
            n = nodes[i]
            a[row][layout.share_offset + n - 1] = plan.alpha(k, n)
            row += 1
    return a


@pytest.fixture(scope="session")
def ref_plan():
    return demo_plan()


@pytest.fixture(scope="session")
def ref_encoded(ref_plan):
    return demo_encode(ref_plan)


@pytest.fixture(scope="session")
def ref_messages():
    return demo_messages()


@pytest.fixture(scope="session")
def field11():
    return Field(11, gamma=8)
