"""Seeded input generators for the benchmark.

Nothing here imports dmuss: every instance, rate tuple and expected
verdict is derived from set arithmetic alone, so the generators cannot
inherit a defect of the code they feed.

In-region rates come from a random node-to-reader assignment: each node
goes to one user that can read it, and user k's rate is the number of
nodes it received, capped at its pairwise bound min_j |A_k \\ A_j|.  Any
group S then receives at most the nodes assigned to it, which all lie in
the union of S's sets, so every cutset bound holds; the cap keeps every
pairwise bound.  Out-of-region and rational tuples are built from that
tuple, so their verdicts are known too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

P16 = 65537
P31 = 2**31 - 1


def access_sets(rng: random.Random, n: int, sizes: list) -> list:
    """One uniformly random node subset of each given size, covering 1..n.

    Every node lands in each set with the same probability, but the sizes
    are fixed, so the size of the encoding system sum |A_k| does not
    depend on the seed.  Draws that leave a node uncovered are redrawn.
    """
    nodes = list(range(1, n + 1))
    while True:
        sets = [sorted(rng.sample(nodes, size)) for size in sizes]
        if len(set().union(*sets)) == n:
            return sets


def pairwise_bounds(sets: list) -> list:
    """min over other users j of |A_k \\ A_j|, per user."""
    fs = [frozenset(s) for s in sets]
    return [min(len(a - b) for j, b in enumerate(fs) if j != k) for k, a in enumerate(fs)]


def assignment_rates(rng: random.Random, sets: list, n: int) -> list:
    """In-region integer rates from a random node-to-reader assignment."""
    readers = {node: [] for node in range(1, n + 1)}
    for k, s in enumerate(sets):
        for node in s:
            readers[node].append(k)
    counts = [0] * len(sets)
    for node in range(1, n + 1):
        counts[rng.choice(readers[node])] += 1
    return [min(c, b) for c, b in zip(counts, pairwise_bounds(sets))]


def scaled_rates(rates: list, factor: Fraction) -> list:
    """Scale an in-region tuple by ``factor`` <= 1, rounding down.

    The region is downward closed, so the result stays inside it; with
    factors below 1 the total falls short of N and the planner pads.
    """
    return [int(r * factor) for r in rates]


def push_outside(rng: random.Random, sets: list, n: int, rates: list) -> list:
    """Raise an in-region tuple just past the region's edge.

    Increments seeded users, staying within each pairwise bound, until
    the total is N + 1, which breaks the cutset bound of all users
    together (their union is all N nodes).  When the pairwise bounds sum
    to N or less, one user is instead set one past its pairwise bound.
    """
    bounds = pairwise_bounds(sets)
    out = list(rates)
    if sum(bounds) > n:
        while sum(out) <= n:
            room = [k for k in range(len(out)) if out[k] < bounds[k]]
            out[rng.choice(room)] += 1
    else:
        k = rng.randrange(len(out))
        out[k] = bounds[k] + 1
    return out


def halve(rates: list) -> list:
    """Rates T/2 for an in-region T with at least one odd entry.

    An all-even T would halve to integers, so one positive entry is first
    lowered by one, which keeps T in the region.
    """
    t = list(rates)
    if all(r % 2 == 0 for r in t):
        k = max(range(len(t)), key=lambda i: t[i])
        t[k] -= 1
    return [Fraction(r, 2) for r in t]


def scale_to_integers(rates: list) -> list:
    """Multiply rational rates by their common denominator."""
    d = lcm(*[Fraction(r).denominator for r in rates])
    return [int(Fraction(r) * d) for r in rates]


def rate_json(r) -> object:
    r = Fraction(r)
    return r.numerator if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def messages(rng: random.Random, p: int, rates: list) -> list:
    return [[rng.randrange(p) for _ in range(r)] for r in rates]


# --- the three workloads' inputs -------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One rung of the provisioning ladder.

    ``kind`` is "in" (integer rates inside the region), "out" (just
    outside), or "half" (rates T/2 for an in-region T).  ``blocks`` holds
    the message file's blocks: one block for "in", and for "half" the
    scaled corner T's block followed by the all-zero plan's block.
    """

    k: int
    n: int
    p: int
    kind: str
    access: list
    rates: list  # ints or Fractions
    blocks: list  # message blocks; empty for "out"
    users: tuple  # the two users whose reads are checked
    seed: int

    def instance_doc(self) -> dict:
        return {
            "format": "dmuss.instance/1",
            "p": self.p,
            "access": self.access,
            "rates": [rate_json(r) for r in self.rates],
            "seed": self.seed,
        }

    def messages_doc(self) -> dict:
        return {"format": "dmuss.messages/1", "p": self.p, "blocks": self.blocks}

    def expected_symbols(self, user: int) -> list:
        return [s for block in self.blocks for s in block[user - 1]]


# (K, N, p, kind, scale) per rung.  Fixed so that every seed costs about the
# same: the seed only draws the sets, the assignment, messages and users.
# Rates are the assignment's scaled by ``scale`` in [1/2, 1].  Two rungs in
# nine are just outside the region and two have rational rates.
LADDER = (
    (6, 24, P16, "in", Fraction(1)),
    (8, 32, P31, "in", Fraction(3, 4)),
    (14, 28, P31, "out", Fraction(1)),
    (6, 28, P31, "half", Fraction(7, 8)),
    (12, 28, P16, "in", Fraction(1)),
    (14, 24, P16, "out", Fraction(3, 4)),
    (7, 30, P16, "in", Fraction(5, 8)),
    (6, 48, P31, "in", Fraction(3, 4)),
    (8, 24, P16, "half", Fraction(1, 2)),
)


def ladder_instance(rng: random.Random, k: int, n: int, p: int, kind: str, scale: Fraction) -> Instance:
    sets = access_sets(rng, n, [n // 2] * k)
    base = scaled_rates(assignment_rates(rng, sets, n), scale)
    users = tuple(sorted(rng.sample(range(1, k + 1), 2)))
    seed = rng.randrange(1 << 30)
    if kind == "out":
        return Instance(k, n, p, kind, sets, push_outside(rng, sets, n, base), [], users, seed)
    if kind == "half":
        rates = halve(base)
        corner = scale_to_integers(rates)
        blocks = [messages(rng, p, corner), [[] for _ in range(k)]]
        return Instance(k, n, p, kind, sets, rates, blocks, users, seed)
    return Instance(k, n, p, kind, sets, base, [messages(rng, p, base)], users, seed)


# Independent draws of the whole ladder per seed.  The op mix of every draw
# is the same, and their contents differ, so a run that cycles through the
# draws averages over the contents and depends less on the seed.
LADDER_DRAWS = 3


def provision_ladder(seed: int, ladder=LADDER, draws: int = LADDER_DRAWS) -> list:
    """``draws`` draws of the ladder, one after another in one list."""
    rng = random.Random(f"provision:{seed}")
    return [ladder_instance(rng, *rung) for _ in range(draws) for rung in ladder]


@dataclass(frozen=True)
class PlanInput:
    k: int
    n: int
    p: int
    access: list
    rates: list


def store_input(seed: int) -> PlanInput:
    """K = 8, N = 40, half-size access sets (sum |A_k| = 160)."""
    k, n = 8, 40
    rng = random.Random(f"store:{seed}")
    sets = access_sets(rng, n, [n // 2] * k)
    return PlanInput(k, n, P16, sets, assignment_rates(rng, sets, n))


def retrieve_input(seed: int) -> PlanInput:
    """K = 12, N = 64, access-set sizes spread evenly over 25..40.

    The sizes are a fixed schedule dealt to users in seeded order, so
    interpolation cost differs across users but not across seeds.
    """
    k, n = 12, 64
    rng = random.Random(f"retrieve:{seed}")
    sizes = [25 + (15 * i) // (k - 1) for i in range(k)]
    rng.shuffle(sizes)
    sets = access_sets(rng, n, sizes)
    return PlanInput(k, n, P16, sets, assignment_rates(rng, sets, n))
