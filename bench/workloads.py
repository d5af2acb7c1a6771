"""The benchmark's three workloads and their output checks.

Each workload runs in one thread with one client in a closed loop: the
next operation starts only after the previous one has returned and its
output has been checked.  There is no queue, so no operation ever waits.

* ``store``: one op encodes a fresh block and reads it back for one user.
* ``retrieve``: one op is one seeded (user, block) read of a pre-encoded
  block.
* ``provision``: one op is one ``dmuss`` CLI command, run in-process
  against files, in per-instance chains over a fixed ladder of sizes,
  drawn several times per seed.

An op fails when it raises, when a command exits with another code than
expected, or when its output differs from the generated input.  An
expected rejection (``check``/``plan`` exiting 1 outside the region) is a
success.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import count

from dmuss import access, cli, codec, files, gf, planner

import calib
import gen

RETRIEVE_BLOCKS = 3
VERIFY_TRIALS = 1  # round-trip encodes are the store workload's subject


class WrongOutput(Exception):
    """An operation returned, but not what its input says it must."""


def expect_equal(got, want, what: str) -> None:
    if got != want:
        raise WrongOutput(f"{what}: got {got!r}, want {want!r}")


class Tally:
    """Attempted and failed operations, with the latency of each.

    Each op also records the calibration segment it ran in: the stretch
    between two readings of the reference kernel (see ``calib.py``).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list = []  # wall seconds, one per attempted op
        self.segments: list = []  # calibration segment, one per attempted op
        self.readings: list = []  # reference kernel seconds, segment bounds
        self.failures: list = []  # first few failure descriptions

    def calibrated(self) -> list:
        """Latencies scaled by the readings around each op's segment."""
        r = self.readings
        return [t * calib.scale(r[s], r[s + 1]) for t, s in zip(self.latencies, self.segments)]

    def run(self, op) -> bool:
        """Run one op; any exception, including a failed check, fails it."""
        start = time.perf_counter()
        try:
            op()
            ok = True
        except Exception as exc:  # the loop must go on and count it
            ok = False
            if len(self.failures) < 5:
                self.failures.append(f"{type(exc).__name__}: {exc}")
        self.latencies.append(time.perf_counter() - start)
        self.segments.append(len(self.readings) - 1)
        self.attempted += 1
        self.failed += not ok
        return ok


def timed_loop(batches, tally: Tally, seconds: float, tracer=None) -> float:
    """Run whole batches while the next one is expected to fit in ``seconds``.

    A batch is a list of ``(op_id, chain)``; a chain's ops run in order
    and the chain stops at its first failure.  The prediction uses the
    last batch's duration, and at least one batch always runs.  The
    reference kernel is read before the first op, after the last, and
    between ops whenever ``calib.REF_INTERVAL_S`` has passed since the
    last reading.  Returns the loop's wall time, readings included.
    """
    start = time.perf_counter()
    tally.readings.append(calib.reading())
    last_reading = time.perf_counter()
    for batch in batches:
        began = time.perf_counter()
        for op_id, chain in batch:
            if tracer is not None:
                tracer.op = op_id
            for op in chain:
                ok = tally.run(op)
                if time.perf_counter() - last_reading >= calib.REF_INTERVAL_S:
                    tally.readings.append(calib.reading())
                    last_reading = time.perf_counter()
                if not ok:
                    break
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    tally.readings.append(calib.reading())
    return time.perf_counter() - start


def build_plan(inp, seed: int):
    """Plan a generated input (anything with ``p``, ``access``, ``rates``)."""
    field = gf.Field(inp.p)
    acc = access.AccessStructure.of(inp.access)
    return planner.make_plan(field, acc, inp.rates, seed=seed)


def read_back(plan, k: int, view: dict, want: list) -> None:
    """Decode user k from its own nodes only and compare with its message."""
    expect_equal(codec.decode(plan, k, view).message, want, f"user {k} message")


def user_view(plan, k: int, shares: list) -> dict:
    return {n: shares[n - 1] for n in plan.access.sorted_set(k)}


class Store:
    """Write path: encode a fresh block, read it back for one user."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.input = gen.store_input(seed)
        self.plan = None

    def params(self) -> dict:
        i = self.input
        return {"K": i.k, "N": i.n, "p": i.p, "unknowns": sum(map(len, i.access)), "rates": i.rates}

    def setup(self) -> None:
        self.plan = build_plan(self.input, self.seed)

    def op(self, i: int, rng: random.Random) -> None:
        plan = self.plan
        msgs = gen.messages(rng, plan.field.p, plan.rates)
        shares = codec.encode(plan, msgs, seed=rng.randrange(1 << 30)).shares
        k = i % plan.K + 1
        read_back(plan, k, user_view(plan, k, shares), msgs[k - 1])

    def batches(self):
        """One op per user per batch."""
        rng = random.Random(f"store-ops:{self.seed}")
        k = self.plan.K
        for b in count():
            yield [(i, [lambda i=i: self.op(i, rng)]) for i in range(b * k, (b + 1) * k)]

    def close(self) -> None:
        pass


class Retrieve:
    """Read path: seeded (user, block) reads of blocks encoded in setup."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.input = gen.retrieve_input(seed)
        self.plan = None
        self.blocks: list = []  # (messages, shares) per block

    def params(self) -> dict:
        i = self.input
        return {
            "K": i.k,
            "N": i.n,
            "p": i.p,
            "set_sizes": [len(s) for s in i.access],
            "blocks": RETRIEVE_BLOCKS,
        }

    def setup(self) -> None:
        self.plan = build_plan(self.input, self.seed)
        rng = random.Random(f"retrieve-blocks:{self.seed}")
        self.blocks = []
        for _ in range(RETRIEVE_BLOCKS):
            msgs = gen.messages(rng, self.plan.field.p, self.plan.rates)
            shares = codec.encode(self.plan, msgs, seed=rng.randrange(1 << 30)).shares
            self.blocks.append((msgs, shares))

    def op(self, k: int, b: int) -> None:
        msgs, shares = self.blocks[b]
        read_back(self.plan, k, user_view(self.plan, k, shares), msgs[k - 1])

    def batches(self):
        """Every (user, block) request once per batch, in seeded order."""
        rng = random.Random(f"retrieve-ops:{self.seed}")
        requests = [(k, b) for k in range(1, self.plan.K + 1) for b in range(len(self.blocks))]
        ids = count()
        while True:
            rng.shuffle(requests)
            yield [(next(ids), [lambda k=k, b=b: self.op(k, b)]) for k, b in requests]

    def close(self) -> None:
        pass


def run_cli(argv: list) -> tuple:
    """Run ``dmuss <argv>`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def expect_exit(argv: list, want: int) -> str:
    """Run a command, fail unless it exits with ``want``; returns stdout."""
    code, out, err = run_cli(argv)
    if code != want:
        raise WrongOutput(f"dmuss {argv[0]} exited {code}, want {want}: {err.strip()[:200]}")
    return out


class Provision:
    """The operator's CLI chain over a seeded ladder of instances."""

    def __init__(self, seed: int, workdir: str, ladder=gen.LADDER):
        self.seed = seed
        self.ladder = ladder
        self.dir = tempfile.mkdtemp(prefix="provision-", dir=workdir)
        self.instances: list = []
        self.reference: dict = {}  # instance -> plan document the library makes

    def params(self) -> dict:
        ladder = [[k, n, p, kind, str(scale)] for k, n, p, kind, scale in self.ladder]
        return {"ladder": ladder, "draws": gen.LADDER_DRAWS, "verify_trials": VERIFY_TRIALS}

    def path(self, i: int, what: str) -> str:
        return os.path.join(self.dir, f"{i:02d}-{what}.json")

    def setup(self) -> None:
        """Write the instance and message files of every draw of the
        ladder, and plan every integer in-region instance through the
        library: ``plan --out`` must write exactly that plan, since both
        take the instance's seed."""
        self.instances = gen.provision_ladder(self.seed, self.ladder)
        self.reference = {}
        for i, inst in enumerate(self.instances):
            for what, doc in (("instance", inst.instance_doc()), ("messages", inst.messages_doc())):
                with open(self.path(i, what), "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            if inst.kind == "in":
                plan = build_plan(inst, inst.seed)
                self.reference[i] = json.loads(json.dumps(files.plan_to_dict(plan)))

    def chain(self, i: int) -> list:
        """The ops of one instance: check and plan, then (if in region)
        encode, two reads and verify."""
        inst = self.instances[i]
        src, msgs = self.path(i, "instance"), self.path(i, "messages")
        plan, shares = self.path(i, "plan"), self.path(i, "shares")
        inside = inst.kind != "out"

        def check():
            for stale in (plan, shares):
                if os.path.exists(stale):
                    os.remove(stale)
            out = expect_exit(["check", src], 0 if inside else 1)
            verdict = "in region" if inside else "outside region"
            if not out.startswith(verdict):
                raise WrongOutput(f"check printed {out.strip()!r}, want {verdict!r}")

        def make_plan():
            expect_exit(["plan", src, "--out", plan], 0 if inside else 1)
            if i in self.reference:
                with open(plan, encoding="utf-8") as fh:
                    expect_equal(json.load(fh), self.reference[i], "plan file")

        ops = [check, make_plan]
        if not inside:
            return ops

        def read(user):
            out = expect_exit(["decode", plan, shares, "--user", str(user)], 0)
            expect_equal(json.loads(out)["symbols"], inst.expected_symbols(user), f"user {user} message")

        def verify():
            out = expect_exit(["verify", plan, "--trials", str(VERIFY_TRIALS)], 0)
            expect_equal(json.loads(out).get("ok"), True, "verify ok")

        ops.append(lambda: expect_exit(["encode", plan, msgs, "--out", shares, "--seed", str(inst.seed)], 0))
        ops.extend(lambda u=u: read(u) for u in inst.users)
        ops.append(verify)
        return ops

    def batches(self):
        """One draw of the ladder per batch, cycling through the draws."""
        n = len(self.ladder)
        draws = len(self.instances) // n
        for rnd in count():
            first = (rnd % draws) * n
            yield [(rnd * n + j, self.chain(first + j)) for j in range(n)]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"store": Store, "retrieve": Retrieve, "provision": Provision}
