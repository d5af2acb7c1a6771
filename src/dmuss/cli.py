"""Command-line front end.

Subcommands mirror the library pipeline: ``check`` a rate tuple against
the capacity region, ``plan`` an instance into encoding constants,
``encode`` messages into per-node shares, ``decode`` one user's view back
into its message, ``verify`` a plan's guarantees, and ``demo`` for a
fully printed worked example.

Exit codes: 0 success, 1 domain failure (outside region, no valid plan,
a verification check failed, ...), 2 usage or file-format problems.

Fractional rates are supported by ``plan`` in two ways.  With
``--corner-a``/``--corner-b`` the rates must be the a:b mix of the two
integer corner tuples, and the output is a composite plan whose node
blocks split between the corner plans.  Without corners, rates with
common denominator d must land in the region after scaling by d; the
scaled plan is then mixed with the all-zero plan over d-symbol blocks,
which realises the requested rates exactly.

``encode``, ``decode`` and ``verify`` read either plan file as one
scheme of (plan, block count) layers (:func:`~dmuss.files.load_any_plan`):
a plain plan is the one-layer scheme and takes any number of message or
share blocks, each under its plan; a mix takes exactly ``blocks_total``.  ``verify`` checks
each layer's plan, and reports a mix's layers as ``plan_a`` and
``plan_b`` beside its ``mixed_rates``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from fractions import Fraction
from math import lcm

from . import demo as demo_mod
from . import linalg
from .access import in_capacity_region
from .codec import decode, memory_share
from .errors import DmussError, NotInRegionError, ShapeMismatchError
from .files import (
    FileFormatError,
    instance_from_dict,
    json_text,
    load_any_plan,
    load_json,
    messages_from_dict,
    mix_to_dict,
    plan_to_dict,
    save_json,
    shares_from_dict,
    shares_to_dict,
)
from .planner import Plan, _null_basis, make_plan, plan_decomposition
from .verify import brute_force_audit, check_correctness, check_entropy, check_privacy


def _emit(doc: dict, out: str | None) -> None:
    if out:
        save_json(out, doc)
    else:
        print(json_text(doc))


def _parse_corner(text: str, k: int) -> list:
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise FileFormatError(f"corner {text!r} is not a comma-separated integer tuple") from exc
    if len(values) != k:
        raise FileFormatError(f"corner {text!r} has {len(values)} entries, expected {k}")
    if any(v < 0 for v in values):
        raise FileFormatError(f"corner {text!r}: rates must be nonnegative")
    return values


# --- subcommands ---------------------------------------------------------------


def cmd_check(args) -> int:
    _, acc, rates, _ = instance_from_dict(load_json(args.instance))
    report = in_capacity_region(acc, rates)
    print(report.describe())
    return 0 if report.ok else 1


def _mix_weights(rates, corner_a, corner_b) -> tuple:
    """Solve rates = w * corner_a + (1-w) * corner_b for w = a/b."""
    omega = None
    for r, ca, cb in zip(rates, corner_a, corner_b):
        if ca != cb:
            w = Fraction(r - cb, ca - cb)
            if omega is None:
                omega = w
            elif omega != w:
                raise NotInRegionError("corners do not mix to the requested rates")
        elif r != ca:
            raise NotInRegionError(f"rate {r} unreachable from equal corner entries {ca}")
    if omega is None:
        omega = Fraction(1)
    if not 0 <= omega <= 1:
        raise NotInRegionError(f"mixing weight {omega} falls outside [0, 1]")
    return omega.numerator, omega.denominator


def cmd_plan(args) -> int:
    field, acc, rates, file_seed = instance_from_dict(load_json(args.instance))
    seed = args.seed if args.seed is not None else (file_seed if file_seed is not None else 0)
    if (args.corner_a is None) != (args.corner_b is None):
        print("error: --corner-a and --corner-b must be given together", file=sys.stderr)
        return 2

    if args.corner_a is not None:
        corner_a = _parse_corner(args.corner_a, acc.K)
        corner_b = _parse_corner(args.corner_b, acc.K)
        blocks_a, blocks_total = _mix_weights(rates, corner_a, corner_b)
        note = (
            f"{blocks_a}/{blocks_total} blocks at {corner_a}, rest at {corner_b};"
            f" node storage {blocks_total} symbols"
        )
        plan_a = make_plan(field, acc, corner_a, seed=seed)
    elif all(r.denominator == 1 for r in rates):
        plan = make_plan(field, acc, [int(r) for r in rates], seed=seed)
        _emit(plan_to_dict(plan), args.out)
        print(
            f"plan: padded lengths {list(plan.quotas)},"
            f" reserved blocks {[plan.reserved.sorted_block(k) for k in range(1, plan.K + 1)]}",
            file=sys.stderr,
        )
        return 0
    else:
        blocks_a, blocks_total = 1, lcm(*[r.denominator for r in rates])
        scaled = [r * blocks_total for r in rates]
        corner_a, corner_b = [int(s) for s in scaled], [0] * acc.K
        note = f"scaled corner {corner_a} on 1 of {blocks_total} blocks (zero-rate elsewhere)"
        try:
            plan_a = make_plan(field, acc, corner_a, seed=seed)
        except DmussError:
            # make_plan checks the region itself, so only a failure checks
            # it again: a scaled tuple outside the region is named as such,
            # before anything else make_plan refused (a field too small)
            report = in_capacity_region(acc, scaled)
            if not report.ok:
                raise NotInRegionError(
                    f"scaled tuple {[str(s) for s in scaled]} leaves the region"
                    f" ({report.violation}); supply --corner-a/--corner-b instead"
                ) from None
            raise

    plan_b = make_plan(field, acc, corner_b, seed=seed + 1)
    _emit(mix_to_dict(memory_share(plan_a, plan_b, blocks_a, blocks_total)), args.out)
    print(f"mixed plan: {note}", file=sys.stderr)
    return 0


def cmd_encode(args) -> int:
    scheme = load_any_plan(load_json(args.plan))
    p_msgs, blocks = messages_from_dict(load_json(args.messages))
    if p_msgs != scheme.field.p:
        raise FileFormatError(f"message modulus {p_msgs} != plan modulus {scheme.field.p}")
    try:
        results = scheme.encode_blocks(blocks, args.seed)
    except ShapeMismatchError as exc:  # the message file does not fit the plan
        raise FileFormatError(f"message file: {exc}") from exc
    pads = None
    if args.audit:
        pads = [{"free": r.pads.free, "tail": r.pads.tail} for r in results]
    doc = shares_to_dict(
        scheme.field.p,
        nodes=list(range(1, scheme.N + 1)),
        blocks=[r.shares for r in results],
        pads=pads,
    )
    _emit(doc, args.out)
    return 0


def cmd_decode(args) -> int:
    scheme = load_any_plan(load_json(args.plan))
    p_shares, blocks = shares_from_dict(load_json(args.shares))
    if p_shares != scheme.field.p:
        raise FileFormatError(f"share modulus {p_shares} != plan modulus {scheme.field.p}")
    k = args.user
    if not 1 <= k <= scheme.K:
        print(f"error: user must be in 1..{scheme.K}", file=sys.stderr)
        return 2
    try:
        symbols = scheme.decode(k, blocks)
    except ShapeMismatchError as exc:  # missing nodes or a wrong block count
        raise FileFormatError(f"share file: {exc}") from exc
    doc = {"format": "dmuss.user-message/1", "user": k, "symbols": symbols}
    _emit(doc, args.out)
    return 0


def _verify_one(plan: Plan, which: set, trials: int, seed: int) -> tuple:
    """Run the selected checks on one plan; returns (report dict, ok)."""
    out = {}
    ok = True
    if "privacy" in which:
        rep = check_privacy(plan)
        out["privacy"] = {
            "all_private": rep.all_private,
            "vacuous": rep.vacuous,
            "pairs": [
                {  # PairPrivacy's fields in order: asdict's deep copy is K^2 recursions
                    "secret_user": pair.secret_user,
                    "observer": pair.observer,
                    "base_rank": pair.base_rank,
                    "joint_rank": pair.joint_rank,
                    "required": pair.required,
                    "private": pair.private,
                }
                for pair in rep.pairs
            ],
        }
        ok &= rep.all_private
    if "entropy" in which:
        rep = check_entropy(plan)
        out["entropy"] = {"rank": rep.rank, "nodes": rep.nodes, "full": rep.full}
        ok &= rep.full
    if "roundtrip" in which:
        rep = check_correctness(plan, trials=trials, seed=seed)
        out["roundtrip"] = dataclasses.asdict(rep)
        ok &= rep.ok
    if "brute-force" in which:
        rep = brute_force_audit(plan)
        out["brute_force"] = {
            "inputs": rep.inputs,
            "bijective": rep.bijective,
            "all_independent": rep.all_independent,
            "roundtrip_failures": rep.roundtrip_failures,
            "pairs": [dataclasses.asdict(pair) for pair in rep.pairs],
        }
        ok &= rep.ok
    return out, ok


def cmd_verify(args) -> int:
    if args.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    scheme = load_any_plan(load_json(args.plan))
    which = {
        name
        for name, enabled in (
            ("privacy", args.privacy),
            ("entropy", args.entropy),
            ("roundtrip", args.roundtrip),
            ("brute-force", args.brute_force),
        )
        if enabled
    }
    if not which:
        which = {"privacy", "entropy", "roundtrip"}
    reports = [_verify_one(plan, which, args.trials, args.seed) for plan, _ in scheme.layers]
    ok = all(layer_ok for _, layer_ok in reports)
    if len(reports) == 1:
        doc = reports[0][0]
    else:  # a mix: its rates, then each layer's report
        (report_a, _), (report_b, _) = reports
        doc = {"mixed_rates": [str(r) for r in scheme.rates()], "plan_a": report_a, "plan_b": report_b}
    doc["ok"] = ok
    print(json_text(doc))
    return 0 if ok else 1


def _print_matrix(title: str, m) -> None:
    print(f"{title}:")
    if not m:
        print("  (no rows)")
        return
    width = max(len(str(v)) for row in m for v in row) if m[0] else 1
    for row in m:
        print("  [" + " ".join(str(v).rjust(width) for v in row) + "]")


def cmd_demo(args) -> int:
    field = demo_mod.demo_field()
    plan = demo_mod.demo_plan()
    acc = plan.access
    print(f"field: GF({field.p}), generator {field.gamma}")
    print(f"users: {acc.K}, nodes: {acc.N}")
    for k in range(1, acc.K + 1):
        print(f"user {k}: access {acc.sorted_set(k)}, rate {plan.rates[k - 1]}")
    print()
    report = in_capacity_region(acc, plan.rates)
    print(report.describe())
    print(f"padded lengths: {list(plan.quotas)}")
    print(f"reserved blocks: {[plan.reserved.sorted_block(k) for k in range(1, acc.K + 1)]}")
    print()
    for k in range(1, acc.K + 1):
        nodes, quota, perm = acc.sorted_set(k), plan.quotas[k - 1], plan.perms[k - 1]
        size = len(nodes)
        if quota < size:
            _print_matrix(f"user {k}: tail matrix ({size - quota} x {size})", linalg.build_B(field, quota, size))
        else:
            print(f"user {k}: tail matrix is empty (padded length = set size)")
        _print_matrix(f"user {k}: null basis (columns)", list(zip(*_null_basis(field, quota, size))))
        print(f"user {k}: exponent order {list(perm)},"
              f" points {[pow(field.gamma, e, field.p) for e in perm]},"
              f" scalings {[plan.alphas[k - 1][n] for n in nodes]}")
        print()
    v = plan_decomposition(plan)
    _print_matrix("correctness matrix (scaled rows)", v)
    print(f"determinant: {linalg.det(field, v)}")
    print()
    msgs = demo_mod.demo_messages()
    print(f"messages: {msgs}")
    res = demo_mod.demo_encode(plan)
    print(f"solved unknowns (tails, then shares): {res.solution}")
    print(f"shares Y_1..Y_{acc.N}: {res.shares}")
    print()
    for k in range(1, acc.K + 1):
        got = decode(plan, k, res.shares)
        print(f"user {k} decodes {got.message} (pads {got.pads})")
    return 0


# --- wiring ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process, since ``main`` runs
    once per command and the tree never changes."""
    parser = argparse.ArgumentParser(
        prog="dmuss",
        description="Distributed multi-user secret sharing: plan, encode, retrieve, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="test a rate tuple against the capacity region")
    p_check.add_argument("instance", help="instance JSON file")
    p_check.set_defaults(func=cmd_check)

    p_plan = sub.add_parser("plan", help="build encoding constants for an instance")
    p_plan.add_argument("instance", help="instance JSON file")
    p_plan.add_argument("--out", help="write the plan here instead of stdout")
    p_plan.add_argument("--seed", type=int, default=None, help="override the instance seed")
    p_plan.add_argument("--corner-a", help="integer corner tuple, e.g. 1,2,2,3")
    p_plan.add_argument("--corner-b", help="second corner tuple for rate mixing")
    p_plan.set_defaults(func=cmd_plan)

    p_enc = sub.add_parser("encode", help="encode messages into node shares")
    p_enc.add_argument("plan", help="plan JSON file")
    p_enc.add_argument("messages", help="messages JSON file")
    p_enc.add_argument("--out", help="write shares here instead of stdout")
    p_enc.add_argument("--seed", type=int, default=None, help="pad-drawing seed")
    p_enc.add_argument(
        "--audit",
        action="store_true",
        help="record the drawn and solved pads alongside the shares",
    )
    p_enc.set_defaults(func=cmd_encode)

    p_dec = sub.add_parser("decode", help="recover one user's message from shares")
    p_dec.add_argument("plan", help="plan JSON file")
    p_dec.add_argument("shares", help="shares JSON file (may be restricted to the user's nodes)")
    p_dec.add_argument("--user", type=int, required=True, help="user index, 1-based")
    p_dec.add_argument("--out", help="write the recovered message here instead of stdout")
    p_dec.set_defaults(func=cmd_decode)

    p_ver = sub.add_parser("verify", help="check a plan's guarantees")
    p_ver.add_argument("plan", help="plan JSON file")
    p_ver.add_argument("--privacy", action="store_true", help="pairwise privacy ranks")
    p_ver.add_argument("--entropy", action="store_true", help="share-uniformity rank")
    p_ver.add_argument("--roundtrip", action="store_true", help="randomized encode/decode trips")
    p_ver.add_argument(
        "--brute-force",
        action="store_true",
        help="exhaustively audit distributions (tiny instances only)",
    )
    p_ver.add_argument("--trials", type=int, default=50, help="round-trip trial count")
    p_ver.add_argument("--seed", type=int, default=0, help="round-trip seed")
    p_ver.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo", help="print a fully worked example")
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DmussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
