"""JSON artifact formats for the CLI.

Four document kinds, each tagged with a ``format`` string: instances
(problem statements), plans (all planning constants; permutations stand
in for the evaluation points, which are powers of the stored generator),
share files (per-block node symbols, possibly restricted to a subset of
nodes), and message files (per-block, per-user symbol lists).  A fifth
composite kind wraps two plans plus a block split for rate mixing; either
plan kind loads as one scheme (:func:`load_any_plan`).

Every document the CLI writes, to a file or to stdout, is made by
:func:`json_text`: the bytes of the standard library's ``json.dumps``
with ``indent=2``, with flat int lists joined in one ``str.join``
instead of going token by token through its pure-Python indented
encoder.

Malformed documents raise :class:`FileFormatError`; whether the *valid*
document describes something mathematically workable is the domain
layer's business and surfaces as DmussError subclasses instead.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .access import AccessStructure
from .codec import MemoryShare, memory_share
from .errors import BadSymbolError
from .gf import Field
from .planner import Plan, plan_from_parameters
from .sdr import SdrAssignment

INSTANCE_FORMAT = "dmuss.instance/1"
PLAN_FORMAT = "dmuss.plan/1"
MIX_FORMAT = "dmuss.plan-mix/1"
SHARES_FORMAT = "dmuss.shares/1"
MESSAGES_FORMAT = "dmuss.messages/1"


class FileFormatError(ValueError):
    """Document structure is wrong (missing keys, bad types, bad tags)."""


def _is_int(v) -> bool:
    """JSON integers only: ``true`` and ``false`` are not 1 and 0."""
    return isinstance(v, int) and not isinstance(v, bool)


def _require(doc: dict, key: str, kind):
    if key not in doc:
        raise FileFormatError(f"missing key {key!r}")
    value = doc[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise FileFormatError(f"key {key!r} has type {type(value).__name__}")
    return value


def _check_format(doc, tag: str):
    if not isinstance(doc, dict):
        raise FileFormatError("document must be a JSON object")
    if doc.get("format") != tag:
        raise FileFormatError(f"expected format {tag!r}, got {doc.get('format')!r}")


def _int_list(values, what: str) -> list:
    """A list of JSON integers: one pass over the types, and a per-entry
    :func:`_is_int` only when some entry is not exactly an int."""
    if not isinstance(values, list) or (
        not set(map(type, values)) <= {int} and not all(_is_int(v) for v in values)
    ):
        raise FileFormatError(f"{what} must be a list of integers")
    return list(values)


def _node_list(values, what: str) -> list:
    """:func:`_int_list` with no node listed twice: a set written as a list."""
    nodes = _int_list(values, what)
    if len(set(nodes)) != len(nodes):
        raise FileFormatError(f"{what} lists a node more than once")
    return nodes


def _symbol_list(values, p: int, what: str) -> list:
    """Field symbols: integers (JSON numbers, not booleans) in [0, p)."""
    if not isinstance(values, list) or not all(type(v) is int and 0 <= v < p for v in values):
        raise FileFormatError(f"{what} must be a list of integers in [0, {p})")
    return list(values)


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc


_INT_REPR = int.__repr__  # what the encoder writes for an int
_STR_JSON = json.encoder.encode_basestring_ascii
_LITERALS = {True: "true", False: "false", None: "null"}
_FALLBACK = json.JSONEncoder(indent=2)  # json.dumps with indent=2 is its encode


def json_text(doc) -> str:
    """Exactly the text ``json.dumps`` writes for ``doc`` with ``indent=2``.

    Lists and tuples of exact ints (a plan's perms, share blocks, ...)
    are one ``str.join`` over ``int.__repr__``; lists of other values,
    dicts with str keys, strs, ints, bools and None are written here; any
    other value (a float, a dict with a non-str key, an int or str
    subclass) is the standard encoder's text, re-indented.  A value that
    contains itself recurses without the encoder's cycle check.
    """
    return _json_value(doc, "\n")


def _json_value(v, newline: str) -> str:
    """``v`` as indented JSON at the depth whose lines start with ``newline``."""
    kind = type(v)
    if kind is str:
        return _STR_JSON(v)
    if kind is int:
        return _INT_REPR(v)
    if kind is list or kind is tuple:
        if not v:
            return "[]"
        inner = newline + "  "
        if set(map(type, v)) == {int}:
            items = map(_INT_REPR, v)
        else:
            items = [_json_value(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict and set(map(type, v)) <= {str}:
        if not v:
            return "{}"
        inner = newline + "  "
        items = [_STR_JSON(key) + ": " + _json_value(x, inner) for key, x in v.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is bool or v is None:
        return _LITERALS[v]
    return _FALLBACK.encode(v).replace("\n", newline)


def save_json(path: str, doc: dict) -> None:
    """``doc`` as :func:`json_text` and a newline, in one write:
    ``json.dump`` writes each token separately."""
    text = json_text(doc) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _rate_to_json(r: Fraction):
    return int(r) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def _rate_from_json(v) -> Fraction:
    if isinstance(v, bool):
        raise FileFormatError(f"bad rate {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise FileFormatError(f"bad rate {v!r}") from exc
    raise FileFormatError(f"bad rate {v!r}")


# --- instances ---------------------------------------------------------------


def instance_to_dict(field: Field, acc: AccessStructure, rates: Sequence, seed=None) -> dict:
    doc = {
        "format": INSTANCE_FORMAT,
        "p": field.p,
        "k": acc.K,
        "n": acc.N,
        "access": [acc.sorted_set(k) for k in range(1, acc.K + 1)],
        "rates": [_rate_to_json(Fraction(r)) for r in rates],
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


def instance_from_dict(doc: dict) -> tuple:
    """Returns (field, access, rates, seed); rates are Fractions."""
    _check_format(doc, INSTANCE_FORMAT)
    p = _require(doc, "p", int)
    raw_access = _require(doc, "access", list)
    if not raw_access or not all(isinstance(s, list) for s in raw_access):
        raise FileFormatError("access must be a list of node lists")
    sets = [_node_list(s, "access set") for s in raw_access]
    try:
        acc = AccessStructure.of(sets)
        field = Field(p)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc
    if "k" in doc and (not _is_int(doc["k"]) or doc["k"] != acc.K):
        raise FileFormatError(f"k={doc['k']} but {acc.K} access sets given")
    if "n" in doc and (not _is_int(doc["n"]) or doc["n"] != acc.N):
        raise FileFormatError(f"n={doc['n']} but access sets cover {acc.N} nodes")
    rates = [_rate_from_json(v) for v in _require(doc, "rates", list)]
    if len(rates) != acc.K:
        raise FileFormatError(f"{len(rates)} rates for {acc.K} users")
    if any(r < 0 for r in rates):
        raise FileFormatError("rates must be nonnegative")
    seed = doc.get("seed")
    if seed is not None and not _is_int(seed):
        raise FileFormatError("seed must be an integer")
    return field, acc, rates, seed


# --- plans -------------------------------------------------------------------


def plan_to_dict(plan: Plan) -> dict:
    return {
        "format": PLAN_FORMAT,
        "p": plan.field.p,
        "gamma": plan.field.gamma,
        "access": [plan.access.sorted_set(k) for k in range(1, plan.K + 1)],
        "rates": list(plan.rates),
        "quotas": list(plan.quotas),
        "reserved": [plan.reserved.sorted_block(k) for k in range(1, plan.K + 1)],
        "perms": [list(p_) for p_ in plan.perms],
        "alphas": [
            [[n, plan.alphas[k - 1][n]] for n in plan.access.sorted_set(k)]
            for k in range(1, plan.K + 1)
        ],
    }


def plan_from_dict(doc: dict) -> Plan:
    _check_format(doc, PLAN_FORMAT)
    p = _require(doc, "p", int)
    gamma = _require(doc, "gamma", int)
    raw_access = _require(doc, "access", list)
    sets = [_node_list(s, "access set") for s in raw_access]
    try:
        acc = AccessStructure.of(sets)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc
    k_count = acc.K
    rates = _int_list(_require(doc, "rates", list), "rates")
    quotas = _int_list(_require(doc, "quotas", list), "quotas")
    reserved_lists = _require(doc, "reserved", list)
    perms = _require(doc, "perms", list)
    alphas_lists = _require(doc, "alphas", list)
    if not (len(rates) == len(quotas) == len(reserved_lists) == len(perms) == len(alphas_lists) == k_count):
        raise FileFormatError("per-user lists disagree with the number of access sets")
    reserved = SdrAssignment(
        blocks=tuple(frozenset(_node_list(z, "reserved block")) for z in reserved_lists)
    )
    alphas = []
    for entries in alphas_lists:
        if not isinstance(entries, list):
            raise FileFormatError("alphas must be lists of [node, value] pairs")
        per_user = {}
        for item in entries:
            if not isinstance(item, list) or len(item) != 2:
                raise FileFormatError(f"bad alpha entry {item!r}")
            node, value = item
            if type(node) is not int or type(value) is not int:  # JSON ints, not booleans
                raise FileFormatError(f"bad alpha entry {item!r}")
            if node in per_user:
                raise FileFormatError(f"alphas list node {node} more than once")
            per_user[node] = value
        alphas.append(per_user)
    perms = [tuple(_int_list(p_, "permutation")) for p_ in perms]
    try:
        field = Field(p, gamma=gamma)
        return plan_from_parameters(
            field=field,
            acc=acc,
            rates=rates,
            quotas=quotas,
            reserved=reserved,
            perms=perms,
            alphas=alphas,
        )
    except (BadSymbolError, ValueError) as exc:  # e.g. a gamma or scaling outside GF(p)
        raise FileFormatError(str(exc)) from exc


# --- rate mixes ----------------------------------------------------------------


def mix_to_dict(ms: MemoryShare) -> dict:
    (plan_a, blocks_a), (plan_b, _) = ms.layers
    return {
        "format": MIX_FORMAT,
        "blocks_a": blocks_a,
        "blocks_total": ms.blocks_total,
        "plan_a": plan_to_dict(plan_a),
        "plan_b": plan_to_dict(plan_b),
    }


def mix_from_dict(doc: dict) -> MemoryShare:
    _check_format(doc, MIX_FORMAT)
    return memory_share(
        plan_a=plan_from_dict(_require(doc, "plan_a", dict)),
        plan_b=plan_from_dict(_require(doc, "plan_b", dict)),
        blocks_a=_require(doc, "blocks_a", int),
        blocks_total=_require(doc, "blocks_total", int),
    )


def load_any_plan(doc: dict) -> MemoryShare:
    """A plan file as the one-layer scheme ((plan, 1),), which takes any
    number of blocks; a mix file as its two layers, which take exactly
    blocks_total blocks."""
    if isinstance(doc, dict) and doc.get("format") == MIX_FORMAT:
        return mix_from_dict(doc)
    return MemoryShare(((plan_from_dict(doc), 1),))


# --- shares and messages -------------------------------------------------------


def shares_to_dict(p: int, nodes: Sequence[int], blocks: Sequence, pads=None) -> dict:
    doc = {
        "format": SHARES_FORMAT,
        "p": p,
        "nodes": list(nodes),
        "blocks": [list(b) for b in blocks],
    }
    if pads is not None:
        doc["pads"] = pads
    return doc


def shares_from_dict(doc: dict) -> tuple:
    """Returns (p, blocks) with each block a dict node -> symbol."""
    _check_format(doc, SHARES_FORMAT)
    p = _require(doc, "p", int)
    nodes = _int_list(_require(doc, "nodes", list), "nodes")
    if len(set(nodes)) != len(nodes):
        raise FileFormatError("share file lists a node more than once")
    blocks = _require(doc, "blocks", list)
    out = []
    for b in blocks:
        vals = _symbol_list(b, p, "share block")
        if len(vals) != len(nodes):
            raise FileFormatError(f"share block length {len(vals)} != {len(nodes)} nodes")
        out.append(dict(zip(nodes, vals)))
    if not out:
        raise FileFormatError("share file has no blocks")
    return p, out


def messages_to_dict(p: int, blocks: Sequence) -> dict:
    return {
        "format": MESSAGES_FORMAT,
        "p": p,
        "blocks": [[list(m) for m in block] for block in blocks],
    }


def messages_from_dict(doc: dict) -> tuple:
    """Returns (p, blocks); each block is a per-user list of symbol lists."""
    _check_format(doc, MESSAGES_FORMAT)
    p = _require(doc, "p", int)
    blocks = _require(doc, "blocks", list)
    out = []
    for block in blocks:
        if not isinstance(block, list):
            raise FileFormatError("each message block must be a list of user messages")
        out.append([_symbol_list(m, p, "user message") for m in block])
    if not out:
        raise FileFormatError("message file has no blocks")
    return p, out
