"""Distributed multi-user secret sharing over prime fields.

One master holds a private message for each of K users; N storage nodes
each keep a single field symbol per block, and user k reads only the
nodes in its access set A_k.  The library decides which message-length
tuples are achievable at all (the capacity region), constructs concrete
coding constants for achievable integer tuples, encodes messages into
node shares, recovers each user's message from its own nodes, and proves
the scheme's guarantees mechanically: every user decodes correctly, the
stored symbols are jointly uniform, and no user learns anything about
anyone else's message.  Rational rate tuples are reached by mixing two
integer-rate plans across node symbol blocks.
"""

from .access import (
    AccessStructure,
    Constraint,
    RegionReport,
    augment_quotas,
    capacity_constraints,
    enumerate_integer_region,
    in_capacity_region,
    pairwise_bound,
    validate_quotas,
)
from .codec import (
    DecodeResult,
    EncodeResult,
    MemoryShare,
    PadSet,
    TransferMap,
    decode,
    encode,
    encode_with_pads,
    memory_share,
    transfer_map,
)
from .errors import (
    BadShapeError,
    BadSymbolError,
    DmussError,
    FieldTooSmallError,
    IncompatiblePlansError,
    NoSdrError,
    NotInRegionError,
    NotPrimeError,
    PlanningFailedError,
    ShapeMismatchError,
    SingleUserError,
    SingularMatrixError,
    TooLargeError,
    TooManyUsersError,
    ZeroElementError,
)
from .gf import Field, is_prime
from .planner import (
    CorrectnessDecomposition,
    Plan,
    choose_permutation,
    choose_zeta,
    make_plan,
    plan_decomposition,
    plan_from_parameters,
    tail_basis,
)
from .sdr import DeficiencyCertificate, SdrAssignment, find_sdr, validate_sdr
from .verify import (
    AuditReport,
    CorrectnessReport,
    EntropyReport,
    PairPrivacy,
    PrivacyReport,
    brute_force_audit,
    check_correctness,
    check_entropy,
    check_privacy,
)

__version__ = "0.1.0"

__all__ = [
    "AccessStructure",
    "AuditReport",
    "BadShapeError",
    "BadSymbolError",
    "Constraint",
    "CorrectnessDecomposition",
    "CorrectnessReport",
    "DecodeResult",
    "DeficiencyCertificate",
    "DmussError",
    "EncodeResult",
    "EntropyReport",
    "Field",
    "FieldTooSmallError",
    "IncompatiblePlansError",
    "MemoryShare",
    "NoSdrError",
    "NotInRegionError",
    "NotPrimeError",
    "PadSet",
    "PairPrivacy",
    "Plan",
    "PlanningFailedError",
    "PrivacyReport",
    "RegionReport",
    "SdrAssignment",
    "ShapeMismatchError",
    "SingleUserError",
    "SingularMatrixError",
    "TooLargeError",
    "TooManyUsersError",
    "TransferMap",
    "ZeroElementError",
    "augment_quotas",
    "brute_force_audit",
    "capacity_constraints",
    "check_correctness",
    "check_entropy",
    "check_privacy",
    "choose_permutation",
    "choose_zeta",
    "decode",
    "encode",
    "encode_with_pads",
    "enumerate_integer_region",
    "find_sdr",
    "in_capacity_region",
    "is_prime",
    "make_plan",
    "memory_share",
    "pairwise_bound",
    "plan_decomposition",
    "plan_from_parameters",
    "tail_basis",
    "transfer_map",
    "validate_quotas",
    "validate_sdr",
]
