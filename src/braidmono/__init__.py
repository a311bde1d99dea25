"""Exact-arithmetic braid-group cocycles over free-group rings, their
Laurent reductions, the induced action on intersection matrices, monodromy
characters, the straight-line path character evaluator, and reconstruction
of intersection matrices from straight-line data.
"""

from .words import (
    BraidWord, FreeWord, WordError, braid_act_word, format_braid, format_word,
    parse_braid, parse_word,
)
from .groupring import GroupRingElt, LaurentElt, abelian_reduce
from .matrices import MatrixError, MonomialGammaMatrix, RingMatrix
from .braids import LinkingMatrix, Permutation, braid_permutation, linking_numbers
from .cocycles import (
    braid_equal, coboundary_transport, fox_derivative, magnus_cocycle, pl_cocycle,
    reduce_reps,
)
from .monodromy import (
    IntersectionMatrix, OrientedZeroSphere, ParityClass, ParityError, act_on_N,
    character, character_transform, cocycle_and_action, cover_character,
    cover_example, kernel_basis, rho, theoremB_S, validate_N,
)
from .geometry import (
    AdmissibleConfig, GeometryError, RationalPoint, angular_order, chain,
    extremal_points, is_local_triangle, mu_index, validate_admissible,
)
from .groupoid import (
    GroupoidError, GroupoidWord, StraightLineData, chi_evaluate,
    parse_groupoid_word, rel1_insert, rel2_rewrite, validate_Q,
)
from .reconstruct import (
    AnchorWord, FanConfiguration, anchor_word, build_fan_config, forward_Q,
    hop_words, reconstruct_N,
)

# the names imported above, in order; no submodule is exported
__all__ = [
    "BraidWord", "FreeWord", "WordError", "braid_act_word", "format_braid", "format_word",
    "parse_braid", "parse_word", "GroupRingElt", "LaurentElt", "abelian_reduce",
    "MatrixError", "MonomialGammaMatrix", "RingMatrix", "LinkingMatrix", "Permutation",
    "braid_permutation", "linking_numbers", "braid_equal", "coboundary_transport",
    "fox_derivative", "magnus_cocycle", "pl_cocycle", "reduce_reps", "IntersectionMatrix",
    "OrientedZeroSphere", "ParityClass", "ParityError", "act_on_N", "character",
    "character_transform", "cocycle_and_action", "cover_character", "cover_example",
    "kernel_basis", "rho", "theoremB_S", "validate_N", "AdmissibleConfig", "GeometryError",
    "RationalPoint", "angular_order", "chain", "extremal_points", "is_local_triangle",
    "mu_index", "validate_admissible", "GroupoidError", "GroupoidWord", "StraightLineData",
    "chi_evaluate", "parse_groupoid_word", "rel1_insert", "rel2_rewrite", "validate_Q",
    "AnchorWord", "FanConfiguration", "anchor_word", "build_fan_config", "forward_Q",
    "hop_words", "reconstruct_N",
]
__version__ = "1.0.0"
