"""pllab: a numerical laboratory for proto-Lambert and Lambert space norms.

The package computes amplified norms for several quantizations of a finite
dimensional normed space, certified two-sided brackets for the pl and l
tensor norms, and lower-bound certificates built from contractive bilinear
maps.  All computations run on finite truncations with complex scalars.
"""

from .hilbert import (
    PairingMap,
    coeffs_of,
    diamond_amp,
    diamond_op,
    diamond_vec,
    module_action,
    op_norm,
    rank_one,
    vec_diamond_amp,
)
from .bases import BaseNorm
from .quantizations import (
    NormValue,
    Quantization,
    amp_norm,
    semi_ruan_witness_search,
    underlying_norm,
)
from .maps import (
    BilinearMap,
    Certificate,
    LbNormEstimate,
    LinearMap,
    amplify_bilinear,
    amplify_linear,
    builtin_certificates,
    lb_norm_lower,
)
from .tensorlab import (
    LRepresentation,
    NormBracket,
    PLRepresentation,
    compare_pl_l,
    l_norm_bracket,
    orthogonalize_representation,
    pl_norm_bracket,
)

__version__ = "0.1.0"

__all__ = [
    "PairingMap",
    "coeffs_of",
    "diamond_amp",
    "diamond_op",
    "diamond_vec",
    "module_action",
    "op_norm",
    "rank_one",
    "vec_diamond_amp",
    "BaseNorm",
    "NormValue",
    "Quantization",
    "amp_norm",
    "semi_ruan_witness_search",
    "underlying_norm",
    "BilinearMap",
    "Certificate",
    "LbNormEstimate",
    "LinearMap",
    "amplify_bilinear",
    "amplify_linear",
    "builtin_certificates",
    "lb_norm_lower",
    "LRepresentation",
    "NormBracket",
    "PLRepresentation",
    "compare_pl_l",
    "l_norm_bracket",
    "orthogonalize_representation",
    "pl_norm_bracket",
    "__version__",
]
