"""
Certified lower bounds from contractive maps
============================================

Upper bounds come from explicit decompositions; lower bounds need
witnesses.  A certificate is a bilinear map into an exactly evaluable
target whose amplified norm never grows, so the norm of the image is a
certified floor for the norm upstream.
"""

import numpy as np

from pllab import (
    BaseNorm,
    LinearMap,
    Quantization,
    amp_norm,
    builtin_certificates,
    diamond_amp,
    lb_norm_lower,
)
from pllab.maps import underlying_dual_norm

rng = np.random.default_rng(2)

# the lb-norm of a functional is its dual norm, exactly
q = Quantization.min(BaseNorm.lp(1.0, weights=[1.0, 1.0]))
f = LinearMap(np.array([[1.0], [-2.0]]), q, Quantization.scalar())
est = lb_norm_lower(f)
print("functional (1, -2) on l1:", est.lower, f"({est.method})")

# the search route reaches the same value without the closed form: its
# norming candidate meets the dual norm, so it stops there, exact
est_search = lb_norm_lower(f, budget=1000, use_closed_forms=False)
print("search route:", est_search.lower, f"({est_search.method})")

# certificates for a pair of Frobenius-quantized factors
E = F = Quantization.hilbert(3)
print("\ncatalog for hilbert x hilbert:")
for cert in builtin_certificates(E, F):
    print(f"  {cert.name:32s} -> {cert.target.kind}  ({cert.provenance})")

# a certificate value never beats the product of the factor norms
u = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
W = diamond_amp(u, v)
prod = amp_norm(E, u).value * amp_norm(F, v).value
print("\n||u|| ||v|| =", prod)
for cert in builtin_certificates(E, F):
    val, info = cert.evaluate_lower(W, budget=100)
    print(f"  {cert.name:32s} lower {val:.12f}")
    assert val <= prod + 1e-9

# dual norms double as exact references for the searches
c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
print("\ndual norm of a random functional:", underlying_dual_norm(E, c))
