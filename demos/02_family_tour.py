"""Tour of the recursive function families and their closed forms.

The two-table recursion doubles the cube dimension once per weight a_i.
Everything about the resulting spectra has a product closed form, which
is what lets the library work far beyond enumerable sizes.
"""

import math

import numpy as np

import cubespec as cs

# One recursion step at weight 1 gives the classical tables.
pair = cs.build_pq(cs.ParamSeq([1.0, 1.0]))
print("P table:", pair.p.values.tolist())
print("Q table:", pair.q.values.tolist())
print("|P|^2 + |Q|^2 is flat:", (pair.p.values**2 + pair.q.values**2).tolist())

# All coefficients of the classical table have magnitude one.
mags = np.abs(cs.walsh_transform(pair.p).coeffs)
print("coefficient magnitudes:", sorted(set(mags.round(12).tolist())))

# Closed forms against brute force at a random weight sequence.
params = cs.ParamSeq([0.9, 0.4, 0.7, 0.25])
rep = cs.closed_form(params)
st = cs.stats(cs.build_pq(params).p)
print(f"\nclosed form influence {rep.influence:.15g}  brute {st.influence:.15g}")
print(f"closed form entropy   {rep.entropy:.15g}  brute {st.entropy:.15g}")

# The normalized builders produce the two headline counterexample shapes:
# a bounded real function and a unit-modulus complex one, both with small
# influence and large entropy.
n = 16
params = cs.theorem_params(n)
real_f = cs.normalized_real(params)
cplx_f = cs.unimodular_complex(params)
ncf = cs.normalized_closed_form(params)

bound = (n / (n + 1)) * math.log2(n)
print(f"\nn={n}: influence {ncf.influence:.6f} < 1, entropy {ncf.entropy:.6f} > {bound:.6f}")
print("real function sup norm:", cs.stats(real_f).linf_norm, "<= sqrt(2)")
print("complex moduli all one:", float(np.max(np.abs(np.abs(cplx_f.values) - 1.0))))

# The closed forms keep working where tables are impossible.
big = cs.remark3_params(2**20, 32.0)
ncf_big = cs.normalized_closed_form(big)
print(f"\nn=2^20: influence {ncf_big.influence:.4f}, entropy {ncf_big.entropy:.1f}")
print("entropy/influence ratio:", ncf_big.entropy / ncf_big.influence)
