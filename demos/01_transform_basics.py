"""A first walk through the transform machinery.

Functions on the n-dimensional sign cube live in a table of 2^n values,
indexed so that bit (i-1) of the point index clears when coordinate i is
+1. The transform expands the table over the character basis; influence
and entropy are then read off the squared coefficients.
"""

import numpy as np

import cubespec as cs

# A tiny real function on the 2-cube, written out by hand.
f = cs.HypercubeFunction(2, np.array([1.0, 2.0, 3.0, 4.0]))
sp = cs.walsh_transform(f)

print("value table:       ", f.values.tolist())
print("coefficients:      ", sp.coeffs.tolist())

# Parseval: mean squared value equals the total squared coefficient mass.
st = cs.stats(f)
print("l2 norm:           ", st.l2_norm)
print("coefficient mass:  ", st.total_weight)

# Influence weights each squared coefficient by its degree; entropy is the
# Shannon entropy (base 2) of the squared coefficients.
print("influence:         ", st.influence)
print("entropy:           ", st.entropy)

# The transform inverts exactly on dyadic data.
back = cs.inverse_transform(sp)
print("round trip exact:  ", bool(np.array_equal(back.values, f.values.astype(complex))))

# A single character is its own spectrum: one coefficient, degree = its size.
parity = cs.HypercubeFunction(2, np.array([1.0, -1.0, -1.0, 1.0]))
print("parity influence:  ", cs.influence(cs.walsh_transform(parity)))
print("parity entropy:    ", cs.entropy(cs.walsh_transform(parity)))
