"""Compare the closed-form exchange eigenvalues with brute-force values.

On the symmetric subspace the uniform network's spectrum is
lambda_j = j(N - j)(g - gz) + C(N,2) gz / 2, mirror-symmetric in j.
The brute-force column is the Rayleigh quotient of the dense Hamiltonian
on each generalized W state.
"""

import numpy as np

from ghznet.couplings import ideal, to_sparse
from ghznet.symmetric import WBasisState, analytic_eigenvalues, embed

n, g, gz = 6, 1.0, 0.2
lam = analytic_eigenvalues(n, g, gz)
h = to_sparse(ideal(n, g, gz)).toarray().astype(complex)

print(f"N = {n}, g = {g}, gz = {gz}")
print(f"{'j':>3} {'analytic':>12} {'numeric':>12} {'|diff|':>10}")
for j in range(n + 1):
    w = embed(WBasisState(n, np.eye(n + 1)[j])).amplitudes
    lam_num = float(np.real(np.vdot(w, h @ w)))
    print(f"{j:>3} {lam[j]:>12.6f} {lam_num:>12.6f} {abs(lam[j] - lam_num):>10.2e}")

print()
print("the spectrum collapses at the isotropic point g = gz:")
iso = analytic_eigenvalues(n, 0.7, 0.7)
print(f"  lambda_j = {iso[0]:.4f} for every j -> no entanglement is generated")
