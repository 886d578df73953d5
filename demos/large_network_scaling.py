"""Scale the protocol to thousands of qubits in the symmetric subspace.

Collective pulses and the uniform entangling evolution preserve the span
of the N+1 generalized W states, so the whole odd-family sequence runs on
a linear-size coefficient vector.  This script times the run and checks
the fidelity against the GHZ target expressed in the W basis.
"""

import time

import numpy as np

from ghznet.protocol import compile_plan, execute_symmetric
from ghznet.symmetric import ghz_w_target

g, gz = 1.0, 0.05

print(f"{'N':>6} {'fidelity':>16} {'time':>8}")
for n in (11, 101, 1001, 5001, 10001):
    start = time.monotonic()
    plan = compile_plan(n, g, gz)
    w = execute_symmetric(plan, g, gz)
    target = ghz_w_target(n).coeffs
    ov = np.vdot(target, w.coeffs)
    fid = 1 - np.linalg.norm(w.coeffs * (ov.conjugate() / abs(ov)) - target)
    print(f"{n:>6} {fid:>16.12f} {time.monotonic() - start:>7.2f}s")

print()
print("the entangling time is independent of N: t = pi/(2|g - gz|) ="
      f" {compile_plan(3, g, gz).entangle_duration:.4f}")
