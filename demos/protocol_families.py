"""Run the odd- and even-family GHZ pulse sequences on ideal networks.

For each qubit count the script compiles the sequence (collective y pi/2,
entangling evolution for pi/(2|g - gz|), then the family-specific final
rotations), executes it densely, and reports the fidelity against the cat
state together with the measured and predicted global phases.
"""

import numpy as np

from ghznet.protocol import compile_plan, verify

g, gz = 1.0, 0.05

print(f"ideal fully connected networks, g = {g}, gz = {gz}")
print(f"{'N':>3} {'family':>6} {'pulses':>7} {'fidelity':>12} {'phase (meas)':>22} {'phase (pred)':>22}")
for n in range(2, 11):
    plan = compile_plan(n, g, gz)
    fid, measured = verify(n, g, gz)
    meas = measured.phase
    pred = plan.expected_phase.phase
    print(
        f"{n:>3} {plan.parity:>6} {len(plan.per_qubit().finals) + 1:>7} {fid:>12.10f} "
        f"{meas.real:+.6f}{meas.imag:+.6f}i {pred.real:+.6f}{pred.imag:+.6f}i"
    )

print()
print("strong-ZZ regime (gz > g): the even family needs two extra z pi/2 pulses")
for n in (2, 4, 6):
    plan = compile_plan(n, 0.5, 1.0)
    fid, _ = verify(n, 0.5, 1.0)
    tail = ", ".join(f"z{p.qubit}" for p in plan.finals if p.axis == "z")
    print(f"  N = {n}: fidelity {fid:.10f}, z rotations on [{tail}]")

print()
print("a 25 ns entangling pulse corresponds to g/2pi = 10 MHz:")
t = compile_plan(3, 1.0, 0.0).entangle_duration
print(f"  t = {t:.4f} (dimensionless) -> {t * 1e3 / (2 * np.pi * 10):.1f} ns")
