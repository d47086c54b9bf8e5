"""The two analytic anchors for the essential spectrum.

First the transverse strip problem: a 1-D operator on (-gamma, gamma) whose
ground state solves k tanh(k gamma) = kappa0 and converges to the gap edge
eps_tau^2 exponentially fast as the strip widens.  Then the two sequences
that pin the essential spectrum of the full 2-D operator from both sides:
cut-off plane waves far from the shell (residual -> 0 like 1/n) and
shell-aligned profiles whose norms stay pinched between fixed constants.
"""

import math

from diracwedge import (
    PhysParams,
    derived_constants,
    ground_state,
    singular_sequence,
    weyl_norm_sq,
    weyl_residual,
)

p = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0)
eps_sq = derived_constants(p).eps_tau_sq

print("strip ground state, tau=%g m=%g (gap edge eps^2 = %.2f):" % (p.tau, p.m, eps_sq))
print("  gamma   k_gamma            E(gamma)            eps^2 - E")
for gamma in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
    r = ground_state(p, gamma)
    print("  %-5g   %.12f   %+.12f   %.3e"
          % (gamma, r.k_gamma, r.E_gamma, eps_sq - r.E_gamma))
print()
print("E(1) is negative: a narrow strip binds harder than the infinite")
print("shell.  The defect eps^2 - E decays like e^{-2 kappa0 gamma}.")
print()

lam = 1.5
print("cut-off plane waves at lambda = %g (|lambda| > m):" % lam)
print("  n    ||psi_n||^2          residual")
prev = None
for n in (4, 8, 16, 32):
    nrm = weyl_norm_sq(p, lam, n)
    res = weyl_residual(p, lam, n)
    note = "" if prev is None else "   ratio %.3f" % (res / prev)
    print("  %-3d  %.13f  %.6e%s" % (n, nrm, res, note))
    prev = res
print("Constant norms + vanishing residuals: every |lambda| > m belongs to")
print("the essential spectrum, with exact 1/n decay from the cutoff scaling.")
print()

rep = singular_sequence(p)
print("shell-aligned singular sequence (reaches the gap edge itself):")
print("  norm window [c1, c2] = [%.6f, %.6f]" % (rep.c_lower, rep.c_upper))
for n, v in sorted(rep.norm_sq.items()):
    print("  ||psi_%d||^2 = %.6f" % (n, v))
inside = all(rep.c_lower <= v <= rep.c_upper for v in rep.norm_sq.values())
print("  all inside the window: %s" % inside)
