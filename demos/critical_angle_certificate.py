"""Certify gap eigenvalues for thin wedges with explicit test functions.

The certificate machine: pick N transverse sine modes on a strip of length L
hugging the shell, evaluate the quadratic form minus eps_tau^2 in closed
form, and tune (omega, L) so the n-independent bound of the gap is exactly
zero.  Maximizing that angle over L gives omega_star, attained at L_star (both
in closed form): below omega_star, at least N eigenvalues sit in the spectral
gap.
"""

import numpy as np

from diracwedge import (
    PhysParams,
    angle_for_length,
    bound_state_certificate,
    critical_angle_closed,
    critical_angle_maximize,
    energy_breakdown,
)

tau, m = -1.0, 1.0

print("certificate angle as a function of strip length (tau=%g, N=1):" % tau)
print("  L        omega(L) [rad]")
for length in (5.0, 10.0, 15.0, 21.15, 30.0, 60.0):
    print("  %-7g  %+.8e" % (length, angle_for_length(tau, m, length, 1)))
print("(negative entries mean: this L certifies nothing)")
print()

print("critical angle and optimal strip length, both in closed form:")
print("  tau    N   omega_star               L_star")
for t in (-0.5, -1.0, -3.0):
    for n_modes in (1, 2):
        p = PhysParams(tau=t, m=m, omega=0.01)
        w_star, l_star = critical_angle_maximize(p, n_modes)
        print("  %-5g  %d   %.16e   %.6f" % (t, n_modes, w_star, l_star))
print()

w_star = critical_angle_closed(tau, 1)
p = PhysParams(tau=tau, m=m, omega=w_star)
ok, bd = bound_state_certificate(p, 1)
print("at omega = omega_star(%g, 1) = %.6e:" % (tau, w_star))
print("  certificate: %s" % ok)
print("  form pieces: jump=%.6f  l2=%.6f  gradx=%.6f  grady=%.6f"
      % (bd.jump_sq, bd.l2_sq, bd.gradx_sq, bd.grady_sq))
print("  exact form gap   = %.6f  (< 0 certifies the eigenvalue)" % bd.form_gap)
print("  coarse bound gap = %.3e  (zero by construction at L_star)" % bd.bound_gap)
print()

# widen the angle: the same machinery honestly reports failure to certify
p_wide = PhysParams(tau=tau, m=m, omega=0.3)
ok_wide, bd_wide = bound_state_certificate(p_wide, 1)
print("at omega = 0.3 rad the estimate gives bound gap %.3f > 0: certificate %s"
      % (bd_wide.bound_gap, ok_wide))
print("(inconclusive, not a disproof; wide wedges need the FEM route)")
print()

# the per-mode breakdown for N = 2 at its own critical angle
w2 = critical_angle_closed(tau, 2)
p2 = PhysParams(tau=tau, m=m, omega=w2)
_, l2 = critical_angle_maximize(p2, 2)
bd2 = energy_breakdown(p2, 2, l2)
print("N=2 at omega_star(%g, 2) = %.6e, L_star = %.4f:" % (tau, w2, l2))
modes = np.asarray(bd2.form_gap_modes)
print("  per-mode form gaps: %s" % np.array_str(modes, precision=6))
print("  both negative: two eigenvalues certified in the gap")
