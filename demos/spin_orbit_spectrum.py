"""Angular spectrum on the two arcs cut out by the wedge boundary.

Separating the operator in polar coordinates leaves a first-order spin-orbit
problem on the circle, broken at theta = +-omega by matrix matching
conditions.  Its eigenvalue in (0, 1/2) controls the corner singularity of
everything built later (deficiency elements, FEM grading).
"""

import math

import numpy as np

from diracwedge import (
    PhysParams,
    angular_profile,
    interface_matrices,
    principal_eigenvalue,
    secular_det,
    spectrum_in_window,
)

p = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0)

print("parameters: tau=%g, omega=pi/4" % p.tau)
print()

root = principal_eigenvalue(p)
print("principal eigenvalue lambda* = %.15f (multiplicity %d)"
      % (root.lam, root.multiplicity))
print()

print("all roots in [-3, 3]:")
print("  lambda                 multiplicity")
for r in spectrum_in_window(p, -3.0, 3.0):
    print("  %+.15f   %d" % (r.lam, r.multiplicity))
print()
print("The set is symmetric under negation and repeats as 2 - lambda and")
print("2 + lambda: the matching phases only see mu = lambda - 1/2 through")
print("e^{i mu omega} with omega = pi/4, so mu and mu + 4 coincide there.")
print()

# the secular determinant is the quantity whose zeros were just listed
lams = np.linspace(-1.0, 1.0, 9)
print("det T(lambda) samples on [-1, 1] (real; it changes sign at simple roots):")
for lam, d in zip(lams, secular_det(p, lams)):
    print("  %+.3f  %+.6e" % (lam, d))
print()

# eigenfunction: check the matching condition it was built to satisfy
m_l = interface_matrices(p)[0].entries
w = p.omega
inside = angular_profile(p, root, w - 1e-13)
outside = angular_profile(p, root, w + 1e-13)
res = np.max(np.abs(m_l @ inside - outside))
print("matching residual |M_l phi(omega-) - phi(omega+)| = %.2e" % res)

# weak coupling pushes the principal root to the edge of the gap window
for tau in (-1.0, -0.1, -0.01, -0.001):
    lam = principal_eigenvalue(PhysParams(tau=tau, m=1.0, omega=p.omega)).lam
    print("tau=%-8g lambda* = %.12f   (1/2 - lambda* = %.3e)"
          % (tau, lam, 0.5 - lam))
