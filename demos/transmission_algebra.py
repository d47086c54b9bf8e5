"""Walk through the shell algebra that the whole package leans on.

Everything downstream (secular problem, certificates, FEM constraints) uses
a single 2x2 matrix M = a sigma_0 + b i sigma_3 (sigma . nu) per interface
normal nu.  This script prints the derived constants, the two ray
restrictions, and the identities that make M a legal transmission map.
"""

import math

import numpy as np

from diracwedge import (
    PhysParams,
    derived_constants,
    interface_matrices,
    pauli,
    sigma_dot,
    special_matrices,
    transmission_matrix,
)

p = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0)
dc = derived_constants(p)

print("parameters: tau=%g, m=%g, omega=%g rad" % (p.tau, p.m, p.omega))
print()
print("derived constants")
print("  a        = %.15g   (=5/3)" % dc.a)
print("  b        = %.15g   (=-4/3)" % dc.b)
print("  eps_tau  = %.15g   gap edge; essential spectrum starts at eps_tau^2=%.2f" % (dc.eps_tau, dc.eps_tau_sq))
print("  kappa0   = %.15g   transverse decay rate of the shell mode" % dc.kappa0)
print("  kappa_tau= %.15g   |M e|^2 for a unit spinor e (=41/9)" % dc.kappa_tau)
print("  c_tau    = %.15g   |(M - I) e|^2, the squared jump (=20/9)" % dc.c_tau)
print()

m_l, m_r = interface_matrices(p)
print("restriction to the upper ray (normal (-sin w, cos w)):")
print(np.array_str(m_l, precision=6, suppress_small=True))
print("restriction to the lower ray (normal (-sin w, -cos w)):")
print(np.array_str(m_r, precision=6, suppress_small=True))
print()

s0, s3 = pauli(0), pauli(3)
m = m_l
print("identities (max entrywise residual)")
print("  det M - 1                : %.2e" % abs(np.linalg.det(m) - 1.0))
print("  M - M*                   : %.2e" % np.max(np.abs(m - m.conj().T)))
print("  s3 M s3 M - I            : %.2e" % np.max(np.abs(s3 @ m @ s3 @ m - s0)))
print("  M* s3 M - s3             : %.2e" % np.max(np.abs(m.conj().T @ s3 @ m - s3)))
print("  M^2 + I - 2a M           : %.2e" % np.max(np.abs(m @ m + s0 - 2.0 * dc.a * m)))
print()

# The rotation Theta turns every M(nu) into the same real diagonal matrix.
nu = (0.6, 0.8)
m_nu = transmission_matrix(p, nu)
m_tilde, theta = special_matrices(p, nu)
print("diagonalization at nu = %s" % (nu,))
print("  M - (a s0 + b i s3 (sigma . nu)): %.2e   (M is built in closed form)"
      % np.max(np.abs(m_nu - (dc.a * s0 + dc.b * 1j * s3 @ sigma_dot(nu)))))
print("  M_tilde = diag(%g, %g); residual of Theta* M Theta - M_tilde: %.2e"
      % (m_tilde[0, 0].real, m_tilde[1, 1].real,
         np.max(np.abs(theta.conj().T @ m_nu @ theta - m_tilde))))
print()
print("The eigenvalue pair (3, 1/3) is reciprocal because det M = 1; the")
print("whole interaction strength sits in how far the pair spreads from 1.")
