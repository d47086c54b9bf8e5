"""Spectral toolkit for the 2-D Dirac operator with a Lorentz-scalar shell
supported on a broken line (infinite wedge of half-angle omega).

Layout:
    model        parameters, Pauli algebra, transmission matrices
    spin_orbit   angular secular problem on the two arcs
    special      modified Bessel functions and deficiency elements
    aux1d        transverse 1-D comparison problem on a finite width
    variational  test-function certificates, critical angle, Weyl sequences
    fem          P1 discretization of the quadratic form, gap-state counting
    cli          command-line front end (JSON/CSV artifacts)

``fem`` (and with it scipy.sparse) is loaded on first access, so importing
the package needs only numpy.
"""

import importlib

from .model import (
    DerivedConstants,
    ParameterError,
    PhysParams,
    charge_conjugate,
    derived_constants,
    interface_matrices,
    pauli,
    sigma_dot,
    special_matrices,
    transmission_matrix,
)
from .spin_orbit import (
    SpinOrbitRoot,
    angular_profile,
    principal_eigenvalue,
    secular_det,
    secular_matrix,
    spectrum_in_window,
)
from .special import bessel_k, deficiency_element
from .aux1d import Aux1DResult, ground_state, secular_f
from .variational import (
    EnergyBreakdown,
    SingularSeqReport,
    TestFunctionFamily,
    angle_for_length,
    bound_state_certificate,
    critical_angle_closed,
    critical_angle_maximize,
    energy_breakdown,
    singular_seq_identities,
    test_function_family,
    test_function_gradient,
    test_function_value,
    weyl_norm_sq,
    weyl_residual,
)

__version__ = "0.1.0"

__all__ = [
    "DerivedConstants", "ParameterError", "PhysParams", "charge_conjugate",
    "derived_constants", "interface_matrices", "pauli", "sigma_dot",
    "special_matrices", "transmission_matrix",
    "SpinOrbitRoot", "angular_profile", "principal_eigenvalue",
    "secular_det", "secular_matrix", "spectrum_in_window",
    "bessel_k", "deficiency_element",
    "Aux1DResult", "ground_state", "secular_f",
    "EnergyBreakdown", "SingularSeqReport",
    "TestFunctionFamily", "angle_for_length", "bound_state_certificate",
    "critical_angle_closed", "critical_angle_maximize", "energy_breakdown",
    "singular_seq_identities", "test_function_family",
    "test_function_gradient", "test_function_value", "weyl_norm_sq",
    "weyl_residual",
    "fem",
    "__version__",
]


def __getattr__(name):
    # import_module, not ``from . import fem``: the fromlist lookup would
    # call this hook again before the submodule is bound
    if name == "fem":
        return importlib.import_module(".fem", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
