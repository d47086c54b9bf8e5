"""Spectral toolkit for the 2-D Dirac operator with a Lorentz-scalar shell
supported on a broken line (infinite wedge of half-angle omega).

Layout:
    model        parameters, Pauli algebra, transmission matrices
    spin_orbit   angular secular problem on the two arcs
    special      modified Bessel functions and deficiency elements
    aux1d        transverse 1-D comparison problem on a finite width
    variational  test-function certificates, critical angle, Weyl and
                 shell-aligned singular sequences
    fem          P1 discretization of the quadratic form, gap-state counting
    cli          command-line front end (JSON/CSV artifacts)

Importing the package loads no layer: each exported name, and each layer
module, is imported on first access and then bound here, so a later lookup
is a plain attribute hit.  The layers import numpy inside the functions
that build arrays, and only ``fem`` loads scipy.  The closed-form and
scalar quantities (derived constants, critical angle, test-function
energies, strip ground state, Weyl sequence, principal spin-orbit root,
K_nu) are computed on Python floats and never load either; the secular
determinant, the spin-orbit window scan, angular profiles, the matrices and
the array that ``deficiency_element`` returns load numpy.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the layer module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "DerivedConstants", "ParameterError", "PhysParams",
        "derived_constants", "interface_matrices", "pauli", "sigma_dot",
        "special_matrices", "transmission_matrix"), "model"),
    **dict.fromkeys((
        "SpinOrbitRoot", "angular_profile", "principal_eigenvalue",
        "secular_det", "spectrum_in_window"), "spin_orbit"),
    **dict.fromkeys(("bessel_k", "deficiency_element"), "special"),
    **dict.fromkeys(("Aux1DResult", "ground_state"), "aux1d"),
    **dict.fromkeys((
        "EnergyBreakdown", "SingularSeqReport", "angle_for_length",
        "bound_state_certificate", "critical_angle_closed",
        "critical_angle_maximize", "energy_breakdown", "singular_sequence",
        "weyl_norm_sq", "weyl_residual"), "variational"),
}
_LAYERS = ("model", "spin_orbit", "special", "aux1d", "variational", "fem")

__all__ = [*_EXPORTS, "fem", "__version__"]


def __getattr__(name):
    # import_module, not ``from . import fem``: the fromlist lookup would
    # call this hook again before the submodule is bound
    if name in _LAYERS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
