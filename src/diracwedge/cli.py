"""Command-line front end: JSON/CSV emission for every computable quantity.

Artifacts are deterministic: fixed field order, repr-roundtrip floats, no
timestamps.  Every report embeds the fully resolved configuration, and
--config accepts either a plain JSON config, a previously emitted JSON
report (its embedded config is reused), or a CSV artifact (the "# config"
header line).  Flags override config-file values.

Exit codes: 0 success, 2 invalid parameters or config (a NaN or infinite
float option included), 3 solver failure or a NaN or infinite result, which
has no JSON form.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from .aux1d import ground_state
from .model import ParameterError, PhysParams, derived_constants
from .special import deficiency_element
from .spin_orbit import principal_eigenvalue, spectrum_in_window
from .variational import (critical_angle_closed, critical_angle_maximize,
                          energy_breakdown, test_function_family,
                          weyl_norm_sq, weyl_residual)

__all__ = ["main", "run", "RunConfig", "load_config", "parse_angle"]


def parse_angle(text: str) -> float:
    """Angle in radians; a 'deg' suffix converts from degrees."""
    s = str(text).strip()
    if s.endswith("deg"):
        return math.radians(float(s[: -len("deg")].strip()))
    return float(s)


@dataclass(frozen=True)
class _Opt:
    name: str
    type: object = float
    default: object = None
    required: bool = False
    many: bool = False
    choices: tuple = ()
    help: str = ""


_PI_4 = math.pi / 4.0

_COMMON = (
    _Opt("tau", float, required=True, help="shell coupling strength"),
    _Opt("m", float, default=1.0, help="mass"),
)
_OMEGA = _Opt("omega", parse_angle, default=_PI_4,
              help="wedge half-angle (radians, or e.g. 12deg)")
_OUT = _Opt("output", str, default=None, help="artifact path (default stdout)")

_COMMANDS: dict[str, tuple[_Opt, ...]] = {
    "gap": (*_COMMON, _OMEGA, _OUT),
    "spin-orbit": (
        *_COMMON, _OMEGA,
        _Opt("lo", float, default=-3.0, help="window lower edge"),
        _Opt("hi", float, default=3.0, help="window upper edge"),
        _OUT,
    ),
    "critical-angle": (
        _Opt("tau", float, required=True, many=True),
        _Opt("m", float, default=1.0),
        _Opt("N", int, default=[1], many=True, help="mode counts"),
        _OUT,
    ),
    "testfn": (
        *_COMMON, _OMEGA,
        _Opt("N", int, default=1, help="number of modes"),
        _Opt("L", float, default=None, help="strip length (default L_star)"),
        _OUT,
    ),
    "aux1d": (
        *_COMMON, _OMEGA,
        _Opt("gamma", float, required=True, many=True, help="half-widths"),
        _OUT,
    ),
    "weyl": (
        *_COMMON, _OMEGA,
        _Opt("lam", float, default=1.5, help="spectral point, |lam| > m"),
        _Opt("n", int, default=[4, 8, 16], many=True, help="sequence indices"),
        _OUT,
    ),
    "deficiency": (
        *_COMMON, _OMEGA,
        _Opt("r", float, required=True, help="radius"),
        _Opt("theta", parse_angle, default=0.0, help="polar angle"),
        _OUT,
    ),
    "fem-count": (
        *_COMMON, _OMEGA,
        _Opt("kind", str, default=None, choices=("auto", "disk", "strip")),
        _Opt("R", float, default=None, help="disk radius"),
        _Opt("h", float, default=None, help="disk target size"),
        _Opt("grading", float, default=None, help="disk corner grading"),
        _Opt("x_max", float, default=None, help="strip length"),
        _Opt("nx", int, default=None, help="strip columns"),
        _Opt("wedge_rows", int, default=None),
        _Opt("outer_rows", int, default=None),
        _Opt("width", float, default=None, help="strip outer width"),
        _Opt("outer_grading", float, default=None),
        _Opt("k", int, default=8, help="lowest eigenvalues to report"),
        _Opt("export", str, default=None,
             help="prefix for Matrix Market export of (A, B)"),
        _OUT,
    ),
    "sweep": (
        _Opt("quantity", str, required=True,
             choices=("gap", "principal", "critical-angle", "aux1d")),
        _Opt("tau", float, required=True, many=True),
        _Opt("m", float, default=[1.0], many=True),
        _Opt("omega", parse_angle, default=[_PI_4], many=True),
        _Opt("gamma", float, default=[10.0], many=True),
        _Opt("N", int, default=[1], many=True),
        _OUT,
    ),
}

_MESH_OPT_NAMES = ("kind", "R", "h", "grading", "x_max", "nx",
                   "wedge_rows", "outer_rows", "width", "outer_grading")


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    options: dict

    def as_dict(self) -> dict:
        # the artifact destination is not part of the artifact
        out = {"subcommand": self.subcommand}
        out.update((k, v) for k, v in self.options.items() if k != "output")
        return out


def load_config(path: str) -> dict:
    """Config dict from a JSON config, a JSON report, or a CSV artifact."""
    text = Path(path).read_text()
    if text.startswith("# config "):
        return json.loads(text.splitlines()[0][len("# config "):])
    data = json.loads(text)
    if isinstance(data, dict) and "config" in data and "result" in data:
        return data["config"]
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} does not hold an object")
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracwedge",
        description="spectral toolkit for a Dirac operator with a "
                    "Lorentz-scalar shell on a wedge boundary",
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name, opts in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON config file; flags override")
        for opt in opts:
            kwargs: dict = {"type": opt.type, "default": None,
                            "help": opt.help, "dest": opt.name}
            if opt.many:
                kwargs["nargs"] = "+"
            if opt.choices:
                kwargs["choices"] = list(opt.choices)
            sp.add_argument(f"--{opt.name.replace('_', '-')}", **kwargs)
    return parser


def _resolve(subcommand: str, flags: dict, config_file: dict | None) -> RunConfig:
    opt_table = _COMMANDS[subcommand]
    known = {o.name for o in opt_table}
    cfg = dict(config_file or {})
    cfg.pop("subcommand", None)
    unknown = set(cfg) - known
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")

    options: dict = {}
    for opt in opt_table:
        val = flags.get(opt.name)
        if val is None and opt.name in cfg:
            raw = cfg[opt.name]
            if opt.many:
                val = [opt.type(v) for v in raw]
            else:
                val = opt.type(raw) if raw is not None else None
        if val is None:
            val = opt.default
        if val is None and opt.required:
            raise ParameterError(
                f"{subcommand}: missing required option --{opt.name}"
            )
        if opt.choices and val is not None and val not in opt.choices:
            raise ParameterError(
                f"{subcommand}: {opt.name} must be one of {opt.choices}"
            )
        if not _finite(val):
            raise ParameterError(
                f"{subcommand}: --{opt.name} must be finite, got {val}"
            )
        options[opt.name] = val
    return RunConfig(subcommand=subcommand, options=options)


# ---------------------------------------------------------------------------
# artifact formatting
# ---------------------------------------------------------------------------

class _NonFiniteResult(RuntimeError):
    """A result field is NaN or infinite."""


def _finite(value) -> bool:
    """False if ``value`` is, or holds, a NaN or infinite float."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return True


def _require_finite(fields) -> None:
    bad = list(dict.fromkeys(name for name, value in fields
                             if not _finite(value)))
    if bad:
        raise _NonFiniteResult(f"non-finite result in {', '.join(bad)}")


def _json_artifact(config: RunConfig, result: dict) -> str:
    _require_finite(result.items())
    return json.dumps({"config": config.as_dict(), "result": result},
                      indent=2, allow_nan=False) + "\n"


def _csv_artifact(config: RunConfig, header: list[str],
                  rows: list[list]) -> str:
    _require_finite(pair for row in rows for pair in zip(header, row))
    lines = ["# config " + json.dumps(config.as_dict(), allow_nan=False)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(
            repr(float(x)) if isinstance(x, float) else str(x) for x in row
        ))
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _params(o: dict) -> PhysParams:
    return PhysParams(tau=o["tau"], m=o["m"], omega=o.get("omega", _PI_4))


def _handle_gap(cfg: RunConfig) -> str:
    p = _params(cfg.options)
    dc = derived_constants(p)
    return _json_artifact(cfg, {
        "eps_tau": dc.eps_tau,
        "eps_tau_sq": dc.eps_tau ** 2,
        "kappa0": dc.kappa0,
        "kappa_tau": dc.kappa_tau,
        "c_tau": dc.c_tau,
        "a": dc.a,
        "b": dc.b,
    })


def _handle_spin_orbit(cfg: RunConfig) -> str:
    o = cfg.options
    p = _params(o)
    roots = spectrum_in_window(p, o["lo"], o["hi"])
    principal = principal_eigenvalue(p)
    return _json_artifact(cfg, {
        "roots": [{"lambda": r.lam, "multiplicity": r.multiplicity}
                  for r in roots],
        "principal_lambda": principal.lam,
    })


def _handle_critical_angle(cfg: RunConfig) -> str:
    o = cfg.options
    rows = []
    for tau, n_modes in product(o["tau"], o["N"]):
        p = PhysParams(tau=tau, m=o["m"], omega=_PI_4)
        w_closed = critical_angle_closed(tau, n_modes)
        w_star, l_star = critical_angle_maximize(p, n_modes)
        rows.append([tau, n_modes, w_closed, w_star, l_star])
    return _csv_artifact(
        cfg, ["tau", "N", "omega_star_closed", "omega_star", "L_star"], rows)


def _handle_testfn(cfg: RunConfig) -> str:
    o = cfg.options
    p = _params(o)
    length = o["L"]
    if length is None:
        length = critical_angle_maximize(p, o["N"])[1]
    fam = test_function_family(p, o["N"], length)
    bd = energy_breakdown(fam)
    return _json_artifact(cfg, {
        "L": length,
        "N": o["N"],
        "jump_sq": bd.jump_sq,
        "l2_sq": bd.l2_sq,
        "gradx_sq": bd.gradx_sq,
        "grady_sq": bd.grady_sq,
        "form_gap": bd.form_gap,
        "bound_gap": bd.bound_gap,
        "form_gap_modes": [float(x) for x in bd.form_gap_modes],
        "certifies": bool((bd.form_gap_modes < 0.0).all()),
    })


def _handle_aux1d(cfg: RunConfig) -> str:
    o = cfg.options
    p = _params(o)
    eps_sq = derived_constants(p).eps_tau ** 2
    rows = []
    for gamma in o["gamma"]:
        res = ground_state(p, gamma)
        rows.append([gamma, res.k_gamma, res.E_gamma, eps_sq - res.E_gamma])
    return _csv_artifact(
        cfg, ["gamma", "k_gamma", "E_gamma", "eps_sq_minus_E"], rows)


def _handle_weyl(cfg: RunConfig) -> str:
    o = cfg.options
    p = _params(o)
    rows = []
    for n in o["n"]:
        rows.append([n, weyl_norm_sq(p, o["lam"], n),
                     weyl_residual(p, o["lam"], n)])
    return _csv_artifact(cfg, ["n", "norm_sq", "residual"], rows)


def _handle_deficiency(cfg: RunConfig) -> str:
    o = cfg.options
    p = _params(o)
    root = principal_eigenvalue(p)
    vp = deficiency_element(p, +1, o["r"], o["theta"], root=root)
    vm = deficiency_element(p, -1, o["r"], o["theta"], root=root)
    def _c(v):
        return [[float(v[0].real), float(v[0].imag)],
                [float(v[1].real), float(v[1].imag)]]
    return _json_artifact(cfg, {
        "lambda_star": root.lam,
        "plus": _c(vp),
        "minus": _c(vm),
    })


class _FemFailure(RuntimeError):
    """A ``FemSolveError`` under a name ``run`` can catch without importing
    the FEM layer."""


def _handle_fem_count(cfg: RunConfig) -> str:
    # the FEM layer (and scipy.sparse) loads here, not on every CLI call
    from .fem import (FemSolveError, MeshError, count_bound_states,
                      export_matrix_market)

    o = cfg.options
    p = _params(o)
    mesh_opts = {k: o[k] for k in _MESH_OPT_NAMES if o.get(k) is not None}
    try:
        report = count_bound_states(p, mesh_opts or None, k=o["k"])
    except (MeshError, ValueError) as exc:
        raise ParameterError(str(exc)) from exc
    except FemSolveError as exc:
        raise _FemFailure(str(exc)) from exc
    result = report.as_dict()
    if o.get("export"):
        result["exports"] = export_matrix_market(report.pencil, o["export"])
    return _json_artifact(cfg, result)


def _sweep_gap(tau: float, m: float) -> list:
    dc = derived_constants(PhysParams(tau=tau, m=m, omega=_PI_4))
    return [dc.eps_tau, dc.kappa0, dc.kappa_tau, dc.c_tau]


def _sweep_principal(tau: float, m: float, omega: float) -> list:
    return [principal_eigenvalue(PhysParams(tau=tau, m=m, omega=omega)).lam]


def _sweep_critical_angle(tau: float, m: float, n_modes: int) -> list:
    p = PhysParams(tau=tau, m=m, omega=_PI_4)
    return list(critical_angle_maximize(p, n_modes))


def _sweep_aux1d(tau: float, m: float, gamma: float) -> list:
    res = ground_state(PhysParams(tau=tau, m=m, omega=_PI_4), gamma)
    return [res.k_gamma, res.E_gamma]


# quantity -> (grid axes, result columns, result of one grid point); each
# CSV row is the grid point followed by its result
_SWEEPS = {
    "gap": (("tau", "m"), ("eps_tau", "kappa0", "kappa_tau", "c_tau"),
            _sweep_gap),
    "principal": (("tau", "m", "omega"), ("lambda_star",), _sweep_principal),
    "critical-angle": (("tau", "m", "N"), ("omega_star", "L_star"),
                       _sweep_critical_angle),
    "aux1d": (("tau", "m", "gamma"), ("k_gamma", "E_gamma"), _sweep_aux1d),
}


def _handle_sweep(cfg: RunConfig) -> str:
    o = cfg.options
    axes, columns, result = _SWEEPS[o["quantity"]]
    grid = product(*(o[a] for a in axes))
    rows = [[*point, *result(*point)] for point in grid]
    return _csv_artifact(cfg, [*axes, *columns], rows)


_HANDLERS = {
    "gap": _handle_gap,
    "spin-orbit": _handle_spin_orbit,
    "critical-angle": _handle_critical_angle,
    "testfn": _handle_testfn,
    "aux1d": _handle_aux1d,
    "weyl": _handle_weyl,
    "deficiency": _handle_deficiency,
    "fem-count": _handle_fem_count,
    "sweep": _handle_sweep,
}


def run(config: RunConfig) -> int:
    """Dispatch a resolved config; writes the artifact, returns exit code."""
    try:
        text = _HANDLERS[config.subcommand](config)
    except (_FemFailure, _NonFiniteResult) as exc:
        print(f"diracwedge {config.subcommand}: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, ValueError) as exc:
        print(f"diracwedge {config.subcommand}: {exc}", file=sys.stderr)
        return 2
    _emit(text, config.options.get("output"))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.subcommand:
        parser.print_help(sys.stderr)
        return 2
    try:
        file_cfg = load_config(args.config) if args.config else None
        flags = {k: v for k, v in vars(args).items()
                 if k not in ("subcommand", "config")}
        config = _resolve(args.subcommand, flags, file_cfg)
    except (OSError, json.JSONDecodeError, ParameterError, ValueError) as exc:
        print(f"diracwedge: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
