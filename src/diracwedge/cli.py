"""Command-line front end: JSON/CSV emission for every computable quantity.

Artifacts are deterministic: fixed field order, repr-roundtrip floats, no
timestamps.  Every report embeds the fully resolved configuration, and
--config accepts either a plain JSON config, a previously emitted JSON
report (its embedded config is reused), or a CSV artifact (the "# config"
header line).  Flags override config-file values.

Exit codes: 0 success, 2 invalid parameters or config (a NaN or infinite
float option, a mass whose eps_tau^2 overflows, an N, L, gamma or lambda
whose result would overflow, a deficiency r whose K_nu(r) overflows, a
fem-count k or mesh above its size cap, a k of at least the pencil's DOF
count or a mass outside its range, and an unwritable --output or --export
path included), 3 solver failure or a NaN or infinite result, which has no
JSON form.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

# the layers load in the point functions that use them, so a call loads
# only its own subcommand's layer
from .model import (FemSolveError, ParameterError, PhysParams,
                    derived_constants)

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

# fem-count's mesh options; the mesh builders own their defaults
_MESH_OPTS = (
    _Opt("kind", str, choices=("auto", "disk", "strip")),
    _Opt("R", float, help="disk radius"),
    _Opt("h", float, help="disk target size"),
    _Opt("grading", float, help="disk corner grading"),
    _Opt("x_max", float, help="strip length"),
    _Opt("nx", int, help="strip columns"),
    _Opt("wedge_rows", int),
    _Opt("outer_rows", int),
    _Opt("width", float, help="strip outer width"),
    _Opt("outer_grading", float),
)
_MESH_OPT_NAMES = tuple(opt.name for opt in _MESH_OPTS)


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
        data = json.loads(text.splitlines()[0][len("# config "):])
    else:
        data = json.loads(text)
        if isinstance(data, dict) and "config" in data and "result" in data:
            data = data["config"]
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} does not hold an object")
    return data


def _config_tokens(subcommand: str, config_file: dict) -> list[str]:
    """The config file's non-null values as ``--name value...`` tokens, so
    the subparser converts and checks them exactly as it does flags."""
    opts = {o.name: o for o in _COMMANDS[subcommand][0]}
    cfg = {k: v for k, v in config_file.items() if k != "subcommand"}
    # exact keys: the parser would take a prefix such as "ta" for "tau"
    unknown = set(cfg) - set(opts)
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for name, value in cfg.items():
        if value is None:
            continue
        if isinstance(value, list) != opts[name].many:
            shape = "a list" if opts[name].many else "a single value"
            raise ParameterError(
                f"{subcommand}: config {name} must be {shape}, got {value!r}")
        values = value if opts[name].many else [value]
        tokens.append(f"--{name.replace('_', '-')}")
        tokens += [v if isinstance(v, str) else json.dumps(v) for v in values]
    return tokens


class _Parser(argparse.ArgumentParser):
    """Reads every token that float() accepts as a value: argparse's own
    negative-number pattern knows no exponent or inf, so it would take
    -1e-3 for an unknown flag."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; given the name of a subcommand, with only that
    subparser, whose usage lines and errors read as the full parser's."""
    parser = _Parser(
        prog="diracwedge",
        description="spectral toolkit for a Dirac operator with a "
                    "Lorentz-scalar shell on a wedge boundary",
    )
    sub = parser.add_subparsers(dest="subcommand")
    names = list(_COMMANDS)
    if subcommand in _COMMANDS:
        # the full list, which argparse would otherwise shorten to this one
        # name in usage lines; the full parser sets no metavar, so its
        # invalid-choice error still reads "argument subcommand"
        sub.metavar = "{" + ",".join(names) + "}"
        names = [subcommand]
    for name in names:
        opts = _COMMANDS[name][0]
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


def _resolve(subcommand: str, flags: dict) -> RunConfig:
    options: dict = {}
    for opt in _COMMANDS[subcommand][0]:
        val = flags.get(opt.name)
        if val is None:
            val = opt.default
        if val is None and opt.required:
            raise ParameterError(
                f"{subcommand}: missing required option --{opt.name}"
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
# point functions: one per reported quantity; a quantity that `sweep` also
# reports uses the same function there.  Each takes an options dict and
# returns every field that a route prints; a CSV route picks its columns.
# ---------------------------------------------------------------------------

def _params(o: dict) -> PhysParams:
    return PhysParams(tau=o["tau"], m=o["m"], omega=o.get("omega", _PI_4))


def _gap(o: dict) -> dict:
    dc = derived_constants(_params(o))
    return {name: getattr(dc, name) for name in (
        "eps_tau", "eps_tau_sq", "kappa0", "kappa_tau", "c_tau", "a", "b")}


def _spin_orbit(o: dict) -> dict:
    from .spin_orbit import principal_eigenvalue, spectrum_in_window

    p = _params(o)
    roots = spectrum_in_window(p, o["lo"], o["hi"])
    return {
        "roots": [{"lambda": r.lam, "multiplicity": r.multiplicity}
                  for r in roots],
        "principal_lambda": principal_eigenvalue(p).lam,
    }


def _principal(o: dict) -> dict:
    from .spin_orbit import principal_eigenvalue

    return {"lambda_star": principal_eigenvalue(_params(o)).lam}


def _critical_angle(o: dict) -> dict:
    from .variational import critical_angle_maximize

    w_star, l_star = critical_angle_maximize(_params(o), o["N"])
    # the subcommand prints the closed form twice, once as omega_star_closed
    return {"omega_star_closed": w_star, "omega_star": w_star,
            "L_star": l_star}


def _testfn(o: dict) -> dict:
    from .variational import critical_angle_maximize, energy_breakdown

    p = _params(o)
    length = o["L"]
    if length is None:
        length = critical_angle_maximize(p, o["N"])[1]
    bd = energy_breakdown(p, o["N"], length)
    return {
        "L": length,
        "N": o["N"],
        **vars(bd),
        "certifies": bd.certifies,
    }


def _aux1d(o: dict) -> dict:
    from .aux1d import ground_state

    p = _params(o)
    res = ground_state(p, o["gamma"])
    return {"k_gamma": res.k_gamma, "E_gamma": res.E_gamma,
            "eps_sq_minus_E": derived_constants(p).eps_tau_sq - res.E_gamma}


def _weyl(o: dict) -> dict:
    from .variational import weyl_norm_sq, weyl_residual

    p = _params(o)
    return {"norm_sq": weyl_norm_sq(p, o["lam"], o["n"]),
            "residual": weyl_residual(p, o["lam"], o["n"])}


def _deficiency(o: dict) -> dict:
    from .special import _deficiency_point
    from .spin_orbit import principal_eigenvalue

    p = _params(o)
    root = principal_eigenvalue(p)

    def _c(sign):
        v1, v2 = _deficiency_point(p, sign, o["r"], o["theta"], root)
        return [[v1.real, v1.imag], [v2.real, v2.imag]]
    return {"lambda_star": root.lam, "plus": _c(+1), "minus": _c(-1)}


def _fem_count(o: dict) -> dict:
    from .fem import count_bound_states, export_matrix_market

    mesh_opts = {k: o[k] for k in _MESH_OPT_NAMES if o.get(k) is not None}
    report = count_bound_states(_params(o), mesh_opts, k=o["k"])
    result = report.as_dict()
    if o.get("export"):
        try:
            result["exports"] = export_matrix_market(report.pencil,
                                                     o["export"])
        except OSError as exc:
            raise ParameterError(exc) from None
    return result


# ---------------------------------------------------------------------------
# routes: each turns a resolved config into its artifact text
# ---------------------------------------------------------------------------

def _report(point):
    """Route printing ``point(options)`` as a JSON report."""
    return lambda cfg: _json_artifact(cfg, point(cfg.options))


def _grid_csv(cfg: RunConfig, base: dict, axes, columns, point) -> str:
    """One CSV row ``[*values, *result columns]`` per point of the product
    of the axes' option values; ``point`` sees ``base`` with the point's
    values put in."""
    rows = []
    for values in product(*(cfg.options[a] for a in axes)):
        result = point({**base, **dict(zip(axes, values))})
        rows.append([*values, *(result[c] for c in columns)])
    return _csv_artifact(cfg, [*axes, *columns], rows)


def _grid(axes, columns, point):
    """Route printing a subcommand's grid: its point function sees the
    subcommand's options."""
    return lambda cfg: _grid_csv(cfg, cfg.options, axes, columns, point)


# quantity -> (grid axes, result columns, point function); a sweep's point
# function sees only the point, so omega is pi/4 where it is not an axis
_SWEEPS = {
    "gap": (("tau", "m"), ("eps_tau", "kappa0", "kappa_tau", "c_tau"), _gap),
    "principal": (("tau", "m", "omega"), ("lambda_star",), _principal),
    "critical-angle": (("tau", "m", "N"), ("omega_star", "L_star"),
                       _critical_angle),
    "aux1d": (("tau", "m", "gamma"), ("k_gamma", "E_gamma"), _aux1d),
}


def _sweep(cfg: RunConfig) -> str:
    return _grid_csv(cfg, {}, *_SWEEPS[cfg.options["quantity"]])


# subcommand -> (options, route)
_COMMANDS = {
    "gap": ((*_COMMON, _OMEGA, _OUT), _report(_gap)),
    "spin-orbit": ((
        *_COMMON, _OMEGA,
        _Opt("lo", float, default=-3.0, help="window lower edge"),
        _Opt("hi", float, default=3.0, help="window upper edge"),
        _OUT,
    ), _report(_spin_orbit)),
    "critical-angle": ((
        _Opt("tau", float, required=True, many=True),
        _Opt("m", float, default=1.0),
        _Opt("N", int, default=[1], many=True, help="mode counts"),
        _OUT,
    ), _grid(("tau", "N"), ("omega_star_closed", "omega_star", "L_star"),
             _critical_angle)),
    "testfn": ((
        *_COMMON, _OMEGA,
        _Opt("N", int, default=1, help="number of modes"),
        _Opt("L", float, default=None, help="strip length (default L_star)"),
        _OUT,
    ), _report(_testfn)),
    "aux1d": ((
        *_COMMON, _OMEGA,
        _Opt("gamma", float, required=True, many=True, help="half-widths"),
        _OUT,
    ), _grid(("gamma",), ("k_gamma", "E_gamma", "eps_sq_minus_E"), _aux1d)),
    "weyl": ((
        *_COMMON, _OMEGA,
        _Opt("lam", float, default=1.5, help="spectral point, |lam| > m"),
        _Opt("n", int, default=[4, 8, 16], many=True, help="sequence indices"),
        _OUT,
    ), _grid(("n",), ("norm_sq", "residual"), _weyl)),
    "deficiency": ((
        *_COMMON, _OMEGA,
        _Opt("r", float, required=True, help="radius"),
        _Opt("theta", parse_angle, default=0.0, help="polar angle"),
        _OUT,
    ), _report(_deficiency)),
    "fem-count": ((
        *_COMMON, _OMEGA, *_MESH_OPTS,
        _Opt("k", int, default=8, help="lowest eigenvalues to report"),
        _Opt("export", str, default=None,
             help="prefix for Matrix Market export of (A, B)"),
        _OUT,
    ), _report(_fem_count)),
    "sweep": ((
        _Opt("quantity", str, required=True, choices=tuple(_SWEEPS)),
        _Opt("tau", float, required=True, many=True),
        _Opt("m", float, default=[1.0], many=True),
        _Opt("omega", parse_angle, default=[_PI_4], many=True),
        _Opt("gamma", float, default=[10.0], many=True),
        _Opt("N", int, default=[1], many=True),
        _OUT,
    ), _sweep),
}


def run(config: RunConfig) -> int:
    """Dispatch a resolved config; writes the artifact, returns exit code."""
    try:
        text = _COMMANDS[config.subcommand][1](config)
    except (FemSolveError, _NonFiniteResult) as exc:
        print(f"diracwedge {config.subcommand}: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, ValueError) as exc:
        print(f"diracwedge {config.subcommand}: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(text, config.options.get("output"))
    except OSError as exc:
        print(f"diracwedge {config.subcommand}: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.subcommand and args.config:
            # config values go first, so the flags that follow override them
            tokens = _config_tokens(args.subcommand, load_config(args.config))
            args = parser.parse_args([args.subcommand, *tokens, *argv[1:]])
        if not args.subcommand:
            parser.print_help(sys.stderr)
            return 2
        flags = {k: v for k, v in vars(args).items()
                 if k not in ("subcommand", "config")}
        config = _resolve(args.subcommand, flags)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, json.JSONDecodeError, ParameterError, ValueError) as exc:
        print(f"diracwedge: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
