"""Command-line front end.

Six subcommands drive the library end to end: ``analyze`` (legitimacy,
exponents, differentiability report), ``variogram`` (table over lag
vectors), ``simulate`` (seeded synthesis over a grid), ``krige``
(predictions with variances at target sites), ``dims`` (fractal
dimension report), and ``verify`` (the built-in acceptance battery).

Exit codes: 0 success, 1 invalid model, parameters or usage (or a
failed verify), 2 numerical failure, 3 unreadable or malformed files.

Each subcommand's long flags live in one option table.  A well-formed
call (the subcommand, then ``--flag value`` pairs that convert and lie
in their choices) is read from that table directly; argparse is imported
and built from the same table only for help, ``--version`` and usage
errors, so it writes every such message.

Flags override config-file values and the config file overrides
defaults: ``--config`` names a JSON object whose keys are the long flag
names of the subcommand, dashes replaced by underscores.  Every output
embeds the model, the seed, the tool version and the quadrature settings
if one ran; no timestamps, so identical inputs give byte-identical outputs.
"""

import collections
import dataclasses
import functools
import sys
import types

from . import __version__
from .errors import (AnisoFieldError, FileFormatError, ModelError)
from .fileio import (read_csv, read_json, write_field_afld, write_field_csv,
                     write_json, write_prediction_csv, write_variogram_csv)
from .fractal import dimension_report, gneiting_dimensions
from .kriging import Observations, krige_many
from .models import check_legitimate, model_from_dict, model_to_dict
from .quadrature import QuadratureSpec
from .simulate import Grid, multi_copy_field
from .smoothness import ms_derivative_report
from .variogram import gneiting_from_dict, gneiting_to_dict, variogram_table
from .verify import format_table, run_suites

_DEFAULTS = {
    "seed": 0,
    "lattice": 4096,
    "realizations": 1,
    "p": 1,
    "suite": "all",
}

# one long flag of a subcommand; `exclusive` flags may not be given together
_Option = collections.namedtuple(
    "_Option", "flag dest type choices metavar help exclusive")


def _option(flag, metavar, help, type=None, choices=None, exclusive=False):
    return _Option(flag, flag[2:].replace("-", "_"), type, choices, metavar,
                   help, exclusive)


_CONFIG = _option("--config", "FILE", "JSON object of default flag values")
_MODEL = _option("--model", "FILE", "spectral model JSON document")
_REL_TOL = _option("--rel-tol", "TOL", "quadrature relative error tolerance",
                   float)


@functools.cache
def _parser(command=None):
    """The argparse parser of ``command`` alone, or of every subcommand for None.

    Only help, the version and usage errors reach argparse, and only
    those without a valid subcommand need every subcommand's parser.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        """Reports usage errors as ModelError, so they exit 1 like bad values."""

        def error(self, message):
            self.print_usage(sys.stderr)
            raise ModelError(f"{self.prog}: {message}")

    parser = Parser(
        prog="anisofield",
        description="Spectral models with stationary increments: analysis, "
                    "variograms, simulation, kriging, fractal dimensions.")
    parser.add_argument("--version", action="version",
                        version=f"anisofield {__version__}")
    # the usage line names every subcommand, however many are registered
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if command else None)
    for name in [command] if command else _COMMANDS:
        text, options, _ = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        group = None
        for o in options:
            if o.exclusive and group is None:
                group = p.add_mutually_exclusive_group()
            (group if o.exclusive else p).add_argument(
                o.flag, type=o.type, choices=o.choices, metavar=o.metavar,
                help=o.help)
        p.set_defaults(_options=_by_dest(options))
    return parser


def _by_dest(options):
    # config keys are the subcommand's options, and their values go
    # through the same conversions and choices as the flags: no JSON
    # boolean is a number and no fraction an integer
    return {o.dest: o for o in options}


def _read(argv):
    """The Namespace argparse would give ``argv``, for the argv it reads exactly.

    That is a subcommand followed by ``--flag value`` pairs of its own
    long flags, each value not starting with ``-``, converting by the
    flag's type and lying in its choices, with at most one flag of an
    exclusive pair.  Anything else (help, the version, abbreviations,
    ``--flag=value``, ``--``, a missing or bad value) gives None and is
    left to argparse, so every message stays argparse's own.
    """
    if (len(argv) % 2 == 0 or not all(isinstance(a, str) for a in argv)
            or argv[0] not in _COMMANDS):
        return None
    options = _COMMANDS[argv[0]][1]
    by_flag = {o.flag: o for o in options}
    values, exclusive = dict.fromkeys(o.dest for o in options), set()
    for flag, value in zip(argv[1::2], argv[2::2]):
        o = by_flag.get(flag)
        if o is None or value.startswith("-"):
            return None
        if o.type is not None:
            try:
                value = o.type(value)
            except (TypeError, ValueError):
                return None
        if o.choices is not None and value not in o.choices:
            return None
        if o.exclusive:
            exclusive.add(o.dest)
        values[o.dest] = value
    if len(exclusive) > 1:
        return None
    return types.SimpleNamespace(command=argv[0], **values,
                                 _options=_by_dest(options))


def _resolve(args, name, required=False):
    """Flag value, else config-file value, else hard default."""
    value = getattr(args, name, None)
    if value is None:
        value = getattr(args, "_config", {}).get(name)
        option = getattr(args, "_options", {}).get(name)
        if value is not None and option is not None:
            if option.type is not None:
                try:
                    if isinstance(value, bool) or (
                            option.type is int and isinstance(value, float)
                            and not value.is_integer()):
                        raise TypeError
                    value = option.type(value)
                except (TypeError, ValueError):
                    raise ModelError(f"config key {name!r}: {value!r} is not a "
                                     f"valid {option.type.__name__}") from None
            if option.choices is not None and value not in option.choices:
                raise ModelError(f"config key {name!r}: {value!r} is not one of "
                                 f"{', '.join(map(str, option.choices))}")
    if value is None:
        value = _DEFAULTS.get(name)
    if value is None and required:
        raise ModelError(f"missing required option --{name.replace('_', '-')}")
    return value


def _load_config(args):
    path = getattr(args, "config", None)
    config = read_json(path) if path else {}
    if not isinstance(config, dict):
        raise FileFormatError(f"{path}: config must be a JSON object")
    unknown = sorted(set(config) - set(args._options))
    if unknown:
        raise ModelError(f"config key {unknown[0]!r} is not an option of "
                         f"{args.command}")
    args._config = config


def _quad_spec(args):
    rel_tol = _resolve(args, "rel_tol")
    return QuadratureSpec() if rel_tol is None else QuadratureSpec(rel_tol)


def _load_model(args):
    path = _resolve(args, "model", required=True)
    model = model_from_dict(read_json(path))
    check_legitimate(model)
    return model


def _parse_grid(spec):
    if not spec:
        raise ModelError("missing required option --grid")
    origin, spacing, shape = [], [], []
    for axis_spec in str(spec).split(","):
        parts = axis_spec.split(":")
        if len(parts) != 3:
            raise ModelError(
                f"grid axis {axis_spec!r} must look like start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ModelError(f"grid axis {axis_spec!r} is not numeric") from None
        if count < 1 or not stop > start:
            raise ModelError(
                f"grid axis {axis_spec!r} needs stop > start and count >= 1")
        origin.append(start)
        spacing.append((stop - start) / count)
        shape.append(count)
    return Grid(origin=tuple(origin), spacing=tuple(spacing), shape=tuple(shape))


def _provenance(model_doc, quad=None, seed=None):
    doc = {"tool": "anisofield", "version": __version__}
    if quad is not None:
        doc["quadrature"] = dataclasses.asdict(quad)
    if seed is not None:
        doc["seed"] = int(seed)
    doc["model"] = model_doc
    return doc


def _cmd_analyze(args):
    quad = _quad_spec(args)
    model = _load_model(args)
    report = ms_derivative_report(model, quad)
    exps = report.exponents
    doc = {
        "provenance": _provenance(model_to_dict(model), quad),
        "legitimate": True,
        "h": list(exps.h),
        "q": exps.q,
        "h_bar": list(exps.h_bar),
        "ms_differentiable": report.ms_differentiable,
        "sample_path_differentiable": report.sample_path_differentiable,
        "axes": [
            {"axis": j, "h": exps.h[j], "differentiable": report.exists[j],
             "margin": report.margins[j],
             "derivative_variance": report.derivative_variance[j]}
            for j in range(model.dims)
        ],
    }
    if model.kind == "stein":
        doc["noninteger_alpha"] = [
            j for j, a in enumerate(model.stein_alpha)
            if not float(a).is_integer()]
    out = _resolve(args, "out", required=True)
    write_json(out, doc)
    print(f"wrote {out}")
    return 0


def _cmd_variogram(args):
    quad = _quad_spec(args)
    model = _load_model(args)
    lags_path = _resolve(args, "lags", required=True)
    lags = read_csv(lags_path)
    if lags.shape[1] != model.dims:
        raise ModelError(
            f"lag rows have {lags.shape[1]} columns, model has {model.dims} axes")
    table = variogram_table(model, lags, quad)
    out = _resolve(args, "out", required=True)
    write_variogram_csv(out, table,
                        _provenance(model_to_dict(model), quad))
    print(f"wrote {out} ({len(table.values)} lags)")
    return 0


def _cmd_simulate(args):
    model = _load_model(args)
    grid = _parse_grid(_resolve(args, "grid", required=True))
    seed = _resolve(args, "seed")
    lattice = _resolve(args, "lattice")
    channels = _resolve(args, "realizations")
    sample = multi_copy_field(model, grid, lattice=lattice, channels=channels,
                              seed=seed)
    out = _resolve(args, "out", required=True)
    fmt = _resolve(args, "format")
    if fmt is None:
        fmt = "afld" if str(out).endswith((".afld", ".afld1")) else "csv"
    provenance = _provenance(model_to_dict(model), seed=seed)
    if fmt == "afld":
        write_field_afld(out, sample, provenance)
    else:
        write_field_csv(out, sample, {**provenance, **sample.metadata})
    print(f"wrote {out} ({grid.npoints} points x {channels} realizations, "
          f"{fmt})")
    return 0


def _cmd_krige(args):
    quad = _quad_spec(args)
    model = _load_model(args)
    obs_rows = read_csv(_resolve(args, "obs", required=True),
                        min_columns=model.dims + 1)
    if obs_rows.shape[1] != model.dims + 1:
        raise ModelError(
            f"observation rows need {model.dims + 1} columns "
            f"(t_1..t_{model.dims}, value)")
    obs = Observations(sites=obs_rows[:, :model.dims],
                       values=obs_rows[:, model.dims], model=model)
    targets = read_csv(_resolve(args, "targets", required=True))
    if targets.shape[1] != model.dims:
        raise ModelError(f"target rows need {model.dims} columns")
    results = krige_many(obs, targets, quad)
    predictions = [r.prediction for r in results]
    variances = [r.variance for r in results]
    out = _resolve(args, "out", required=True)
    write_prediction_csv(out, targets, predictions, variances,
                         _provenance(model_to_dict(model), quad))
    print(f"wrote {out} ({len(predictions)} predictions)")
    return 0


def _marker_text(value):
    return value if isinstance(value, (int, float)) else repr(value)


def _cmd_dims(args):
    p = int(_resolve(args, "p"))
    gneiting_path = _resolve(args, "gneiting")
    if gneiting_path is not None:
        gm = gneiting_from_dict(read_json(gneiting_path))
        report = gneiting_dimensions(gm, p)
        model_doc = gneiting_to_dict(gm)
    else:
        model = _load_model(args)
        report = dimension_report(model, p)
        model_doc = model_to_dict(model)
    doc = {**dataclasses.asdict(report), "provenance": _provenance(model_doc),
           "level_dim": _marker_text(report.level_dim),
           "level_qualifier": "holds with positive probability, not almost surely"}
    out = _resolve(args, "out", required=True)
    write_json(out, doc)
    print(f"wrote {out}")
    return 0


def _cmd_verify(args):
    suite = str(_resolve(args, "suite"))
    results = run_suites([s.strip() for s in suite.split(",") if s.strip()])
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


_OUT = _option("--out", "FILE", "output CSV path")
_REPORT = _option("--out", "FILE", "report JSON path")

# each subcommand: its help line, its options in help order and its handler
_COMMANDS = {
    "analyze": ("legitimacy, exponents and differentiability report",
                (_CONFIG, _MODEL, _REL_TOL, _REPORT), _cmd_analyze),
    "variogram": ("variogram table over lag vectors", (
        _CONFIG, _MODEL, _REL_TOL,
        _option("--lags", "FILE", "CSV of lag vectors, columns h_1..h_N"),
        _OUT), _cmd_variogram),
    "simulate": ("seeded synthesis over a grid", (
        _CONFIG, _MODEL,
        _option("--grid", "SPEC", "per-axis start:stop:count, comma separated; "
                "count points from start with spacing (stop-start)/count; "
                "a negative start needs the = form, as in --grid=-1:1:8"),
        _option("--lattice", "N", "frequency cells per axis (default 4096, for "
                "one-axis models only: with two or more axes it exceeds the node cap)",
                int),
        _option("--seed", "S", "base seed (default 0)", int),
        _option("--realizations", "R", "independent copies (default 1)", int),
        _option("--format", None, "output format (default: afld when --out "
                "ends in .afld or .afld1, else csv)", choices=("csv", "afld")),
        _option("--out", "FILE", "output path")), _cmd_simulate),
    "krige": ("simple-kriging predictions", (
        _CONFIG, _MODEL, _REL_TOL,
        _option("--obs", "FILE", "observations CSV, columns t_1..t_N,value"),
        _option("--targets", "FILE", "target sites CSV, columns t_1..t_N"),
        _OUT), _cmd_krige),
    "dims": ("fractal dimension report", (
        _CONFIG, _MODEL._replace(exclusive=True),
        _option("--gneiting", "FILE",
                "space-time covariance model JSON document", exclusive=True),
        _option("--p", "P", "number of independent copies (default 1)", int),
        _REPORT), _cmd_dims),
    "verify": ("run the acceptance battery", (
        _CONFIG,
        _option("--suite", "NAME", "fbm, exponents, simulation, kriging, dims, "
                "smoothness, derivative, modulus, or all (default)")),
        _cmd_verify),
}


def main(argv=None):
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _read(argv)
        if args is None:
            command = argv[0] if argv and argv[0] in _COMMANDS else None
            args = _parser(command).parse_args(argv)
        _load_config(args)
        return _COMMANDS[args.command][2](args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AnisoFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
