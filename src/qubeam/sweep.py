"""Parameter sweeps over (omega, delta_kappa) and their CSV emission.

A sweep fixes kappa1 and eps, walks a rectangular grid in the cyclotron
frequency omega and the frequency split delta_kappa = kappa2 - kappa1, and
records the entanglement measures per point. Output is deterministic: rows
ordered lexicographically by (omega, delta_kappa), numbers printed with 17
significant digits, metadata confined to '#' comment lines, no timestamps.
The grid is evaluated as arrays in batch, imported when a sweep runs.
"""
import collections
from contextlib import ExitStack
from dataclasses import dataclass, fields
import itertools
import math
import operator
from typing import NamedTuple

from .dispersion import RESIDUAL_TOL
from .entangle import full_report
from .errors import AllRowsFailed, ParseError, QubeamError, ValidationError
from .params import _inf_if_huge, make_params
from .qstate import PolarizationConfig

_METHOD_ALIASES = {"exact": "exact", "pert": "perturbative",
                   "perturbative": "perturbative"}


@dataclass(frozen=True)
class SweepConfig:
    """Checked on every construction route (SweepConfig(...), replace,
    parse_config): an int too large for a float reads as +-inf, and all
    violated invariants, grid points included, raise one ValidationError."""

    kappa1: float = 2500.0
    dk_min: float = 10.0
    dk_max: float = 3500.0
    dk_steps: int = 64
    omega_min: float = 0.0
    omega_max: float = 0.5
    omega_steps: int = 64
    eps: float = 0.1
    pol: PolarizationConfig = PolarizationConfig(2, 1)
    method: str = "exact"

    def __post_init__(self):
        for field in fields(self):
            if field.type is float:
                value = _inf_if_huge(getattr(self, field.name))
                if field.name.startswith("omega") and isinstance(value, float):
                    value += 0.0        # -0.0 reads as 0.0, as in make_params
                object.__setattr__(self, field.name, value)
        _validate(self)

    def omega_grid(self):
        return _grid(self.omega_min, self.omega_max, self.omega_steps)

    def dk_grid(self):
        return _grid(self.dk_min, self.dk_max, self.dk_steps)


class SweepTable(NamedTuple):
    """A sweep's CSV columns as lists; a failed point's values are None."""

    omega: list
    delta_kappa: list
    kappa2: list
    y: list
    E_I: list
    E_S: list
    E_I_asymptotic: list
    E_S_closed: list
    raw_norm: list
    status: list


CSV_HEADER = ",".join(SweepTable._fields)


def _grid(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


# The config file keys and `qubeam sweep` flags are SweepConfig's fields;
# pol and method are read as text and resolved by parse_config.
_FILE_KEYS = {field.name: field.type if field.type in (int, float) else str
              for field in fields(SweepConfig)}


def parse_config(path: str | None = None, overrides: dict | None = None) -> SweepConfig:
    """Build a SweepConfig from an optional key=value file plus overrides.

    File format: one 'key = value' per line, '#' starts a comment, blank
    lines ignored. Overrides win over file keys; a pol or method given as
    text is resolved here, and any other value reaches SweepConfig's check.
    Raises ParseError with line context, or SweepConfig's ValidationError.
    """
    values = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = list(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key=value, "
                                 f"got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _FILE_KEYS:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _FILE_KEYS[key](val)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad value for "
                                 f"{key!r}: {exc}") from exc
    values.update(overrides or {})

    if isinstance(values.get("pol"), str):
        try:
            values["pol"] = PolarizationConfig.from_code(values["pol"])
        except ValueError as exc:
            raise ParseError(f"bad pol value: {exc}") from exc
    if isinstance(values.get("method"), str):
        method = values["method"].lower()
        if method not in _METHOD_ALIASES:
            raise ParseError(f"bad method {values['method']!r}: "
                             "expected exact or pert")
        values["method"] = _METHOD_ALIASES[method]
    return SweepConfig(**values)


def _validate(config: SweepConfig):
    problems = [f"{key} must be a number, got {value!r}" for key, kind in
                _FILE_KEYS.items() if kind is float and not isinstance(
                    value := getattr(config, key), (int, float))]
    numbers = not problems      # the value checks need every float a number
    for name in ("dk_steps", "omega_steps"):
        steps = getattr(config, name)
        if not isinstance(steps, int):
            problems.append(f"{name} must be an integer, got {steps!r}")
        elif steps < 2:
            problems.append(f"{name} must be >= 2, got {steps}")
    grid = not problems         # the grid needs numbers and its step counts
    if numbers:
        if config.dk_max < config.dk_min:
            problems.append("dk_max must be >= dk_min")
        if config.omega_max < config.omega_min:
            problems.append("omega_max must be >= omega_min")
    if config.method not in ("exact", "perturbative"):
        problems.append(f"method must be exact or perturbative, got "
                        f"{config.method!r}")
    if not isinstance(config.pol, PolarizationConfig):
        problems.append(f"pol must be a PolarizationConfig, got {config.pol!r}")
    if grid:
        # Every grid point must be a valid model point. The grid is checked
        # as arrays; make_params runs only at the first point of each error
        # class, in grid order, to quote its message.
        from .batch import _first_rejections
        for omega, dk in _first_rejections(config):
            try:
                make_params(config.kappa1, config.kappa1 + dk, omega,
                            config.eps)
            except ValidationError as exc:
                problems.append(f"grid point omega={omega}, "
                                f"delta_kappa={dk}: {exc}")
    if problems:
        raise ValidationError("; ".join(problems))


def _evaluate_point(config, omega, dk):
    kappa2 = config.kappa1 + dk
    try:
        params = make_params(config.kappa1, kappa2, omega, config.eps)
        rep = full_report(params, config.pol, method=config.method)
    except QubeamError as exc:
        return (omega, dk, kappa2, None, None, None, None, None, None,
                f"error:{type(exc).__name__}")
    return (omega, dk, kappa2, rep.y, rep.E_I, rep.E_S, rep.E_I_asymptotic,
            rep.E_S_closed, math.sqrt(rep.raw_norm_sq), "ok")


def run_sweep(config: SweepConfig) -> SweepTable:
    """Evaluate every grid point; returns their SweepTable in output order.

    The grid is evaluated as one batch of arrays (batch._batch_values); a
    point the batch does not settle goes through full_report, so values and
    error statuses are those of the point-by-point pipeline. Per-point
    failures become rows with an error status; AllRowsFailed is raised only
    if nothing succeeds. len(table.status) counts the rows; len(table) is 10.
    """
    from .batch import _batch_values
    unsettled, *columns = _batch_values(config)
    n = len(columns[0])
    table = SweepTable(*columns, ["ok"] * n)
    for i in unsettled:
        point = _evaluate_point(config, table.omega[i], table.delta_kappa[i])
        for column, value in zip(table, point):
            column[i] = value
    if "ok" not in table.status:
        raise AllRowsFailed(f"all {n} grid points failed; "
                            f"first status: {table.status[0]}")
    return table


def failure_tally(table: SweepTable):
    """"M failed" and, if M > 0, the count of each failed status in
    first-seen order: "9 failed (error:DomainError 8, error:ZeroNorm 1)"."""
    tally = collections.Counter(table.status)
    tally.pop("ok", None)
    kinds = ", ".join(f"{status} {count}" for status, count in tally.items())
    return f"{tally.total()} failed" + (f" ({kinds})" if kinds else "")


def _fmt(value):
    return "" if value is None else format(value, ".17g")


def config_echo_lines(config: SweepConfig):
    """The CSV's comment lines: the version, each field of config, then
    the exact solver's residual bound the rows were computed under."""
    from . import __version__
    lines = [f"# qubeam {__version__}"]
    for field in fields(config):
        value = getattr(config, field.name)
        if field.type is float:
            value = format(value, ".17g")
        elif field.type is PolarizationConfig:
            value = value.code
        lines.append(f"# {field.name}={value}")
    lines.append(f"# tol={RESIDUAL_TOL:.17g}")
    return lines


def _texts(column):
    """Each value's text: a line of one repeated object (such as a closed
    form's [0.0] * n, or [None] * n) prints it once; other lines print by
    float.__format__ ("%.17g" % value's C routine, called more cheaply),
    or by _fmt of each where a value is not a float."""
    first = column[0]
    if all(map(operator.is_, column, itertools.repeat(first))):
        return [_fmt(first)] * len(column)
    try:
        return list(map(float.__format__, column, itertools.repeat(".17g")))
    except TypeError:
        return list(map(_fmt, column))


def write_csv(table: SweepTable, config: SweepConfig, path: str,
              matrix: str | None = None):
    """Write run_sweep(config)'s table to the CSV at path and, with matrix,
    the gnuplot nonuniform-matrix surfaces MATRIX_EI.dat and MATRIX_ES.dat:
    N and the N delta_kappa values, then per omega the omega and the measure
    per column, nan where the point failed. The grid cells are config's
    grid values, formatted once per sweep; the value and status cells are
    the table's. One pass, one omega line of each column at a time; returns
    {"EI": path, "ES": path}, or {} without matrix."""
    dks = config.dk_grid()
    n = len(dks)
    # A line is n rows of 17 slots: the omega text, ",", the row's
    # "delta_kappa,kappa2," text, then y, E_I, E_S, E_I_asymptotic,
    # E_S_closed and raw_norm each followed by ",", and the status and "\n".
    rows = (["", ",", ""] + ["", ","] * 6 + ["", "\n"]) * n
    rows[2::17] = [f"{_fmt(dk)},{_fmt(config.kappa1 + dk)}," for dk in dks]
    surfaces = ({suffix: f"{matrix}_{suffix}.dat" for suffix in ("EI", "ES")}
                if matrix else {})
    with ExitStack() as files:
        csv, *dats = [files.enter_context(
            open(name, "w", encoding="utf-8", newline="\n"))
            for name in (path, *surfaces.values())]
        csv.writelines(f"{line}\n" for line in config_echo_lines(config))
        csv.write(f"{CSV_HEADER}\n")
        for dat in dats:
            dat.write(" ".join([str(n), *map(_fmt, dks)]) + "\n")
        for start, omega in zip(range(0, len(table.status), n),
                                map(_fmt, config.omega_grid())):
            stop = start + n
            rows[0::17] = [omega] * n
            for slot, column in zip(range(3, 15, 2), table[3:9]):
                rows[slot::17] = _texts(column[start:stop])
            rows[15::17] = table.status[start:stop]
            csv.write("".join(rows))
            for dat, slot in zip(dats, (5, 7)):
                measure = rows[slot::17]
                if "" in measure:
                    measure = [cell or "nan" for cell in measure]
                dat.write(f"{omega} {' '.join(measure)}\n")
    return surfaces
