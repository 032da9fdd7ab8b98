"""Command-line interface.

Subcommands: roots, block, state, measures, sweep, verify. Point flags
default to the reference point (kappa1=2500, kappa2=3000, omega=0.5,
eps=0.1, pol=du). Exit codes: 0 success, 1 validation or parse error,
2 computation, I/O or memory failure.
"""
import argparse
import functools
import math
import sys

from .bogoliubov import INDEX_ORDER, build_block, identity_defect
from .dispersion import exact_roots, perturbative_roots
from .entangle import full_report
from .errors import ParseError, QubeamError, ValidationError
from .params import make_params
from .qstate import PolarizationConfig, _normalized_state, _state_columns
from .sweep import (_FILE_KEYS, _fmt, failure_tally, parse_config, run_sweep,
                    write_csv)
from .verify import verify_point

_CHOICES = {"pol": ["uu", "ud", "du", "dd"], "method": ["exact", "pert"]}


class _Parser(argparse.ArgumentParser):
    # Argument errors are user input errors: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_point_flags(sub, pol=False, method=False):
    sub.add_argument("--kappa1", type=float, default=2500.0)
    sub.add_argument("--kappa2", type=float, default=3000.0)
    sub.add_argument("--omega", type=float, default=0.5)
    sub.add_argument("--eps", type=float, default=0.1)
    if pol:
        sub.add_argument("--pol", choices=_CHOICES["pol"], default="du",
                         help="polarization pair, photon 1 first")
    if method:
        sub.add_argument("--method", choices=_CHOICES["method"],
                         default="exact")


@functools.cache     # a parser keeps no state from one parse to the next
def _build_parser():
    parser = _Parser(prog="qubeam",
                     description="Photon-pair entanglement in a magnetized "
                                 "electron medium")
    subs = parser.add_subparsers(dest="command", required=True)

    p_roots = subs.add_parser("roots", help="quasiphoton frequencies")
    _add_point_flags(p_roots)
    p_roots.add_argument("--csv", action="store_true",
                         help="machine-readable CSV instead of a table")
    p_roots.add_argument("--out", help="write to file instead of stdout")

    p_block = subs.add_parser("block", help="transformation matrices u, v, q")
    _add_point_flags(p_block, method=True)
    p_block.add_argument("--out", help="write to file instead of stdout")

    p_state = subs.add_parser("state", help="two-qubit amplitudes")
    _add_point_flags(p_state, pol=True, method=True)

    p_meas = subs.add_parser("measures", help="entanglement report")
    _add_point_flags(p_meas, pol=True, method=True)
    p_meas.add_argument("--machine", action="store_true",
                        help="key=value lines instead of aligned text")

    p_sweep = subs.add_parser("sweep", help="grid sweep to CSV")
    p_sweep.add_argument("--config", help="key=value config file")
    for key, kind in _FILE_KEYS.items():      # one flag per SweepConfig field
        p_sweep.add_argument("--" + key.replace("_", "-"), dest=key,
                             type=kind, choices=_CHOICES.get(key))
    p_sweep.add_argument("--out", default="sweep.csv",
                         help="CSV output path (default sweep.csv)")
    p_sweep.add_argument("--matrix",
                         help="also write BASE_EI.dat/BASE_ES.dat surfaces")

    p_verify = subs.add_parser("verify", help="internal consistency oracles")
    _add_point_flags(p_verify, pol=True)

    return parser


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _point_params(args):
    return make_params(args.kappa1, args.kappa2, args.omega, args.eps)


def _cmd_roots(args):
    params = _point_params(args)
    ex = exact_roots(params)
    pert = perturbative_roots(params)
    rows = [(k, lam, ex.root(k, lam), pert.root(k, lam),
             ex.residuals[k - 1][lam - 1],
             abs(ex.offset(k, lam) - pert.offset(k, lam)))
            for k, lam in INDEX_ORDER]
    if args.csv:
        lines = ["k,lambda,r_exact,r_perturbative,residual,defect"]
        lines += [",".join([str(k), str(lam)] + [_fmt(x) for x in rest])
                  for k, lam, *rest in rows]
    else:
        lines = [f"{'k':>2} {'lam':>3} {'r_exact':>24} {'r_first_order':>24} "
                 f"{'residual':>13} {'defect':>13}"]
        for k, lam, re_, rp, res, dfc in rows:
            lines.append(f"{k:>2} {lam:>3} {re_:>24.17g} {rp:>24.17g} "
                         f"{res:>13.3e} {dfc:>13.3e}")
    _emit(lines, args.out)
    return 0


def _cmd_block(args):
    params = _point_params(args)
    roots = (exact_roots(params) if args.method == "exact"
             else perturbative_roots(params))
    block = build_block(roots, params)
    lines = ["matrix,row_s,row_lambda,col_k,col_lambda,re,im"]
    for name, mat in (("u", block.u), ("v", block.v)):
        for i, (s, lr) in enumerate(INDEX_ORDER):
            for j, (k, lc) in enumerate(INDEX_ORDER):
                lines.append(f"{name},{s},{lr},{k},{lc},"
                             f"{_fmt(mat[i][j].real)},{_fmt(mat[i][j].imag)}")
    lines += [f"q,{k},{lam},,,{_fmt(block.q[k - 1][lam - 1])},"
              for k, lam in INDEX_ORDER]
    duu, dsym = identity_defect(block)
    lines.append(f"# identity defects: uu={duu:.6e} sym={dsym:.6e}")
    _emit(lines, args.out)
    return 0


def _cmd_state(args):
    params = _point_params(args)
    roots = (exact_roots(params) if args.method == "exact"
             else perturbative_roots(params))
    pol = PolarizationConfig.from_code(args.pol)
    vec, _, norm_gap = _normalized_state(_state_columns(roots, params, pol),
                                         pol)
    lines = [f"config: {pol.code}  (lambda1={pol.lambda1}, "
             f"lambda2={pol.lambda2})"]
    for i, v in enumerate(vec, start=1):
        lines.append(f"upsilon{i}: {v.real:+.17g} {v.imag:+.17g}i")
    lines.append(f"raw_norm: {math.sqrt(1.0 - norm_gap):.17g}")
    _emit(lines, None)
    return 0


def _cmd_measures(args):
    params = _point_params(args)
    rep = full_report(params, PolarizationConfig.from_code(args.pol),
                      "perturbative" if args.method == "pert" else "exact")
    pairs = [
        ("config", rep.config.code), ("method", rep.method),
        ("y", _fmt(rep.y)), ("E_I", _fmt(rep.E_I)), ("E_S", _fmt(rep.E_S)),
        ("raw_norm_sq", _fmt(rep.raw_norm_sq)),
        ("norm_gap", _fmt(rep.norm_gap)), ("y_gap", _fmt(rep.y_gap)),
        ("Phi", _fmt(rep.Phi)), ("y_closed", _fmt(rep.y_closed)),
        ("E_I_asymptotic", _fmt(rep.E_I_asymptotic)),
        ("E_S_closed", _fmt(rep.E_S_closed)),
    ]
    if args.machine:
        lines = [f"{key}={val}" for key, val in pairs]
    else:
        width = max(len(key) for key, _ in pairs)
        lines = [f"{key:<{width}}  {val}" for key, val in pairs]
    _emit(lines, None)
    return 0


def _cmd_sweep(args):
    # None is a flag not given
    overrides = {key: value for key in _FILE_KEYS
                 if (value := getattr(args, key)) is not None}
    config = parse_config(args.config, overrides)
    table = run_sweep(config)
    write_csv(table, config, args.out, args.matrix)
    print(f"wrote {args.out}: {len(table.status)} rows, {failure_tally(table)}",
          file=sys.stderr)
    return 0


def _cmd_verify(args):
    params = _point_params(args)
    report = verify_point(params, PolarizationConfig.from_code(args.pol))
    for check in report.checks:
        print(f"{check.status.upper():>5}  {check.name}: {check.detail}")
    passed, failed, skipped = report.counts
    print(f"{passed} passed, {failed} failed, {skipped} skipped")
    return 0 if report.ok else 2


_COMMANDS = {
    "roots": _cmd_roots, "block": _cmd_block, "state": _cmd_state,
    "measures": _cmd_measures, "sweep": _cmd_sweep, "verify": _cmd_verify,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QubeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"memory error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
