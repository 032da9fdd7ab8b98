"""Independent reference for the benchmark's output check.

Nothing here imports qubeam. Roots are solved in 50-digit mpmath from the
dispersion relation, the two-qubit pipeline is re-derived from the model's
defining formulas (u entries, column normalization q, amplitudes
upsilon, raw reduced density), and the closed form Phi is typed in again.
The check runs outside the timed region; every miss counts as one wrong
output.

The closed-form bounds are those of the acceptance battery, stated in the
units of the paper's grid (kappa1 = 2500, eps = 0.1), so they are applied
to sweep rows only; point_mix spans kappa1 from 10 to 1e4 and is held to
the 50-digit pipeline instead.

Checks:
  * roots: each exact offset within ROOT_ULPS ulps of the 50-digit root;
  * measures: E_I and E_S within MEASURE_RTOL of the 50-digit pipeline fed
    the same kind of roots (exact, or first order for the pert solver);
  * every successful output: 0 <= E_I <= 1;
  * du sweep rows: |y_gap - eps*Phi| <= 50 eps^2 Phi and
    |E_S - 2 eps Phi| <= 100 eps^2 Phi (acceptance 2 and 3), on rows where
    the leading order eps*Phi is at least 100 times the second-order floor
    (eps/(kappa1*dk))^2 that the surface shows at omega = 0;
  * uu sweep rows: E_I and E_S at most 50 eps^2 (acceptance 4);
  * sweep files: every grid row present, in order, and the matrix surfaces
    equal to the CSV columns.
"""
import math

import mpmath

from inputs import leading_order_applies, phi

DIGITS = 50
ROOT_ULPS = 4
MEASURE_RTOL = 1e-9

POL_LAMBDAS = {"uu": (1, 1), "ud": (1, 2), "du": (2, 1), "dd": (2, 2)}


# ------------------------------------------------------------------ roots

def _mpf_point(kappa1, kappa2, omega, eps):
    return tuple(mpmath.mpf(x) for x in (kappa1, kappa2, omega, eps))


def _residual(d, kk, ko, w, eps, sign):
    # dispersion residual at r = kk + d with the pole differences factored
    return (eps / (d * (d + 2 * kk)) + eps / ((kk - ko + d) * (kk + ko + d))
            - 1 - sign * w / (kk + d))


def mp_offset(kappa1, kappa2, omega, eps, k, lam):
    """Root offset r_{k,lam} - kappa_k to DIGITS digits.

    Brackets the first sign change above the pole by doubling from
    1e-30*kappa_k, then solves with a bracketing method.
    """
    with mpmath.workdps(DIGITS):
        k1, k2, w, e = _mpf_point(kappa1, kappa2, omega, eps)
        kk, ko = (k1, k2) if k == 1 else (k2, k1)
        sign = 1 if lam == 1 else -1

        def g(d):
            return _residual(d, kk, ko, w, e, sign)

        cap = min(kk, abs(ko - kk)) / 2
        lo = kk * mpmath.mpf("1e-30")
        hi = 2 * lo
        while g(hi) > 0:
            lo, hi = hi, 2 * hi
            if hi > cap:
                raise ArithmeticError(f"no root bracket below {cap} for "
                                      f"k={k}, lambda={lam}")
        return mpmath.findroot(g, (lo, hi), solver="anderson")


def mp_first_order_offset(kappa1, kappa2, omega, eps, k, lam):
    """First-order root offset, exact as eps -> 0."""
    with mpmath.workdps(DIGITS):
        k1, k2, w, e = _mpf_point(kappa1, kappa2, omega, eps)
        kk = k1 if k == 1 else k2
        sign = 1 if lam == 1 else -1
        split = 2 * kk * kk - (k1 * k1 + k2 * k2)
        den = (sign * 2 * w * split + kk * (5 * kk * kk - 3 * (k1 * k1 + k2 * k2))
               + (k1 * k2) ** 2 / kk)
        return e * split / den


def root_misses(point, offsets):
    """Offsets farther than ROOT_ULPS ulps from the 50-digit roots.

    point is (kappa1, kappa2, omega, eps); offsets is ModeRoots.offsets,
    ((d11, d12), (d21, d22)).
    """
    misses = 0
    for k in (1, 2):
        for lam in (1, 2):
            got = offsets[k - 1][lam - 1]
            ref = mp_offset(*point, k, lam)
            with mpmath.workdps(DIGITS):
                err = abs(mpmath.mpf(got) - ref)
            if not err <= ROOT_ULPS * math.ulp(got):
                misses += 1
    return misses


# --------------------------------------------------------------- pipeline

def mp_measures(point, pol, first_order=False):
    """(E_I, E_S, y_gap) of the raw two-qubit state, to DIGITS digits.

    u_{s lam, k lam'} = (sqrt(r/kappa_s) + sqrt(kappa_s/r)) phase
                        / (2 (r^2 - kappa_s^2)) q_{k lam'},
    q^-2 = (-1)^lam' omega/(r^3 eps) + 2 sum_s (r^2 - kappa_s^2)^-2,
    upsilon(lam, lam') = u_{1lam,1lam1} u_{2lam',2lam2}
                       + u_{2lam',1lam1} u_{1lam,2lam2},
    rho = M M+ with M[lam][lam'] = upsilon. E_I is the binary entropy (bits)
    of (1 - y)/2 with y the spectral gap of rho, E_S = 1 - tr(rho^2); both
    clamp at 0 where the raw gap is negative.
    """
    lam1, lam2 = POL_LAMBDAS[pol]
    solve = mp_first_order_offset if first_order else mp_offset
    with mpmath.workdps(DIGITS):
        k1, k2, w, e = _mpf_point(*point)
        kappas = (k1, k2)
        r, q = {}, {}
        for k in (1, 2):
            for lam in (1, 2):
                rr = kappas[k - 1] + solve(*point, k, lam)
                r[k, lam] = rr
                rad = ((-1) ** lam * w / (rr ** 3 * e)
                       + sum(2 / (rr * rr - ks * ks) ** 2 for ks in kappas))
                q[k, lam] = 1 / mpmath.sqrt(rad)

        def phase(lam_row, lam_col):
            if lam_row == 1:
                return 1 if lam_col == 1 else -1
            return mpmath.mpc(0, -1)

        def u(s, lam_row, k, lam_col):
            rr, ks = r[k, lam_col], kappas[s - 1]
            return ((mpmath.sqrt(rr / ks) + mpmath.sqrt(ks / rr))
                    * phase(lam_row, lam_col) / (2 * (rr * rr - ks * ks))
                    * q[k, lam_col])

        m = [[u(1, a, 1, lam1) * u(2, b, 2, lam2)
              + u(2, b, 1, lam1) * u(1, a, 2, lam2) for b in (1, 2)]
             for a in (1, 2)]
        rho = [[sum(m[i][j] * mpmath.conj(m[l][j]) for j in range(2))
                for l in range(2)] for i in range(2)]
        trace = mpmath.re(rho[0][0] + rho[1][1])
        y = mpmath.sqrt(mpmath.re(rho[0][0] - rho[1][1]) ** 2
                        + 4 * abs(rho[0][1]) ** 2)
        gap = 1 - y
        if gap <= 0:
            e_i = mpmath.mpf(0)
        else:
            e_i = -(gap * mpmath.log(gap / 2)
                    + (2 - gap) * mpmath.log(1 - gap / 2)) / mpmath.log(4)
        e_s = max(1 - (trace * trace + y * y) / 2, mpmath.mpf(0))
        return e_i, e_s, gap


def measure_misses(point, pol, first_order, e_i, e_s):
    """How many of (E_I, E_S) miss the 50-digit pipeline by > MEASURE_RTOL."""
    ref_i, ref_s, _ = mp_measures(point, pol, first_order)
    misses = 0
    for got, ref in ((e_i, ref_i), (e_s, ref_s)):
        with mpmath.workdps(DIGITS):
            if not abs(mpmath.mpf(got) - ref) <= MEASURE_RTOL * abs(ref):
                misses += 1
    return misses


# ------------------------------------------------------------ closed forms

def range_misses(e_i):
    """The information measure of any successful output lies in [0, 1]."""
    return 0 if 0.0 <= e_i <= 1.0 else 1


def uu_row_misses(eps, e_i, e_s):
    """Acceptance 4's bound on a uu sweep row: E_I, E_S <= 50 eps^2."""
    bound = 50.0 * eps ** 2
    return int(e_i > bound) + int(e_s > bound)


def du_row_misses(kappa1, dk, omega, eps, y, e_s):
    """Closed-form misses of one du sweep row (0 where they do not apply).

    y comes from the CSV, where it is quantized at ulp(1); 1 - y is then
    exact and the bound on y gets that quantum as slack.
    """
    if not leading_order_applies(kappa1, dk, omega, eps):
        return 0
    p = phi(kappa1, kappa1 + dk, omega)
    misses = 0
    if abs((1.0 - y) - eps * p) > 50.0 * eps ** 2 * p + 2.0 ** -52:
        misses += 1
    if abs(e_s - 2.0 * eps * p) > 100.0 * eps ** 2 * p:
        misses += 1
    return misses


# ------------------------------------------------------------- sweep files

def grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def parse_csv(text):
    """(header, rows) of a sweep CSV; rows are lists of string fields."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def parse_matrix(text):
    """(column values, {row value: [cell strings]}) of a gnuplot matrix."""
    lines = text.splitlines()
    cols = [float(x) for x in lines[0].split()[1:]]
    rows = {}
    for line in lines[1:]:
        cells = line.split()
        rows[float(cells[0])] = cells[1:]
    return cols, rows


def close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def sweep_misses(csv_text, ei_text, es_text, pol, grid_spec):
    """Check one sweep's CSV and matrix files.

    grid_spec holds kappa1, eps and the (lo, hi, n) ranges of omega and dk.
    Returns (wrong, error_rows, ok_rows) where ok_rows are
    (omega, dk, E_I, E_S) for the rows with status ok.
    """
    kappa1, eps = grid_spec["kappa1"], grid_spec["eps"]
    omegas = grid(*grid_spec["omega"])
    dks = grid(*grid_spec["dk"])
    header, rows = parse_csv(csv_text)
    col = {name: i for i, name in enumerate(header)}
    wrong = abs(len(rows) - len(omegas) * len(dks))
    errors = 0
    ok_rows = []
    expected = ((w, dk) for w in omegas for dk in dks)
    for fields, (w_ref, dk_ref) in zip(rows, expected):
        omega, dk = float(fields[col["omega"]]), float(fields[col["delta_kappa"]])
        if not (close(omega, w_ref) and close(dk, dk_ref)):
            wrong += 1
            continue
        if fields[col["status"]] != "ok":
            errors += 1
            continue
        y = float(fields[col["y"]])
        e_i, e_s = float(fields[col["E_I"]]), float(fields[col["E_S"]])
        wrong += range_misses(e_i)
        if pol == "du":
            wrong += du_row_misses(kappa1, dk, omega, eps, y, e_s)
        elif pol == "uu":
            wrong += uu_row_misses(eps, e_i, e_s)
        ok_rows.append((omega, dk, e_i, e_s))

    # the matrix surfaces repeat the CSV columns cell for cell
    for text, name in ((ei_text, "E_I"), (es_text, "E_S")):
        cols, mrows = parse_matrix(text)
        cells = {}
        for w, cells_w in mrows.items():
            for dk, cell in zip(cols, cells_w):
                cells[(w, dk)] = cell
        for fields in rows:
            key = (float(fields[col["omega"]]), float(fields[col["delta_kappa"]]))
            want = fields[col[name]] or "nan"
            if cells.get(key) != want:
                wrong += 1
    return wrong, errors, ok_rows
