"""Seeded inputs of the three workloads.

The program only sees what these functions generate. The sweeps run the
paper's default 64x64 grid, so their inputs do not depend on the seed; the
seed picks which of their rows the 50-digit check samples. point_mix draws
its whole request stream from the seed.
"""
from dataclasses import dataclass
import random

WORKLOADS = ("sweep_exact", "sweep_pert", "point_mix")

# CLI sweeps per round: (polarization code, extra CLI flags).
SWEEPS = {
    "sweep_exact": (("du", ()),),
    "sweep_pert": (("du", ("--method", "pert")),
                   ("uu", ("--method", "pert", "--pol", "uu"))),
}
# The CLI's default sweep grid; the output check recomputes it.
DEFAULT_GRID = {"kappa1": 2500.0, "eps": 0.1,
                "omega": (0.0, 0.5, 64), "dk": (10.0, 3500.0, 64)}

REFERENCE_POINT = (2500.0, 3000.0, 0.5, 0.1)   # kappa1, kappa2, omega, eps
CONFIGS = ("uu", "ud", "du", "dd")
# point_mix's timed requests use the configs that evaluate everywhere in
# the envelope. At the seed commit most uu and about a third of ud points
# there raise DomainError (ROADMAP item 4), and so do du and dd at a few
# points with omega near 0, outside the leading-order regime. The timed
# stream keeps to du/dd inside that regime; the whole envelope with all four
# configs is run once after the timed loop, and its raise share reported.
STREAM_CONFIGS = ("du", "dd")
LEADING_ORDER_MARGIN = 100.0
METHODS = ("exact", "perturbative")
STREAM_LEN = 1024
# One verify round before every VERIFY_EVERY-th request. No traffic record
# fixes this ratio; 64 keeps a 10-s run above the 100 verify rounds that
# resolve their p90, and verify rounds are timed apart from the requests,
# so the ratio does not enter ops_per_s.
VERIFY_EVERY = 64
CHECK_SAMPLE = 16


@dataclass(frozen=True)
class PointRequest:
    kappa1: float
    kappa2: float
    omega: float
    eps: float
    pol: str
    method: str

    @property
    def point(self):
        return (self.kappa1, self.kappa2, self.omega, self.eps)


def coupling_bound(kappa1, omega, dk_rel):
    """Acceptance 6's largest coupling, 0.01 (kappa1-omega)^2 min(1, dk/kappa1)."""
    return 0.01 * (kappa1 - omega) ** 2 * min(1.0, dk_rel)


def phi(kappa1, kappa2, omega):
    """Closed-form factor Phi of the (down, up) configuration."""
    k1, k2, w = kappa1, kappa2, omega
    num = w * (w * w * (k2 - k1) + 2.0 * w * (k2 * k2 + k1 * k1)
               + (k2 ** 3 - k1 ** 3))
    return num / (2.0 * k1 * k2 * (w - k1) ** 2 * (w + k2) ** 2)


def leading_order_applies(kappa1, dk, omega, eps):
    """True where eps*Phi dominates the second-order floor (eps/(kappa1 dk))^2."""
    floor = (eps / (kappa1 * dk)) ** 2
    return omega > 0.0 and eps * phi(kappa1, kappa1 + dk, omega) >= (
        LEADING_ORDER_MARGIN * floor)


def _envelope_point(rng):
    kappa1 = 10.0 ** rng.uniform(1.0, 4.0)
    dk_rel = 10.0 ** rng.uniform(-3.0, 1.0)
    omega = rng.uniform(0.0, kappa1 / 2.0)
    eps = 10.0 ** rng.uniform(-4.0, 0.0) * coupling_bound(kappa1, omega, dk_rel)
    return kappa1, kappa1 * (1.0 + dk_rel), omega, eps


def point_stream(seed, n=STREAM_LEN, configs=STREAM_CONFIGS, leading_order=True):
    """n single-point requests from the input envelope.

    kappa1 log-uniform in [10, 1e4], dk/kappa1 log-uniform in [1e-3, 10],
    omega uniform in [0, kappa1/2], eps = 10^U(-4, 0) * coupling_bound.
    Requests alternate exact and first-order roots and cycle `configs`, so
    every (config, method) pair appears equally often. With leading_order,
    a point is redrawn until leading_order_applies, the regime where the
    first-order signal dominates the second-order terms (about 60% of the
    envelope); leading_order=False gives the whole envelope.
    """
    rng = random.Random(seed)
    out = []
    for i in range(n):
        point = _envelope_point(rng)
        while leading_order and not leading_order_applies(
                point[0], point[1] - point[0], point[2], point[3]):
            point = _envelope_point(rng)
        out.append(PointRequest(*point, configs[(i // 2) % len(configs)],
                                METHODS[i % len(METHODS)]))
    return out


def sample(seed, population, k=CHECK_SAMPLE):
    """A seeded, sorted sample of k items (all of them if fewer)."""
    population = list(population)
    if len(population) <= k:
        return population
    rng = random.Random(f"check-{seed}")
    picked = sorted(rng.sample(range(len(population)), k))
    return [population[i] for i in picked]
