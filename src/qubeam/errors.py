"""Exception taxonomy for the qubeam package.

Every error raised by this package derives from QubeamError so callers can
catch one base type. Validation and parse errors map to CLI exit code 1,
computation errors to exit code 2.
"""


class QubeamError(Exception):
    """Base class for all package errors. full_report sets stage to the
    name of the pipeline stage that raised."""

    stage = None


# ---------------------------------------------------------------- validation

class ValidationError(QubeamError):
    """Invalid model parameters or sweep configuration."""


class DegenerateFrequencies(ValidationError):
    """kappa1 == kappa2; the two photon modes must be distinct."""


class NearResonance(ValidationError):
    """omega too close to (or beyond) kappa1; closed forms develop poles."""


class NonPositive(ValidationError):
    """A parameter that must be positive (or nonnegative) is not."""


class StrongCoupling(ValidationError):
    """eps above the coupling bound (COUPLING_LIMIT), for every method."""


class ParseError(QubeamError):
    """Malformed configuration file; message carries line/key context."""


# --------------------------------------------------------------- computation

class ComputationError(QubeamError):
    """Base class for numerical failures; message names the failing stage."""


class PoleEvaluation(ComputationError):
    """A root on a pole r = kappa_s, where the transformation is singular."""


class SingularDenominator(ComputationError):
    """A denominator that is zero, not finite or too small to use: the
    first-order offset's, the Newton slope's, the normalization's or Phi's."""


class NonConvergence(ComputationError):
    """A solved root's dimensionless residual is above RESIDUAL_TOL."""


class NegativeRadicand(ComputationError):
    """Normalization radicand not positive; regime outside the transformation's
    validity. Message reports the offending (k, lambda) and radicand value."""


class ZeroNorm(ComputationError):
    """All four two-qubit amplitudes vanish; the block is unusable."""


class DomainError(ComputationError):
    """Measure argument outside its domain beyond tolerance."""


class ResonancePole(ComputationError):
    """(omega - kappa1)^2 below floor in the closed-form denominator."""


class RangeViolation(ComputationError):
    """Closed-form product eps*Phi >= 1, outside the admissible range."""


class AllRowsFailed(ComputationError):
    """Every grid point of a sweep failed; nothing to write."""


def _raise_first(rules, verdicts, **values):
    """Raise the first (error class, message) row of a stage's rules whose
    accept verdict is False. A stage's verdict function is comparisons
    joined by & and |: bools for floats and masks for arrays, which the
    batch ANDs."""
    for (error, message), ok in zip(rules, verdicts):
        if not ok:
            raise error(message.format(**values))
