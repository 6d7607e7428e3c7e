"""Exception taxonomy shared across the toolkit.

Every error carries a plain-text message with the offending values; nothing is
raised for ordinary certificate failures inside verifiers (those are reported),
only for contract violations and unrecoverable pipeline states.
"""

from __future__ import annotations


class BpbkitError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(BpbkitError):
    """Vector/operator shape does not match the owning space."""


class DegenerateInput(BpbkitError):
    """An input that must be nonzero (or nondegenerate) is not."""


class NotANorm(BpbkitError):
    """A candidate generator fails a norm axiom on the validation grid."""


class NotOnSphere(BpbkitError):
    """A vector required to be unit-norm is not, beyond tolerance."""


class RangeError(BpbkitError):
    """A scalar parameter lies outside its admissible range."""


class NotUniformlyConvex(BpbkitError):
    """Closed-form convexity modulus requested for a space with flat faces."""


class NotUniformlyMonotone(BpbkitError):
    """The lattice admits mass escaping to a complementary support set."""


class HypothesisError(BpbkitError):
    """A pipeline's entry hypothesis fails on the supplied instance."""


class OracleViolation(BpbkitError):
    """A pluggable oracle returned data violating its advertised contract."""


class InternalInvariantError(BpbkitError):
    """A derived inequality that must hold by construction failed numerically."""


class WitnessSearchFailed(BpbkitError):
    """No valid witness found at the requested epsilon; best residuals attached."""

    def __init__(self, message: str, residuals: dict | None = None):
        super().__init__(message)
        self.residuals = residuals or {}


class ConfigError(BpbkitError):
    """Scenario/CLI configuration is malformed."""


class GenerationFailed(BpbkitError):
    """Instance generation could not satisfy the requested hypothesis."""


class InvalidModulus(BpbkitError):
    """A user-supplied modulus function produced a non-positive value."""

