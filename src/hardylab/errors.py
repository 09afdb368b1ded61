"""Exception hierarchy shared by all numerical modules."""

from __future__ import annotations


class NumericsError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(NumericsError):
    """Evaluation requested at (or numerically indistinguishable from) a pole."""


class DomainError(NumericsError):
    """Argument outside the supported domain of an operation."""


class AccuracyError(NumericsError):
    """Internal error bound exceeds the requested tolerance."""


class CapacityError(NumericsError):
    """Requested table or sum exceeds the configured memory/cost budget."""


class ConvergenceError(NumericsError):
    """Parameters lie outside the convergence/continuation regime."""


class FitError(NumericsError):
    """Least-squares fit residual too large to trust the coefficients."""


class BudgetError(NumericsError):
    """A quadrature pass would need more integrand evaluations than its
    budget allows, or its panel walk runs away; raised before the first
    evaluation, with no partial result."""
