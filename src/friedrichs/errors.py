"""Exception types shared across the package."""


class ContractError(ValueError):
    """An operation was called with inputs violating its stated precondition."""


class NotHyperbolicError(ContractError):
    """The time symbol is singular or its quadratic form is indefinite."""


class NormalizationError(ContractError):
    """beta-normalization failed (singular time symbol)."""


class UnsupportedDimensionError(ContractError):
    """Requested construction does not exist in this dimension."""


class NotAdmissibleError(ContractError):
    """A solve's boundary condition ``bc`` failed admissibility on ``face``;
    ``report`` is the admissibility report."""

    def __init__(self, bc, face, report):
        super().__init__(
            f"boundary condition '{bc.name}' on face {face} is not admissible; "
            f"pass force=True for counterexample studies\n" + report.summary())
        self.bc = bc
        self.face = face
        self.report = report


class NotSymmetricError(ContractError):
    """A solve's system fails condition (S); ``report`` is its
    ``check_symmetric`` report."""

    def __init__(self, name, report):
        super().__init__(
            f"system '{name}' fails (S): G·A^μ is not Hermitian (max relative asymmetry "
            f"{report.max_asymmetry:.3e}); pass force=True for counterexample studies")
        self.name = name
        self.report = report


class BoundaryClosureError(RuntimeError):
    """The characteristic boundary closure is not uniquely solvable."""


class ConfigError(ValueError):
    """Malformed run configuration."""
