"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class CapabilityError(RuntimeError):
    """A required exact derivative is missing and no fallback applies."""


class UnknownFunctionError(KeyError):
    """A catalog lookup used a name that is not registered."""

    def __init__(self, name, valid_names):
        self.name = name
        self.valid_names = tuple(valid_names)
        super().__init__(
            f"unknown function {name!r}; valid names: {', '.join(self.valid_names)}"
        )

    def __str__(self):
        return self.args[0]
