"""Error taxonomy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, DataError/ParseError and
OSError -> 3, NumericError -> 4, MemoryError -> 5. Everything else is a plain
bug.
"""


class CgsdError(Exception):
    pass


class DimensionError(CgsdError, ValueError):
    """Operand shapes are incompatible."""


class ConfigError(CgsdError, ValueError):
    """A configuration value is outside its documented range."""


class ContractError(CgsdError, RuntimeError):
    """An API precondition was violated by the caller."""


class DataError(CgsdError, ValueError):
    """Input data (labels, lengths, values) violates its contract."""


class ParseError(DataError):
    """A file failed to parse; message carries the offending line."""


class NumericError(CgsdError, ArithmeticError):
    """A computation produced a non-finite value."""


class DegenerateNormWarning(UserWarning):
    """A row with near-zero norm was rescaled by 1/eps instead of normalized."""
