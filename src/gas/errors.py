"""Exception taxonomy shared across the package."""

import contextlib
import struct


class GasError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GasError):
    """Invalid configuration: unknown keys, bad values, unknown environments."""


class ContractError(GasError):
    """A call violated an operation's precondition (bad index, shape, range)."""


class SchemaError(GasError):
    """A file failed validation: bad magic, unsupported version, corrupt body."""


class NonFiniteError(GasError):
    """A loss or gradient became non-finite; the offending step was aborted."""


@contextlib.contextmanager
def parsing(what: str):
    """Around code decoding a file's bytes: a short read, bad text or JSON, a
    missing or mistyped field or an impossible header raise SchemaError."""
    try:
        yield
    except (struct.error, ValueError, KeyError, TypeError, AttributeError,
            OverflowError, RecursionError, ConfigError) as exc:
        raise SchemaError(f"corrupt {what}: {type(exc).__name__}: {exc}") from exc
