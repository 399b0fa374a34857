"""Common exception base for the chemtext package.

Every domain error raised by the library derives from :class:`ChemtextError`,
so callers (notably the CLI) can distinguish bad data from genuine bugs with a
single ``except`` clause.
"""

from __future__ import annotations


class ChemtextError(Exception):
    """Base class for all errors raised by chemtext on bad input data."""


def bad_utf8(exc: UnicodeDecodeError) -> str:
    """The one wording of a byte that is not UTF-8: the decoder's reason and
    the byte it stopped at."""
    return f"bad UTF-8: {exc.reason} 0x{exc.object[exc.start]:02x}"
