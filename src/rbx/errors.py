"""Shared error types."""

from __future__ import annotations


class ConfigError(Exception):
    """Raised when a requested computation is outside the configured bounds.

    Covers bad CLI/config input as well as runtime bound violations that the
    exact-arithmetic policy refuses to truncate away (pole underflow in the
    Laurent model, the degree cap of the polynomial functions of
    ``integration``). The CLI maps this to exit code 2.
    """
