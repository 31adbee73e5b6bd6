"""Shared error types."""

from __future__ import annotations


class ConfigError(Exception):
    """Raised when a requested computation is outside the configured bounds.

    Covers bad CLI/config input as well as runtime bound violations that the
    exact-arithmetic policy refuses to truncate away (pole underflow in the
    Laurent model, degree-cap overflow in the polynomial model). The CLI maps
    this to exit code 2.
    """
