"""Exact verification workbench for Rota-Baxter operators of any weight.

Everything is exact rational arithmetic (carriers store integer numerators
over a shared denominator and read out `fractions.Fraction`); there is no
floating point and no tolerance anywhere. Carriers that truncate (Laurent tails, the
degree cap of `integration`) raise `ConfigError` instead of silently dropping terms.
"""
