"""Correctness checks on what `rbx verify` produced, independent of rbx.

Every function returns a list of problems, empty when the output is right.
Nothing here imports rbx: expected values are recomputed with plain
`fractions.Fraction` and integer recurrences, so a fault in the program
cannot hide itself by also being in its oracle.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

_ELAPSED = re.compile(r'^  "elapsed_ms": \d+,?\n', re.MULTILINE)


def strip_elapsed(text: str) -> str:
    """The report without its `elapsed_ms` line, the one field allowed to vary."""
    stripped, count = _ELAPSED.subn("", text)
    if count != 1:
        raise ValueError(f"expected one elapsed_ms line, found {count}")
    return stripped


def report_problems(text: str | None, rc) -> list:
    """A suite call passed: exit 0, and a JSON report with checks, none failed."""
    if rc != 0:
        return [f"exit code {rc}"]
    if text is None:
        return ["no report written"]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    checks = report.get("checks") or []
    if not checks:
        problems.append("report has no checks")
    bad = [c.get("name") for c in checks if c.get("status") != "pass"]
    if bad:
        problems.append(f"{len(bad)} checks not passed, first {bad[0]}")
    if (report.get("passed"), report.get("failed")) != (len(checks), 0):
        problems.append(f"summary passed={report.get('passed')} failed={report.get('failed')} "
                        f"for {len(checks)} checks")
    return problems


def same_report_problems(first: str, later: str) -> list:
    """Two reports of one suite and seed agree byte for byte apart from elapsed_ms."""
    try:
        a, b = strip_elapsed(first), strip_elapsed(later)
    except ValueError as exc:
        return [str(exc)]
    if a == b:
        return []
    at = next(i for i, (x, y) in enumerate(zip(a + "\0", b + "\1")) if x != y)
    return [f"report differs from the first pass at byte {at}"]


def probe_problems(text: str | None, rc, must_fail) -> list:
    """The probe with a broken matrix operator is caught.

    Each prefix in `must_fail` names at least one check and every check it
    names FAILs; every check off matrix3 still PASSes; the call exits 1.
    """
    if rc != 1:
        return [f"probe exit code {rc}, expected 1"]
    try:
        checks = json.loads(text)["checks"]
    except (TypeError, ValueError, KeyError) as exc:
        return [f"probe report unreadable: {exc}"]
    problems = []
    for prefix in must_fail:
        named = [c for c in checks if c["name"].startswith(prefix)]
        if not named:
            problems.append(f"probe ran no check named {prefix}*")
        for c in named:
            if c["status"] != "fail":
                problems.append(f"probe check {c['name']} passed with a broken operator")
    for c in checks:
        if "/matrix3/" not in c["name"] and c["status"] != "pass":
            problems.append(f"probe check {c['name']} failed off the broken carrier")
    return problems


# ---------------------------------------------------------------------------
# recomputed values


def magnus_problems(omega, x, theta: Fraction) -> list:
    """omega[n][k] = theta^(n-1) (-1)^(n-1) x[k]^n / n, grade 0 zero.

    In a commutative algebra the pre-Lie Magnus series is the closed form
    theta^-1 log(1 + theta lambda x), entrywise on a scalar sequence window.
    """
    problems = []
    for n, coeff in enumerate(omega):
        for k, got in enumerate(coeff):
            want = Fraction(0) if n == 0 else (-theta) ** (n - 1) * x[k] ** n / n
            if got != want:
                problems.append(f"magnus grade {n} slot {k}: got {got}, closed form {want}")
    return problems


def akiyama_tanigawa(n: int) -> Fraction:
    """B_n by the Akiyama-Tanigawa algorithm, in the B_1 = +1/2 convention."""
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    for j in range(n, 0, -1):
        row = [(m + 1) * (row[m] - row[m + 1]) for m in range(j)]
    return row[0]


def bernoulli_problems(values) -> list:
    """values[n] = B_n in the B_1 = -1/2 convention rbx uses."""
    problems = []
    for n, got in enumerate(values):
        want = akiyama_tanigawa(n) * (-1 if n == 1 else 1)
        if got != want:
            problems.append(f"bernoulli({n}) = {got}, Akiyama-Tanigawa gives {want}")
    return problems


def bell(n: int) -> int:
    """Bell number by the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def delannoy(i: int, j: int) -> int:
    """D(i, j) = sum_k C(i, k) C(j, k) 2^k: lattice paths with diagonal steps."""
    return sum(math.comb(i, k) * math.comb(j, k) * 2**k for k in range(min(i, j) + 1))


def combinat_problems(perm_count, partition_count, shuffle_count, qsh_coeff_sum, pairs, n_max: int) -> list:
    """Counts of S_n, set partitions, shuffles and quasi-shuffles.

    perm_count(n) and partition_count(n) for n <= n_max must be n! and
    Bell(n); for each word pair (u, v), shuffle_count(u, v) must be
    C(|u|+|v|, |u|) and qsh_coeff_sum(u, v) the Delannoy number D(|u|, |v|).
    """
    problems = []
    for n in range(1, n_max + 1):
        if perm_count(n) != math.factorial(n):
            problems.append(f"permutations({n}) has {perm_count(n)} elements, not {n}!")
        if partition_count(n) != bell(n):
            problems.append(f"set_partitions({n}) has {partition_count(n)}, not Bell({n})={bell(n)}")
    for u, v in pairs:
        i, j = len(u), len(v)
        if shuffle_count(u, v) != math.comb(i + j, i):
            problems.append(f"shuffle of {u} and {v}: {shuffle_count(u, v)} words, not C({i + j},{i})")
        if qsh_coeff_sum(u, v) != delannoy(i, j):
            problems.append(f"quasi-shuffle of {u} and {v}: coefficients sum to "
                            f"{qsh_coeff_sum(u, v)}, not D({i},{j})={delannoy(i, j)}")
    return problems
