"""Dendriform splitting, tensor and operator Yang-Baxter equations, and the
modified relation for B = 2R + theta id.

The tensor equation is checked in two modes because the two circulating
conventions differ in their last term: the "printed" mode evaluates
r13 r12 - r12 r23 + r23 r12, the "standard" mode r13 r12 - r12 r23 + r23 r13.
Solutions like E12 (x) E12 satisfy both (every term vanishes separately), so
the constructive route to weight-0 operators is available either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# rbxbench/tracer.py counts `double_product` calls by its name here, so it stays bound
from .algebra import RBAlgebra, SamplePlan, b_operator, double_product, first_failure
from .errors import ConfigError
from .models import RatMatrix, matrix_algebra
from .report import CheckResult


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    na, nb = a.dim, b.dim
    n = na * nb
    nums = [
        a.num[(i // nb) * na + j // nb] * b.num[(i % nb) * nb + j % nb]
        for i in range(n)
        for j in range(n)
    ]
    return RatMatrix._of(n, nums, a.den * b.den)


@dataclass(frozen=True)
class TensorR:
    """r = sum u_i (x) v_i with all factors square of one dimension."""

    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        dims = {m.dim for pair in self.pairs for m in pair}
        if len(dims) > 1:
            raise ValueError(f"mixed factor dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.pairs[0][0].dim if self.pairs else 0

    def embeddings(self):
        """r12, r13, r23 in the tensor cube, as dim^3 matrices."""
        n = self.dim
        eye = RatMatrix.identity(n)
        zero = RatMatrix.zeros(n**3)
        r12 = r13 = r23 = zero
        for u, v in self.pairs:
            r12 = r12 + kron(kron(u, v), eye)
            r13 = r13 + kron(kron(u, eye), v)
            r23 = r23 + kron(kron(eye, u), v)
        return r12, r13, r23


def aybe_check(r: TensorR, mode: str = "printed") -> CheckResult:
    """Associative Yang-Baxter equation in the tensor cube."""
    name = f"aybe/{mode}/dim={r.dim}"
    anchor = "Eq. (ag)"

    def laws(r):
        r12, r13, r23 = r.embeddings()
        if mode == "printed":
            value = r13 * r12 - r12 * r23 + r23 * r12
        elif mode == "standard":
            value = r13 * r12 - r12 * r23 + r23 * r13
        else:
            raise ValueError(f"unknown mode {mode!r}")
        yield "residual", value, RatMatrix.zeros(r.dim**3)

    return CheckResult.of(name, anchor, first_failure(f"tensor-cube[{r.dim}]", [(r,)], laws, "r"))


def rb_from_tensor(r: TensorR):
    """x -> sum u_i x v_i; a weight-0 Rota-Baxter operator when AYBE holds."""
    check = aybe_check(r)
    if check.status != "pass":
        raise ValueError(
            f"tensor fails the associative Yang-Baxter equation: {check.counterexample}"
        )

    def rb(x: RatMatrix) -> RatMatrix:
        out = RatMatrix.zeros(x.dim)
        for u, v in r.pairs:
            out = out + u * x * v
        return out

    return rb


def tensor_rb_algebra(r: TensorR) -> RBAlgebra:
    """The matrix algebra re-equipped with the induced weight-0 operator."""
    base = matrix_algebra(r.dim)
    return RBAlgebra(
        name=f"tensor-rb[{r.dim}]",
        weight=Fraction(0),
        zero=base.zero,
        one=base.one,
        rb=rb_from_tensor(r),
        commutative=False,
        basis=base.basis,
        random_element=base.random_element,
    )


def _bracket(x, y):
    """The commutator bracket of an associative carrier."""
    return x * y - y * x


# ---------------------------------------------------------------------------
# axiom checkers


def check_dendriform(alg: RBAlgebra, plan: SamplePlan) -> CheckResult:
    """Half-shuffle splitting of a weight-0 product into up/down parts."""
    if alg.weight != 0:
        raise ConfigError(f"dendriform splitting needs weight 0, got {alg.weight}")

    op = alg.rb

    def laws(a, b, c):
        # half-shuffles: x up y = x R(y), x down y = R(x) y
        ra, rb, rc = op(a), op(b), op(c)
        up_ab, down_ab = a * rb, ra * b
        up_bc, down_bc = b * rc, rb * c
        yield "up-up", up_ab * rc, a * op(up_bc + down_bc)
        ra_down_bc = ra * down_bc
        yield "down-down", ra_down_bc, op(up_ab + down_ab) * c
        if alg.commutative:
            # the commutative axioms collapse the triple to a single product
            yield "comm", ra_down_bc, op(down_ab + rb * a) * c

    bad = first_failure(alg.name, plan.triples(alg), laws, "abc")
    return CheckResult.of(f"dendriform/{alg.name}/{plan.mode}", "Eq. (demishuffleNC)", bad)


def check_operator_ybe(alg: RBAlgebra, plan: SamplePlan) -> CheckResult:
    """Operator classical YBE, Jacobi for [x, y]_R = [R(x), y] + [x, R(y)],
    and the pre-Lie laws of its halves [x, R(y)] and [R(x), y], for the
    commutator bracket of the algebra's carrier and its operator R, which
    must have weight 0.
    """
    if alg.weight != 0:
        raise ConfigError(f"operator YBE needs weight 0, got {alg.weight}")
    rb = alg.rb
    br = _bracket

    def br_r(x, rx, y, ry):
        """[x, y]_R = [R(x), y] + [x, R(y)], given R(x) and R(y)."""
        return br(rx, y) + br(x, ry)

    def pair_laws(x, y):
        rx, ry = rb(x), rb(y)
        yield "ybe", br(rx, ry), rb(br_r(x, rx, y, ry))

    # up(x, y) = [x, R(y)] and down(x, y) = [R(x), y], written out below so
    # that each R value and each inner bracket is formed once per sample;
    # the bracket is antisymmetric, so [b, a] is read as -[a, b]
    def triple_laws(x, y, z):
        rx, ry, rz = rb(x), rb(y), rb(z)
        rx_y, x_ry = br(rx, y), br(x, ry)
        ry_z, y_rz = br(ry, z), br(y, rz)
        rz_x, z_rx = br(rz, x), br(z, rx)
        xy, yz, zx = rx_y + x_ry, ry_z + y_rz, rz_x + z_rx
        jac = br_r(xy, rb(xy), z, rz) + br_r(yz, rb(yz), x, rx) + br_r(zx, rb(zx), y, ry)
        yield "jacobi", jac, alg.zero
        lhs = br(x_ry, rz) - br(x, rb(y_rz))
        rhs = br(-rz_x, ry) - br(x, rb(-ry_z))
        yield "up-right-prelie", lhs, rhs
        lhs = br(rb(rx_y), z) - br(rx, ry_z)
        rhs = br(rb(-x_ry), z) - br(ry, -z_rx)
        yield "down-left-prelie", lhs, rhs

    bad = first_failure(alg.name, plan.pairs(alg), pair_laws, "xy") or first_failure(
        alg.name, plan.triples(alg), triple_laws, "xyz"
    )
    return CheckResult.of(f"operator-ybe/{alg.name}/{plan.mode}", "Eq. (ybc)", bad)


def check_modified_ybe(alg: RBAlgebra, plan: SamplePlan) -> CheckResult:
    """B = 2R + theta id: associative and Lie modified relations, and the Jacobi
    identity of the halved bracket."""
    theta = alg.weight
    half = Fraction(1, 2)
    br = _bracket

    def b(x):
        return b_operator(alg, x)

    def br_b(x, bx, y, by):
        """The halved bracket (1/2)([B(x), y] + [x, B(y)]), given B(x) and B(y)."""
        return half * (br(bx, y) + br(x, by))

    def pair_laws(x, y):
        bx, by = b(x), b(y)
        # B(x)y, xB(y), B(x)B(y) and xy recur below, so each is formed once
        bx_y, x_by = bx * y, x * by
        bx_by, xy = bx * by, x * y
        yield "associative", bx_by, b(bx_y + x_by) - theta**2 * xy
        lie = bx_by - by * bx
        yield "lie", lie, b((bx_y - y * bx) + (x_by - by * x)) - theta**2 * (xy - y * x)

    def triple_laws(x, y, z):
        bx, by, bz = b(x), b(y), b(z)
        xy, yz, zx = br_b(x, bx, y, by), br_b(y, by, z, bz), br_b(z, bz, x, bx)
        jac = br_b(xy, b(xy), z, bz) + br_b(yz, b(yz), x, bx) + br_b(zx, b(zx), y, by)
        yield "jacobi", jac, alg.zero

    bad = first_failure(alg.name, plan.pairs(alg), pair_laws, "xy") or first_failure(
        alg.name, plan.triples(alg), triple_laws, "xyz"
    )
    return CheckResult.of(f"modified-ybe/{alg.name}/{plan.mode}", "Eq. (modRBR)", bad)
