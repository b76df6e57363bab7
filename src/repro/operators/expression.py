"""A symbolic algebra of spin-1/2 operators.

An :class:`Expression` is a linear combination of *operator strings*: ordered
products of single-site operators acting on distinct sites.  Every
single-site operator is canonicalized into the basis

======  ==========================  ==============================
symbol  matrix (basis |down>,|up>)  meaning
======  ==========================  ==============================
(none)  identity                    site not present in the string
``N``   ``|1><1|``                  number operator (up-projector)
``+``   ``|1><0|``                  raising operator S+
``-``   ``|0><1|``                  lowering operator S-
======  ==========================  ==============================

These four matrices are linearly independent, so the canonical expansion of
any operator is *unique* — two expressions are equal iff their term
dictionaries agree, which makes :meth:`Expression.isclose` and
:meth:`Expression.is_hermitian` sound.  Products close over this basis up to
branching (``S- S+ = I - N``), handled by the multiplication table below.

This canonical form is precisely what the kernel compiler
(:mod:`repro.operators.compile`) needs: each string maps a bit pattern to a
bit pattern.  Site ``i`` corresponds to bit ``i``; a set bit is spin-up.
"""

from __future__ import annotations

from numbers import Number

import numpy as np

__all__ = [
    "Expression",
    "scalar",
    "identity",
    "number",
    "sigma_plus",
    "sigma_minus",
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "spin_plus",
    "spin_minus",
    "spin_x",
    "spin_y",
    "spin_z",
]

# Canonical single-site operators (identity is the absence of a factor).
N, UP, DN = "N", "+", "-"

#: Single-site products ``left * right`` (apply ``right`` first): maps
#: (left, right) to a list of (coefficient, op) with op None meaning the
#: identity factor.  An empty list means the product vanishes.
_SITE_PRODUCT: dict[tuple[str, str], list[tuple[complex, str | None]]] = {
    (N, N): [(1.0, N)],
    (N, UP): [(1.0, UP)],
    (N, DN): [],
    (UP, N): [],
    (UP, UP): [],
    (UP, DN): [(1.0, N)],
    (DN, N): [(1.0, DN)],
    (DN, UP): [(1.0, None), (-1.0, N)],  # S- S+ = P0 = I - N
    (DN, DN): [],
}

_SITE_ADJOINT = {N: N, UP: DN, DN: UP}

#: 2x2 matrices of the canonical operators, basis order (|down>, |up>).
_SITE_MATRIX = {
    N: np.array([[0, 0], [0, 1]], dtype=np.complex128),
    UP: np.array([[0, 0], [1, 0]], dtype=np.complex128),
    DN: np.array([[0, 1], [0, 0]], dtype=np.complex128),
}

#: Terms with |coefficient| below this are dropped during simplification.
_COEFF_TOL = 1e-12

# A term is a tuple of (site, op) pairs sorted by site; the empty tuple is
# the identity operator.
Term = tuple[tuple[int, str], ...]


def _multiply_terms(a: Term, b: Term) -> list[tuple[complex, Term]]:
    """Product of two operator strings (``a`` applied after ``b``).

    Returns the expansion as (coefficient, term) pairs; the list is empty
    when the product vanishes.  Operators on distinct sites commute, and
    the ``S- S+`` branch makes the expansion a sum."""
    # Each partial product is (coeff, {site: op}).
    partials: list[tuple[complex, dict[int, str]]] = [(1.0, dict(b))]
    for site, op in a:
        new_partials: list[tuple[complex, dict[int, str]]] = []
        for coeff, ops in partials:
            existing = ops.get(site)
            if existing is None:
                merged = dict(ops)
                merged[site] = op
                new_partials.append((coeff, merged))
                continue
            for factor, combined in _SITE_PRODUCT[(op, existing)]:
                merged = dict(ops)
                if combined is None:
                    del merged[site]
                else:
                    merged[site] = combined
                new_partials.append((coeff * factor, merged))
        partials = new_partials
        if not partials:
            break
    return [
        (coeff, tuple(sorted(ops.items()))) for coeff, ops in partials
    ]


class Expression:
    """A linear combination of spin-operator strings.

    Supports ``+``, ``-``, scalar ``*``, operator products (``*`` or ``@``
    between expressions), and the adjoint.  Construct leaves with the module
    functions (:func:`sigma_plus`, :func:`spin_z`, ...) and combine::

        h = sum(spin_x(i) * spin_x(i + 1) for i in range(3))
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Term, complex] | None = None) -> None:
        self._terms: dict[Term, complex] = {}
        if terms:
            for term, coeff in terms.items():
                if abs(coeff) > _COEFF_TOL:
                    self._terms[term] = complex(coeff)

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> dict[Term, complex]:
        """The canonical terms (copy)."""
        return dict(self._terms)

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @property
    def sites(self) -> set[int]:
        """All sites the expression acts on."""
        return {site for term in self._terms for site, _ in term}

    @property
    def min_sites(self) -> int:
        """Smallest number of sites the expression fits on."""
        sites = self.sites
        return (max(sites) + 1) if sites else 1

    @property
    def is_real(self) -> bool:
        """True when all canonical coefficients are real.

        Note this is a property of the canonical form: an operator like
        ``sigma_y(0) * sigma_y(1)`` has real canonical coefficients even
        though :func:`sigma_y` itself does not.
        """
        return all(abs(c.imag) <= _COEFF_TOL for c in self._terms.values())

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return (self.adjoint() - self).norm() <= tol

    def norm(self) -> float:
        """Sum of absolute canonical coefficients (an operator 1-norm
        surrogate; zero iff the operator is zero, since the canonical
        expansion is unique)."""
        return float(sum(abs(c) for c in self._terms.values()))

    def isclose(self, other: "Expression", tol: float = 1e-10) -> bool:
        return (self - other).norm() <= tol

    def __repr__(self) -> str:
        if not self._terms:
            return "Expression(0)"
        parts = []
        for term, coeff in sorted(self._terms.items()):
            ops = " ".join(f"{op}[{site}]" for site, op in term) or "I"
            parts.append(f"({coeff:.6g}) {ops}")
        return "Expression(" + " + ".join(parts) + ")"

    # -- algebra ------------------------------------------------------------

    def __add__(self, other) -> "Expression":
        if isinstance(other, Number):
            other = scalar(other)
        if not isinstance(other, Expression):
            return NotImplemented
        out = dict(self._terms)
        for term, coeff in other._terms.items():
            out[term] = out.get(term, 0.0) + coeff
        return Expression(out)

    def __radd__(self, other) -> "Expression":
        # Supports sum(...) which starts from 0.
        if isinstance(other, Number):
            return self + scalar(other)
        return NotImplemented

    def __neg__(self) -> "Expression":
        return Expression({t: -c for t, c in self._terms.items()})

    def __sub__(self, other) -> "Expression":
        if isinstance(other, Number):
            other = scalar(other)
        if not isinstance(other, Expression):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Expression":
        if isinstance(other, Number):
            return scalar(other) - self
        return NotImplemented

    def __mul__(self, other) -> "Expression":
        if isinstance(other, Number):
            return Expression({t: c * other for t, c in self._terms.items()})
        if isinstance(other, Expression):
            out: dict[Term, complex] = {}
            for ta, ca in self._terms.items():
                for tb, cb in other._terms.items():
                    for factor, term in _multiply_terms(ta, tb):
                        out[term] = out.get(term, 0.0) + ca * cb * factor
            return Expression(out)
        return NotImplemented

    def __rmul__(self, other) -> "Expression":
        if isinstance(other, Number):
            return self * other
        return NotImplemented

    def __matmul__(self, other) -> "Expression":
        if isinstance(other, Expression):
            return self * other
        return NotImplemented

    def __truediv__(self, other) -> "Expression":
        if isinstance(other, Number):
            return self * (1.0 / other)
        return NotImplemented

    def adjoint(self) -> "Expression":
        """Hermitian conjugate."""
        out: dict[Term, complex] = {}
        for term, coeff in self._terms.items():
            conj_term = tuple((site, _SITE_ADJOINT[op]) for site, op in term)
            out[conj_term] = out.get(conj_term, 0.0) + np.conj(coeff)
        return Expression(out)

    # -- dense reference (for validation) ------------------------------------

    def site_matrices(self, term: Term) -> dict[int, np.ndarray]:
        """The 2x2 factors of one operator string, keyed by site."""
        return {site: _SITE_MATRIX[op] for site, op in term}


def scalar(value: complex) -> Expression:
    """``value`` times the identity operator."""
    return Expression({(): complex(value)})


def identity() -> Expression:
    """The identity operator."""
    return scalar(1.0)


def sigma_plus(site: int) -> Expression:
    """Raising operator at ``site`` (``|up><down|``)."""
    _check_site(site)
    return Expression({((site, UP),): 1.0})


def sigma_minus(site: int) -> Expression:
    """Lowering operator at ``site`` (``|down><up|``)."""
    _check_site(site)
    return Expression({((site, DN),): 1.0})


def number(site: int) -> Expression:
    """Number (up-projector) operator at ``site``."""
    _check_site(site)
    return Expression({((site, N),): 1.0})


def sigma_x(site: int) -> Expression:
    """Pauli x at ``site``."""
    _check_site(site)
    return Expression({((site, UP),): 1.0, ((site, DN),): 1.0})


def sigma_y(site: int) -> Expression:
    """Pauli y at ``site``: ``i S- - i S+``.

    The sign follows from the convention that a set bit is spin-up with
    ``sigma_z = diag(-1, +1)`` in (down, up) basis order, so that
    ``[sigma_x, sigma_y] = 2i sigma_z`` holds.
    """
    _check_site(site)
    return Expression({((site, UP),): -1.0j, ((site, DN),): 1.0j})


def sigma_z(site: int) -> Expression:
    """Pauli z at ``site`` (+1 on up, -1 on down): ``2 N - I``."""
    _check_site(site)
    return Expression({((site, N),): 2.0, (): -1.0})


def spin_plus(site: int) -> Expression:
    """Spin-1/2 raising operator (same matrix as :func:`sigma_plus`)."""
    return sigma_plus(site)


def spin_minus(site: int) -> Expression:
    """Spin-1/2 lowering operator (same matrix as :func:`sigma_minus`)."""
    return sigma_minus(site)


def spin_x(site: int) -> Expression:
    """Spin-1/2 operator ``S^x = sigma_x / 2``."""
    return sigma_x(site) * 0.5


def spin_y(site: int) -> Expression:
    """Spin-1/2 operator ``S^y = sigma_y / 2``."""
    return sigma_y(site) * 0.5


def spin_z(site: int) -> Expression:
    """Spin-1/2 operator ``S^z = sigma_z / 2``."""
    return sigma_z(site) * 0.5


def _check_site(site: int) -> None:
    if not isinstance(site, (int, np.integer)) or site < 0 or site > 63:
        raise ValueError(f"site must be an integer in [0, 63], got {site!r}")
