"""Analytic single-item auction mechanics, and the readers of outside values.

Second-price (Vickrey) clearing and the revenue-optimal mechanism for a
known uniform valuation distribution, plus the profile and outcome types
shared by the learned mechanism and the simulator.  An outcome holds only
what a clear decides, the winner and its payment.

Second price is written once, as a row argmax and runner-up kernel.
:func:`spa_batch` runs it on bids.  The optimal auction is second price
on virtual values (Myerson, 1981): :func:`myerson_batch` runs the same
kernel on each row's virtual valuations, sells when the top one is
non-negative, and charges the inverse virtual valuation of the stronger
of the runner-up and the zero reserve.  :func:`spa_clear` and
:func:`myerson_clear` are one-row calls of the batch clears.

Every argmax in this package breaks ties toward the lowest bidder index,
so outcomes are deterministic and directly testable.

Every value from outside the package is read here: a number by
:func:`_real`, :func:`_finite` or :func:`_integer`, an array by
:func:`_real_array` or :func:`_finite_array`, and a config dataclass's
fields by :func:`_read_fields`.  Each names its key in the ``InputError``
it raises for a non-numeric or complex value, which a cast would let by.
An integer key's lower bound is checked by :func:`_at_least`, and a
product of keys' upper bound by :func:`_bound_size`; both messages name
the keys and the values they got.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, InputError

# Largest |bound| a valuation support may have: its square, 1e200, times any sample count
# that fits in memory stays finite, so a sum of squared revenues cannot overflow to inf.
_SUPPORT_LIMIT = 1e100
# Most values one of the package's working arrays may hold: a world's pixels, a command's
# (cases, samples or held-out profiles, n_bidders) profiles, a training batch's or a
# clear_batch block's pieces.  A float64 copy of that many is 256 MiB, so a larger size is
# refused by its keys rather than failing to allocate.
_SIZE_LIMIT = 2**25


def _real(value, what: str) -> float:
    """``value`` as a float; a text, non-numeric or complex one raises :class:`InputError`.

    ``float()`` would parse text and keep a complex's real part, so neither reaches it,
    not even as an element of an object array.
    """
    try:
        array = np.asarray(value)
        kind = array.dtype.kind
        if kind not in "cSUO" or kind == "O" and not _holds_text(array):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        kind = None
    if kind == "c":
        raise InputError(f"{what} must be a real number, got {value!r}")
    raise InputError(f"{what} must be a number, got {value!r}")


def _bound_size(size: int, names: str, holder: str, unit: str = "values") -> None:
    """Refuse ``size``, the product of the keys ``names``, if it passes :data:`_SIZE_LIMIT`."""
    if size > _SIZE_LIMIT:
        raise InputError(f"{holder} must hold at most {_SIZE_LIMIT} {unit}, got {names} = {size}")


def _at_least(low: int, **named) -> None:
    """Refuse the first of the keys ``named`` whose value is below ``low``."""
    for key, value in named.items():
        if value < low:
            raise InputError(f"{key} must be at least {low}, got {key} = {value}")


def _finite(value, what: str) -> float:
    """``value`` as a finite float; anything else raises :class:`InputError`."""
    number = _real(value, what)
    if not math.isfinite(number):
        raise InputError(f"{what} must be finite")
    return number


def _integer(value, what: str) -> int:
    """``value`` as an int, as ``operator.index`` reads it; a ``bool`` or anything else
    raises :class:`InputError`."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"{what} must be an integer, got {value!r}")


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; a text, non-numeric or complex one raises :class:`InputError`.

    Text and complex arrays are refused rather than cast, which would parse
    the text and keep only a complex's real part; so is an object array
    holding text or arrays.  A float array is returned as it is.
    """
    try:
        array = np.asarray(values)
        kind = array.dtype.kind
        if kind not in "cSUO" or kind == "O" and not _holds_text(array):
            return array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        kind = None
    if kind == "c":
        raise InputError(f"{what} must be real numbers, not complex")
    raise InputError(f"{what} must be numbers")


def _holds_text(array: np.ndarray) -> bool:
    """Whether an object array holds a ``str``, ``bytes`` or an array, which a cast would parse."""
    return any(isinstance(item, (str, bytes, np.ndarray)) for item in array.flat)


def _finite_array(values, what: str) -> np.ndarray:
    """``values`` as a float array of finite real entries; anything else raises :class:`InputError`."""
    array = _real_array(values, what)
    if not np.isfinite(array).all():
        raise InputError(f"{what} must be finite")
    return array


_FIELD_READERS = {"int": _integer, "float": _real}  # a postponed annotation is a name


def _read_fields(config, prefix: str = "") -> None:
    """Read a frozen ``config``'s ``int`` and ``float`` fields in place, as key ``prefix`` + name."""
    for field_ in fields(config):
        read = _FIELD_READERS.get(field_.type)
        if read is not None:
            object.__setattr__(config, field_.name, read(getattr(config, field_.name),
                                                         prefix + field_.name))


@dataclass(frozen=True)
class ValuationDistribution:
    """Uniform valuation distribution on ``[lower, upper]``; the defaults are the package's."""

    lower: float = 0.5
    upper: float = 1.0

    def __post_init__(self):
        _read_fields(self, prefix="dist_")
        lower, upper = self.lower, self.upper
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise InputError(f"distribution bounds must be finite, got dist_lower = {lower}, "
                             f"dist_upper = {upper}")
        if not (abs(lower) <= _SUPPORT_LIMIT and abs(upper) <= _SUPPORT_LIMIT):
            raise InputError(f"distribution bounds must be at most {_SUPPORT_LIMIT:g} in "
                             f"magnitude, got dist_lower = {lower}, dist_upper = {upper}")
        if not lower < upper:
            raise InputError(f"need lower < upper, got dist_lower = {lower}, "
                             f"dist_upper = {upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, v) -> bool:
        """Whether every entry of ``v`` lies in ``[lower, upper]``; NaN fails both sides."""
        v = np.asarray(v)
        return bool(v.size == 0 or (self.lower <= v.min() and v.max() <= self.upper))

    def cdf(self, v):
        return (v - self.lower) / self.width

    def pdf(self, v):
        return 1.0 / self.width

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.lower, self.upper, size)


@dataclass(frozen=True)
class ValuationProfile:
    """One round's vector of private valuations under a common distribution."""

    values: np.ndarray
    distribution: ValuationDistribution

    def __post_init__(self):
        values = np.array(_finite_array(self.values, "valuations"))
        if values.ndim != 1 or values.size < 2:
            raise InputError("a valuation profile needs at least two bidders")
        if not self.distribution.contains(values):
            raise InputError("valuations must lie within the distribution support")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class AuctionOutcome:
    """Clearing result: the winner (``None`` on no sale) and what it pays."""

    winner: int | None
    payment: float

    @property
    def sold(self) -> bool:
        return self.winner is not None

    @property
    def revenue(self) -> float:
        return self.payment


def spa_clear(bids) -> AuctionOutcome:
    """Second-price sealed-bid clearing: highest bid wins, pays the runner-up bid."""
    b = _real_array(bids, "bids")
    if b.ndim != 1 or b.size < 2:
        raise InputError("second-price clearing needs at least two bids")
    winner, payment = spa_batch(b[None, :])
    return AuctionOutcome(int(winner[0]), float(payment[0]))


def spa_batch(values) -> tuple[np.ndarray, np.ndarray]:
    """:func:`spa_clear` for every row of an ``(S, N)`` bid matrix: winners and payments."""
    b = _real_array(values, "bids")
    if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 2:
        raise InputError("second-price clearing needs a non-empty matrix of at least two bids")
    if not np.all(np.isfinite(b)) or np.any(b < 0.0):
        raise InputError("bids must be finite and non-negative")
    winner, _, runner_up = _second_price(b)
    return winner, runner_up.copy()  # not a view pinning the (S, N) partition


def _second_price(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's winner (lowest index on ties), top entry and runner-up entry."""
    top_two = np.partition(x, -2, axis=-1)
    return x.argmax(axis=-1), top_two[..., -1], top_two[..., -2]


def virtual_valuation(v, dist: ValuationDistribution):
    """Marginal-revenue transform ``v - (1 - F(v)) / f(v)``.

    For uniform[a, b] this reduces to ``2 v - b``.  A scalar ``v`` gives a
    float and an array gives an array; every entry must lie in the support.
    """
    v = _real_array(v, "valuations")
    if not dist.contains(v):
        shown = f"value {float(v)}" if v.ndim == 0 else "a value"
        raise DomainError(f"{shown} outside support [{dist.lower}, {dist.upper}]")
    phi = _virtual_valuation(v, dist)
    return float(phi) if phi.ndim == 0 else phi


def _virtual_valuation(v: np.ndarray, dist: ValuationDistribution) -> np.ndarray:
    """The transform on values already known to lie in the support."""
    return v - (1.0 - dist.cdf(v)) / dist.pdf(v)


def virtual_valuation_inverse(y: float, dist: ValuationDistribution) -> float:
    """Inverse of :func:`virtual_valuation` on its image."""
    y = _real(y, "virtual valuation")
    low = 2.0 * dist.lower - dist.upper
    if not np.isfinite(y) or not low <= y <= dist.upper:
        raise DomainError(f"{y} outside the virtual-valuation image [{low}, {dist.upper}]")
    return _virtual_valuation_inverse(y, dist)


def _virtual_valuation_inverse(y, dist: ValuationDistribution):
    """The inverse on virtual values already known to lie in its image."""
    return (y + dist.upper) / 2.0


def myerson_clear(profile: ValuationProfile) -> AuctionOutcome:
    """Revenue-optimal truthful clearing for a known uniform distribution.

    The highest virtual valuation wins when it is non-negative and pays
    the inverse virtual valuation of the stronger of the runner-up
    virtual bid and the zero reserve.  When every virtual valuation is
    negative the item is withheld.
    """
    winner, payment = myerson_batch(profile.values[None, :], profile.distribution)
    return AuctionOutcome(None if winner[0] < 0 else int(winner[0]), float(payment[0]))


def myerson_batch(values, dist: ValuationDistribution) -> tuple[np.ndarray, np.ndarray]:
    """:func:`myerson_clear` for every row of an ``(S, N)`` value matrix.

    Returns winners and payments; a row with no sale has winner ``-1``
    and payment ``0.0``.
    """
    v = _finite_array(values, "valuations")
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 2:
        raise InputError("optimal clearing needs a non-empty matrix of at least two values")
    winner, top, runner_up = _second_price(virtual_valuation(v, dist))
    sold = top >= 0.0
    reserve = np.where(runner_up < 0.0, 0.0, runner_up)  # max(runner_up, 0.0), -0.0 kept
    payment = _virtual_valuation_inverse(reserve, dist)
    return np.where(sold, winner, -1), np.where(sold, payment, 0.0)
