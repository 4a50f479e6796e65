"""Reference implementations that the package's kernels are checked against."""

import numpy as np

from myerson_airnet.auction import _index, _virtual_valuation, virtual_valuation_inverse
from myerson_airnet.errors import InputError
from myerson_airnet.network import MonotoneNetParams, transform_inverse
from myerson_airnet.sim import (_CELL_METERS, _IMAGE_JITTER_METERS, _LATTICE_N,
                                _PIXEL_METERS, _PIXEL_NOISE)


def pair_mse(a, b) -> float:
    """Mean squared pixel difference between two equally sized images."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InputError(f"image dimensions differ: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.size == 0:
        raise InputError("images must be non-empty matrices")
    return float(np.mean((a - b) ** 2))


def transform_profile(params: MonotoneNetParams, bids) -> np.ndarray:
    """Apply every bidder's transform to the matching entry of ``bids``."""
    b = np.asarray(bids, dtype=float)
    if b.ndim != 1 or b.size != params.n_bidders:
        raise InputError(f"expected {params.n_bidders} bids, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise InputError("bids must be finite")
    # pieces (N, K, J): min over the trailing units, then max over the groups
    return (np.exp(params.theta) * b[:, None, None] + params.beta).min(axis=-1).max(axis=-1)


def payment_soft(params: MonotoneNetParams, transformed_bids, bidder: int) -> float:
    """Conditional payment: inverse transform of the rectified top rival bid."""
    tb = np.asarray(transformed_bids, dtype=float)
    if tb.ndim != 1 or tb.size != params.n_bidders:
        raise InputError(f"expected {params.n_bidders} transformed bids, got shape {tb.shape}")
    if tb.size < 2:
        raise InputError("payments need at least two bidders")
    _index(bidder, params.n_bidders, "bidder index")
    rival = float(np.max(np.delete(tb, bidder)))
    return transform_inverse(params, bidder, max(rival, 0.0))


def myerson_scalar(values, dist) -> tuple[int | None, float]:
    """The optimal clear of one in-support profile with its own argmax and partition."""
    phi = _virtual_valuation(np.asarray(values, dtype=float), dist)
    winner = int(np.argmax(phi))
    if phi[winner] < 0.0:
        return None, 0.0
    runner_up = float(np.partition(phi, -2)[-2])
    return winner, virtual_valuation_inverse(max(runner_up, 0.0), dist)


def masked_rivals(tbar) -> np.ndarray:
    """``(S, N, N)`` rival bids: ``[s, i]`` is ``tbar[s]`` with entry ``i`` masked to ``-inf``."""
    n_samples, n_bidders = tbar.shape
    rivals = np.broadcast_to(tbar[:, None, :], (n_samples, n_bidders, n_bidders)).copy()
    diag = np.arange(n_bidders)
    rivals[:, diag, diag] = -np.inf
    return rivals


# The forward pass's outputs, in the order reference_forward returns them.
OUTPUTS = ("w", "tbar", "kmax", "jsel_fwd", "soft", "g", "rarg", "rmax", "p", "kmin_inv",
           "jsel_inv")


def _select(pieces, inner, outer):
    """Active piece of ``(S, N, K, J)`` pieces: its ``(S, N)`` value, group and unit."""
    unit = inner(pieces, axis=3)
    over_units = np.take_along_axis(pieces, unit[..., None], axis=3)[..., 0]
    group = outer(over_units, axis=2)
    value = np.take_along_axis(over_units, group[..., None], axis=2)[..., 0]
    return value, group, np.take_along_axis(unit, group[..., None], axis=2)[..., 0]


def reference_forward(params, values, kappa):
    """The forward pass with trailing-axis argmin/argmax selections, laid out ``(S, N)``."""
    w = np.exp(params.theta)
    beta = params.beta
    n_samples = values.shape[0]

    pieces = np.exp(params.theta) * values[:, :, None, None] + beta
    tbar, kmax, jsel_fwd = _select(pieces, np.argmin, np.argmax)

    z = kappa * np.concatenate([tbar, np.zeros((n_samples, 1))], axis=1)
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    soft = ez / ez.sum(axis=1, keepdims=True)
    g = soft[:, :-1]

    rivals = masked_rivals(tbar)
    rarg = rivals.argmax(axis=2)
    rmax = np.take_along_axis(rivals, rarg[..., None], axis=2)[..., 0]
    r = np.maximum(rmax, 0.0)

    inv_pieces = (r[:, :, None, None] - beta[None]) * np.exp(-params.theta)
    p, kmin_inv, jsel_inv = _select(inv_pieces, np.argmax, np.argmin)

    return w, tbar, kmax, jsel_fwd, soft, g, rarg, rmax, p, kmin_inv, jsel_inv


def reference_loss_and_grad(params, values, kappa):
    """The training step laid out ``(S, N)``: loss and hand-built backward.

    Built on :func:`reference_forward`.  Every sum over bidders is a row
    sum, each sample's active pieces are addressed by ``(bidder, group,
    unit)`` index tuples, and one ``bincount`` per array adds each cell's
    forward terms, then its inverse ones, in sample order.
    """
    _, _, kmax, jsel_fwd, _, g, rarg, rmax, p, kmin_inv, jsel_inv = reference_forward(
        params, values, kappa)
    n_samples, n_bidders = values.shape
    loss_value = float(-(g * p).sum(axis=1).mean())

    scale = 1.0 / n_samples
    dp = -g * scale
    dg = -p * scale
    inner = (dg * g).sum(axis=1, keepdims=True)
    dtbar = kappa * g * (dg - inner)

    rows = np.broadcast_to(np.arange(n_bidders)[None, :], (n_samples, n_bidders))
    fwd_cell = (rows, kmax, jsel_fwd)
    inv_cell = (rows, kmin_inv, jsel_inv)

    dr = dp * np.exp(-params.theta[inv_cell])
    dtheta_inv = dp * (-p)
    dbeta_inv = -dr

    drmax = np.where(rmax > 0.0, dr, 0.0)
    cols = np.broadcast_to(np.arange(n_samples)[:, None], (n_samples, n_bidders))
    np.add.at(dtbar, (cols.ravel(), rarg.ravel()), drmax.ravel())

    dtheta_fwd = dtbar * np.exp(params.theta[fwd_cell]) * values
    dbeta_fwd = dtbar

    shape = params.theta.shape
    cells = np.concatenate([np.ravel_multi_index(fwd_cell, shape).ravel(),
                            np.ravel_multi_index(inv_cell, shape).ravel()])
    dtheta, dbeta = (np.bincount(cells, np.concatenate([fwd.ravel(), inv.ravel()]),
                                 minlength=params.theta.size).reshape(shape)
                     for fwd, inv in ((dtheta_fwd, dtheta_inv), (dbeta_fwd, dbeta_inv)))
    return loss_value, dtheta, dbeta


def pile_similarity_per_image(piles, reference, aggregate: str = "mean") -> np.ndarray:
    """Pile similarity as a full ``(D, Q, R, C)`` difference tensor per pile image.

    Each tensor is averaged over its pixels by ``np.mean``, which sums in
    memory order, so on a C-contiguous stack this is the row-major
    per-pair mean of every cross pair.
    """
    stack = np.asarray(piles, dtype=float)
    reference = np.asarray(reference, dtype=float)
    per_pair = np.empty(stack.shape[:2] + reference.shape[:1])
    for p in range(stack.shape[1]):
        diffs = stack[:, p, None] - reference
        per_pair[:, p] = np.mean(diffs ** 2, axis=(2, 3))
    reduce = np.mean if aggregate == "mean" else np.min
    return reduce(per_pair, axis=(1, 2))


def capture_pile_meshgrid(field_, rng, pos, config) -> np.ndarray:
    """A pile captured one image at a time, each on its own meshgrid of field samples."""
    rows, cols = config.image_rows, config.image_cols
    gx = pos[0] + (np.arange(cols) - cols / 2.0) * _PIXEL_METERS
    gy = pos[1] + (np.arange(rows) - rows / 2.0) * _PIXEL_METERS
    images = []
    for _ in range(config.pile_size):
        ox, oy = rng.uniform(-_IMAGE_JITTER_METERS, _IMAGE_JITTER_METERS, 2)
        mesh_x, mesh_y = np.meshgrid(gx + ox, gy + oy)
        img = field_.sample(mesh_x, mesh_y) + rng.normal(0.0, _PIXEL_NOISE, (rows, cols))
        images.append(np.clip(img, 0.0, 1.0))
    return np.stack(images)


def noise_sample_2d_index(field_, xs, ys) -> np.ndarray:
    """The field's value noise with each lattice corner read by a 2-D fancy index."""
    u = np.asarray(xs, dtype=float) / _CELL_METERS
    v = np.asarray(ys, dtype=float) / _CELL_METERS
    i0 = np.floor(u).astype(int)
    j0 = np.floor(v).astype(int)
    fu = u - i0
    fv = v - j0
    fu = fu * fu * (3.0 - 2.0 * fu)
    fv = fv * fv * (3.0 - 2.0 * fv)
    i0 %= _LATTICE_N
    j0 %= _LATTICE_N
    i1 = (i0 + 1) % _LATTICE_N
    j1 = (j0 + 1) % _LATTICE_N
    lat = field_.lattice
    top = lat[i0, j0] * (1.0 - fu) + lat[i1, j0] * fu
    bottom = lat[i0, j1] * (1.0 - fu) + lat[i1, j1] * fu
    return top * (1.0 - fv) + bottom * fv
