"""Checkpoint text format: bitwise round-trips and malformed-file errors."""

import numpy as np
import pytest

from myerson_airnet.checkpoint import FORMAT_MAGIC, load_params, save_params
from myerson_airnet.errors import CheckpointError, CheckpointVersionError
from myerson_airnet.network import MonotoneNetParams


def random_params(seed=0, shape=(5, 5, 3), kappa=100.0):
    rng = np.random.default_rng(seed)
    return MonotoneNetParams(rng.normal(0.0, 1.0, shape), rng.normal(0.0, 1.0, shape), kappa)


def test_roundtrip_bitwise(tmp_path):
    params = random_params()
    path = tmp_path / "net.ckpt"
    save_params(params, path)
    loaded = load_params(path)
    assert np.array_equal(loaded.theta, params.theta)
    assert np.array_equal(loaded.beta, params.beta)
    assert loaded.kappa == params.kappa


def test_roundtrip_awkward_floats(tmp_path):
    """17 significant digits must reproduce doubles bit for bit."""
    theta = np.array([[[1e-300, 0.1 + 0.2]], [[np.pi, -1.0 / 3.0]]])
    beta = np.array([[[2.0 ** -52, 1e16 + 1.0]], [[-0.0, 123456789.123456789]]])
    params = MonotoneNetParams(theta, beta, 1.0 / 3.0)
    path = tmp_path / "net.ckpt"
    save_params(params, path)
    loaded = load_params(path)
    assert np.array_equal(loaded.theta, theta)
    assert np.array_equal(loaded.beta, beta)
    assert loaded.kappa == 1.0 / 3.0


def test_truncated_file(tmp_path):
    params = random_params(shape=(3, 2, 2))
    path = tmp_path / "net.ckpt"
    save_params(params, path)
    lines = path.read_text().splitlines()
    for cut in (0, 1, 4, 6, len(lines) - 1):
        clipped = tmp_path / f"cut{cut}.ckpt"
        clipped.write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(CheckpointError):
            load_params(clipped)


def test_version_mismatch(tmp_path):
    params = random_params(shape=(2, 1, 1))
    path = tmp_path / "net.ckpt"
    save_params(params, path)
    text = path.read_text().replace(f"{FORMAT_MAGIC} v1", f"{FORMAT_MAGIC} v2", 1)
    path.write_text(text)
    with pytest.raises(CheckpointVersionError):
        load_params(path)


def test_malformed_files(tmp_path):
    params = random_params(shape=(2, 2, 2))
    good = tmp_path / "net.ckpt"
    save_params(params, good)
    lines = good.read_text().splitlines()

    not_ours = tmp_path / "other.txt"
    not_ours.write_text("some other file\n1 2 3\n")
    with pytest.raises(CheckpointError):
        load_params(not_ours)

    binary = tmp_path / "junk.bin"
    binary.write_bytes(b"\xff\xfe\x00\x01" * 16)
    with pytest.raises(CheckpointError):
        load_params(binary)

    short_row = tmp_path / "short_row.ckpt"
    bad = list(lines)
    bad[6] = "0.5"  # theta row for bidder 0 should hold groups*units floats
    short_row.write_text("\n".join(bad) + "\n")
    with pytest.raises(CheckpointError):
        load_params(short_row)

    non_numeric = tmp_path / "non_numeric.ckpt"
    bad = list(lines)
    bad[6] = "zero"
    non_numeric.write_text("\n".join(bad) + "\n")
    with pytest.raises(CheckpointError):
        load_params(non_numeric)

    trailing = tmp_path / "trailing.ckpt"
    trailing.write_text("\n".join(lines) + "\nextra junk\n")
    with pytest.raises(CheckpointError):
        load_params(trailing)

    bad_kappa = tmp_path / "bad_kappa.ckpt"
    bad = list(lines)
    bad[4] = "kappa many"
    bad_kappa.write_text("\n".join(bad) + "\n")
    with pytest.raises(CheckpointError):
        load_params(bad_kappa)


def test_checkpoint_is_self_describing(tmp_path):
    """Header carries dimensions and temperature readable without loading."""
    params = random_params(shape=(4, 2, 3), kappa=70.0)
    path = tmp_path / "net.ckpt"
    save_params(params, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"{FORMAT_MAGIC} v1"
    assert lines[1] == "n_bidders 4"
    assert lines[2] == "groups 2"
    assert lines[3] == "linear_units 3"
    assert lines[4] == "kappa 70"
    assert lines[5] == "theta"
    assert lines[10] == "beta"
