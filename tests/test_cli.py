"""End-to-end CLI behavior: files written, determinism, exit codes."""

import builtins
import csv
import errno
import os
import subprocess
import sys

import numpy as np
import pytest

from myerson_airnet.auction import (_TAGS, ValuationDistribution, ValuationProfile,
                                    myerson_batch, myerson_clear, spa_batch, spa_clear)
from myerson_airnet import cli, sim
from myerson_airnet.checkpoint import load_params, save_params
from myerson_airnet.cli import main
from myerson_airnet.network import MonotoneNetParams, NetConfig, clear_hard, train

TINY = ("--n-bidders", "3", "--groups", "2", "--linear-units", "2",
        "--batch-size", "32", "--learning-rate", "0.1")


def train_tiny(tmp_path, name="net.ckpt", seed="7", extra=()):
    out = tmp_path / name
    args = ["train", *TINY, "--iterations", "8", "--seed", seed, "--out", str(out), *extra]
    assert main(args) == 0
    return out


def identity_checkpoint(tmp_path, n_bidders=5, offset=0.0, name="identity.ckpt"):
    path = tmp_path / name
    save_params(MonotoneNetParams.affine(n_bidders, 1.0, offset), path)
    return path


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_train_writes_checkpoint_and_loss_trace(tmp_path, capsys):
    out = train_tiny(tmp_path)
    stdout = capsys.readouterr().out
    assert "trained 8 iterations" in stdout
    assert "test revenue over 10000 fresh profiles" in stdout
    assert f"wrote checkpoint {out}" in stdout

    assert out.read_text().startswith("myerson-airnet checkpoint v1\n")
    rows = read_rows(str(out) + ".loss.csv")
    assert rows[0] == ["iteration", "loss"]
    assert len(rows) == 9
    assert [int(row[0]) for row in rows[1:]] == list(range(8))
    assert all(np.isfinite(float(row[1])) for row in rows[1:])


def test_train_same_seed_writes_identical_bytes(tmp_path):
    a = train_tiny(tmp_path, name="a.ckpt")
    b = train_tiny(tmp_path, name="b.ckpt")
    assert a.read_bytes() == b.read_bytes()
    with open(str(a) + ".loss.csv", "rb") as ha, open(str(b) + ".loss.csv", "rb") as hb:
        assert ha.read() == hb.read()


def test_train_single_iteration(tmp_path):
    out = train_tiny(tmp_path, extra=("--iterations", "1"))
    assert len(read_rows(str(out) + ".loss.csv")) == 2


def test_train_requires_out(capsys):
    assert main(["train", *TINY]) == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["train", *TINY, "--iterations", "2"],
    ["revenue-gap", "--checkpoint", "identity.ckpt", "--cases", "40"],
    ["simulate", "--mechanism", "spa", "--max-rounds", "6"],
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_out_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command, source):
    monkeypatch.chdir(tmp_path)
    identity_checkpoint(tmp_path)
    for name in ("train", "_revenues", "run_episode"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    if source == "flag":
        command = [*command, "--out", ""]
    else:
        (tmp_path / "run.cfg").write_text("out =\n")
        command = [*command, "--config", "run.cfg"]
    assert main(command) == 2
    assert "out must be a non-empty path" in capsys.readouterr().err
    assert {path.name for path in tmp_path.iterdir()} <= {"identity.ckpt", "run.cfg"}


def test_train_divergence_exits_3(tmp_path, capsys):
    rc = main(["train", *TINY, "--iterations", "50", "--learning-rate", "1e8",
               "--out", str(tmp_path / "x.ckpt")])
    assert rc == 3
    assert "iteration" in capsys.readouterr().err


def test_train_overflowing_step_exits_3_without_checkpoint(tmp_path, capsys):
    """A finite loss followed by a step that overflows the slopes must not be saved."""
    out = tmp_path / "n.ckpt"
    rc = main(["train", "--iterations", "1", "--learning-rate", "1e308",
               "--batch-size", "64", "--out", str(out)])
    assert rc == 3
    assert "iteration 0" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "n.ckpt.loss.csv").exists()


@pytest.mark.parametrize("flag,value,key", [
    ("--area-width", "nan", "area_width"), ("--uav-x", "inf", "uav_x"),
    # finite, but past the range where the noise field's cell index fits an int64
    ("--area-width", "1e30", "area_width"), ("--area-height", "1e300", "area_height"),
    ("--uav-x", "1e300", "uav_x"), ("--uav-y", "1e30", "uav_y"),
    # a negative value follows its flag in any form float() reads
    ("--uav-x", "-inf", "uav_x"), ("--area-width", "-NaN", "area_width"),
    ("--uav-y", "-1e300", "uav_y"),
    # an infinite battery budget would be written to --events as Infinity, which is not JSON
    ("--battery", "inf", "battery"), ("--battery", "nan", "battery"),
])
def test_simulate_non_finite_geometry_names_the_key(tmp_path, capsys, flag, value, key):
    rc = main(["simulate", "--mechanism", "spa", "--out", str(tmp_path / "e.csv"), flag, value])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("command, value, message", [
    ("train", "nan", "dist_lower must be finite and at most 1e+100 in magnitude, got "
                     "dist_lower = nan"),
    ("train", "3", "need lower < upper, got dist_lower = 3.0, dist_upper = 1.0"),
    ("simulate", "-0.5", "valuation support must be non-negative, got dist_lower = -0.5"),
    # every command builds the world's config, so the message names no simulation
    ("train", "-0.5", "valuation support must be non-negative, got dist_lower = -0.5"),
    ("eval", "-0.5", "valuation support must be non-negative, got dist_lower = -0.5"),
    # a bound past 1e100 would let a revenue's spread overflow to inf
    ("eval", "-1e300", "dist_lower must be finite and at most 1e+100 in magnitude, got "
                       "dist_lower = -1e+300"),
])
def test_bad_valuation_support_names_the_key(tmp_path, capsys, datadir, command, value,
                                             message):
    out = tmp_path / "out"
    extra = {"simulate": ("--mechanism", "spa"),
             "eval": ("--checkpoint", str(datadir / "reader_net.ckpt"))}.get(command, ())
    assert main([command, *extra, "--dist-lower", value, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1e2", "-.5E+2", "-100"])
def test_negative_value_may_follow_its_flag(tmp_path, capsys, value):
    base = ["simulate", "--mechanism", "spa", "--max-rounds", "2"]
    assert main([*base, f"--uav-y={value}", "--out", str(tmp_path / "joined.csv")]) == 0
    joined = capsys.readouterr().out.replace("joined.csv", "{out}")
    assert main([*base, "--uav-y", value, "--out", str(tmp_path / "apart.csv")]) == 0
    assert capsys.readouterr().out.replace("apart.csv", "{out}") == joined
    assert (tmp_path / "apart.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()


def test_train_unwritable_out_exits_3(tmp_path, capsys):
    rc = main(["train", *TINY, "--iterations", "2",
               "--out", str(tmp_path / "missing" / "x.ckpt")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_revenue_gap_identity_checkpoint_is_exactly_zero(tmp_path, capsys):
    ckpt = identity_checkpoint(tmp_path)
    out = tmp_path / "gaps.csv"
    rc = main(["revenue-gap", "--checkpoint", str(ckpt), "--out", str(out),
               "--groups", "1", "--linear-units", "1", "--cases", "40"])
    assert rc == 0

    rows = read_rows(out)
    assert rows[0] == ["rank", "gap", "dla_revenue", "spa_revenue"]
    assert len(rows) == 41
    assert [int(row[0]) for row in rows[1:]] == list(range(1, 41))
    # identity transform reproduces second-price clearing bit for bit
    assert all(row[1] == "0.0" for row in rows[1:])
    assert all(row[2] == row[3] for row in rows[1:])

    stdout = capsys.readouterr().out
    assert "cases: 40" in stdout
    assert "mean gap: 0.000000" in stdout
    assert "positive gap fraction: 0.0000" in stdout


def test_revenue_gap_gaps_are_sorted_ascending(tmp_path):
    ckpt = train_tiny(tmp_path)
    out = tmp_path / "gaps.csv"
    rc = main(["revenue-gap", "--checkpoint", str(ckpt), "--out", str(out),
               "--n-bidders", "3", "--groups", "2", "--linear-units", "2",
               "--cases", "60", "--seed", "7"])
    assert rc == 0
    gaps = [float(row[1]) for row in read_rows(out)[1:]]
    assert len(gaps) == 60
    assert all(a <= b for a, b in zip(gaps, gaps[1:]))


def test_revenue_gap_writes_svg(tmp_path):
    ckpt = identity_checkpoint(tmp_path)
    out = tmp_path / "gaps.csv"
    rc = main(["revenue-gap", "--checkpoint", str(ckpt), "--out", str(out), "--svg",
               "--groups", "1", "--linear-units", "1", "--cases", "20"])
    assert rc == 0
    svg = (tmp_path / "gaps.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_revenue_gap_shape_mismatch_exits_2(tmp_path, capsys):
    ckpt = identity_checkpoint(tmp_path)  # five bidders
    rc = main(["revenue-gap", "--checkpoint", str(ckpt), "--out", str(tmp_path / "g.csv"),
               "--n-bidders", "3", "--groups", "1", "--linear-units", "1"])
    assert rc == 2
    assert "checkpoint covers 5 bidders but the config expects 3" in capsys.readouterr().err


def test_revenue_gap_clears_a_checkpoint_of_another_architecture(tmp_path):
    """Only the bidder count must match the market: a 5 x 1 x 1 net clears 5 bidders."""
    ckpt = tmp_path / "affine.ckpt"
    save_params(MonotoneNetParams.affine(5, 2.0, -1.0), ckpt)
    assert main(["revenue-gap", "--checkpoint", str(ckpt), "--cases", "50",
                 "--out", str(tmp_path / "g.csv")]) == 0
    assert main(["eval", "--checkpoint", str(ckpt), "--samples", "50"]) == 0


def test_revenue_gap_cases_repeat_no_other_stream_of_the_seed(tmp_path, monkeypatch):
    """No case equals the first draw of another stream fed by the same seed.

    Those streams are the bare seed (the same stream as the simulator's
    tag 0), the simulator's tags 0-4, training's and the held-out draws
    of train and eval.
    """
    seed, cases = 3, 8
    cleared = []

    def recording_clear_hard(params, values):
        cleared.append(np.array(values))
        return clear_hard(params, values)

    monkeypatch.setattr("myerson_airnet.cli.clear_hard", recording_clear_hard)
    ckpt = identity_checkpoint(tmp_path)
    rc = main(["revenue-gap", "--checkpoint", str(ckpt), "--out", str(tmp_path / "g.csv"),
               "--groups", "1", "--linear-units", "1", "--dist-lower", "0",
               "--dist-upper", "1", "--seed", str(seed), "--cases", str(cases)])
    assert rc == 0
    assert len(cleared) == cases

    dist = ValuationDistribution(0.0, 1.0)
    streams = [seed, *([seed, tag] for name, tag in _TAGS.items() if name != "gap")]
    for stream in streams:
        first = dist.sample(np.random.default_rng(stream), cleared[0].size)
        assert not any(np.array_equal(row, first) for row in cleared), stream


# Unit-interval rows, scaled onto each support: a tie at the top, every value at the lower
# end (and at the upper), both ends in one row with a tie at the midpoint, every value under
# the midpoint (on [0, 1] every virtual value is negative and the optimum does not sell) and
# a runner-up under it.
EDGE_ROWS = np.array([[0.7, 0.7, 0.3, 0.2, 0.1],
                      [0.0, 0.0, 0.0, 0.0, 0.0],
                      [1.0, 1.0, 1.0, 1.0, 1.0],
                      [1.0, 0.0, 0.5, 0.5, 0.25],
                      [0.1, 0.2, 0.3, 0.4, 0.45],
                      [0.6, 0.1, 0.2, 0.3, 0.4]])


@pytest.mark.parametrize("lower, upper", [(0.0, 1.0), (0.5, 1.0)])
@pytest.mark.parametrize("net", ["reader", "identity"])
def test_revenues_equal_the_per_row_public_clears_bitwise(net, lower, upper, datadir, tmp_path):
    """The batch baselines and the per-row learned clear give the public per-row calls' bits.

    Bits are compared as integers, so a zero's sign counts.
    """
    params = load_params(datadir / "reader_net.ckpt" if net == "reader"
                         else identity_checkpoint(tmp_path))
    dist = ValuationDistribution(lower, upper)
    rows = np.vstack([lower + (upper - lower) * EDGE_ROWS,
                      dist.sample(np.random.default_rng(0), (200, 5))])
    assert dist.contains(rows)
    expected = ([clear_hard(params, row).revenue for row in rows],
                [spa_clear(row).revenue for row in rows],
                [myerson_clear(ValuationProfile(row, dist)).revenue for row in rows])
    revenues = (*cli._revenues(params, rows), myerson_batch(rows, dist)[1])
    for got, want in zip(revenues, expected, strict=True):
        np.testing.assert_array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
    if lower == 0.0:
        assert revenues[2][[1, 4]].tolist() == [0.0, 0.0]  # all-negative rows do not sell


def test_simulate_spa_episode(tmp_path, capsys):
    out = tmp_path / "episode.csv"
    rc = main(["simulate", "--mechanism", "spa", "--out", str(out), "--seed", "4",
               "--max-rounds", "6", "--battery", "1e9"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "rounds completed: 6" in stdout
    assert f"wrote {out}" in stdout
    rows = read_rows(out)
    assert len(rows) == 7
    assert all(row[1] == "spa" for row in rows[1:])


def test_simulate_dla_requires_checkpoint(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "e.csv")])
    assert rc == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_simulate_checkpoint_device_mismatch_exits_2(tmp_path, capsys):
    ckpt = identity_checkpoint(tmp_path, n_bidders=4)
    rc = main(["simulate", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e.csv"),
               "--n-devices", "5"])
    assert rc == 2
    assert "devices" in capsys.readouterr().err


def test_simulate_empty_battery_exits_3(tmp_path, capsys):
    rc = main(["simulate", "--mechanism", "spa", "--out", str(tmp_path / "e.csv"),
               "--battery", "0"])
    assert rc == 3
    assert "battery" in capsys.readouterr().err


def test_simulate_identity_checkpoint_tracks_spa_trajectory(tmp_path):
    """With the identity transform the learned auction replays second price."""
    ckpt = identity_checkpoint(tmp_path)
    spa_out = tmp_path / "spa.csv"
    dla_out = tmp_path / "dla.csv"
    common = ["--seed", "13", "--max-rounds", "8", "--battery", "1e9"]
    assert main(["simulate", "--mechanism", "spa", "--out", str(spa_out), *common]) == 0
    assert main(["simulate", "--mechanism", "dla", "--checkpoint", str(ckpt),
                 "--out", str(dla_out), *common]) == 0

    spa_rows = read_rows(spa_out)
    dla_rows = read_rows(dla_out)
    assert len(spa_rows) == len(dla_rows) == 9
    for spa_row, dla_row in zip(spa_rows[1:], dla_rows[1:]):
        assert spa_row[1] == "spa" and dla_row[1] == "dla"
        assert spa_row[:1] + spa_row[2:] == dla_row[:1] + dla_row[2:]


def test_simulate_reserve_above_support_never_sells(tmp_path, capsys):
    # transformed bids top out at 1.0 - 1.1 < 0, so every round is a no-sale
    ckpt = identity_checkpoint(tmp_path, offset=-1.1, name="nosale.ckpt")
    out = tmp_path / "episode.csv"
    rc = main(["simulate", "--checkpoint", str(ckpt), "--out", str(out),
               "--seed", "2", "--max-rounds", "5", "--battery", "300"])
    assert rc == 0
    assert "rounds completed: 5" in capsys.readouterr().out
    rows = read_rows(out)[1:]
    assert [row[2] for row in rows] == ["-1"] * 5
    assert all(float(row[8]) == 0.0 for row in rows)
    assert all(float(row[7]) == 300.0 for row in rows)


def test_simulate_event_stream(tmp_path, capsys):
    events = tmp_path / "episode.jsonl"
    rc = main(["simulate", "--mechanism", "spa", "--out", str(tmp_path / "e.csv"),
               "--events", str(events), "--seed", "4", "--max-rounds", "4",
               "--battery", "1e9"])
    assert rc == 0
    assert f"wrote event stream {events}" in capsys.readouterr().out
    assert len(events.read_text().splitlines()) == 4


@pytest.mark.parametrize("existing", [None, b"old episode\n"])
def test_simulate_events_in_a_missing_directory_leaves_no_output(tmp_path, capsys, existing):
    out, events = tmp_path / "s.csv", tmp_path / "missing" / "e.jsonl"
    if existing is not None:
        out.write_bytes(existing)
    rc = main(["simulate", "--mechanism", "spa", "--max-rounds", "3", "--out", str(out),
               "--events", str(events)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"'{events}'" in err and ".tmp" not in err
    assert [path.name for path in tmp_path.iterdir()] == ([out.name] if existing else [])
    assert existing is None or out.read_bytes() == existing


def fail_to_write(path, *args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))


def open_failing(output, handle=None):
    """``builtins.open`` with the temp of ``output`` (in the working directory) broken: with no
    ``handle``, opening it fails as a full disk does; else the open file is wrapped in
    ``handle``."""
    real_open = builtins.open

    def opener(file, *args, **kwargs):
        if os.fspath(file) != os.path.realpath(output) + f".{os.getpid()}.tmp":
            return real_open(file, *args, **kwargs)
        if handle is None:
            fail_to_write(file)
        return handle(real_open(file, *args, **kwargs))
    return opener


class FullDisk:
    """An open file whose every write fails as a full disk does: an ``OSError`` that, unlike
    one from ``open``, names no file."""

    def __init__(self, handle):
        self.handle = handle

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


@pytest.mark.parametrize("command, second", [
    (["train", *TINY, "--iterations", "2", "--out", "net.ckpt"], "net.ckpt.loss.csv"),
    (["revenue-gap", "--checkpoint", "identity.ckpt", "--cases", "40", "--out", "gaps.csv",
      "--svg"], "gaps.svg"),
], ids=["train", "revenue-gap"])
def test_a_failed_second_write_lands_no_output(tmp_path, monkeypatch, capsys, command, second):
    monkeypatch.chdir(tmp_path)
    identity_checkpoint(tmp_path)
    monkeypatch.setattr(builtins, "open", open_failing(second))
    assert main(command) == 3
    err = capsys.readouterr().err
    assert f"No space left on device: '{second}'" in err and ".tmp" not in err
    assert [path.name for path in tmp_path.iterdir()] == ["identity.ckpt"]


def test_a_failed_event_stream_lands_no_output(tmp_path, monkeypatch, capsys):
    """The event writer fails once it has written its first line: the partial stream and the
    finished CSV are both removed, and an error naming the temp file names the events path."""
    def first_record_then_a_full_disk(records, path):
        yield records[0]
        fail_to_write(path)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "write_episode_events", lambda path, records: (
        sim.write_episode_events(path, first_record_then_a_full_disk(records, path))))
    assert main(["simulate", "--mechanism", "spa", "--max-rounds", "3", "--out", "e.csv",
                 "--events", "e.jsonl"]) == 3
    err = capsys.readouterr().err
    assert "No space left on device: 'e.jsonl'" in err and ".tmp" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, output", [
    (["train", *TINY, "--iterations", "2", "--out", "net.ckpt"], "net.ckpt"),
    (["train", *TINY, "--iterations", "2", "--out", "net.ckpt"], "net.ckpt.loss.csv"),
    (["revenue-gap", "--checkpoint", "identity.ckpt", "--cases", "40", "--out", "gaps.csv",
      "--svg"], "gaps.csv"),
    (["revenue-gap", "--checkpoint", "identity.ckpt", "--cases", "40", "--out", "gaps.csv",
      "--svg"], "gaps.svg"),
    (["simulate", "--mechanism", "spa", "--max-rounds", "3", "--out", "e.csv",
      "--events", "e.jsonl"], "e.csv"),
    (["simulate", "--mechanism", "spa", "--max-rounds", "3", "--out", "e.csv",
      "--events", "e.jsonl"], "e.jsonl"),
], ids=["checkpoint", "loss-csv", "gap-csv", "svg", "episode-csv", "events"])
def test_a_write_that_fails_naming_no_file_names_its_output(tmp_path, monkeypatch, capsys,
                                                            command, output):
    """Each of the five writers (checkpoint, CSV, SVG, episode CSV, events) names its path
    in an error that names no file, so the CLI reports the output and lands none."""
    monkeypatch.chdir(tmp_path)
    identity_checkpoint(tmp_path)
    monkeypatch.setattr(builtins, "open", open_failing(output, FullDisk))
    assert main(command) == 3
    err = capsys.readouterr().err
    assert f"error: [Errno {errno.ENOSPC}] No space left on device: '{output}'" in err
    assert ".tmp" not in err
    assert [path.name for path in tmp_path.iterdir()] == ["identity.ckpt"]


def test_outputs_land_as_a_plain_write_would(tmp_path):
    """A new output gets a new file's mode; an existing one keeps its mode,
    and a symlinked one is written through its link."""
    (tmp_path / "plain").write_text("")
    mode = os.stat(tmp_path / "plain").st_mode
    (tmp_path / "real.jsonl").write_text("")
    os.chmod(tmp_path / "real.jsonl", 0o600)
    (tmp_path / "e.jsonl").symlink_to("real.jsonl")
    train_tiny(tmp_path)
    assert main(["simulate", "--mechanism", "spa", "--max-rounds", "2", "--out",
                 str(tmp_path / "e.csv"), "--events", str(tmp_path / "e.jsonl")]) == 0
    new = {"net.ckpt", "net.ckpt.loss.csv", "e.csv"}
    assert {path.name for path in tmp_path.iterdir()} == new | {"plain", "real.jsonl", "e.jsonl"}
    assert all(os.stat(tmp_path / name).st_mode == mode for name in new)
    assert (tmp_path / "e.jsonl").is_symlink()
    assert os.stat(tmp_path / "real.jsonl").st_mode & 0o777 == 0o600
    assert len((tmp_path / "real.jsonl").read_text().splitlines()) == 2


@pytest.mark.parametrize("command, flag, value, named", [
    ("simulate", "--n-devices", "1", "n_devices = 1"),
    ("simulate", "--area-width", "0", "area_width = 0.0"),
    ("simulate", "--area-height", "-5", "area_height = -5.0"),
    ("simulate", "--image-rows", "0", "image_rows = 0"),
    ("simulate", "--image-cols", "0", "image_cols = 0"),
    # Its imagery needs terabytes; numpy raised _ArrayMemoryError on allocating it.
    ("simulate", "--image-rows", "1000000000000",
     "n_devices * pile_size * image_rows * image_cols = 240000000000000"),
    ("train", "--n-bidders", "1", "n_bidders = 1"),
    ("train", "--groups", "0", "groups = 0"),
    ("train", "--linear-units", "0", "linear_units = 0"),
    ("train", "--batch-size", "0", "batch_size = 0"),
    ("train", "--iterations", "0", "iterations = 0"),
    ("train", "--seed", "-1", "seed = -1"),
    ("simulate", "--seed", "-1", "seed = -1"),
    ("simulate", "--pile-size", "0", "pile_size = 0"),
    ("simulate", "--max-rounds", "0", "max_rounds = 0"),
    # An episode holds every round's valuations until it writes them.
    ("simulate", "--max-rounds", "10000000", "max_rounds * n_devices = 50000000"),
    ("revenue-gap", "--cases", "0", "cases = 0"),
    ("eval", "--samples", "0", "--samples = 0"),
    ("train", "--kappa", "0", "kappa = 0.0"),
    ("train", "--learning-rate", "0", "learning_rate = 0.0"),
    ("train", "--convergence-tol", "inf", "convergence_tol = inf"),
    # Each matrix needs terabytes; numpy raised _ArrayMemoryError on allocating it.  The
    # profile bounds are checked before the checkpoint, which does not exist, is read.
    ("revenue-gap", "--cases", "1000000000000", "cases * n_bidders = 5000000000000"),
    ("eval", "--samples", "1000000000000", "samples * n_bidders = 5000000000000"),
    ("train", "--batch-size", "1000000000000",
     "linear_units * groups * n_bidders * batch_size = 75000000000000"),
])
def test_range_errors_name_their_key(tmp_path, capsys, command, flag, value, named):
    extra = {"simulate": ["--mechanism", "spa"], "train": []}.get(
        command, ["--checkpoint", str(tmp_path / "absent.ckpt")])
    rc = main([command, *extra, flag, value, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.endswith(f", got {named}\n")
    assert not any(tmp_path.iterdir())


def test_train_bounds_its_heldout_profiles_before_training(tmp_path, capsys, monkeypatch):
    # A one-profile batch passes the pieces bound, but the held-out check's 10,000
    # profiles of 4,000 bidders are 4e7 values.
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("train ran"))
    rc = main(["train", "--n-bidders", "4000", "--batch-size", "1", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.endswith(", got 10000 * n_bidders = 40000000\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("events", ["same.csv", "sub/../same.csv", "ABSOLUTE"])
def test_simulate_events_at_the_out_path_exits_2_before_any_work(tmp_path, monkeypatch,
                                                                   capsys, events):
    monkeypatch.chdir(tmp_path)
    for name in ("generate_world", "run_episode"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    events = str(tmp_path / "same.csv") if events == "ABSOLUTE" else events
    rc = main(["simulate", "--mechanism", "spa", "--max-rounds", "3",
               "--out", "same.csv", "--events", events])
    assert rc == 2
    assert "events" in capsys.readouterr().err
    assert not (tmp_path / "same.csv").exists()


@pytest.mark.parametrize("command, key", [
    (["revenue-gap", "--out", "net.ckpt"], "out"),
    (["revenue-gap", "--out", "sub/../net.ckpt", "--svg"], "out"),
    (["revenue-gap", "--out", "net.csv", "--svg"], "svg"),
    (["simulate", "--mechanism", "dla", "--out", "ABSOLUTE"], "out"),
    (["simulate", "--mechanism", "dla", "--out", "e.csv", "--events", "net.ckpt"], "events"),
    (["simulate", "--mechanism", "spa", "--out", "net.ckpt"], "out"),
    (["simulate", "--mechanism", "spa", "--out", "e.csv", "--events", "net.ckpt"], "events"),
])
def test_outputs_at_the_checkpoint_path_exit_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                               command, key):
    monkeypatch.chdir(tmp_path)
    ckpt = identity_checkpoint(tmp_path, name="net.svg" if key == "svg" else "net.ckpt")
    before = ckpt.read_bytes()
    monkeypatch.setattr(cli, "load_params", lambda *args: pytest.fail("load_params ran"))
    command = [str(ckpt) if arg == "ABSOLUTE" else arg for arg in command]
    rc = main([*command, "--checkpoint", ckpt.name])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must not be the checkpoint path")
    assert ckpt.read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == [ckpt.name]


@pytest.mark.parametrize("directory, command, key", [
    ("w", ["train", "--iterations", "1", "--out", "w"], "out"),
    ("w.loss.csv", ["train", "--iterations", "1", "--out", "w"], "loss trace"),
    ("w.csv", ["revenue-gap", "--checkpoint", "net.ckpt", "--out", "w.csv"], "out"),
    ("w.svg", ["revenue-gap", "--checkpoint", "net.ckpt", "--out", "w.csv", "--svg"], "svg"),
    ("e.csv", ["simulate", "--mechanism", "spa", "--out", "e.csv"], "out"),
    ("e.jsonl", ["simulate", "--mechanism", "spa", "--out", "e.csv", "--events", "e.jsonl"],
     "events"),
])
def test_outputs_at_a_directory_exit_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                       directory, command, key):
    # Each ran to the write, then exited 3 with "Is a directory".
    monkeypatch.chdir(tmp_path)
    (tmp_path / directory).mkdir()
    for name in ("train", "load_params", "generate_world"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    assert main(command) == 2
    assert capsys.readouterr().err == f"error: {key} must not be a directory: {directory}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == [directory]
    assert not any((tmp_path / directory).iterdir())


@pytest.mark.parametrize("config, command, key", [
    ("w.cfg", ["train", "--out", "w.cfg"], "out"),
    ("w.loss.csv", ["train", "--out", "w"], "loss trace"),
    ("w.cfg", ["revenue-gap", "--checkpoint", "net.ckpt", "--out", "sub/../w.cfg"], "out"),
    ("w.svg", ["revenue-gap", "--checkpoint", "net.ckpt", "--out", "w.csv", "--svg"], "svg"),
    ("w.cfg", ["simulate", "--mechanism", "spa", "--out", "ABSOLUTE"], "out"),
    ("w.cfg", ["simulate", "--mechanism", "spa", "--out", "e.csv", "--events", "w.cfg"],
     "events"),
])
def test_outputs_at_the_config_path_exit_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                           config, command, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / config).write_text("seed = 5\n")
    before = (tmp_path / config).read_bytes()
    for name in ("train", "load_params", "generate_world"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    command = [str(tmp_path / config) if arg == "ABSOLUTE" else arg for arg in command]
    rc = main([*command, "--config", config])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must not be the config path")
    assert (tmp_path / config).read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == [config]


def parse_eval_table(stdout):
    table = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in ("dla", "spa", "myerson"):
            table[parts[0]] = (parts[1], parts[2])
    return table


def test_eval_single_sample_has_zero_stddev(tmp_path, capsys):
    ckpt = identity_checkpoint(tmp_path)
    rc = main(["eval", "--checkpoint", str(ckpt), "--samples", "1",
               "--groups", "1", "--linear-units", "1"])
    assert rc == 0
    table = parse_eval_table(capsys.readouterr().out)
    assert set(table) == {"dla", "spa", "myerson"}
    assert all(stddev == "0.000000" for _, stddev in table.values())


def test_eval_high_support_makes_reserve_irrelevant(tmp_path, capsys):
    # on [0.5, 1] the optimal reserve never binds, so all three rows agree
    ckpt = identity_checkpoint(tmp_path)
    rc = main(["eval", "--checkpoint", str(ckpt), "--samples", "4000",
               "--groups", "1", "--linear-units", "1", "--seed", "6"])
    assert rc == 0
    table = parse_eval_table(capsys.readouterr().out)
    assert table["spa"] == table["myerson"]
    assert table["dla"] == table["spa"]


def test_eval_uniform01_ranks_myerson_above_spa(tmp_path, capsys):
    ckpt = identity_checkpoint(tmp_path)
    rc = main(["eval", "--checkpoint", str(ckpt), "--samples", "5000",
               "--dist-lower", "0", "--dist-upper", "1",
               "--groups", "1", "--linear-units", "1", "--seed", "6"])
    assert rc == 0
    table = parse_eval_table(capsys.readouterr().out)
    assert float(table["myerson"][0]) > float(table["spa"][0])


def test_eval_rejects_zero_samples(tmp_path, capsys):
    ckpt = identity_checkpoint(tmp_path)
    rc = main(["eval", "--checkpoint", str(ckpt), "--samples", "0",
               "--groups", "1", "--linear-units", "1"])
    assert rc == 2
    assert "--samples" in capsys.readouterr().err


def test_config_file_overridden_by_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# experiment setup\niterations = 40\nseed = 3\n")
    out = train_tiny(tmp_path, extra=("--config", str(cfg), "--iterations", "5"))
    assert len(read_rows(str(out) + ".loss.csv")) == 6


def test_config_file_without_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iterations = 4\n")
    out = tmp_path / "net.ckpt"
    assert main(["train", *TINY, "--config", str(cfg), "--out", str(out)]) == 0
    assert len(read_rows(str(out) + ".loss.csv")) == 5


@pytest.mark.parametrize("body,fragment", [
    ("bogus = 1\n", "unknown key"),
    ("iterations = 4\niterations = 5\n", "duplicate key"),
    ("iterations\n", "expected 'key = value'"),
    ("groups = 2.5\n", "groups"),
])
def test_config_file_errors_exit_2(tmp_path, capsys, body, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    rc = main(["train", *TINY, "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")])
    assert rc == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--n-bidders", "abc", "n_bidders: expected an integer, got 'abc'"),
    ("--kappa", "hot", "kappa: expected a number, got 'hot'"),
    ("--seed", "-1e0", "seed: expected an integer, got '-1e0'"),
])
def test_unparsable_flag_exits_2_naming_its_key(tmp_path, capsys, flag, value, message):
    rc = main(["train", flag, value, "--out", str(tmp_path / "x.ckpt")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.ckpt").exists()


def test_binary_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)))
    rc = main(["train", *TINY, "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")])
    assert rc == 2
    assert f"{cfg} is not a text config file" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("name", ["missing.cfg", "."])
def test_unreadable_config_file_exits_2_naming_it(tmp_path, capsys, name):
    cfg = tmp_path / name
    rc = main(["train", *TINY, "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")])
    assert rc == 2
    assert f"cannot read config file {cfg}" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("command", [
    ["eval"], ["simulate", "--mechanism", "dla", "--out", "e.csv"],
])
@pytest.mark.parametrize("name", ["missing.ckpt", "."])
def test_unreadable_checkpoint_exits_2_naming_it(tmp_path, monkeypatch, capsys, command, name):
    monkeypatch.chdir(tmp_path)
    ckpt = tmp_path / name
    assert main([*command, "--checkpoint", str(ckpt)]) == 2
    assert f"cannot read checkpoint {ckpt}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_module_entrypoint_smoke(tmp_path):
    out = tmp_path / "net.ckpt"
    result = subprocess.run(
        [sys.executable, "-m", "myerson_airnet", "train", *TINY, "--iterations", "2",
         "--seed", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "trained 2 iterations" in result.stdout
    assert out.exists()


@pytest.mark.parametrize("command", [
    ["revenue-gap", "--cases", "50", "--out", "{tmp}/gaps.csv"],
    ["eval", "--samples", "50"],
    ["simulate", "--mechanism", "dla", "--max-rounds", "5", "--battery", "1e9",
     "--out", "{tmp}/episode.csv"],
])
def test_overflowing_slope_clears_without_runtime_warnings(tmp_path, command):
    theta = np.zeros((5, 1, 2))
    theta[0, 0, 0] = 800.0  # exp(theta) overflows to inf
    ckpt = tmp_path / "overflow.ckpt"
    save_params(MonotoneNetParams(theta, np.zeros_like(theta)), ckpt)
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "myerson_airnet",
         *(arg.format(tmp=tmp_path) for arg in command), "--checkpoint", str(ckpt)],
        capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")


def test_trained_gap_tracks_analytic_gap_over_100k_cases(tmp_path):
    """A well-trained net recovers most of the optimal-reserve revenue.

    The same 100k valuation draws are replayed through the analytic
    optimum, so the comparison is paired and Monte-Carlo noise cancels.
    """
    dist = ValuationDistribution(0.0, 1.0)
    config = NetConfig(seed=0, batch_size=4096, iterations=1500)
    params, _ = train(config, dist)
    ckpt = tmp_path / "big.ckpt"
    save_params(params, ckpt)

    cases = 100_000
    out = tmp_path / "gaps.csv"
    rc = main(["revenue-gap", "--checkpoint", str(ckpt), "--out", str(out),
               "--dist-lower", "0", "--dist-upper", "1",
               "--cases", str(cases), "--seed", "0"])
    assert rc == 0

    rows = read_rows(out)[1:]
    learned_gap = np.mean([float(row[1]) for row in rows])
    csv_spa_mean = np.mean([float(row[3]) for row in rows])

    draws = dist.sample(np.random.default_rng([0, _TAGS["gap"]]), (cases, config.n_bidders))
    spa = spa_batch(draws)[1]
    analytic_gap = np.mean(myerson_batch(draws, dist)[1] - spa)

    # the oracle replayed the exact draws the CLI cleared
    assert csv_spa_mean == pytest.approx(np.mean(spa), abs=1e-9)
    assert abs(learned_gap - analytic_gap) <= 0.1 * analytic_gap
