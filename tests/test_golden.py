"""Byte-stable CLI outputs pinned under ``tests/data``.

Each case runs one command and compares every file it writes with the
pinned copy byte for byte.  Together they fix the floating-point
operation order of the learned auction: the batch training forward
(checkpoint and loss trace), per-profile hard clearing (revenue-gap)
and clearing inside the simulator (the dla episode and its event
stream).  The revenue-gap and episode cases read the pinned checkpoint,
so a training change shows up in the training case alone.

Regenerate from the repository root with ``PYTHONPATH=src``, and only
for a deliberate change of output bytes:

    python -m myerson_airnet train --dist-lower 0 --dist-upper 1 --seed 3 \\
        --iterations 20 --batch-size 64 --out tests/data/golden_net.ckpt
    python -m myerson_airnet revenue-gap --checkpoint tests/data/golden_net.ckpt \\
        --dist-lower 0 --dist-upper 1 --seed 3 --cases 200 --out tests/data/golden_gaps.csv
    python -m myerson_airnet simulate --mechanism dla --checkpoint tests/data/golden_net.ckpt \\
        --config tests/data/golden_world.cfg --battery 1e9 \\
        --out tests/data/golden_dla_episode.csv --events tests/data/golden_dla_episode.jsonl
"""

import pytest

from myerson_airnet.cli import main

CASES = {
    "train": (["train", "--dist-lower", "0", "--dist-upper", "1", "--seed", "3",
               "--iterations", "20", "--batch-size", "64", "--out", "{tmp}/golden_net.ckpt"],
              ["golden_net.ckpt", "golden_net.ckpt.loss.csv"]),
    "revenue-gap": (["revenue-gap", "--checkpoint", "{data}/golden_net.ckpt",
                     "--dist-lower", "0", "--dist-upper", "1", "--seed", "3",
                     "--cases", "200", "--out", "{tmp}/golden_gaps.csv"],
                    ["golden_gaps.csv"]),
    "simulate": (["simulate", "--mechanism", "dla", "--checkpoint", "{data}/golden_net.ckpt",
                  "--config", "{data}/golden_world.cfg", "--battery", "1e9",
                  "--out", "{tmp}/golden_dla_episode.csv",
                  "--events", "{tmp}/golden_dla_episode.jsonl"],
                 ["golden_dla_episode.csv", "golden_dla_episode.jsonl"]),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_cli_outputs_match_goldens(command, tmp_path, datadir):
    argv, outputs = CASES[command]
    argv = [arg.format(tmp=tmp_path, data=datadir) for arg in argv]
    assert main(argv) == 0
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (datadir / name).read_bytes(), name
