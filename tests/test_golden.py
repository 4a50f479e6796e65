"""Byte-stable CLI outputs pinned under ``tests/data``.

Each case runs one command and compares every file it writes, and what
it prints, with the pinned copies byte for byte.  A case's printed
output is pinned as ``golden_<case>.stdout``, with the temporary output
directory written as ``{tmp}`` and ``tests/data`` as ``{data}``.  Together they fix the floating-point
operation order of the learned auction: the batch training forward
(checkpoint and loss trace, at batch 64 and at the default batch of
768), per-profile hard clearing (revenue-gap)
and clearing inside the simulator (the dla episode and its event
stream).  The second-price episode pins the other similarity and
valuation branches (``min`` aggregate, ``proximity`` rule) on piles of
five non-square images.  The revenue-gap, dla episode and eval cases read
``reader_net.ckpt``, a pinned input checkpoint rather than the training
case's output, so a training change shows up in the training cases
alone.  The eval case writes no file, so its printed table is its only
golden.

Regenerate from the repository root with ``PYTHONPATH=src``, and only
for a deliberate change of output bytes:

    python -m myerson_airnet train --dist-lower 0 --dist-upper 1 --seed 3 \\
        --iterations 20 --batch-size 64 --out tests/data/golden_net.ckpt
    python -m myerson_airnet train --dist-lower 0 --dist-upper 1 --seed 3 \\
        --iterations 40 --out tests/data/golden_net_default_batch.ckpt
    python -m myerson_airnet revenue-gap --checkpoint tests/data/reader_net.ckpt \\
        --dist-lower 0 --dist-upper 1 --seed 3 --cases 200 --svg \\
        --out tests/data/golden_gaps.csv
    python -m myerson_airnet simulate --mechanism dla --checkpoint tests/data/reader_net.ckpt \\
        --config tests/data/golden_world.cfg --battery 1e9 \\
        --out tests/data/golden_dla_episode.csv --events tests/data/golden_dla_episode.jsonl
    python -m myerson_airnet simulate --mechanism spa --n-devices 9 --pile-size 5 \\
        --image-rows 5 --image-cols 7 --similarity-aggregate min \\
        --valuation-rule proximity --max-rounds 40 --seed 1 --area-width 100 \\
        --area-height 100 --uav-x 50 --uav-y 50 --battery 1e9 \\
        --out tests/data/golden_spa_min_episode.csv \\
        --events tests/data/golden_spa_min_episode.jsonl

(``--svg`` on the revenue-gap command also writes ``golden_gaps.svg``,
the gap curve, which a test of its own compares), and each ``.stdout``
file from the case's command run with its output
directory in place of ``{tmp}``, that directory's path then replaced by
``{tmp}`` (``{data}`` likewise).

The ``mean``-aggregate episode goldens (``golden_dla_episode.*``,
``golden_simulate.stdout`` and ``golden_episode.csv``, which
``test_acceptance`` pins) were last regenerated, in a commit that
changed nothing else, when the ``mean`` similarity moved onto the pile
terms the world state caches (``Q sum n_p - 2 A.B + P sum m_q`` from
per-image norms and per-pile pixel sums): every round, mechanism and
winner stayed the same, valuations and the payments derived from them
moved in their last bits, and ``golden_simulate.stdout`` came out
byte-identical.  The ``min``-aggregate ``golden_spa_min_episode.*`` and
``golden_simulate-spa-min.stdout`` were not regenerated then, as ``min``
kept its bits; they were last regenerated, with the others, when pile
similarity moved to its Gram form and distances to ``np.hypot``.

Each ``golden_help_<command>.txt`` pins the ``--help`` text of a
subcommand (``main`` is the program's own), printed with ``COLUMNS=80``
because argparse wraps help to the terminal width.  Regenerate with

    COLUMNS=80 python -m myerson_airnet --help > tests/data/golden_help_main.txt
    COLUMNS=80 python -m myerson_airnet train --help > tests/data/golden_help_train.txt

and likewise for ``revenue-gap``, ``simulate`` and ``eval``.

Each ``golden_demo_<name>.stdout`` pins what ``demos/<name>.py`` prints
when run from the repository root; the CI's Demos step compares them.
Regenerate with

    PYTHONPATH=src python demos/uav_episode.py > tests/data/golden_demo_uav_episode.stdout

and likewise for the other demos.

``reader_net.ckpt`` is a copy of ``golden_net.ckpt`` as the training
case wrote it before training drew from its own tagged stream.  Replace
it only to move the readers onto a new net, with

    cp tests/data/golden_net.ckpt tests/data/reader_net.ckpt

and then regenerate the revenue-gap, dla episode and eval goldens.
"""

import pytest

from myerson_airnet.cli import main

CASES = {
    "train": (["train", "--dist-lower", "0", "--dist-upper", "1", "--seed", "3",
               "--iterations", "20", "--batch-size", "64", "--out", "{tmp}/golden_net.ckpt"],
              ["golden_net.ckpt", "golden_net.ckpt.loss.csv"]),
    "train-default-batch": (["train", "--dist-lower", "0", "--dist-upper", "1", "--seed", "3",
                             "--iterations", "40", "--out", "{tmp}/golden_net_default_batch.ckpt"],
                            ["golden_net_default_batch.ckpt",
                             "golden_net_default_batch.ckpt.loss.csv"]),
    "revenue-gap": (["revenue-gap", "--checkpoint", "{data}/reader_net.ckpt",
                     "--dist-lower", "0", "--dist-upper", "1", "--seed", "3",
                     "--cases", "200", "--out", "{tmp}/golden_gaps.csv"],
                    ["golden_gaps.csv"]),
    "simulate": (["simulate", "--mechanism", "dla", "--checkpoint", "{data}/reader_net.ckpt",
                  "--config", "{data}/golden_world.cfg", "--battery", "1e9",
                  "--out", "{tmp}/golden_dla_episode.csv",
                  "--events", "{tmp}/golden_dla_episode.jsonl"],
                 ["golden_dla_episode.csv", "golden_dla_episode.jsonl"]),
    "simulate-spa-min": (["simulate", "--mechanism", "spa", "--n-devices", "9",
                          "--pile-size", "5", "--image-rows", "5", "--image-cols", "7",
                          "--similarity-aggregate", "min", "--valuation-rule", "proximity",
                          "--max-rounds", "40", "--seed", "1", "--area-width", "100",
                          "--area-height", "100", "--uav-x", "50", "--uav-y", "50",
                          "--battery", "1e9", "--out", "{tmp}/golden_spa_min_episode.csv",
                          "--events", "{tmp}/golden_spa_min_episode.jsonl"],
                         ["golden_spa_min_episode.csv", "golden_spa_min_episode.jsonl"]),
    "eval": (["eval", "--checkpoint", "{data}/reader_net.ckpt", "--dist-lower", "0",
              "--dist-upper", "1", "--seed", "3", "--samples", "2000"],
             []),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_cli_outputs_match_goldens(command, tmp_path, datadir, capsys):
    argv, outputs = CASES[command]
    argv = [arg.format(tmp=tmp_path, data=datadir) for arg in argv]
    assert main(argv) == 0
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (datadir / name).read_bytes(), name
    stdout = capsys.readouterr().out.replace(str(tmp_path), "{tmp}").replace(str(datadir), "{data}")
    assert stdout == (datadir / f"golden_{command}.stdout").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["main", "train", "revenue-gap", "simulate", "eval"])
def test_help_matches_golden(command, datadir, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main(["--help"] if command == "main" else [command, "--help"])
    assert exited.value.code == 0
    golden = (datadir / f"golden_help_{command}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_revenue_gap_svg_matches_golden(tmp_path, datadir):
    """``--svg`` adds the gap curve to the revenue-gap case and leaves its CSV as pinned."""
    argv, _ = CASES["revenue-gap"]
    assert main([arg.format(tmp=tmp_path, data=datadir) for arg in argv] + ["--svg"]) == 0
    for name in ("golden_gaps.csv", "golden_gaps.svg"):
        assert (tmp_path / name).read_bytes() == (datadir / name).read_bytes(), name
