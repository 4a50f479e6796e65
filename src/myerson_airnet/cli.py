"""Command-line experiment harness.

Subcommands: ``train`` a learned auction, ``revenue-gap`` it against the
second-price baseline, ``simulate`` a collection episode, and ``eval``
mean revenue against the analytic optimum.  Every command honors
``--seed``; outputs carry no timestamps, so identical invocations write
byte-identical files.  ``train``'s held-out check, ``revenue-gap`` and
``eval`` each draw their profiles in one call from a stream that derives
from the master seed through a fixed tag of ``auction._TAGS``.
``revenue-gap`` and ``eval`` clear the analytic baselines as one batch and
the learned auction one profile per :func:`clear_hard` call; ``train``'s
held-out check clears its profiles in one :func:`clear_batch` call.  An output that is a directory
or resolves to ``--config``, to ``--checkpoint`` or to another output of
the same command exits 2 before any work.  A command writes its outputs to
temp files beside them and renames them only once every write succeeded,
so a failed write leaves no output behind, and its error names the output.  Each subcommand takes ``--config``,
its own arguments, then one ``--<key>`` flag per config key it reads; a
key's text parses as its field's type (see :mod:`.config`), and a
negative value may follow its flag (``--uav-y -1e3``).
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .auction import _TAGS, _at_least, _bound_size, _stream, myerson_batch, spa_batch
from .checkpoint import load_params, save_params
from .config import RUN_SCHEMA, SCHEMA, build_config
from .errors import (CheckpointShapeError, EpisodeExhaustedError, InputError,
                     TrainingDivergedError, writing)
from .network import clear_batch, clear_hard, train
from .sim import (LearnedMechanism, SecondPriceMechanism, generate_world, run_episode,
                  write_episode_csv, write_episode_events)

# Bound for perfbench's tracer alone, which patches them here; the clears call none.
from .auction import ValuationProfile, myerson_clear, spa_clear  # noqa: F401

_HELDOUT_PROFILES = 10_000  # fresh profiles train checks its net on

# A value argparse takes for a negative number, not a flag: its own pattern
# admits plain decimals only, so --uav-y -1e2 would lack its value.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


def _require_out(cfg) -> str:
    if not cfg.out:
        raise InputError("out must be a non-empty path: pass --out or set out= in the config")
    return cfg.out


def _require_apart(args, outputs: dict) -> None:
    """Refuse an output that is a directory or resolves to ``--config``, ``--checkpoint``
    or an earlier output."""
    taken = {"config": args.config, "checkpoint": getattr(args, "checkpoint", None)}
    for key, path in outputs.items():
        if path and os.path.isdir(path):
            raise InputError(f"{key} must not be a directory: {path}")
        for other_key, other in taken.items():
            if path and other and Path(path).resolve() == Path(other).resolve():
                raise InputError(f"{key} must not be the {other_key} path {other}: "
                                 f"the {other_key} file would be overwritten")
        taken[key] = path


@contextmanager
def _outputs(*paths):
    """Yield a temp path beside each output (``None`` for none); once the block succeeds,
    rename each onto its output as a plain write would land (through a symlink, keeping an
    existing file's mode), else remove them all.  An error names the output, not its temp."""
    temps = [path and f"{os.path.realpath(path)}.{os.getpid()}.tmp" for path in paths]
    landing = {temp: path for temp, path in zip(temps, paths) if path}
    try:
        yield temps
        for temp, path in landing.items():
            if os.path.exists(path):
                shutil.copymode(path, temp)
            os.replace(temp, os.path.realpath(path))
    except OSError as exc:
        if exc.filename not in landing:
            raise
        raise OSError(exc.errno, exc.strerror, landing[exc.filename]) from None
    finally:
        for temp in landing:
            Path(temp).unlink(missing_ok=True)


def _write_csv(path, header, rows) -> None:
    with writing(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)  # streamed: revenue-gap writes one row per case


def _load_for_market(path, n_bidders: int, market: str):
    """Load a checkpoint; of its shape, only the bidder count must match the market."""
    params = load_params(path)
    if params.n_bidders != n_bidders:
        raise CheckpointShapeError(f"checkpoint covers {params.n_bidders} bidders but {market}")
    return params


def _profiles(cfg, tag: str, count: int) -> np.ndarray:
    """``count`` profiles of the config's market from the master seed's ``tag`` stream."""
    rng = _stream(cfg.net.seed, _TAGS[tag])
    return cfg.world.distribution.sample(rng, (count, cfg.net.n_bidders))


def _revenues(params, rows) -> tuple[np.ndarray, np.ndarray]:
    """Per-row revenue of the learned auction and of second price.

    ``revenue-gap`` and ``eval`` clear their ``(S, N)`` profile matrix
    through here: second price as one batch, the learned auction one
    profile per :func:`clear_hard` call.
    """
    dla = np.array([clear_hard(params, row).revenue for row in rows])
    return dla, spa_batch(rows)[1]


def _cmd_train(args, cfg) -> int:
    out = _require_out(cfg)
    trace_path = out + ".loss.csv"
    _require_apart(args, {"out": out, "loss trace": trace_path})
    _bound_size(_HELDOUT_PROFILES * cfg.net.n_bidders, f"{_HELDOUT_PROFILES} * n_bidders",
                "train's held-out profiles")
    params, trace = train(cfg.net, cfg.world.distribution)
    with _outputs(out, trace_path) as (out_temp, trace_temp):
        save_params(params, out_temp)
        _write_csv(trace_temp, ["iteration", "loss"],
                   ([i, repr(float(value))] for i, value in enumerate(trace.losses)))

    heldout = _profiles(cfg, "train_eval", _HELDOUT_PROFILES)
    dla = clear_batch(params, heldout)[1]
    spa = spa_batch(heldout)[1]
    print(f"trained {len(trace.losses)} iterations; final loss {trace.losses[-1]:.6f}")
    if trace.converged_at is not None:
        print(f"converged at iteration {trace.converged_at}")
    print(f"test revenue over {_HELDOUT_PROFILES} fresh profiles: "
          f"dla {dla.mean():.6f}, spa {spa.mean():.6f}")
    print(f"wrote checkpoint {out} and loss trace {trace_path}")
    return 0


def _cmd_revenue_gap(args, cfg) -> int:
    out = _require_out(cfg)
    svg_path = None
    if args.svg:
        svg_path = str(Path(out).with_suffix(".svg")) if out.endswith(".csv") else out + ".svg"
    _require_apart(args, {"out": out, "svg": svg_path})
    params = _load_for_market(args.checkpoint, cfg.net.n_bidders,
                              f"the config expects {cfg.net.n_bidders}")

    dla, spa = _revenues(params, _profiles(cfg, "gap", cfg.cases))
    gaps = dla - spa
    order = np.argsort(gaps, kind="stable")

    with _outputs(out, svg_path) as (out_temp, svg_temp):
        _write_csv(out_temp, ["rank", "gap", "dla_revenue", "spa_revenue"],
                   zip(range(1, order.size + 1), map(float, gaps[order]), map(float, dla[order]),
                       map(float, spa[order])))
        if svg_temp:
            with writing(svg_temp) as handle:
                handle.write(_gap_curve_svg(gaps[order]))
    if svg_path:
        print(f"wrote gap curve {svg_path}")

    positive = float(np.mean(gaps > 0.0))
    print(f"cases: {cfg.cases}")
    print(f"mean dla revenue: {dla.mean():.6f}")
    print(f"mean spa revenue: {spa.mean():.6f}")
    print(f"mean gap: {gaps.mean():.6f}")
    print(f"positive gap fraction: {positive:.4f}")
    print(f"wrote {out}")
    return 0


def _cmd_simulate(args, cfg) -> int:
    out = _require_out(cfg)
    _require_apart(args, {"out": out, "events": args.events})
    if args.mechanism == "spa":
        mechanism = SecondPriceMechanism()
    else:
        if args.checkpoint is None:
            raise InputError("simulate --mechanism dla needs --checkpoint")
        mechanism = LearnedMechanism(_load_for_market(
            args.checkpoint, cfg.world.n_devices, f"the world has {cfg.world.n_devices} devices"))

    state = generate_world(cfg.world)
    records = run_episode(state, mechanism)

    with _outputs(out, args.events) as (out_temp, events_temp):
        write_episode_csv(out_temp, records)
        if events_temp:
            write_episode_events(events_temp, records)
    if args.events:
        print(f"wrote event stream {args.events}")

    revenue = sum(record.outcome.revenue for record in records)
    flown = sum(record.distance_flown for record in records)
    print(f"rounds completed: {len(records)}")
    print(f"total revenue: {revenue:.6f}")
    print(f"total distance flown: {flown:.3f} m")
    print(f"battery remaining: {state.battery:.3f} m")
    print(f"wrote {out}")
    return 0


def _cmd_eval(args, cfg) -> int:
    samples = args.samples
    _at_least(1, **{"--samples": samples})
    _bound_size(samples * cfg.net.n_bidders, "samples * n_bidders", "the eval profiles")
    params = _load_for_market(args.checkpoint, cfg.net.n_bidders,
                              f"the config expects {cfg.net.n_bidders}")

    values = _profiles(cfg, "eval", samples)
    dla, spa = _revenues(params, values)
    revenue = {"dla": dla, "spa": spa,
               "myerson": myerson_batch(values, cfg.world.distribution)[1]}

    print(f"samples: {samples} (common random numbers)")
    print(f"{'mechanism':<10} {'mean_revenue':>14} {'stddev':>12}")
    for name, series in revenue.items():
        print(f"{name:<10} {series.mean():>14.6f} {series.std():>12.6f}")
    return 0


def _gap_curve_svg(sorted_gaps: np.ndarray) -> str:
    """Self-contained SVG polyline of the ascending gap curve."""
    width, height, margin = 640, 400, 50
    n = sorted_gaps.size
    lo = float(min(sorted_gaps.min(), 0.0))
    hi = float(max(sorted_gaps.max(), 0.0))
    if hi == lo:
        hi = lo + 1.0

    xs = margin + (width - 2 * margin) * (np.arange(n) / max(n - 1, 1))

    def sy(v):
        return height - margin - (height - 2 * margin) * ((v - lo) / (hi - lo))

    points = " ".join(map("{:.2f},{:.2f}".format, map(float, xs), map(float, sy(sorted_gaps))))
    zero_y = sy(0.0)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>\n'
        f'<line x1="{margin}" y1="{zero_y:.2f}" x2="{width - margin}" y2="{zero_y:.2f}" '
        f'stroke="#999" stroke-dasharray="4 4"/>\n'
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{points}"/>\n'
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">case rank (sorted by gap)</text>\n'
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14" transform="rotate(-90 16 {height / 2:.0f})">revenue gap</text>\n'
        f'</svg>\n'
    )


def _add_command(sub, name: str, summary: str, func, schema=RUN_SCHEMA, **own) -> None:
    """Declare one subcommand: ``--config``, its own ``--<flag>`` arguments, then its keys."""
    parser = sub.add_parser(name, help=summary)
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    for flag, kwargs in own.items():
        parser.add_argument(f"--{flag}", **kwargs)
    for key, field in schema.items():
        parser.add_argument(f"--{key.replace('_', '-')}", metavar="V", help=field.metadata["help"])
    parser.set_defaults(func=func, schema=schema)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="myerson-airnet",
        description="Learned-auction experiments for aerial data collection.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "train", "train a learned auction and save a checkpoint", _cmd_train)
    _add_command(sub, "revenue-gap", "compare a checkpoint against second-price on fresh cases",
                 _cmd_revenue_gap, checkpoint=dict(metavar="PATH", required=True),
                 svg=dict(action="store_true", help="also write a gap-curve SVG"))
    _add_command(sub, "simulate", "run one collection episode and log it", _cmd_simulate,
                 SCHEMA, checkpoint=dict(metavar="PATH"),
                 mechanism=dict(choices=("dla", "spa"), default="dla"),
                 events=dict(metavar="PATH", help="also write a JSONL event stream"))
    _add_command(sub, "eval", "mean revenue of dla, spa, and the analytic optimum", _cmd_eval,
                 checkpoint=dict(metavar="PATH", required=True),
                 samples=dict(type=int, default=10_000))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # An overflowing slope is a valid net: its transforms are +-inf, not warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = build_config(args.config, {name: getattr(args, name) for name in args.schema})
            return args.func(args, cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, EpisodeExhaustedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
